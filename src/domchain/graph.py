"""Immutable labeled simple graphs backed by per-vertex adjacency bitmasks.

Vertices are labeled 0..n-1.  Each vertex carries an adjacency bitmask
(a Python int, so width is unbounded).  All surgery operations are pure:
they return a new Graph and never mutate the receiver, which makes Graph
values safe to share and usable as dict keys for memoization.  Deleting
vertices closes the remaining labels up in order, and one rule does it for
every surgery that drops vertices (`delete_vertices`, `induced`,
`delete_closed_neighborhood`, `contract_vertex`, `coalesce`): `_cut` keeps the
rows outside a drop mask and cuts each maximal run of dropped labels out of
them in one shift, highest run first.
"""
from __future__ import annotations

from typing import Iterable, Iterator


class EdgeListParseError(ValueError):
    """Raised on malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        # Trusted constructor: adj must already be a symmetric, loop-free
        # bitmask tuple.  Use from_edges() to build from untrusted input.
        self.n = n
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    # -- basic queries ----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed(self, v: int) -> int:
        """Closed-neighborhood bitmask N[v]."""
        return self.adj[v] | (1 << v)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield u, v

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return _bits(self.adj[v])

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex id {v} out of range for n={self.n}")

    # -- surgery ------------------------------------------------------------

    def _mask(self, ids: Iterable[int]) -> int:
        """Bitmask of `ids`, each checked to be a vertex."""
        mask = 0
        for v in ids:
            self._check_vertex(v)
            mask |= 1 << v
        return mask

    def _cut(self, drop: int) -> "Graph":
        """The graph on the vertices outside the mask `drop`, labels closed up in order."""
        adj = [self.adj[v] for v in _bits(self.full_mask & ~drop)]
        while drop:  # one shift per maximal run, highest first, so lower bits keep their place
            top = drop.bit_length()
            lo = (~drop & (1 << top) - 1).bit_length()  # the run is lo..top-1
            low = (1 << lo) - 1
            adj = [m & low | m >> top - lo & ~low for m in adj]
            drop &= low
        return Graph(len(adj), tuple(adj))

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on the ids in `keep`, relabeled in label order."""
        return self._cut(self.full_mask & ~self._mask(keep))

    def delete_vertices(self, s: Iterable[int]) -> "Graph":
        """G - s; the kept vertices close up their labels in order."""
        return self._cut(self._mask(s))

    def delete_closed_neighborhood(self, u: int) -> "Graph":
        """G - N[u]."""
        self._check_vertex(u)
        return self._cut(self.closed(u))

    def contract_vertex(self, u: int) -> "Graph":
        """Join all pairs of N(u), then delete u (the G/u of deletion-style recurrences)."""
        self._check_vertex(u)
        nbrs = self.adj[u]
        adj = list(self.adj)
        for v in _bits(nbrs):
            adj[v] |= nbrs & ~(1 << v)
        return Graph(self.n, tuple(adj))._cut(1 << u)

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph(self.n, tuple(adj))

    def append_pendant(self, v: int) -> "Graph":
        """Add a new degree-1 vertex (label n) adjacent only to v."""
        return coalesce(self, v, path_graph(2), 0)

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 and g2 side by side; g2's labels shifted up by g1.n."""
    shift = g1.n
    adj = list(g1.adj) + [m << shift for m in g2.adj]
    return Graph(g1.n + g2.n, tuple(adj))


def coalesce(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Disjoint union with v1 and v2 identified (neighbor sets merged).

    The merged vertex keeps label v1; the remaining g2 vertices follow
    g1's in their original relative order.
    """
    g1._check_vertex(v1)
    g2._check_vertex(v2)
    w = g1.n + v2  # v2 in the disjoint union: v1 takes over its edges, then it goes
    adj = [m | (m >> w & 1) << v1 for m in disjoint_union(g1, g2).adj]
    adj[v1] |= adj[w]
    return Graph(len(adj), tuple(adj))._cut(1 << w)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of connected components, each sorted, in order of smallest vertex."""
    seen = 0
    comps = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        frontier = 1 << v
        comp = frontier
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        comps.append(_bits(comp))
    return comps


# -- small standard graphs (test fixtures and recursion bases) -------------

def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# -- edge-list text format -------------------------------------------------
#
# First meaningful line: "n m".  Then m lines "u v" with 0-based vertex ids.
# Blank lines and lines starting with '#' are ignored.  A header n above
# MAX_EDGE_LIST_VERTICES is rejected before anything is allocated for it.

MAX_EDGE_LIST_VERTICES = 10_000


def parse_edge_list(text: str) -> Graph:
    """The graph of edge-list text; the rows are built as the edges are read."""
    header = None
    found = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise EdgeListParseError(line_no, f"expected header 'n m', got {line!r}")
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise EdgeListParseError(line_no, f"non-integer header field in {line!r}")
            if header[0] < 0 or header[1] < 0:
                raise EdgeListParseError(line_no, "negative count in header")
            if header[0] > MAX_EDGE_LIST_VERTICES:
                raise EdgeListParseError(
                    line_no, f"header declares {header[0]} vertices, limit is {MAX_EDGE_LIST_VERTICES}")
            adj = [0] * header[0]
            continue
        if len(fields) != 2:
            raise EdgeListParseError(line_no, f"expected edge 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer vertex id in {line!r}")
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(line_no, f"vertex id out of range [0,{n}) in {line!r}")
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise EdgeListParseError(line_no, f"duplicate edge ({u},{v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        found += 1
    if header is None:
        raise EdgeListParseError(1, "empty input: missing 'n m' header")
    if found != header[1]:
        raise EdgeListParseError(1, f"header declares {header[1]} edges, found {found}")
    return Graph(header[0], tuple(adj))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out
