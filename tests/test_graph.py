import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from domchain import families
from domchain.families import attach_gadget
from domchain.graph import (
    MAX_EDGE_LIST_VERTICES,
    EdgeListParseError,
    Graph,
    coalesce,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    format_edge_list,
    parse_edge_list,
    path_graph,
)


def _is_valid(g: Graph) -> bool:
    if len(g.adj) != g.n:
        return False
    for u in range(g.n):
        if g.adj[u] >> u & 1:
            return False  # self-loop
        if g.adj[u] >> g.n:
            return False  # out-of-range bit
        for v in g.neighbors(u):
            if not (g.adj[v] >> u & 1):
                return False  # asymmetric
    return True


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edge_count() == 2
        assert g.neighbors(1) == [0, 2]
        assert g.degree(1) == 2 and g.degree(0) == 1

    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(-1, [])

    def test_zero_vertex_graph(self):
        g = Graph.from_edges(0, [])
        assert g.n == 0 and g.full_mask == 0
        assert list(g.edges()) == []

    def test_standard_graphs(self):
        assert complete_graph(4).edge_count() == 6
        assert path_graph(5).edge_count() == 4
        assert cycle_graph(5).edge_count() == 5
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_closed_neighborhood_mask(self):
        g = path_graph(3)
        assert g.closed(1) == 0b111
        assert g.closed(0) == 0b011


class TestSurgery:
    def test_contract_vertex_c4_gives_k3(self):
        h = cycle_graph(4).contract_vertex(0)
        assert h.n == 3
        assert h.edge_count() == 3
        assert all(h.degree(v) == 2 for v in range(3))

    def test_contract_pendant_is_deletion(self):
        g = path_graph(2)
        h = g.contract_vertex(1)
        assert h.n == 1 and h.edge_count() == 0

    def test_delete_vertices_relabels(self):
        g = path_graph(4)
        h = g.delete_vertices([1])
        assert h.n == 3
        assert h.has_edge(1, 2)  # old (2,3)
        assert not h.has_edge(0, 1)

    @pytest.mark.parametrize("surgery,arg", [
        ("delete_closed_neighborhood", 3), ("delete_closed_neighborhood", -1),
        ("contract_vertex", -1), ("induced", [5]), ("induced", [1, -1]), ("delete_vertices", [3])])
    def test_out_of_range_vertex_refused(self, surgery, arg):
        with pytest.raises(ValueError, match=r"^vertex id -?\d out of range for n=3$"):
            getattr(path_graph(3), surgery)(arg)

    def test_induced_collapses_duplicate_ids(self):
        assert path_graph(3).induced([0, 0]) == path_graph(1)
        assert path_graph(4).induced([3, 2, 2]) == path_graph(2)

    def test_delete_closed_neighborhood(self):
        g = path_graph(5)
        h = g.delete_closed_neighborhood(2)
        assert h.n == 2 and h.edge_count() == 0

    def test_delete_edge(self):
        g = cycle_graph(4)
        h = g.delete_edge(0, 1)
        assert h.edge_count() == 3
        with pytest.raises(ValueError):
            h.delete_edge(0, 1)

    def test_append_pendant(self):
        g = cycle_graph(3).append_pendant(1)
        assert g.n == 4
        assert g.degree(3) == 1 and g.has_edge(1, 3)

    def test_operations_are_pure(self):
        g = cycle_graph(4)
        before = (g.n, g.adj)
        g.contract_vertex(0)
        g.delete_edge(0, 1)
        g.delete_vertices([2])
        g.append_pendant(3)
        assert (g.n, g.adj) == before

    def test_disjoint_union(self):
        g = disjoint_union(path_graph(2), cycle_graph(3))
        assert g.n == 5 and g.edge_count() == 4
        assert connected_components(g) == [[0, 1], [2, 3, 4]]

    def test_coalesce(self):
        g = coalesce(cycle_graph(3), 2, cycle_graph(3), 0)
        assert g.n == 5 and g.edge_count() == 6
        assert g.degree(2) == 4

    def test_connected_components_isolated(self):
        g = Graph.from_edges(4, [(1, 2)])
        assert connected_components(g) == [[0], [1, 2], [3]]

    def test_equality_and_hash(self):
        a = path_graph(3)
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != cycle_graph(3)
        assert len({a, b}) == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 10))
def test_random_surgery_preserves_invariants(seed, n):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = Graph.from_edges(n, edges)
    for _ in range(6):
        if g.n == 0:
            break
        op = rng.randrange(5)
        v = rng.randrange(g.n)
        if op == 0:
            g = g.delete_vertices([v])
        elif op == 1:
            g = g.contract_vertex(v)
        elif op == 2:
            g = g.append_pendant(v)
        elif op == 3:
            g = g.delete_closed_neighborhood(v)
        else:
            es = list(g.edges())
            if es:
                g = g.delete_edge(*rng.choice(es))
        assert _is_valid(g)


# gadget edge lists in local labels (0: the attachment vertex), written out
# here so the glued labels are checked against data independent of families.py
_GADGET_EDGES = {
    "pendant": [(0, 1)],
    "triangle": [(0, 1), (1, 2), (2, 0)],
    "pendant_path": [(0, 1), (1, 2)],
    "two_pendants": [(0, 1), (0, 2)],
    "diamond": [(0, 1), (1, 2), (2, 0), (0, 3), (2, 3)],
}


def _glued(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """g2 glued onto g1 by from_edges: v2 becomes v1, the other g2 vertices
    follow g1's in their original order."""
    others = [w for w in range(g2.n) if w != v2]
    label = {v2: v1, **{w: g1.n + i for i, w in enumerate(others)}}
    return Graph.from_edges(g1.n + len(others),
                            [*g1.edges(), *((label[a], label[b]) for a, b in g2.edges())])


@st.composite
def _small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


class TestGluedLabels:
    @settings(max_examples=80, deadline=None)
    @given(g1=_small_graphs(), g2=_small_graphs(), data=st.data())
    def test_coalesce(self, g1, g2, data):
        v1 = data.draw(st.integers(0, g1.n - 1))
        v2 = data.draw(st.integers(0, g2.n - 1))
        assert coalesce(g1, v1, g2, v2) == _glued(g1, v1, g2, v2)

    @settings(max_examples=40, deadline=None)
    @given(g=_small_graphs(), data=st.data())
    def test_append_pendant_and_gadgets(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        assert g.append_pendant(v) == _glued(g, v, path_graph(2), 0)
        assert set(families._GADGETS) == set(_GADGET_EDGES)
        for kind, edges in _GADGET_EDGES.items():
            gadget = Graph.from_edges(max(map(max, edges)) + 1, edges)
            assert attach_gadget(g, v, kind) == _glued(g, v, gadget, 0)


def _deleted(g: Graph, drop: set[int]) -> Graph:
    """g without `drop` by from_edges: the kept vertices close up in order."""
    label = {v: i for i, v in enumerate(w for w in range(g.n) if w not in drop)}
    return Graph.from_edges(len(label), [(label[a], label[b]) for a, b in g.edges()
                                         if a in label and b in label])


class TestSurgeryLabels:
    @settings(max_examples=80, deadline=None)
    @given(g=_small_graphs(max_n=9), data=st.data())
    def test_deletions_match_relabel_reference(self, g, data):
        drop = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n + 2))
        assert g.delete_vertices(drop) == _deleted(g, set(drop))
        keep = sorted(data.draw(st.sets(st.integers(0, g.n - 1))))
        assert g.induced(keep) == _deleted(g, set(range(g.n)) - set(keep))

    @settings(max_examples=80, deadline=None)
    @given(g=_small_graphs(max_n=9), data=st.data())
    def test_neighborhood_surgery_matches_relabel_reference(self, g, data):
        u = data.draw(st.integers(0, g.n - 1))
        nbrs = g.neighbors(u)
        assert g.delete_closed_neighborhood(u) == _deleted(g, {u, *nbrs})
        joined = Graph.from_edges(g.n, [*g.edges(), *((a, b) for a in nbrs for b in nbrs if a < b)])
        assert g.contract_vertex(u) == _deleted(joined, {u})


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = cycle_graph(5).append_pendant(0)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks(self):
        g = parse_edge_list("# graph\n\n3 2\n# edges\n0 1\n\n1 2\n")
        assert g == path_graph(3)

    def test_zero_vertices(self):
        assert parse_edge_list("0 0\n").n == 0

    def test_rows_are_built_while_reading(self, monkeypatch):
        want = path_graph(3)

        def refuse(*args):
            raise AssertionError("parse_edge_list rebuilt the graph from an edge list")
        monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))
        assert parse_edge_list("3 2\n0 1\n1 2\n") == want

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("3\n", 1),
        ("3 x\n", 1),
        ("3 2\n0 1\n0 1\n", 3),
        ("3 2\n0 1\n1 0\n", 3),
        ("3 1\n1 1\n", 2),
        ("3 1\n0 3\n", 2),
        ("3 1\n0 a\n", 2),
        ("3 1\n0 1 2\n", 2),
        ("3 2\n0 1\n", 1),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(EdgeListParseError) as ei:
            parse_edge_list(text)
        assert ei.value.line_no == line
        assert f"line {line}:" in str(ei.value)

    @pytest.mark.parametrize("text", ["-1 0\n", "3 -1\n"])
    def test_negative_header_count(self, text):
        with pytest.raises(EdgeListParseError, match="^line 1: negative count in header$"):
            parse_edge_list(text)

    def test_header_vertex_bound(self):
        limit = MAX_EDGE_LIST_VERTICES
        assert parse_edge_list(f"{limit} 0\n").n == limit
        with pytest.raises(EdgeListParseError) as ei:
            parse_edge_list(f"# huge\n{limit + 1} 0\n")
        assert ei.value.line_no == 2 and "limit" in str(ei.value)

    def test_huge_header_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(EdgeListParseError):
            parse_edge_list("1000000000 0\n")
        assert time.perf_counter() - start < 0.5
