"""General-graph recurrence evaluators, cross-checkable against the oracle.

Vertex route:   D(G) = x*D(G/u) + D(G-u) + x*D(G-N[u]) - (1+x)*p_u(G)
Edge route:     D(G) = D(G-e) + x/(x-1) * [eight-term bracket]
Product route:  D(G) = product of D over connected components.

The x/(x-1) factor never leaves the integers: the bracket is divisible by
(x-1), which is asserted on every call.  These evaluators are exponential in
the worst case; their job is validation, not speed.  Every call memoizes the
subgraphs it evaluates by value, leaves included: in `memo` when given, else
in a fresh dict.

Graphs of at most LEAF_ORDER vertices go to the oracle.  Above it the product
route comes first: a disconnected graph is the product of its components, each
evaluated and memoized on its own, so a component that G-u or G-N[u] splits off
is met again as a memo hit beside whatever other parts it comes with.  Only a
connected graph takes a vertex step, except the first graph of each route (the
input of vertex_recurrence, G-e of edge_recurrence): it takes its first step
whole, so its cap and depth bound are checked before anything splits.

Each vertex step removes a vertex and costs two stack frames.  A split costs
two as well, its graph's and the product's, and each component has at least
one vertex fewer than its graph, so the recursion still takes at most two
frames per removed vertex.  A graph of more than
(sys.getrecursionlimit() - 40) // 2 + LEAF_ORDER vertices (490 at the default
limit; 40 frames stay for the caller and the leaf) is refused before it recurses.
"""
from __future__ import annotations

import sys

from . import oracle
from .graph import Graph, connected_components
from .poly import DomPoly

LEAF_ORDER = 10  # read at call time, so tests may patch it

_X = DomPoly.x()
_ONE_PLUS_X = DomPoly((1, 1))


def max_degree_vertex(g: Graph) -> int:
    """Pivot policy: maximum degree, lowest label on ties."""
    return max(range(g.n), key=lambda v: (g.degree(v), -v))


def _pivot_edge(g: Graph) -> tuple[int, int]:
    if not g.edge_count():
        raise ValueError("graph has no edges")
    u = max_degree_vertex(g)
    v = max(g.neighbors(u), key=lambda w: (g.degree(w), -w))
    return u, v


def _eval(g: Graph, cap: int | None, memo: dict) -> DomPoly:
    if g not in memo:
        if g.n <= LEAF_ORDER:
            memo[g] = oracle.domination_polynomial(g, cap=cap)
        else:
            comps = connected_components(g)
            memo[g] = (_product(g, comps, cap, memo) if len(comps) > 1
                       else _apply_vertex(g, max_degree_vertex(g), cap, memo))
    return memo[g]


def _product(g: Graph, comps: list[list[int]], cap: int | None, memo: dict) -> DomPoly:
    result = DomPoly.one()
    for comp in comps:  # a plain loop: one frame per split, as the depth bound counts
        result = result * _eval(g.induced(comp), cap, memo)
    return result


def _apply_vertex(g: Graph, u: int, cap: int | None, memo: dict) -> DomPoly:
    # p_u first: on a graph too large for it, the cap refuses before any recursion
    p_u = oracle.restricted_polynomial(g, u, cap=cap)
    bound = (sys.getrecursionlimit() - 40) // 2 + LEAF_ORDER  # see the module docstring
    if g.n > bound:
        raise ValueError(f"graph has {g.n} vertices, the general recurrences take at most {bound}")
    contracted = _eval(g.contract_vertex(u), cap, memo)
    deleted = _eval(g.delete_vertices([u]), cap, memo)
    closed_deleted = _eval(g.delete_closed_neighborhood(u), cap, memo)
    return _X * contracted + deleted + _X * closed_deleted - _ONE_PLUS_X * p_u


def vertex_recurrence(
    g: Graph,
    u: int | None = None,
    *,
    cap: int | None = None,
    memo: dict | None = None,
) -> DomPoly:
    """D(G,x) via one application of the vertex identity at u (default: pivot policy)."""
    if u is None:
        if g.n == 0:
            return DomPoly.one()
        u = max_degree_vertex(g)
    return _apply_vertex(g, u, cap, {} if memo is None else memo)


def edge_recurrence_bracket(
    g: Graph,
    u: int,
    v: int,
    *,
    cap: int | None = None,
    memo: dict | None = None,
) -> tuple[DomPoly, DomPoly]:
    """(D(G-e), bracket sum S) for e={u,v}; S must vanish at x=1."""
    ge = g.delete_edge(u, v)
    memo = {} if memo is None else memo

    def ev(h: Graph) -> DomPoly:
        return _eval(h, cap, memo)

    # the largest of the nine graphs takes its first step whole (see the module docstring)
    if ge.n > LEAF_ORDER and ge not in memo:
        memo[ge] = _apply_vertex(ge, max_degree_vertex(ge), cap, memo)
    minus_e = ev(ge)
    s = (
        ev(ge.contract_vertex(u))
        + ev(ge.contract_vertex(v))
        - ev(g.contract_vertex(u))
        - ev(g.contract_vertex(v))
        - ev(g.delete_closed_neighborhood(u))
        - ev(g.delete_closed_neighborhood(v))
        + ev(ge.delete_closed_neighborhood(u))
        + ev(ge.delete_closed_neighborhood(v))
    )
    return minus_e, s


def edge_recurrence(
    g: Graph,
    u: int | None = None,
    v: int | None = None,
    *,
    cap: int | None = None,
    memo: dict | None = None,
) -> DomPoly:
    """D(G,x) via the edge identity at e={u,v} (default: edge at the pivot vertex)."""
    if (u is None) != (v is None):
        raise ValueError("give both endpoints u and v, or neither")
    if u is None:
        u, v = _pivot_edge(g)
    minus_e, bracket = edge_recurrence_bracket(g, u, v, cap=cap, memo=memo)
    # x/(x-1) * S == exact-div(x*S, x-1); divisibility is part of the contract
    quotient = (bracket * _X).divide_exact_by_x_minus_1()
    return minus_e + quotient


def components_product(
    g: Graph,
    *,
    cap: int | None = None,
    memo: dict | None = None,
) -> DomPoly:
    """D(G,x) as the product over connected components (empty product = 1)."""
    return _product(g, connected_components(g), cap, {} if memo is None else memo)
