import random
import time

import pytest
from hypothesis import given, settings, strategies as st

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


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = cycle_graph(5).append_pendant(0)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks(self):
        g = parse_edge_list("# graph\n\n3 2\n# edges\n0 1\n\n1 2\n")
        assert g == path_graph(3)

    def test_zero_vertices(self):
        assert parse_edge_list("0 0\n").n == 0

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("3\n", 1),
        ("3 x\n", 1),
        ("3 2\n0 1\n0 1\n", 3),
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
