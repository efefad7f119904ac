import math
from itertools import combinations

import pytest

from domchain import oracle
from domchain.graph import Graph, complete_graph, cycle_graph, path_graph
from domchain.poly import DomPoly
from conftest import random_connected_graph, random_graph


def _binomial_poly(n: int) -> DomPoly:
    """(1+x)^n - 1, the domination polynomial of K_n."""
    return DomPoly([0] + [math.comb(n, k) for k in range(1, n + 1)])


class TestFixtures:
    def test_empty_graph(self):
        assert oracle.domination_polynomial(Graph.from_edges(0, [])) == DomPoly.one()

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        assert oracle.domination_polynomial(g) == DomPoly.x()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_graphs(self, n):
        assert oracle.domination_polynomial(complete_graph(n)) == _binomial_poly(n)

    def test_small_paths_and_cycles(self):
        assert oracle.domination_polynomial(path_graph(3)) == DomPoly((0, 1, 3, 1))
        assert oracle.domination_polynomial(path_graph(4)) == DomPoly((0, 0, 4, 4, 1))
        assert oracle.domination_polynomial(cycle_graph(4)) == DomPoly((0, 0, 6, 4, 1))

    def test_star(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert oracle.domination_polynomial(g) == DomPoly((0, 1, 3, 4, 1))

    def test_isolated_vertex_forces_membership(self):
        g = Graph.from_edges(3, [(0, 1)])
        # vertex 2 is isolated: every dominating set contains it
        assert oracle.domination_polynomial(g) == DomPoly((0, 0, 2, 1))

    def test_table_matches_polynomial(self):
        g = cycle_graph(6)
        table = oracle.domination_table(g)
        assert DomPoly(table) == oracle.domination_polynomial(g)
        assert len(table) == g.n + 1


class TestCap:
    def test_cap_error_carries_sizes(self):
        g = Graph.from_edges(10, [])
        with pytest.raises(oracle.EnumerationCapError) as ei:
            oracle.domination_polynomial(g, cap=8)
        assert ei.value.n == 10 and ei.value.cap == 8

    def test_hard_cap(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            oracle.domination_polynomial(g, cap=31)

    def test_default_cap_allows_24(self):
        assert oracle.DEFAULT_CAP == 24 and oracle.HARD_CAP == 30
        oracle.domination_number(path_graph(3), cap=24)


class TestCounting:
    def test_count_equals_eval_at_one(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 10))
            p = oracle.domination_polynomial(g)
            assert oracle.count_dominating_sets(g) == p.eval_at(1)

    def test_domination_number_matches_gamma(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(1, 10))
            p = oracle.domination_polynomial(g)
            assert oracle.domination_number(g) == p.gamma()

    def test_domination_number_empty(self):
        assert oracle.domination_number(Graph.from_edges(0, [])) == 0


class TestRestricted:
    def _restricted_brute(self, g, u):
        forbidden = set(g.neighbors(u)) | {u}
        h = g.delete_vertices([u])
        keep = [v for v in range(g.n) if v != u]
        counts = [0] * (h.n + 1)
        allowed = [i for i, v in enumerate(keep) if v not in forbidden]
        full = h.full_mask
        for r in range(len(allowed) + 1):
            for combo in combinations(allowed, r):
                m = 0
                for v in combo:
                    m |= h.closed(v)
                if m == full:
                    counts[r] += 1
        return DomPoly(counts)

    def test_against_direct_enumeration(self, rng):
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 9))
            u = rng.randrange(g.n)
            assert oracle.restricted_polynomial(g, u) == self._restricted_brute(g, u)

    def test_pendant_case(self):
        # removing a pendant's support vertex isolates it
        g = path_graph(2)
        assert oracle.restricted_polynomial(g, 0) == DomPoly.zero()
