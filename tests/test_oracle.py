import math
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
        with pytest.raises(ValueError, match="cap -1 is outside the hard safety limits 0..30"):
            oracle.domination_polynomial(g, cap=-1)

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


def _brute_table(closed: list[int], target: int) -> list[int]:
    """Subsets of `closed` whose union covers `target`, counted by size."""
    counts = [0] * (len(closed) + 1)
    for r in range(len(closed) + 1):
        for combo in combinations(closed, r):
            m = 0
            for c in combo:
                m |= c
            if m & target == target:
                counts[r] += 1
    return counts


def _restricted_brute(g: Graph, u: int) -> DomPoly:
    forbidden = set(g.neighbors(u)) | {u}
    h = g.delete_vertices([u])
    keep = [v for v in range(g.n) if v != u]
    allowed = [i for i, v in enumerate(keep) if v not in forbidden]
    return DomPoly(_brute_table([h.closed(v) for v in allowed], h.full_mask))


class TestRestricted:
    def test_against_direct_enumeration(self, rng):
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 9))
            u = rng.randrange(g.n)
            assert oracle.restricted_polynomial(g, u) == _restricted_brute(g, u)

    def test_pendant_case(self):
        # removing a pendant's support vertex isolates it
        g = path_graph(2)
        assert oracle.restricted_polynomial(g, 0) == DomPoly.zero()

    def test_uncoverable_target_builds_no_table(self, monkeypatch):
        # triangle 0-1-2 with pendant 3 on 0: at u = 0 no vertex is allowed, so
        # nothing covers 1, 2 or 3 and the scan returns before tabulating
        def no_table(bits):
            raise AssertionError("the scan built a subset table")

        monkeypatch.setattr(oracle, "_popcount_order", no_table)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        assert oracle.restricted_polynomial(g, 0) == DomPoly.zero()

    @pytest.mark.parametrize("spokes", [40, 70])
    def test_wide_graph_small_enumeration(self, spokes):
        # u = 0 sees every spoke a_i; the allowed set is the five hubs b_j,
        # so G has 46 or 76 vertices while only 2^5 subsets are enumerated.
        hubs = range(spokes + 1, spokes + 6)
        edges = [(0, a) for a in range(1, spokes + 1)]
        edges += [(a, hubs[a % 5]) for a in range(1, spokes + 1)]
        g = Graph.from_edges(spokes + 6, edges)
        p = oracle.restricted_polynomial(g, 0, cap=5)
        assert p == _restricted_brute(g, 0) == DomPoly.monomial(1, 5)


@st.composite
def _split_graphs(draw):
    """Random graphs, stars and complete graphs, with isolated vertices added."""
    kind = draw(st.sampled_from(["random", "star", "complete"]))
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "random":
        edges = [e for e in pairs if draw(st.booleans())]
    elif kind == "star":
        centre = draw(st.integers(0, max(n - 1, 0)))
        edges = [(min(centre, v), max(centre, v)) for v in range(n) if v != centre]
    else:
        edges = pairs
    isolated = draw(st.integers(0, 12 - n))
    return Graph.from_edges(n + isolated, edges)


class TestLowHighSplit:
    """The grouped high-half path, forced onto small graphs by shrinking the low table."""

    @settings(max_examples=150, deadline=None)
    @given(g=_split_graphs(), low_bits=st.integers(0, 5), data=st.data())
    def test_entry_points_match_brute_force(self, g, low_bits, data):
        table = _brute_table([g.closed(v) for v in range(g.n)], g.full_mask)
        with mock.patch.object(oracle, "_LOW_BITS", low_bits):
            assert oracle.domination_table(g, cap=12) == table
            assert oracle.count_dominating_sets(g, cap=12) == sum(table)
            assert oracle.domination_number(g, cap=12) == next(k for k, c in enumerate(table) if c)
            if g.n:
                u = data.draw(st.integers(0, g.n - 1))
                assert oracle.restricted_polynomial(g, u, cap=12) == _restricted_brute(g, u)

    @settings(max_examples=150, deadline=None)
    @given(closed=st.lists(st.integers(0, (1 << 70) - 1), max_size=10),
           target=st.sampled_from([0, (1 << 5) - 1, (1 << 30) - 1, (1 << 40) - 1, (1 << 70) - 1]),
           low_bits=st.integers(0, 5))
    def test_scan_of_arbitrary_masks(self, closed, target, low_bits):
        # masks may hold bits outside the target; wide targets need wider words
        closed = [m & (target | target << 1) for m in closed]
        with mock.patch.object(oracle, "_LOW_BITS", low_bits):
            assert oracle._scan(closed, target).tolist() == _brute_table(closed, target)

    @pytest.mark.parametrize("low_bits", range(6))
    def test_star_centre_on_either_side(self, low_bits):
        # the high half takes leaves first, then the centre once at most one
        # candidate is left for the low table (low_bits 0 and 1)
        g = Graph.from_edges(12, [(0, v) for v in range(1, 12)])
        want = [0] + [math.comb(11, k - 1) for k in range(1, 13)]
        want[11] += 1  # all eleven leaves
        with mock.patch.object(oracle, "_LOW_BITS", low_bits):
            assert oracle.domination_table(g) == want


def _path_cycle_polys(start: list[DomPoly], top: int) -> list[DomPoly]:
    """p_n = x(p_{n-1} + p_{n-2} + p_{n-3}) from p_1, p_2, p_3."""
    seq = [None] + start
    while len(seq) <= top:
        seq.append(DomPoly.x() * (seq[-1] + seq[-2] + seq[-3]))
    return seq


class TestRealSplit:
    """Exact families just past the low table's width, and at the hard cap."""

    PATHS = _path_cycle_polys([DomPoly((0, 1)), DomPoly((0, 2, 1)), DomPoly((0, 1, 3, 1))],
                              oracle.HARD_CAP)
    CYCLES = _path_cycle_polys([DomPoly((0, 1)), DomPoly((0, 2, 1)), DomPoly((0, 3, 3, 1))],
                               oracle.HARD_CAP)

    # P_30 and C_30 put the most candidates in the high half that the hard cap allows
    @pytest.mark.parametrize("n", [*range(oracle._LOW_BITS + 1, oracle._LOW_BITS + 5),
                                   oracle.HARD_CAP])
    def test_paths_and_cycles(self, n):
        assert n > oracle._LOW_BITS
        assert oracle.domination_polynomial(path_graph(n), cap=n) == self.PATHS[n]
        assert oracle.domination_polynomial(cycle_graph(n), cap=n) == self.CYCLES[n]

    def test_low_table_is_at_most_low_bits_wide(self, monkeypatch):
        # the per-size int32 sums are exact only while a table holds at most 2^_LOW_BITS
        # subsets; the hard cap's scan asks for a table of exactly that width
        widths = []
        order = oracle._popcount_order

        def recording(bits):
            widths.append(bits)
            return order(bits)

        monkeypatch.setattr(oracle, "_popcount_order", recording)
        for n in (17, oracle.HARD_CAP):
            oracle.domination_table(cycle_graph(n), cap=n)
        assert len(widths) == 2 and max(widths) == oracle._LOW_BITS

    def test_complete_graph(self):
        assert oracle.domination_polynomial(complete_graph(20)) == _binomial_poly(20)

    def test_star(self):
        g = Graph.from_edges(20, [(0, v) for v in range(1, 20)])
        # sets holding the centre, plus the set of all 19 leaves
        want = [0] + [math.comb(19, k - 1) for k in range(1, 21)]
        want[19] += 1
        assert oracle.domination_table(g) == want
        assert oracle.domination_number(g) == 1

    def test_edgeless(self):
        g = Graph.from_edges(20, [])
        assert oracle.domination_polynomial(g) == DomPoly.monomial(1, 20)
        assert oracle.count_dominating_sets(g) == 1
        assert oracle.domination_number(g) == 20
