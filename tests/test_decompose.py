import random
import signal
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from domchain import decompose, oracle
from domchain.families import t_polynomial, triangle_chain
from domchain.graph import (
    Graph, complete_graph, connected_components, cycle_graph, disjoint_union, path_graph)
from domchain.poly import DomPoly
from conftest import random_connected_graph, random_disconnected_graph


class TestVertexRecurrence:
    def test_zero_vertex_graph(self):
        assert decompose.vertex_recurrence(Graph.from_edges(0, [])) == DomPoly.one()

    def test_matches_oracle_at_every_pivot(self):
        g = cycle_graph(5).append_pendant(2)
        want = oracle.domination_polynomial(g)
        for u in range(g.n):
            assert decompose.vertex_recurrence(g, u) == want

    def test_matches_oracle_random(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(4, 11))
            assert decompose.vertex_recurrence(g) == oracle.domination_polynomial(g)

    def test_recurses_above_leaf_threshold(self, rng, monkeypatch):
        monkeypatch.setattr(decompose, "LEAF_ORDER", 6)
        g = random_connected_graph(rng, 13)
        got = decompose.vertex_recurrence(g, memo={})
        assert got == oracle.domination_polynomial(g)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            decompose.vertex_recurrence(path_graph(3), 5)

    def test_vertex_out_of_range_on_empty_graph(self):
        # the empty-graph shortcut serves only the default pivot, never a stated u
        with pytest.raises(ValueError, match="^vertex id 3 out of range for n=0$"):
            decompose.vertex_recurrence(Graph(0, ()), 3)

    def test_pivot_policy_prefers_degree_then_low_label(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert decompose.max_degree_vertex(g) == 1  # tie between 1 and 2


class TestEdgeRecurrence:
    def test_matches_oracle_at_every_edge(self):
        g = cycle_graph(4).append_pendant(0)
        want = oracle.domination_polynomial(g)
        for u, v in g.edges():
            assert decompose.edge_recurrence(g, u, v) == want

    def test_bracket_vanishes_at_one(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(4, 10))
            u, v = next(g.edges())
            _, bracket = decompose.edge_recurrence_bracket(g, u, v)
            assert bracket.eval_at(1) == 0

    def test_matches_oracle_random(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(4, 11))
            assert decompose.edge_recurrence(g) == oracle.domination_polynomial(g)

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            decompose.edge_recurrence(path_graph(4), 0, 3)

    @pytest.mark.parametrize("u,v", [(3, None), (None, 2)])
    def test_one_endpoint_rejected(self, u, v):
        # the pivot edge of C_5 is (0, 1), so neither call may fall back to it
        with pytest.raises(ValueError, match="^give both endpoints u and v, or neither$"):
            decompose.edge_recurrence(cycle_graph(5), u, v)

    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless_graph_rejected(self, n):
        with pytest.raises(ValueError, match="^graph has no edges$"):
            decompose.edge_recurrence(Graph.from_edges(n, []))


class TestComponentsProduct:
    def test_empty_graph_gives_one(self):
        assert decompose.components_product(Graph.from_edges(0, [])) == DomPoly.one()

    def test_two_known_components(self):
        g = disjoint_union(cycle_graph(4), path_graph(3))
        want = DomPoly((0, 0, 6, 4, 1)) * DomPoly((0, 1, 3, 1))
        assert decompose.components_product(g) == want
        assert oracle.domination_polynomial(g) == want

    def test_matches_oracle_random(self, rng):
        for _ in range(10):
            g = random_disconnected_graph(rng)
            assert decompose.components_product(g) == oracle.domination_polynomial(g)

    def test_isolated_vertices(self):
        g = Graph.from_edges(3, [])
        assert decompose.components_product(g) == DomPoly((0, 0, 0, 1))

    def test_many_components_in_linear_time(self):
        # each component is cut out of the n-bit rows in a few shifts, so 3000
        # isolated vertices take a fraction of a second, not a quadratic number of deletions
        g = Graph.from_edges(3000, [])

        def expire(signum, frame):
            raise TimeoutError("components_product of 3000 isolated vertices took over 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 2)
        try:
            assert decompose.components_product(g) == DomPoly.monomial(1, 3000)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestMemo:
    def test_shared_memo_is_reused_and_consistent(self, rng, monkeypatch):
        monkeypatch.setattr(decompose, "LEAF_ORDER", 6)
        g = random_connected_graph(rng, 12)
        memo = {}
        first = decompose.vertex_recurrence(g, memo=memo)
        assert memo  # something was cached
        size = len(memo)
        second = decompose.vertex_recurrence(g, memo=memo)
        assert first == second == oracle.domination_polynomial(g)
        assert len(memo) == size

    @pytest.mark.parametrize("evaluate", [
        decompose.vertex_recurrence, decompose.edge_recurrence, decompose.components_product])
    def test_calls_without_memo_are_memoized(self, monkeypatch, evaluate):
        # a cycle's recursion meets the same paths again and again
        g = cycle_graph(14)
        calls = []
        restricted = oracle.restricted_polynomial
        monkeypatch.setattr(decompose, "LEAF_ORDER", 6)
        monkeypatch.setattr(oracle, "restricted_polynomial",
                            lambda *a, **kw: calls.append(1) or restricted(*a, **kw))
        without = evaluate(g)
        n_without = len(calls)
        calls.clear()
        assert evaluate(g, memo={}) == without
        assert n_without == len(calls) > 0

    def test_no_leaf_is_scanned_twice(self, monkeypatch):
        g = cycle_graph(14)
        want = oracle.domination_polynomial(g)
        scanned = []
        scan = oracle.domination_polynomial
        monkeypatch.setattr(decompose, "LEAF_ORDER", 6)
        monkeypatch.setattr(oracle, "domination_polynomial",
                            lambda h, **kw: scanned.append(h) or scan(h, **kw))
        assert decompose.vertex_recurrence(g) == want
        assert scanned and len(scanned) == len(set(scanned))


class TestSplit:
    """A disconnected graph below the top call is the product of its memoized components."""

    def test_second_copy_of_a_component_is_a_memo_hit(self, monkeypatch):
        # at u = 0 of P_2 + C_12 + C_12, G/u and G-u are K_1 + C_12 + C_12 and G-N[u] is
        # C_12 + C_12: one C_12 is evaluated, every other copy is found in the memo
        calls = []
        restricted = oracle.restricted_polynomial
        monkeypatch.setattr(decompose, "LEAF_ORDER", 6)
        monkeypatch.setattr(oracle, "restricted_polynomial",
                            lambda *a, **kw: calls.append(1) or restricted(*a, **kw))
        decompose.vertex_recurrence(cycle_graph(12), memo={})
        one_cycle = len(calls)
        calls.clear()
        g = disjoint_union(path_graph(2), disjoint_union(cycle_graph(12), cycle_graph(12)))
        cycle = oracle.domination_polynomial(cycle_graph(12))
        want = oracle.domination_polynomial(path_graph(2)) * cycle * cycle
        assert decompose.vertex_recurrence(g, 0, memo={}) == want
        assert len(calls) == one_cycle + 1

    @pytest.mark.parametrize("bridge", [False, True])
    def test_first_graph_is_refused_whole_before_it_splits(self, monkeypatch, bridge):
        # the vertex route's input, and G-e of the edge route at the bridge, is K_8 + K_8:
        # its first pivot enumerates the other K_8, past cap 7, though each K_8 alone fits
        monkeypatch.setattr(decompose, "LEAF_ORDER", 6)
        g = disjoint_union(complete_graph(8), complete_graph(8))
        evaluate = decompose.vertex_recurrence
        if bridge:
            g = Graph.from_edges(16, list(g.edges()) + [(0, 8)])
            evaluate = decompose.edge_recurrence
        with pytest.raises(oracle.EnumerationCapError,
                           match="^p_u enumerates 8 of 16 vertices, enumeration cap is 7$"):
            evaluate(g, cap=7)

    def test_vertex_identity_runs_on_connected_graphs_only(self, monkeypatch):
        stepped = []
        apply_vertex = decompose._apply_vertex
        monkeypatch.setattr(decompose, "LEAF_ORDER", 6)
        monkeypatch.setattr(decompose, "_apply_vertex",
                            lambda g, *a: stepped.append(g) or apply_vertex(g, *a))
        memo = {}
        g = cycle_graph(16)
        assert decompose.vertex_recurrence(g, memo=memo) == oracle.domination_polynomial(g)
        assert stepped[0] == g and len(stepped) > 1
        assert all(len(connected_components(h)) == 1 for h in stepped[1:])
        assert any(len(connected_components(h)) > 1 for h in memo)  # splits did happen


class TestCapOnEnumeratedSet:
    """The cap bounds the sets the oracle enumerates, not the input graph."""

    def test_recurrences_past_cap(self):
        g = triangle_chain(6)  # 13 vertices
        assert g.n > 12
        want = t_polynomial(6)
        assert decompose.edge_recurrence(g, cap=12) == want
        assert decompose.vertex_recurrence(g, cap=12) == want

    @pytest.mark.parametrize("evaluate", [
        decompose.vertex_recurrence, decompose.edge_recurrence, decompose.components_product])
    def test_cap_refuses_before_any_leaf(self, monkeypatch, evaluate):
        # T_100 has 201 vertices: p_u at the first pivot is past the cap
        def no_leaf(*args, **kwargs):
            raise AssertionError("a leaf was scanned")

        monkeypatch.setattr(oracle, "domination_polynomial", no_leaf)
        with pytest.raises(oracle.EnumerationCapError):
            evaluate(triangle_chain(100))

    def test_split_components_fit_where_the_whole_graph_did_not(self, monkeypatch):
        # a split component's pivot enumerates fewer vertices than the whole graph's,
        # so at cap 10 this 16-vertex graph computes; without the split it is refused
        g = random_connected_graph(random.Random(140), 16, 0.1)
        want = oracle.domination_polynomial(g, cap=30)
        assert decompose.vertex_recurrence(g, cap=10) == want
        assert decompose.edge_recurrence(g, cap=10) == want
        monkeypatch.setattr(decompose, "connected_components", lambda h: [list(range(h.n))])
        for evaluate in (decompose.vertex_recurrence, decompose.edge_recurrence):
            with pytest.raises(oracle.EnumerationCapError):
                evaluate(g, cap=10)

    def test_oracle_leaf_still_capped(self, monkeypatch):
        monkeypatch.setattr(decompose, "LEAF_ORDER", 13)
        with pytest.raises(oracle.EnumerationCapError):
            decompose.components_product(triangle_chain(6), cap=12)


class TestDepthBound:
    """Graphs too deep for the recursion limit are refused before the recursion starts."""

    @pytest.mark.parametrize("evaluate", [
        decompose.vertex_recurrence, decompose.edge_recurrence, decompose.components_product])
    def test_refused_before_any_recursion(self, monkeypatch, evaluate):
        # K_n passes the cap at every pivot (p_u enumerates nothing), so only the bound stops it
        bound = (sys.getrecursionlimit() - 40) // 2 + decompose.LEAF_ORDER
        g = complete_graph(bound + 1)

        def no_step(*args, **kwargs):
            raise AssertionError("a vertex step recursed")

        monkeypatch.setattr(Graph, "contract_vertex", no_step)
        with pytest.raises(ValueError) as ei:
            evaluate(g)
        assert str(ei.value) == (f"graph has {bound + 1} vertices, "
                                 f"the general recurrences take at most {bound}")


@st.composite
def _graphs(draw, max_n=11, min_n=0):
    """Any simple graph on min_n..max_n vertices: disconnected and isolated vertices included."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


class TestDifferential:
    """The oracle and the three recurrences are independent routes to one polynomial."""

    @settings(max_examples=60, deadline=None)
    @given(g=_graphs(), leaf=st.integers(1, 5))
    def test_all_methods_agree(self, g, leaf):
        want = oracle.domination_polynomial(g)
        with mock.patch.object(decompose, "LEAF_ORDER", leaf):
            assert decompose.vertex_recurrence(g, memo={}) == want
            assert decompose.components_product(g, memo={}) == want
            if g.edge_count():
                assert decompose.edge_recurrence(g, memo={}) == want
            else:
                with pytest.raises(ValueError, match="^graph has no edges$"):
                    decompose.edge_recurrence(g, memo={})

    @settings(max_examples=40, deadline=None)
    @given(g1=_graphs(9, 5), g2=_graphs(9, 5), leaf=st.integers(3, 8))
    def test_unions_agree(self, g1, g2, leaf):
        g = disjoint_union(g1, g2)
        want = oracle.domination_polynomial(g)
        with mock.patch.object(decompose, "LEAF_ORDER", leaf):
            assert decompose.vertex_recurrence(g, memo={}) == want
            assert decompose.components_product(g, memo={}) == want
            if g.edge_count():
                assert decompose.edge_recurrence(g, memo={}) == want
