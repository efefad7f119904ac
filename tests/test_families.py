import pytest

from domchain import families, oracle, verify
from domchain.families import (
    CHAIN_FAMILIES,
    FAMILY_NAMES,
    IDENTITIES,
    attach_gadget,
    build_chain,
    family_order,
    family_polynomial,
    family_polynomials,
    o_polynomial,
    o_stream,
    q_polynomial,
    q_stream,
    t_coefficient_table,
    t_count_sequence,
    t_polynomial,
)
from domchain.graph import complete_graph
from domchain.poly import DomPoly
from conftest import STATED_BASES


class TestConstructors:
    def test_t1_is_triangle(self):
        assert build_chain("T", 1) == complete_graph(3)

    def test_q1_and_o1_are_c4(self):
        for fam in ("Q", "O"):
            g = build_chain(fam, 1)
            assert g.n == 4 and g.edge_count() == 4
            assert all(g.degree(v) == 2 for v in range(4))

    def test_q_and_o_first_diverge_at_three_squares(self):
        # two squares share a single cut vertex, so Q_2 and O_2 are the same
        # graph up to labeling; the middle square of a 3-chain has two cut
        # vertices and the para/ortho distinction kicks in
        assert (oracle.domination_polynomial(build_chain("Q", 2))
                == oracle.domination_polynomial(build_chain("O", 2)))
        assert (oracle.domination_polynomial(build_chain("Q", 3))
                != oracle.domination_polynomial(build_chain("O", 3)))

    def test_chain_cut_vertex_adjacency(self):
        # para: cut vertices of a square non-adjacent; ortho: adjacent
        assert not build_chain("Q", 2).has_edge(0, 3)
        assert build_chain("O", 2).has_edge(0, 3)

    @pytest.mark.parametrize("fam", FAMILY_NAMES)
    def test_vertex_counts(self, fam):
        lo = 1 if fam in ("T", "Q", "O") else 0
        for n in range(lo, lo + 3):
            assert build_chain(fam, n).n == family_order(fam, n)

    def test_gadget_base_graphs(self):
        assert oracle.domination_polynomial(build_chain("Qtri", 0)) == DomPoly((0, 3, 3, 1))
        assert oracle.domination_polynomial(build_chain("Q2", 0)) == DomPoly((0, 1, 3, 1))
        assert oracle.domination_polynomial(build_chain("Qp", 0)) == DomPoly((0, 1, 3, 1))
        assert oracle.domination_polynomial(build_chain("Op", 0)) == DomPoly((0, 2, 6, 4, 1))

    def test_attachment_override(self):
        star = build_chain("Q2", 1, attachment="two_pendants")
        path = build_chain("Q2", 1)
        assert star.n == path.n == 6
        assert star.degree(3) == 4 and path.degree(3) == 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            build_chain("T", 0)
        with pytest.raises(ValueError):
            build_chain("Z", 1)
        with pytest.raises(ValueError):
            build_chain("Q", 1, attachment="pendant")
        assert build_chain("Q+e", 0).n == 2

    def test_plain_chains_take_no_attachment(self):
        for fam in CHAIN_FAMILIES:
            with pytest.raises(ValueError, match="no attachment"):
                build_chain(fam, 2, attachment="pendant")

    def test_unknown_attachment_kind(self):
        with pytest.raises(ValueError, match="unknown attachment"):
            attach_gadget(build_chain("Q", 1), 0, "square")
        with pytest.raises(ValueError, match="unknown attachment"):
            build_chain("Q2", 1, attachment="square")

    @pytest.mark.parametrize("fam", FAMILY_NAMES)
    def test_first_valid_n(self, fam):
        graph_lo = 1 if fam == "T" else 0
        assert build_chain(fam, graph_lo).n == family_order(fam, graph_lo)
        with pytest.raises(ValueError, match=f"graphs start at n = {graph_lo}, got"):
            build_chain(fam, graph_lo - 1)
        rec_lo = 1 if fam in CHAIN_FAMILIES else 0
        assert family_polynomial(fam, rec_lo).degree == family_order(fam, rec_lo)
        with pytest.raises(ValueError, match=f"recurrences start at n = {rec_lo}, got"):
            family_polynomial(fam, rec_lo - 1)
        with pytest.raises(ValueError, match=f"recurrences start at n = {rec_lo}, got"):
            family_polynomials(fam, rec_lo, rec_lo - 1)

    @pytest.mark.parametrize("call, message", [
        (lambda: family_order("X", 1), "unknown family 'X'; expected one of ("),
        (lambda: family_order("Q+e", 1, "bogus"), "unknown attachment kind 'bogus'"),
        (lambda: family_order("Q", 1, "pendant"), "plain chains take no attachment"),
        (lambda: next(families.stream_values("Q+e", 0, 2, ("Q+e",))),
         "no stream 'Q+e' in the Q+e system; systems are {"),
        (lambda: next(families.stream_values("Q", 0, 2, ("O",))),
         "no stream 'O' in the Q system; systems are {"),
        (lambda: families.stream_values("X", 0, 1, ()), "no system 'X'; systems are {"),
        (lambda: families.stream_values("Q+e", 0, 1, ()), "no system 'Q+e'; systems are {"),
    ], ids=["unknown family", "unknown kind", "plain with kind", "gadget system", "foreign stream",
            "unknown system, no stream", "gadget system, no stream"])
    def test_unknown_names_are_input_errors(self, call, message):
        with pytest.raises(ValueError) as ei:
            call()
        assert str(ei.value).startswith(message)

    @pytest.mark.parametrize("call, message", [
        (lambda: build_chain("T", 5000), "family T at n=5000 has 10001 vertices"),
        (lambda: t_count_sequence(5000), "family T at n=5000 has 10001 vertices"),
        (lambda: family_polynomial("Q", 3334), "family Q at n=3334 has 10003 vertices"),
        (lambda: q_stream(3334), "family Q at n=3334 has 10003 vertices"),
        (lambda: next(families.stream_values("Q", 1, 3334, ("Q",))),
         "family Q at n=3334 has 10003 vertices"),
        # refused by the call itself, before any value is asked for
        (lambda: families.stream_values("Q", 1, 3334, ("Q",)),
         "family Q at n=3334 has 10003 vertices"),
        (lambda: families.family_values("Q", 1, 3334), "family Q at n=3334 has 10003 vertices"),
    ], ids=["build_chain", "t_count_sequence", "family_polynomial", "q_stream", "stream_values",
            "stream_values, no next", "family_values, no next"])
    def test_member_past_vertex_limit_is_refused_before_building(self, monkeypatch, call,
                                                                 message):
        # the same rule and message as the CLI's; no graph or packed pass is started
        def no_work(*args, **kwargs):
            raise AssertionError("a graph or a stream pass was started")

        monkeypatch.setattr(families.Graph, "from_edges", no_work)
        monkeypatch.setattr(families, "_Packing", no_work)
        with pytest.raises(ValueError) as ei:
            call()
        assert str(ei.value) == f"{message}, limit is 10000"

    @pytest.mark.parametrize("system, lo, message", [
        ("Q", -5, "family Q graphs start at n = 0, got -5"),
        ("T", 0, "family T graphs start at n = 1, got 0"),
    ])
    def test_stream_values_refuses_lo_below_first_graph(self, system, lo, message):
        # the pass starts at the first graph n; a lo below it is no graph, and it is
        # refused by the call, before any value is asked for
        with pytest.raises(ValueError) as ei:
            families.stream_values(system, lo, 2, (system,))
        assert str(ei.value) == message

    @pytest.mark.parametrize("family, n, message", [
        ("Q", -3, "family Q graphs start at n = 0, got -3"),
        ("T", 0, "family T graphs start at n = 1, got 0"),
        ("Op", -1, "family Op graphs start at n = 0, got -1"),
    ])
    def test_family_order_refuses_n_below_first_graph(self, family, n, message):
        # there is no such graph to count the vertices of; check_n's rule and message
        with pytest.raises(ValueError) as ei:
            family_order(family, n)
        assert str(ei.value) == message

    def test_vertex_limit_is_inclusive(self):
        # T_4999 has 9999 vertices
        assert build_chain("T", 4999).n == 9999
        assert len(t_count_sequence(4999)) == 5000

    @pytest.mark.parametrize("call, message", [
        (lambda: o_stream(3333), "family O+e at n=3333 has 10001 vertices"),
        (lambda: family_polynomial("O", 3333), "family O+e at n=3333 has 10001 vertices"),
        (lambda: next(families.stream_values("Q", 3333, 3333, ("Q",))),
         "family Q+e at n=3333 has 10001 vertices"),
    ], ids=["o_stream", "family_polynomial", "stream_values"])
    def test_stream_pass_is_refused_by_every_stream_it_packs(self, monkeypatch, call, message):
        # O_3333 and Q_3333 have 10000 vertices, but their gadget streams are up to 3
        # vertices larger: B and the vertex limit are sized for the system's largest
        # stream, so every reader of a system refuses at the same n
        def no_work(*args, **kwargs):
            raise AssertionError("a graph or a stream pass was started")

        monkeypatch.setattr(families.Graph, "from_edges", no_work)
        monkeypatch.setattr(families, "_Packing", no_work)
        with pytest.raises(ValueError) as ei:
            call()
        assert str(ei.value) == f"{message}, limit is 10000"

    def test_stream_pass_limit_is_inclusive(self):
        # at n = 3332 every Q and O stream fits, Op_3332 exactly
        orders = [families.check_n(s, 3332) for s in families.STREAMS["Q"] + families.STREAMS["O"]]
        assert max(orders) == families.family_order("Op", 3332) == 10000


class TestTriangleChain:
    def test_stated_bases(self):
        assert t_polynomial(1).to_text() == "x^3+3x^2+3x"
        assert t_polynomial(2).to_text() == "x^5+5x^4+10x^3+8x^2+x"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_polynomial_matches_oracle(self, n):
        assert t_polynomial(n) == oracle.domination_polynomial(build_chain("T", n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_table_matches_polynomial(self, n):
        row = t_coefficient_table(n)
        assert len(row) == 2 * n + 2
        assert DomPoly(row) == t_polynomial(n)

    def test_table_specific_entries(self):
        assert t_coefficient_table(2)[2] == 8
        for n in range(1, 8):
            assert t_coefficient_table(n)[2 * n + 1] == 1

    def test_count_sequence(self):
        assert t_count_sequence(4) == [2, 7, 25, 89, 317]
        seq = t_count_sequence(12)
        for n in range(1, 13):
            assert seq[n] == t_polynomial(n).eval_at(1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            t_polynomial(0)
        with pytest.raises(ValueError):
            t_count_sequence(-1)


class TestSquareChains:
    def test_stated_bases(self):
        assert q_polynomial(1).to_text() == "x^4+4x^3+6x^2"
        assert q_polynomial(2).to_text() == "x^7+7x^6+21x^5+29x^4+15x^3"
        assert o_polynomial(1).to_text() == "x^4+4x^3+6x^2"

    @pytest.mark.parametrize("n", range(1, 5))
    def test_q_matches_oracle(self, n):
        assert q_polynomial(n) == oracle.domination_polynomial(build_chain("Q", n))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_o_matches_oracle(self, n):
        assert o_polynomial(n) == oracle.domination_polynomial(build_chain("O", n))

    def test_q_o_stream_divergence(self):
        assert q_polynomial(1) == o_polynomial(1)
        assert q_polynomial(2) == o_polynomial(2)
        assert q_polynomial(3) != o_polynomial(3)

    @pytest.mark.parametrize("fam", FAMILY_NAMES)
    def test_all_streams_match_oracle(self, fam):
        lo = 1 if fam in ("T", "Q", "O") else 0
        for n in range(lo, 4):
            want = oracle.domination_polynomial(build_chain(fam, n))
            assert family_polynomial(fam, n) == want

    def test_literal_variant_diverges(self):
        adopted, literal = [e for e in IDENTITIES["Q"] if e.lhs == "Qp"]
        assert adopted.adopted and not literal.adopted
        assert literal.erratum.identity == "Q primed identity (iii)"

        def poly(stream, k):
            return oracle.domination_polynomial(build_chain(stream, k))

        states = q_stream(3)
        for n in range(1, 4):
            assert adopted.rhs(n, poly) == poly("Qp", n)
            assert literal.rhs(n, poly) != poly("Qp", n)
            # the streams are driven by the adopted -x form only
            assert literal.rhs(n, lambda s, k: states[k][s]) != states[n]["Qp"]

    @pytest.mark.parametrize("fam", ("T", "Q", "O"))
    def test_each_stream_has_one_adopted_identity(self, fam):
        adopted = [e.lhs for e in IDENTITIES[fam] if e.adopted]
        assert sorted(adopted) == sorted(families.STREAMS[fam])
        assert all(e.subject is None for e in IDENTITIES[fam] if e.adopted)

    def test_stream_states_are_indexed(self):
        states = q_stream(3)
        assert len(states) == 4
        assert states[3]["Q"] == q_polynomial(3)
        assert o_stream(2)[2]["O"] == o_polynomial(2)

    @pytest.mark.parametrize("system", CHAIN_FAMILIES)
    def test_systems_table_fits_the_identities(self, system):
        # the pass evaluates STREAMS[system] in order at each n, each stream by its
        # one adopted identity from its start and by its transfer values below it
        order = families.STREAMS[system]
        adopted = [e for e in IDENTITIES[system] if e.adopted]
        assert sorted(e.lhs for e in adopted) == sorted(order), \
            f"each stream of {order} needs exactly one adopted identity"
        for e in adopted:
            earlier = order[:order.index(e.lhs)]
            for s, off in (ref for _, refs in e.terms for ref in refs):
                assert s in (earlier if off == 0 else order), (
                    f"{e.label} reads {s} at offset {off}, but STREAMS[{system!r}] "
                    f"evaluates only {earlier} before {e.lhs}")

    def test_stream_records_are_keyed_by_stream_name(self):
        for record in q_stream(3):
            assert tuple(record.keys()) == families.STREAMS["Q"]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            q_polynomial(0)
        with pytest.raises(ValueError):
            o_polynomial(0)
        with pytest.raises(ValueError):
            q_stream(-1)
        with pytest.raises(ValueError):
            o_stream(-1)


class TestStreamValidation:
    def test_degree_and_leading_invariants(self):
        for n in range(1, 7):
            p = t_polynomial(n)
            assert p.degree == 2 * n + 1 and p[p.degree] == 1 and p[0] == 0
        for n in range(1, 6):
            for p in (q_polynomial(n), o_polynomial(n)):
                assert p.degree == 3 * n + 1 and p[p.degree] == 1 and p[0] == 0


def test_verify_scans_each_graph_once(monkeypatch):
    # identity terms and closed-stream checks ask for the same adopted graphs;
    # the oracle cache must serve every repeat without building and scanning again
    built = []
    build = families.build_chain
    monkeypatch.setattr(families, "build_chain",
                        lambda f, n, attachment=None: built.append((f, n, attachment))
                        or build(f, n, attachment))
    report = verify.verify_families(max_n=4, include_literal=True)
    assert report.all_match and built
    assert len(built) == len(set(built))


@pytest.mark.parametrize("cap", [-1, 31])
def test_verify_refuses_cap_before_building(monkeypatch, cap):
    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(families, "build_chain", no_build)
    with pytest.raises(ValueError, match=f"cap {cap} is outside the hard safety limits 0..30"):
        verify.verify_families(cap=cap)


def test_verify_refuses_unknown_family():
    with pytest.raises(ValueError, match="^unknown family 'Z'; expected T, Q, or O$"):
        verify.verify_families(family_subset=("Z",))


def test_verify_refuses_an_empty_family_selection():
    # only None means every family; an empty selection would pass with no checks
    with pytest.raises(ValueError, match="^family_subset selects no family"):
        verify.verify_families(max_n=1, family_subset=())


@pytest.mark.parametrize("stream, k", [(s, k) for s, bases in STATED_BASES.items()
                                       for k in bases])
def test_stated_bases_equal_oracle(stream, k):
    # every initial value the paper states, the trivial X_0 and X+e_0 included, is
    # its graph's polynomial and the value the pass takes from the transfer matrix
    want = STATED_BASES[stream][k]
    assert want == oracle.domination_polynomial(build_chain(stream, k))
    (_, values), = families.stream_values(stream[0], k, k, (stream,))
    assert values[stream] == want
