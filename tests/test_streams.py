"""The closed T/Q/O stream pass against a plain DomPoly evaluation of the identity table.

The reference here evaluates every adopted Identity.rhs on DomPoly values over
the paper's stated initial values in a plain loop, independent of how families
evaluates the streams.  The failure tests pin the exact RecurrenceConfigError
messages: an edited table is refused by its certificate before any packed or count walk,
naming the stream or identity that fails.
"""
from dataclasses import replace

import pytest

from domchain import families, oracle, transfer
from domchain.families import (
    CHAIN_FAMILIES,
    FAMILY_NAMES,
    IDENTITIES,
    STREAMS,
    RecurrenceConfigError,
    build_chain,
    family_polynomial,
    family_polynomials,
    o_stream,
    q_stream,
)
from domchain.graph import Graph
from domchain.poly import DomPoly
from conftest import STATED_BASES, with_multiplier

_p = DomPoly.from_text
TOP = 40


def _plain_streams(family: str, hi: int) -> dict[tuple[str, int], DomPoly]:
    """Every stream of the family's system for k = first graph n..hi, on DomPoly."""
    rules = {e.lhs: e for e in IDENTITIES[family] if e.adopted}
    vals: dict[tuple[str, int], DomPoly] = {}
    for k in range(1 if family == "T" else 0, hi + 1):
        for s in STREAMS[family]:
            if k >= rules[s].start:
                vals[s, k] = rules[s].rhs(k, lambda t, j: vals[t, j])
            else:
                vals[s, k] = STATED_BASES[s][k]
    return vals


@pytest.fixture(scope="module")
def plain():
    return {fam: _plain_streams(fam, TOP) for fam in CHAIN_FAMILIES}


def _first(name: str) -> int:
    return 1 if name in CHAIN_FAMILIES else 0


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_polynomials_equal_plain_evaluation(plain, name):
    lo = _first(name)
    want = [plain[name[0]][name, k] for k in range(lo, TOP + 1)]
    assert family_polynomials(name, lo, TOP) == want
    assert family_polynomial(name, TOP) == want[-1]


@pytest.mark.parametrize("fam, stream", [("Q", q_stream), ("O", o_stream)])
def test_stream_states_equal_family_polynomial(fam, stream):
    states = stream(12)
    assert len(states) == 13
    for s in STREAMS[fam]:
        for k in range(_first(s), 13):
            assert states[k][s] == family_polynomial(s, k)
    assert states[0][fam] == oracle.domination_polynomial(build_chain(fam, 0))


# -- an unproven system is refused before any pass, by what the certificate refutes ---------

_T_RULE = "T-chain order-2 polynomial recurrence: nonzero residual"


@pytest.mark.parametrize("fam, lhs, old, new, message", [
    ("T", "T", "x^2+2x", "x^3+2x", f"{_T_RULE} -x^8-4x^7-5x^6+2x^5+7x^4+x^3 at n=3"),
    ("T", "T", "x^2+2x", "x^2+20x", f"{_T_RULE} -18x^6-90x^5-180x^4-144x^3-18x^2 at n=3"),
    ("T", "T", "x^2+2x", "x^2+1000000x",
     f"{_T_RULE} -999998x^6-4999990x^5-9999980x^4-7999984x^3-999998x^2 at n=3"),
    ("Q", "Qp", "-x", "-5x",
     "Q primed identity (iii), adopted -x form: nonzero residual 4x^4+12x^3+4x^2 at n=1"),
    ("O", "O", "x^2+2x", "2x^2+2x",
     "O-chain theorem recurrence: nonzero residual -x^7-5x^6-9x^5-4x^4 at n=2"),
    ("O", "O", "x^2+2x", "-x^2+2x",
     "O-chain theorem recurrence: nonzero residual 2x^7+10x^6+18x^5+8x^4 at n=2"),
])
def test_wrong_multiplier_is_rejected(monkeypatch, fam, lhs, old, new, message):
    with_multiplier(monkeypatch, fam, lhs, old, new)
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial(fam, 8)
    assert str(ei.value) == message


_OP_III = "O primed identity (iii): nonzero residual"


@pytest.mark.parametrize("edges, message", [
    (((0, 1),), f"{_OP_III} -x^7-7x^6-20x^5-25x^4-9x^3 at n=1"),
    (((0, 1), (1, 2), (2, 0)), f"{_OP_III} -x^7-6x^6-15x^5-15x^4-2x^3+x^2 at n=1"),
    (((0, 1), (1, 2)), f"{_OP_III} -x^7-6x^6-15x^5-16x^4-5x^3-3x^2 at n=1"),
    (((0, 1), (0, 2)), f"{_OP_III} -x^7-6x^6-15x^5-17x^4-8x^3-x^2 at n=1"),
    (((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), f"{_OP_III} 2x^4+6x^3+2x^2 at n=1"),
    (((0, 1), (1, 2), (2, 3), (3, 0)), f"{_OP_III} -x^4-3x^3-4x^2 at n=1"),
    (((0, 1), (1, 2), (2, 0), (0, 3)), f"{_OP_III} -x^5-4x^4-4x^3-x^2 at n=1"),
    # the same Op_0 polynomial as the diamond's own, x^4+4x^3+6x^2+2x
    (((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), f"{_OP_III} x^4+3x^3-2x^2 at n=1"),
    (((0, 1), (1, 2), (2, 0), (0, 3), (2, 3)), None),
], ids=["pendant", "triangle", "pendant path", "two pendants", "K4", "C4", "paw",
        "diamond at a degree-2 vertex", "diamond"])
def test_gadget_that_is_not_the_graph_fails_the_certificate(monkeypatch, edges, message):
    # the initial values follow whatever gadget Op attaches, so a wrong one is refused
    # by the identity it breaks; only the diamond at a degree-3 vertex passes
    gadget = Graph.from_edges(max(map(max, edges)) + 1, edges)
    monkeypatch.setitem(families._GADGETS, "diamond", gadget)
    if message is None:
        assert family_polynomial("Op", 2) == oracle.domination_polynomial(build_chain("Op", 2))
        return
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial("Op", 2)
    assert str(ei.value) == message


@pytest.mark.parametrize("call", [
    lambda: family_polynomial("O", 3332),
    lambda: families.family_counts("O", 1, 3332),
    lambda: next(families.stream_values("O", 0, 5, ("Op",))),
], ids=["family_polynomial", "family_counts", "stream_values"])
def test_unproven_system_is_refused_before_any_pass(monkeypatch, call):
    # the certificate may take its residuals; a packed or count walk may not start
    monkeypatch.setattr(families, "_walk", _no_walk)
    with_multiplier(monkeypatch, "O", "Op", "-x", "-2x")
    with pytest.raises(RecurrenceConfigError) as ei:
        call()
    assert str(ei.value) == f"{_OP_III} x^4+3x^3+x^2 at n=1"


def _no_walk(*args):
    raise AssertionError("a packed or count pass was started")


def _edit(monkeypatch, lhs: str, **changes) -> None:
    """Apply `changes` to the adopted identity for `lhs` in its system's table."""
    monkeypatch.setitem(IDENTITIES, lhs[0], tuple(
        replace(e, **changes) if e.adopted and e.lhs == lhs else e for e in IDENTITIES[lhs[0]]))


def _wrong_q2_first(monkeypatch) -> None:
    """Put a wrong adopted Q2 identity (multiplier 2x) before the real one."""
    (_, refs), = families._Q_II.terms
    wrong = replace(families._Q_II, terms=((_p("2x"), refs),))
    monkeypatch.setitem(IDENTITIES, "Q", (wrong, *IDENTITIES["Q"]))


@pytest.mark.parametrize("family, edit, message", [
    ("Q", lambda mp: _edit(mp, "Qtri", adopted=False), "Qtri stream: no adopted identity"),
    ("Q", _wrong_q2_first, "Q2 stream: 2 adopted identities"),
    ("Q", lambda mp: _edit(mp, "Qtri", terms=()), "Q triangle-gadget identity (i): no terms"),
    ("Q", lambda mp: _edit(mp, "Q+e", start=1),
     "Q pendant identity (iv): starts at n=1, reading n=-1 below the first graph n=0"),
    # Q+e reads n - 1 and n - 2: the refusal names the deepest read, not the first
    ("Q", lambda mp: _edit(mp, "Q+e", start=0),
     "Q pendant identity (iv): starts at n=0, reading n=-2 below the first graph n=0"),
    # Qtri_n = (2+2x) Q+e_n - Qp_n holds on the graphs, but Qp_n comes after Qtri_n
    ("Q", lambda mp: _edit(mp, "Qtri",
                           terms=((_p("2+2x"), (("Q+e", 0),)), (_p("-1"), (("Qp", 0),)))),
     "Q triangle-gadget identity (i): reads Qp at offset 0, "
     "which evaluation in stream order has not reached"),
    # a read ahead in n, even of a stream evaluated earlier at n
    ("Q", lambda mp: _edit(mp, "Qtri", terms=((_p("1"), (("Q+e", 1),)),)),
     "Q triangle-gadget identity (i): reads Q+e at offset 1, "
     "which evaluation in stream order has not reached"),
    ("Q", lambda mp: _edit(mp, "Qtri", terms=(*IDENTITIES["Q"][0].terms, (_p("x"), ()))),
     "Q triangle-gadget identity (i): a term reads no stream"),
    ("Q", lambda mp: _edit(mp, "Qtri", terms=((_p("x"), ()),)),
     "Q triangle-gadget identity (i): a term reads no stream"),
    ("Q", lambda mp: mp.setitem(IDENTITIES, "Q",
                                (*IDENTITIES["Q"], replace(IDENTITIES["Q"][0], lhs="Zed"))),
     "Q triangle-gadget identity (i): left side Zed is no stream of Q"),
    # X_n = 1 X_n has a zero residual at every n, so only the evaluation order refuses it
    ("Q", lambda mp: _edit(mp, "Q", terms=((_p("1"), (("Q", 0),)),), start=1),
     "Q-chain order-3 theorem recurrence: reads Q at offset 0, "
     "which evaluation in stream order has not reached"),
    ("O", lambda mp: _edit(mp, "O", terms=((_p("1"), (("O", 0),)),)),
     "O-chain theorem recurrence: reads O at offset 0, "
     "which evaluation in stream order has not reached"),
], ids=["no adopted identity", "two adopted identities", "no terms",
        "start before the look-back reaches a graph",
        "start before the deepest read reaches a graph", "read of a stream not yet evaluated",
        "read ahead in n", "extra term reads no stream", "only term reads no stream",
        "left side no stream", "Q reads itself at n", "O reads itself at n"])
def test_malformed_table_is_refused_before_any_pass(monkeypatch, family, edit, message):
    edit(monkeypatch)
    monkeypatch.setattr(families, "_proven", None)  # refused before any residual is taken
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial(family, 5)
    assert str(ei.value) == message


@pytest.mark.parametrize("system", CHAIN_FAMILIES)
def test_certificate_returns_each_stream_with_its_initial_values(system):
    # the characteristic rule, and each stream's transfer values below the first graph n +
    # its order: the paper's stated initial values below the start of the stream's one
    # adopted identity, the oracle's from there on
    cs, initial = families._certify(families._tables(system))
    assert cs == transfer.characteristic(families._BLOCKS[system])
    assert tuple(initial) == STREAMS[system]
    first = families._first_n(system)
    for s, values in initial.items():
        e, = (x for x in IDENTITIES[system] if x.adopted and x.lhs == s)
        assert len(values) == first + len(cs) >= e.start
        assert values[first:e.start] == tuple(STATED_BASES[s][k] for k in range(first, e.start))
        assert values[e.start:] == tuple(oracle.domination_polynomial(build_chain(s, k))
                                         for k in range(e.start, len(values)))


@pytest.mark.parametrize("stream, k", [(s, k) for s, bases in STATED_BASES.items()
                                       for k in bases])
def test_pass_takes_each_initial_value_from_its_rule(stream, k):
    # below its start a stream's value is its rule's initial value: in the walk of its
    # characteristic rule as _held holds it, as a count and packed; an edited one is
    # yielded in its place
    system = stream[0]
    stated = STATED_BASES[stream][k]
    edited = stated + DomPoly.monomial(1, 1)

    def edit(initial: tuple) -> tuple:
        return tuple(edited if j == k else v for j, v in enumerate(initial))

    cs, initial = families._certify(families._tables(system))
    initial = initial[stream]
    assert k < families._first_n(system) + len(cs) == len(initial)
    packing = families._Packing(families.check_n(system, k + 2, recurrence=True))
    for bits in (0, packing.bits):
        for table, want in ((initial, stated), (edit(initial), edited)):
            got = list(families._walk(cs, table, k, bits))[k]
            assert got == families._held(want, bits), (bits, want is edited)


_ERRATUM = "the star and the path at one vertex share their n = 0 value"


@pytest.mark.parametrize("kind, other, call, message", [
    ("pendant_path", "two_pendants", "Q2",
     "Q pendant-pair identity (ii): nonzero residual -x^4-3x^3+2x^2 at n=1"),
    ("pendant_path", "two_pendants", "O2",
     "O pendant-pair identity (ii): nonzero residual -x^4-3x^3+2x^2 at n=1"),
    ("two_pendants", "pendant_path", "Qp",
     "Q primed identity (iii), adopted -x form: nonzero residual x^4+3x^3-2x^2 at n=1"),
], ids=["Q2 as a star", "O2 as a star", "Qp as a path"])
def test_star_for_path_is_refused_by_the_identity_it_breaks(monkeypatch, kind, other, call,
                                                              message):
    # the paper's erratum: no initial value tells the star from the path, the identities do
    assert STATED_BASES["Q2"][0] == STATED_BASES["Qp"][0], _ERRATUM
    monkeypatch.setitem(families._GADGETS, kind, families._GADGETS[other])
    assert (oracle.domination_polynomial(build_chain(call, 0))
            == STATED_BASES[call][0]), _ERRATUM
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial(call, 2)
    assert str(ei.value) == message


@pytest.mark.parametrize("call, stream, packed", [
    (lambda: family_polynomials("Q+e", 2, 9), "Q+e", True),
    (lambda: list(families.family_values("Q2", 0, 9)), "Q2", True),
    (lambda: families.family_counts("O", 1, 9), "O", False),
], ids=["family_polynomials", "family_values", "family_counts"])
def test_reader_starts_one_packed_pass_on_the_certified_table(monkeypatch, call, stream, packed):
    # with the cache cleared: one residual check, of the adopted identities and then of every
    # stream's characteristic rule, then one packed (B > 0) or count (B = 0) walk of that
    # proven rule and of no other stream
    def record_proven(*args):
        started.append(("proven", args))
        return real_proven(*args)

    def record_walk(cs, initial, hi, bits):
        started.append(("walk", (cs, initial, bits)))
        return real_walk(cs, initial, hi, bits)

    started = []
    real_proven, real_walk = families._proven, families._walk
    monkeypatch.setattr(families, "_proven", record_proven)
    monkeypatch.setattr(families, "_walk", record_walk)
    families._certify.cache_clear()
    call()
    assert [what for what, _ in started] == ["proven", "walk"]
    (_, (_, _, _, identities, rules)), (_, (walked, initial, bits)) = started
    system = stream[0]
    assert identities == [e for s in STREAMS[system] for e in IDENTITIES[system]
                          if e.adopted and e.lhs == s]
    cs, proven = families._certify(families._tables(system))
    assert cs == transfer.characteristic(families._BLOCKS[system])
    assert [rule.lhs for rule in rules] == list(STREAMS[system])
    for rule in rules:
        assert rule.terms == tuple((c, ((rule.lhs, -i),)) for i, c in enumerate(cs, 1))
    assert walked is cs and initial is proven[stream] and (bits > 0) is packed and bits >= 0


def test_one_certificate_serves_every_reader_of_a_system(monkeypatch):
    # a packed reader, the count reader and the stream reader of Q share one cold
    # certificate, which takes the transfer values once
    def record_states(*args):
        calls.append(args)
        return real_states(*args)

    calls = []
    real_states = transfer.states
    monkeypatch.setattr(transfer, "states", record_states)
    families._certify.cache_clear()
    family_polynomial("Qp", 4)
    families.family_counts("Q", 1, 4)
    next(families.stream_values("Q", 0, 2, STREAMS["Q"]))
    assert families._certify.cache_info().misses == 1
    assert len(calls) == 1


def _cross(u: tuple, v: tuple) -> tuple:
    """The cross product u x v of two triples of polynomials."""
    return tuple(u[(i + 1) % 3] * v[(i + 2) % 3] - u[(i + 2) % 3] * v[(i + 1) % 3]
                 for i in range(3))


def test_residual_zero_at_two_points_is_refused_at_the_third(monkeypatch):
    # (a, b, c) = (Q_2, Q_1, Q_0) x (Q_3, Q_2, Q_1) added to the Q identity adds a residual
    # a Q_(n-1) + b Q_(n-2) + c Q_(n-3) that is zero at n = 3 and 4 and nonzero at 5, so only
    # the third point of the three-point lemma refutes it.  T needs no such case: its M has a
    # zero row, so det M = 0 and its residuals obey an order-2 recurrence; two points suffice.
    q = [oracle.domination_polynomial(build_chain("Q", k)) for k in range(4)]
    added = _cross((q[2], q[1], q[0]), (q[3], q[2], q[1]))
    assert [p.degree for p in added] == [7, 10, 8]
    rule, = (e for e in IDENTITIES["Q"] if e.adopted and e.lhs == "Q")
    _edit(monkeypatch, "Q", terms=(*rule.terms, *((a, (("Q", -i),)) for i, a in
                                                     enumerate(added, 1))))
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial("Q", 6)
    assert str(ei.value) == ("Q-chain order-3 theorem recurrence: nonzero residual "
                             "-x^13-4x^12-6x^11-4x^10-x^9 at n=5")


def test_o_residual_zero_at_two_points_is_refused_at_the_third(monkeypatch):
    # O's largest start is 2, so an added term may read at most two n back: O_(n-1) and
    # O_(n-2) carry two multipliers and a third stream, O+e_(n-1), the third.  (a, b, c) is
    # the cross product of those three reads at n = 2 and at n = 3, so the added residual is
    # zero at the O identity's start and the next n, and nonzero only at the third point.
    refs = (("O", -1), ("O", -2), ("O+e", -1))
    u, v = (tuple(oracle.domination_polynomial(build_chain(s, n + off)) for s, off in refs)
            for n in (2, 3))
    added = _cross(u, v)
    assert [p.degree for p in added] == [8, 8, 7]
    monkeypatch.setitem(IDENTITIES, "O", tuple(
        replace(e, terms=(*e.terms, *((a, (ref,)) for a, ref in zip(added, refs))))
        if e.adopted and e.lhs == "O" else e for e in IDENTITIES["O"]))
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial("O", 6)
    assert str(ei.value) == ("O-chain theorem recurrence: nonzero residual "
                             "-x^13-10x^12-40x^11-78x^10-71x^9-24x^8 at n=4")


def test_identity_is_checked_against_its_own_stream(monkeypatch):
    # Q2_n = Qtri_n is an identity of the triangle graphs its subject names, not of Q2's
    _edit(monkeypatch, "Q2", terms=((_p("1"), (("Qtri", 0),)),), subject="triangle")
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial("Q2", 3)
    assert str(ei.value) == "Q pendant-pair identity (ii): nonzero residual -x^4-3x^3-4x^2 at n=1"


# -- packed evaluation ---------------------------------------------------------------

@pytest.mark.parametrize("top", [1, 8, 9, 101, 830])
def test_packing_round_trips_every_coefficient_below_two_to_the_top(top):
    # B is top rounded up to whole bytes; digits 0, 1, 2^top - 1 and a long zero run
    packing = families._Packing(top)
    assert packing.bits % 8 == 0 and top <= packing.bits < top + 8
    p = DomPoly([0, (1 << top) - 1, *[0] * 20, 1, (1 << top) - 2, 1])
    assert packing.unpack(p.eval_at(1 << packing.bits)) == p


@pytest.mark.parametrize("top, e", [(1, 1), (8, 2), (9, 5), (830, 277)])
def test_packing_round_trips_below_a_power_of_x(top, e):
    # a base is held as (w, e) with e its gamma; digits 0, 1 and 2^top - 1 above x^e
    packing = families._Packing(top)
    p = DomPoly([*[0] * e, 1, 0, (1 << top) - 1, 0, 0, 1])
    w, gamma = families._held(p, packing.bits)
    assert gamma == e and w % (1 << packing.bits) == 1
    assert packing.unpack(w, gamma) == p


@pytest.mark.parametrize("system", CHAIN_FAMILIES)
def test_packed_exponent_is_gamma_of_every_stream_value(system):
    # every stream value u_s^T M^k v0, held as the packed walk of its characteristic rule
    # holds it: (w, e) with e = gamma of that value, not a lower bound; and far past its
    # start every adopted identity's residual on those values is zero
    hi = 60
    first = families._first_n(system)
    ws = transfer.states(families._BLOCKS[system], hi)
    want = {s: [transfer.dot(transfer.finish(families._attached(s, None)), w) for w in ws]
            for s in STREAMS[system]}
    packing = families._Packing(families.check_n(system, hi, recurrence=True))
    cs, initial = families._certify(families._tables(system))
    walks = {s: list(families._walk(cs, initial[s], hi, packing.bits)) for s in STREAMS[system]}
    seen = 0
    for k in range(first, hi + 1):
        for s in STREAMS[system]:
            p = want[s][k]
            e = p.gamma()
            assert walks[s][k] == (DomPoly(p.coeffs[e:]).eval_at(1 << packing.bits), e), (s, k)
            seen += 1
        for rule in IDENTITIES[system]:
            if rule.adopted and k >= rule.start:
                residual = want[rule.lhs][k] - rule.rhs(k, lambda t, j: want[t][j])
                assert residual.is_zero(), (rule.label, k, residual.to_text())
    assert seen == len(STREAMS[system]) * (hi + 1 - first)


# -- the characteristic rules the packed and count passes run --------------------------

def test_t_characteristic_recurrence_is_the_adopted_t_identity():
    # det M = 0 for T, so its characteristic recurrence is order 2: the paper's T identity
    rule, = IDENTITIES["T"]
    cs = transfer.characteristic(families._BLOCKS["T"])
    assert cs == tuple(m for m, _ in rule.terms) and len(cs) == 2


@pytest.mark.parametrize("system, cs", [
    ("Q", ("x^3+3x^2+x", "2x^4+5x^3+4x^2", "x^3")),
    ("O", ("x^3+3x^2+3x", "-x^3-3x^2", "x^5+2x^4+x^3")),
])
def test_q_and_o_characteristic_recurrences_are_order_three(system, cs):
    # D(X_n) = c1 D(X_(n-1)) + c2 D(X_(n-2)) + c3 D(X_(n-3)) for every stream of the system
    assert transfer.characteristic(families._BLOCKS[system]) == tuple(map(_p, cs))


@pytest.mark.parametrize("system", CHAIN_FAMILIES)
def test_characteristic_packed_exponent_is_gamma_of_every_stream_value(system):
    # the walk holds D(X_k, 2^B) as w << e*B with e carried as a lower bound of gamma;
    # a looser bound would move zero digits below x^gamma through every step again
    hi = 150
    first = families._first_n(system)
    packing = families._Packing(families.check_n(system, hi, recurrence=True))
    seen = 0
    cs, initial = families._certify(families._tables(system))
    for s in STREAMS[system]:
        for k, (w, e) in enumerate(families._walk(cs, initial[s], hi, packing.bits)):
            if k >= first:
                assert e == packing.unpack(w, e).gamma(), (s, k)
                seen += 1
    assert seen == len(STREAMS[system]) * (hi + 1 - first)


@pytest.fixture
def characteristic(monkeypatch):
    """Replace transfer.characteristic by a table with `delta` added to its c_(index + 1)."""
    real = transfer.characteristic

    def edit(index: int, delta: str) -> None:
        def edited(block):
            cs = list(real(block))
            cs[index] += _p(delta)
            return tuple(cs)
        monkeypatch.setattr(transfer, "characteristic", edited)
        families._certify.cache_clear()

    yield edit
    families._certify.cache_clear()


@pytest.mark.parametrize("stream, index, delta, message", [
    ("T", 0, "x", "-x^6-5x^5-10x^4-8x^3-x^2"),
    ("T", 1, "-1", "x^3+3x^2+3x"),
    ("Q", 1, "x^5", "-x^9-4x^8-6x^7"),
    ("Qp", 2, "x", "-x^2"),
    ("O", 2, "-x^3", "x^4"),
    ("Op", 0, "1", "-x^7-7x^6-21x^5-29x^4-15x^3"),
])
def test_edited_characteristic_is_refused_before_any_packed_pass(monkeypatch, characteristic,
                                                                 stream, index, delta, message):
    monkeypatch.setattr(families, "_walk", _no_walk)
    characteristic(index, delta)
    for call in (lambda: family_polynomial(stream, 8),
                 lambda: families.family_counts(stream, families._first_n(stream, True), 8)):
        with pytest.raises(RecurrenceConfigError) as ei:
            call()
        # every stream's rule is proven, in evaluation order: the system's first is named
        assert str(ei.value) == (f"{stream[0]} characteristic recurrence: nonzero residual "
                                 f"{message} at n=3")
