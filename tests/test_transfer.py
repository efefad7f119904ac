"""The block transfer matrices against two independent exact methods, and the certificate's teeth.

transfer derives M(x), v0 and each u_s from the graph tables alone; its values
are checked against the enumeration oracle on every member of at most 20
vertices and against perfbench/reference.py's frontier DP (no shared code) up
to n = 300.  The certificate (families._certify) proves an identity by its
residual on these values: zero at its start and the two n after it is zero at
every n (transfer's three-point lemma).  Mutants of the tables must break either
the certificate or the oracle anchor, and every identity of a table the
certificate accepts must have a zero residual on the transfer values.
"""
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from domchain import families, oracle, transfer
from domchain.families import (
    CHAIN_FAMILIES,
    FAMILY_NAMES,
    IDENTITIES,
    RecurrenceConfigError,
    build_chain,
    family_order,
    family_polynomial,
)
from domchain.graph import Graph
from domchain.poly import DomPoly

ORACLE_ORDER = 20
DP_TOP = 300


def _oracle_values(stream: str, max_order: int) -> dict[int, DomPoly]:
    """D(X_n + gadget) by enumeration for every member of at most max_order vertices."""
    out = {}
    n = families._first_n(stream)
    while family_order(stream, n) <= max_order:
        out[n] = oracle.domination_polynomial(build_chain(stream, n), cap=max_order)
        n += 1
    return out


def _certified(system: str) -> bool:
    """Whether the certificate proves the system's live tables."""
    try:
        families._certify(families._tables(system))
    except RecurrenceConfigError:
        return False
    return True


def _finish(stream: str) -> transfer.Vector:
    """u_s of the stream's live gadget."""
    return transfer.finish(families._attached(stream, None))


def _transfer_values(stream: str, hi: int) -> list[DomPoly]:
    """u_s^T M^n v0 for n = 0..hi, from the live block and gadget."""
    u = _finish(stream)
    return [sum((a * b for a, b in zip(u, w)), DomPoly())
            for w in transfer.states(families._BLOCKS[stream[0]], hi)]


def _transfer_at(stream: str, hi: int, x: int, mod: int | None = None) -> list[int]:
    """u_s^T M^n v0 at the point x for n = 0..hi, from transfer's M, u_s and v0."""
    m = [[p.eval_at(x) for p in row] for row in transfer.matrix(families._BLOCKS[stream[0]])]
    u = [p.eval_at(x) for p in _finish(stream)]
    w = [p.eval_at(x) for p in transfer.V0]
    out = []
    for _ in range(hi + 1):
        out.append(sum(a * b for a, b in zip(u, w)))
        w = [sum(a * b for a, b in zip(row, w)) for row in m]
        if mod is not None:
            out[-1] %= mod
            w = [v % mod for v in w]
    return out


def _dp_at(reference, stream: str, hi: int, x: int, mod: int | None = None) -> list[int]:
    """D(X_n + gadget, x) for n = 0..hi from one frontier DP over X_hi + gadget, read backwards.

    From its gadget end, the vertices of X_hi + gadget are the gadget, then the
    blocks from the terminal back; the prefix that ends k blocks in is X_k + gadget.
    """
    g = build_chain(stream, hi)
    label = [g.n - 1 - v for v in range(g.n)]
    adj = [0] * g.n
    for a, b in g.edges():
        adj[label[a]] |= 1 << label[b]
        adj[label[b]] |= 1 << label[a]
    vals = reference.dp_prefix_values(g.n, adj, x, mod)
    width = families._BLOCKS[stream[0]][0]
    extra = g.n - 1 - width * hi  # the gadget's new vertices
    return [vals[extra + width * k] for k in range(hi + 1)]


@pytest.mark.parametrize("system", CHAIN_FAMILIES)
def test_every_system_is_certified(monkeypatch, system):
    # from the tables alone: no graph is built through from_edges
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    families._certify.cache_clear()
    monkeypatch.setattr(Graph, "from_edges", classmethod(no_graph))
    assert _certified(system)


def test_t_matrix_characteristic_polynomial_is_the_t_identity():
    # M(T) has characteristic polynomial l(l^2 - (x^2+2x) l - (x^2+x)): the paper's T identity
    m = transfer.matrix(families._BLOCKS["T"])
    tr = m[0][0] + m[1][1] + m[2][2]
    e2 = sum((m[i][i] * m[j][j] - m[i][j] * m[j][i] for i in range(3) for j in range(i + 1, 3)),
             DomPoly())
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assert (tr, e2, det) == (DomPoly.from_text("x^2+2x"), -DomPoly.from_text("x^2+x"), DomPoly())


@pytest.mark.parametrize("stream", FAMILY_NAMES)
def test_transfer_values_equal_oracle(stream):
    want = _oracle_values(stream, ORACLE_ORDER)
    got = _transfer_values(stream, max(want))
    assert {n: got[n] for n in want} == want


@pytest.mark.parametrize("stream", FAMILY_NAMES)
def test_transfer_values_equal_reference_dp(reference, stream):
    # exactly at x = 1, and at a seeded point modulo 2^61 - 1 (Schwartz-Zippel)
    point = random.Random(f"transfer {stream}").randrange(2, reference.MOD)
    first = families._first_n(stream)
    for x, mod in ((1, None), (point, reference.MOD)):
        want = _dp_at(reference, stream, DP_TOP, x, mod)
        assert _transfer_at(stream, DP_TOP, x, mod)[first:] == want[first:]


def _digit_bits(system: str, hi: int) -> int:
    """B of the packed walks to hi."""
    return families._Packing(max(families.check_n(s, hi) for s in families.STREAMS[system])).bits


@pytest.mark.parametrize("system", CHAIN_FAMILIES)
def test_packed_pass_equals_transfer_values(system):
    # the full polynomials, not only their values at x = 1, of every stream to n = 300,
    # so across every step of gamma (T's at every other n); then, to n = 150, at each
    # n where B grows by a byte, the last value of the pass before it and the first after
    streams = families.STREAMS[system]
    first = families._first_n(system)
    ws = transfer.states(families._BLOCKS[system], DP_TOP)
    want = {s: [transfer.dot(_finish(s), w) for w in ws] for s in streams}
    got = dict(families.stream_values(system, first, DP_TOP, streams))
    for s in streams:
        assert [got[k][s] for k in range(first, DP_TOP + 1)] == want[s][first:]
    grows = [n for n in range(first + 1, DP_TOP // 2 + 1)
             if _digit_bits(system, n) > _digit_bits(system, n - 1)]
    assert grows
    for n in grows:
        for hi in (n - 1, n):
            (_, values), = families.stream_values(system, hi, hi, streams)
            assert values == {s: want[s][hi] for s in streams}


@pytest.mark.parametrize("e", [e for f in CHAIN_FAMILIES for e in IDENTITIES[f] if not e.adopted],
                         ids=lambda e: e.label)
def test_literal_variant_adopted_is_refused_by_its_label(monkeypatch, e):
    # the variant replaces the stream's adopted identity; a star variant's subject
    # becomes the stream's gadget, so the variant is checked on the graphs it names
    system = e.lhs[0]
    table = [x for x in IDENTITIES[system] if not (x.adopted and x.lhs == e.lhs)]
    monkeypatch.setitem(IDENTITIES, system, (*table, replace(e, adopted=True)))
    if e.subject is not None:
        monkeypatch.setitem(families._SYSTEMS[system], e.lhs, e.subject)
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial(system, e.start + 2)
    assert ei.value.identity == e.label


@pytest.mark.parametrize("system, index", [(f, i) for f in CHAIN_FAMILIES
                                           for i, e in enumerate(IDENTITIES[f]) if e.adopted])
def test_changed_multiplier_coefficient_fails_certify(monkeypatch, system, index):
    e = IDENTITIES[system][index]
    (mult, refs), *rest = e.terms
    bumped = DomPoly(mult.coeffs[:-1] + (mult.coeffs[-1] + 1,))  # the top coefficient, plus one
    table = list(IDENTITIES[system])
    table[index] = replace(e, terms=((bumped, refs), *rest))
    monkeypatch.setitem(IDENTITIES, system, tuple(table))
    assert not _certified(system)
    with pytest.raises(RecurrenceConfigError):
        family_polynomial(e.lhs, e.start + 2)


_STEP = st.sampled_from((-2, -1, 1, 2))
_EDITS = ("coefficient", "offset", "swap read", "drop read", "add read", "start",
          "drop term", "empty term", "add term", "zero multiplier")


@st.composite
def _mutated_tables(draw):
    """A system with its identity table after one or two drawn edits."""
    system = draw(st.sampled_from(CHAIN_FAMILIES))
    streams = families.STREAMS[system]
    ref = st.tuples(st.sampled_from(streams), st.integers(-3, 0))
    table = list(IDENTITIES[system])
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(_EDITS))
        i = draw(st.sampled_from([i for i, e in enumerate(table) if e.adopted]))
        e = table[i]
        if edit == "start":
            table[i] = replace(e, start=e.start + draw(_STEP))
            continue
        terms = [(m, list(refs)) for m, refs in e.terms]
        if edit == "add term":
            terms.append((DomPoly.monomial(draw(_STEP), draw(st.integers(0, 2))), [draw(ref)]))
        elif terms:  # a term dropped by the first edit may have been the last
            t = draw(st.integers(0, len(terms) - 1))
            m, refs = terms[t]
            if edit == "coefficient":
                c = list(m.coeffs) + [0]
                c[draw(st.integers(0, len(c) - 1))] += draw(_STEP)
                terms[t] = (DomPoly(c), refs)
            elif edit == "zero multiplier":
                terms[t] = (DomPoly(), refs)
            elif edit == "drop term":
                del terms[t]
            elif edit == "empty term":
                refs.clear()
            elif edit == "add read":
                refs.append(draw(ref))
            elif refs:
                r = draw(st.integers(0, len(refs) - 1))
                if edit == "offset":
                    refs[r] = (refs[r][0], refs[r][1] + draw(st.sampled_from((-1, 1))))
                elif edit == "swap read":  # any stream of the system: T has only one
                    refs[r] = (draw(st.sampled_from(streams)), refs[r][1])
                else:  # drop read
                    del refs[r]
        table[i] = replace(e, terms=tuple((m, tuple(refs)) for m, refs in terms))
    return system, tuple(table)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutated_tables())
def test_mutated_table_is_refused_or_exact(mutated):
    # every value of an accepted table equals u_s^T M^n v0, which the tests above
    # check against the oracle and the reference DP, and every adopted identity of
    # it holds on those values; nothing else may escape
    system, table = mutated
    first, streams = families._first_n(system), families.STREAMS[system]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(IDENTITIES, system, table)
        try:
            got = [v for _, v in families.stream_values(system, first, 8, streams)]
        except RecurrenceConfigError:
            return
    want = {s: _transfer_values(s, 8) for s in streams}
    for s in streams:
        assert [v[s] for v in got] == want[s][first:]
    for e in (e for e in table if e.adopted):
        for n in range(e.start, 9):
            residual = want[e.lhs][n] - e.rhs(n, lambda t, j: want[t][j])
            assert residual.is_zero(), (e.label, n, residual.to_text())


def _anchor_holds(stream: str, want: dict[int, DomPoly]) -> bool:
    got = _transfer_values(stream, max(want))
    return all(got[n] == p for n, p in want.items())


def test_changed_gadget_edge_fails_oracle_anchor(monkeypatch):
    # the diamond with edge (0,3) moved to (1,3): a 4-cycle plus a chord
    want = _oracle_values("Op", 12)
    assert _anchor_holds("Op", want)
    moved = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 3)])
    monkeypatch.setitem(families._GADGETS, "diamond", moved)
    assert not _anchor_holds("Op", want)


def test_changed_block_edge_fails_oracle_anchor(monkeypatch):
    # the ortho square with its cut edge (0,3) moved to (0,2)
    want = {s: _oracle_values(s, 12) for s in families.STREAMS["O"]}
    assert all(_anchor_holds(s, w) for s, w in want.items())
    monkeypatch.setitem(families._BLOCKS, "O", (3, ((0, 2), (0, 1), (1, 2), (2, 3))))
    assert not any(_anchor_holds(s, w) for s, w in want.items())
