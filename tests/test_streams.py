"""The closed T/Q/O stream pass against a plain DomPoly evaluation of the identity table.

The reference here evaluates every adopted Identity.rhs on DomPoly values over
the stated bases in a plain loop, independent of how families evaluates the
streams, and the failure tests pin the exact RecurrenceConfigError messages.
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
from domchain.poly import DomPoly

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
                vals[s, k] = families._BASES[s][k]
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


# -- failures keep their messages ------------------------------------------------

@pytest.mark.parametrize("stream, k, text, call, message", [
    ("T", 1, "x^4+3x^2+3x", "T", "T-chain n=1: degree 4 != vertex count 3"),
    ("Q2", 0, "2x^3+3x^2+x", "Q", "Q2 stream n=0: leading coefficient 2 != 1"),
    ("Otri", 0, "x^3+3x^2+3x+1", "O+e", "Otri stream n=0: nonzero constant term 1"),
    ("Op", 0, "x^4+4x^3-6x^2+2x", "Op", "Op stream n=0: negative coefficient"),
])
def test_bad_base_is_rejected(monkeypatch, stream, k, text, call, message):
    monkeypatch.setitem(families._BASES[stream], k, _p(text))
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial(call, 6)
    assert str(ei.value) == message


def _with_multiplier(monkeypatch, fam: str, lhs: str, old: str, new: str) -> None:
    """Replace one multiplier of the adopted identity for `lhs`."""
    def swap(e):
        if not (e.adopted and e.lhs == lhs):
            return e
        return replace(e, terms=tuple((_p(new) if m == _p(old) else m, refs)
                                      for m, refs in e.terms))
    monkeypatch.setitem(IDENTITIES, fam, tuple(map(swap, IDENTITIES[fam])))


@pytest.mark.parametrize("fam, lhs, old, new, message", [
    ("T", "T", "x^2+2x", "x^3+2x", "T-chain n=3: degree 8 != vertex count 7"),
    ("Q", "Qp", "-x", "-5x", "Qp stream n=1: negative coefficient"),
    ("O", "O", "x^2+2x", "2x^2+2x", "O-chain n=2: leading coefficient 2 != 1"),
    ("O", "O", "x^2+2x", "-x^2+2x", "O-chain n=2: leading coefficient -1 != 1"),
])
def test_wrong_multiplier_is_rejected(monkeypatch, fam, lhs, old, new, message):
    _with_multiplier(monkeypatch, fam, lhs, old, new)
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial(fam, 8)
    assert str(ei.value) == message


# -- packed evaluation ---------------------------------------------------------------

@pytest.mark.parametrize("top", [1, 8, 9, 101, 830])
def test_packing_round_trips_every_coefficient_below_two_to_the_top(top):
    # B is top rounded up to whole bytes; digits 0, 1, 2^top - 1 and a long zero run
    packing = families._Packing(top)
    assert packing.bits % 8 == 0 and top <= packing.bits < top + 8
    p = DomPoly([0, (1 << top) - 1, *[0] * 20, 1, (1 << top) - 2, 1])
    assert packing.unpack(p.eval_at(1 << packing.bits)) == p


def test_heavy_multiplier_is_read_exactly(monkeypatch):
    # B grows with the identity's weight, so the digits still read back exactly
    _with_multiplier(monkeypatch, "T", "T", "x^2+2x", "x^2+1000000x")
    want = max(_plain_streams("T", 3)["T", 3].coeffs)
    assert want > 1 << 23
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial("T", 5)
    assert str(ei.value) == f"T-chain n=3: coefficient {want} exceeds 2^7"


@pytest.mark.parametrize("hi", [3, 5, 8])
def test_returned_value_passes_the_subset_count_rule(monkeypatch, hi):
    # T_3's coefficients stay below 2^(top+1), so the pass keeps the value, but 212
    # is not below 2^7: it is refused, whether it is returned or only looked back to
    _with_multiplier(monkeypatch, "T", "T", "x^2+2x", "x^2+20x")
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial("T", hi)
    assert str(ei.value) == "T-chain n=3: coefficient 212 exceeds 2^7"


def test_base_coefficient_above_subset_count_is_rejected(monkeypatch):
    monkeypatch.setitem(families._BASES["Qtri"], 0, _p(f"x^3+3x^2+{1 << 40}x"))
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial("Qtri", 2)
    assert str(ei.value) == f"Qtri stream n=0: coefficient {1 << 40} exceeds 2^3"


@pytest.mark.parametrize("text, message", [
    ("x^4+4x^3-6x^2+2x", "Op stream n=0: negative coefficient"),
    ("-x^4+4x^3+6x^2+2x", "Op stream n=0: leading coefficient -1 != 1"),
    ("x^4+4x^3+6x^2+2x+1", "Op stream n=0: nonzero constant term 1"),
    ("x^5+4x^3+6x^2+2x", "Op stream n=0: degree 5 != vertex count 4"),
    ("x^4+4x^3+32x^2+2x", "Op stream n=0: coefficient 32 exceeds 2^4"),
    ("x^4+4x^3+31x^2+2x", "Op stream n=0: coefficient 31 exceeds 2^4"),
    # fits _validated's rules, and so does every value the checked pass builds on it
    ("x^4+4x^3+6x^2+3x", "O system: not certified by its transfer matrix"),
])
def test_base_that_is_not_the_graph_fails_the_certificate(monkeypatch, text, message):
    # any Op_0 base but the graph's own breaks the proof, and the pass refuses the system
    monkeypatch.setitem(families._BASES["Op"], 0, _p(text))
    assert not transfer.certify(families._tables("O"))
    with pytest.raises(RecurrenceConfigError) as ei:
        family_polynomial("Op", 2)
    assert str(ei.value) == message
