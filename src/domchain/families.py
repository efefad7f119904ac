"""Cactus chain families, built from three tables, and their closed recurrence systems.

A chain family is one block repeated n times (_BLOCKS: a width and the block's
edges in local labels, cut vertices at local 0 and width); block k puts local
i at vertex width*k + i, so the free terminal is vertex width*n.  T chains
triangles, Q (para) squares cut at opposite corners, O (ortho) squares cut at
adjacent corners.  An attachment kind is one small graph (_GADGETS) whose
vertex 0 is coalesced with the vertex it attaches at, so its i >= 1 become
new vertices in order.  Each gadget family attaches its adopted kind
(_SYSTEMS) at the terminal: X+e a pendant vertex, Xtri a triangle, X2 a
pendant path of length 2, Qp two pendant vertices, Op a diamond (K4 minus an
edge) sharing a degree-3 vertex.  Graphs, vertex counts and terminals are all
read from these three tables.

The X2/Qp/Op shapes are fixed by oracle arbitration of the published
identities, not by the stated one-line descriptions: the two-pendant star
has the paper's stated n=0 polynomial but fails every identity that consumes
the X(2) stream from n=1 on, while the pendant path satisfies all of them
(and symmetrically for the primed stream).  The errata in IDENTITIES record
the evidence.

Every recurrence identity of the three systems is declared once, as data, in
IDENTITIES; a literal-paper variant is an entry with adopted=False that carries
its erratum.  The identities are read only by the certificate (_certify) and by
verify.py.  The packed and count walks behind every polynomial and count view
here run none of them: each requested stream is one walk (_walk) of the scalar
rule every stream obeys (transfer.characteristic says why), a_k = c_1 a_(k-1) +
... + c_d a_(k-d) with d <= 3, reading only the stream itself and keeping only
its last d values.  For T it is the paper's identity.

A walk at B > 0 runs on packed integers (Kronecker substitution, as in Harvey,
arXiv:0712.4046, but packed once per walk rather than once per product).
Every coefficient of D(X_k, x) below x^gamma(X_k) is zero, so each value is
held as a pair (w, e) with D(X_k, 2^B) = w << e*B and e <= gamma: the zero
digits below x^e are never stored, shifted or added.  An initial value is held
with e its own gamma.  Evaluation at 2^B is a ring homomorphism, so a step
applies each c_i power by power of x, never as one big product: c_i's
coefficient a at x^j lands at the effective power j + e_(k-i), and the
small-integer combinations per effective power are joined by Horner steps from
the top power down, each gap in one shift.  The new value's e is the lowest
effective power, and no shift follows it.  e <= gamma holds at every step: no
term a x^j a_(k-i) has a power below j + e_(k-i), so neither has their sum, and
cancellation can only raise gamma.  B = 0 is the count walk behind `sequence`,
on the plain ints D(X_k, 1), each c_i read at x = 1: it has no zero digits to
strip, and carrying e there doubled its time.

A walk runs only the rule and initial values _certify proves and returns, so
every value is a domination polynomial, with coefficients in [0, 2^order) as
d(G,k) <= C(order,k): the walk checks no value, and B is the system's top order
in whole bytes.
"""
from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, reduce
from itertools import islice
from operator import add
from types import MappingProxyType
from typing import Callable

from . import transfer
from .graph import MAX_EDGE_LIST_VERTICES, Graph, coalesce
from .poly import DomPoly

# each closed system's streams in evaluation order (no stream refers to a later
# one at the same n), each with its adopted attachment kind (None: the plain
# chain); the kinds are adopted by oracle arbitration, see the module docstring
# and the errata below
_SYSTEMS = {
    "T": {"T": None},
    "Q": {"Q": None, "Q+e": "pendant", "Qtri": "triangle", "Q2": "pendant_path",
          "Qp": "two_pendants"},
    "O": {"O": None, "O+e": "pendant", "Otri": "triangle", "O2": "pendant_path",
          "Op": "diamond"},
}
CHAIN_FAMILIES = tuple(_SYSTEMS)
STREAMS = {system: tuple(streams) for system, streams in _SYSTEMS.items()}
GADGET_FAMILIES = tuple(s for streams in STREAMS.values() for s in streams[1:])
FAMILY_NAMES = CHAIN_FAMILIES + GADGET_FAMILIES

# family -> (width, block edges in local labels 0..width)
_BLOCKS = {
    "T": (2, ((0, 1), (1, 2), (0, 2))),
    "Q": (3, ((0, 1), (0, 2), (1, 3), (2, 3))),
    "O": (3, ((0, 3), (0, 1), (1, 2), (2, 3))),
}

# kind -> gadget graph (0: the attachment vertex, i >= 1: new vertices)
_GADGETS = {kind: Graph.from_edges(max(map(max, edges)) + 1, edges) for kind, edges in {
    "pendant": ((0, 1),),
    "triangle": ((0, 1), (1, 2), (2, 0)),
    "pendant_path": ((0, 1), (1, 2)),
    "two_pendants": ((0, 1), (0, 2)),
    "diamond": ((0, 1), (1, 2), (2, 0), (0, 3), (2, 3)),  # 0 and 2: the degree-3 pair
}.items()}


class RecurrenceConfigError(RuntimeError):
    """A closed system _certify refuses, naming the stream or rule that fails."""

    def __init__(self, identity: str, detail: str):
        super().__init__(f"{identity}: {detail}")
        self.identity = identity


def _first_n(family: str, recurrence: bool = False) -> int:
    """First valid n of the family's graphs or, with `recurrence`, of its closed recurrence.

    Graphs start at n = 1 for T and n = 0 otherwise; the plain chains' closed
    recurrences start at n = 1.
    """
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    return 1 if family == "T" or (recurrence and family in CHAIN_FAMILIES) else 0


def _check_first(family: str, n: int, recurrence: bool = False) -> None:
    """Refuse an n below the family's first graph n (or `recurrence` n)."""
    low = _first_n(family, recurrence)
    if n < low:
        what = "recurrences" if recurrence else "graphs"
        raise ValueError(f"family {family} {what} start at n = {low}, got {n}")


def check_n(family: str, *ns: int, recurrence: bool = False) -> int:
    """Refuse, for each n in turn, an n below the first graph n (or `recurrence` n),
    then an oversized member or, with `recurrence`, an oversized member of any stream
    of its system; return the largest vertex count checked.  B and the vertex limit of
    a walk are sized for the system's largest stream, so every reader of a system
    refuses at the same n."""
    top = 0
    for n in ns:
        _check_first(family, n, recurrence)
        # the family's own member first, so its refusal names it
        for s in (family,) + (STREAMS[family[0]] if recurrence else ()):
            order = family_order(s, n)
            if order > MAX_EDGE_LIST_VERTICES:
                raise ValueError(f"family {s} at n={n} has {order} vertices, "
                                 f"limit is {MAX_EDGE_LIST_VERTICES}")
            top = max(top, order)
    return top


# -- constructors ----------------------------------------------------------

def _gadget(kind: str) -> Graph:
    """The named attachment graph."""
    if kind not in _GADGETS:
        raise ValueError(f"unknown attachment kind {kind!r}")
    return _GADGETS[kind]


def _attached(family: str, attachment: str | None) -> Graph | None:
    """The gadget at the family member's terminal, None for a plain chain."""
    _first_n(family)  # refuses an unknown family
    adopted = _SYSTEMS[family[0]][family]
    if adopted is None:
        if attachment is not None:
            raise ValueError("plain chains take no attachment")
        return None
    return _gadget(attachment or adopted)


def family_order(family: str, n: int, attachment: str | None = None) -> int:
    """Vertex count of the family member; `attachment` overrides the adopted shape."""
    gadget = _attached(family, attachment)
    _check_first(family, n)
    return _BLOCKS[family[0]][0] * n + (1 if gadget is None else gadget.n)


def attach_gadget(g: Graph, v: int, kind: str) -> Graph:
    """Attach the named structure at vertex v (new vertices labeled upward)."""
    return coalesce(g, v, _gadget(kind), 0)


def build_chain(family: str, n: int, attachment: str | None = None) -> Graph:
    """Build a chain or gadget graph; `attachment` overrides the adopted shape."""
    check_n(family, n)
    gadget = _attached(family, attachment)
    width, block = _BLOCKS[family[0]]
    # equal to coalescing n blocks end to end (local width onto the next local 0),
    # but one pass over the edges instead of a copy per block
    chain = Graph.from_edges(
        width * n + 1, [(width * k + a, width * k + b) for k in range(n) for a, b in block])
    return chain if gadget is None else coalesce(chain, width * n, gadget, 0)  # at the free end


def triangle_chain(n: int) -> Graph:
    """T_n, n >= 1."""
    return build_chain("T", n)


def para_chain(n: int) -> Graph:
    """Q_n; Q_0 is the single-vertex graph."""
    return build_chain("Q", n)


def ortho_chain(n: int) -> Graph:
    """O_n; O_0 is the single-vertex graph."""
    return build_chain("O", n)


# -- the identities, declared once --------------------------------------------

@dataclass(frozen=True)
class Erratum:
    identity: str
    stated: str
    validated: str
    evidence: str
    literal_note: str = ""  # appended to the evidence when literal checks are reported

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "literal_note"}


Ref = tuple[str, int]  # (stream, index offset from n)


@dataclass(frozen=True)
class Identity:
    """lhs_n = sum over terms of multiplier * (sum of stream_{n+offset}), for n >= start."""

    lhs: str
    terms: tuple[tuple[DomPoly, tuple[Ref, ...]], ...]
    start: int
    label: str                     # the check's name in the verify report
    adopted: bool = True           # False: a literal-paper variant the oracle rejects
    subject: str | None = None     # attachment of the left-hand graph, if not the adopted one
    erratum: Erratum | None = None  # where the published statement differs

    def rhs(self, n: int, value: Callable[[str, int], DomPoly]) -> DomPoly:
        """Right-hand side at n, with value(stream, k) supplying each referenced term."""
        return reduce(add, (mult * reduce(add, (value(s, n + off) for s, off in refs))
                            for mult, refs in self.terms))


_p = DomPoly.from_text


def _identity(lhs: str, terms, start: int, label: str, **kw) -> Identity:
    """An Identity whose multipliers are written as polynomial text."""
    return Identity(lhs, tuple((_p(m), tuple(refs)) for m, refs in terms), start, label, **kw)


_Q_II = _identity("Q2", [("x", [("Q+e", 0), ("Q", 0), ("Qp", -1)])], 1,
                  "Q pendant-pair identity (ii)")
_O_II = _identity("O2", [("x", [("O+e", 0), ("O", 0), ("O2", -1)])], 1,
                  "O pendant-pair identity (ii)")

# per family, in verify check order
IDENTITIES: dict[str, tuple[Identity, ...]] = {
    "T": (
        _identity("T", [("x^2+2x", [("T", -1)]), ("x^2+x", [("T", -2)])], 3,
                  "T-chain order-2 polynomial recurrence"),
    ),
    "Q": (
        _identity("Qtri", [("1+x", [("Q+e", 0)]), ("x", [("Qp", -1)])], 1,
                  "Q triangle-gadget identity (i)"),
        _Q_II,
        _identity("Qp", [("1+x", [("Q+e", 0)]), ("-x", [("Qp", -1)])], 1,
                  "Q primed identity (iii), adopted -x form"),
        _identity(
            "Qp", [("1+x", [("Q+e", 0)]), ("-x^2", [("Qp", -1)])], 1,
            "Q primed identity (iii), proof-line -x^2 variant", adopted=False,
            erratum=Erratum(
                identity="Q primed identity (iii)",
                stated="statement subtracts x*D(Q_{n-1}'); the accompanying derivation "
                       "ends with x^2*D(Q_{n-1}') instead",
                validated="coefficient x (the statement form); the derivation's x^2 is a typo",
                evidence="the -x form matches the oracle for every checked n; the -x^2 "
                         "variant first diverges at n=1",
                literal_note=" (see the literal-variant checks above)",
            )),
        replace(
            _Q_II, label="Q pendant-pair identity (ii), two-pendant star shape",
            adopted=False, subject="two_pendants",
            erratum=Erratum(
                identity="Q_n(2) gadget shape",
                stated="two extra vertices at the terminal (figure-only definition, "
                       "base polynomial x^3+3x^2+x fits both a 2-pendant star and a "
                       "pendant 2-path)",
                validated="pendant path of length 2 at the terminal vertex",
                evidence="the star shape reproduces the n=0 base but fails the "
                         "pendant-pair identity (ii) from n=1 on; the path shape "
                         "matches the oracle for all checked n",
            )),
        _identity("Q+e", [("x", [("Q", 0), ("Q", -1), ("Qp", -1)]), ("2x^2", [("Qp", -2)])], 2,
                  "Q pendant identity (iv)"),
        _identity("Q", [("x^3+2x^2+x", [("Q", -1)]), ("x^3+2x^2", [("Q", -2)]),
                        ("x^3+3x^2", [("Qp", -2)]), ("2x^4+4x^3", [("Qp", -3)])], 3,
                  "Q-chain order-3 theorem recurrence"),
    ),
    "O": (
        _identity("Otri", [("1+x", [("O+e", 0)]), ("x", [("O2", -1)])], 1,
                  "O triangle-gadget identity (i)"),
        _O_II,
        _identity("Op", [("1+x", [("Otri", 0)]), ("-x", [("O2", -1)])], 1,
                  "O primed identity (iii)"),
        replace(
            _O_II, label="O pendant-pair identity (ii), two-pendant star shape",
            adopted=False, subject="two_pendants",
            erratum=Erratum(
                identity="O_n(2) gadget shape",
                stated="two extra vertices at the terminal (figure-only definition)",
                validated="pendant path of length 2 at the terminal vertex",
                evidence="as for Q_n(2): the star shape fails identities (i)-(iv) "
                         "from n=1 on, the path shape matches the oracle throughout",
            )),
        _identity("O+e", [("x", [("Op", -1), ("O2", -1)]), ("x^2", [("O2", -2)])], 2,
                  "O pendant identity (iv), adopted index-shifted form"),
        _identity(
            "O+e", [("x", [("Op", 0), ("O2", -1)]), ("x^2", [("O2", -2)])], 2,
            "O pendant identity (iv), literal unshifted form", adopted=False,
            erratum=Erratum(
                identity="O pendant identity (iv)",
                stated="x*D(O_n') + x*D(O_{n-1}(2)) + x^2*D(O_{n-2}(2))",
                validated="x*D(O_{n-1}') + x*D(O_{n-1}(2)) + x^2*D(O_{n-2}(2))",
                evidence="the stated form is degree-inconsistent (x*D(O_n') has degree "
                         "3n+5, the left side 3n+2) and fails the oracle for all n>=2; "
                         "shifting the primed index to n-1 matches exactly",
            )),
        _identity(
            "O", [("x", [("O", -1)]), ("x^2+2x", [("O+e", -1)]), ("x^2", [("O2", -2)])], 2,
            "O-chain theorem recurrence",
            erratum=Erratum(
                identity="O-chain theorem heading",
                stated="names O_n a para-chain",
                validated="O_n is the ortho-chain (adjacent cut vertices); Q_n is the "
                          "para-chain",
                evidence="naming only; no formula affected",
            )),
    ),
}

T0_COUNT_SEED = 2  # formal seed of the count sequence; T_0 is not a graph here


# -- stream evaluation ------------------------------------------------------------

class _Packing:
    """Polynomials packed at x = 2^bits, for a walk of a proven rule up to `top` vertices."""

    def __init__(self, top: int):
        # certified coefficients lie in [0, 2^order) with order <= top
        self.bits = -(-top // 8) * 8

    def unpack(self, v: int, e: int = 0) -> DomPoly:
        """x^e times the polynomial whose coefficients are the B-bit digits of v >= 0,
        read as byte slices."""
        width = self.bits // 8
        raw = v.to_bytes((v.bit_length() // self.bits + 1) * width, "little")
        return DomPoly([0] * e + [int.from_bytes(raw[i:i + width], "little")
                                  for i in range(0, len(raw), width)])


def _held(p: DomPoly, bits: int):
    """p as a walk at `bits` holds it: the int D(p, 1) (0), or the pair (w, e) with
    e = gamma(p) and D(p, 2^bits) = w << e*bits."""
    if not bits:
        return p.eval_at(1)
    e = p.gamma() or 0
    return DomPoly(p.coeffs[e:]).eval_at(1 << bits), e


def _walk(cs: tuple[DomPoly, ...], initial: tuple[DomPoly, ...], hi: int, bits: int):
    """Yield a_k for k = 0..hi as _held holds it at `bits`, with no value checked (cs and
    initial are _certify's): initial[k] below len(initial), then a_k = c_1 a_(k-1) + ... +
    c_d a_(k-d), d = len(cs).  Only the last d values are kept (see the module docstring)."""
    last: deque = deque(maxlen=len(cs))
    at_one = [c.eval_at(1) for c in cs]
    powers = [[(j, a) for j, a in enumerate(c.coeffs) if a] for c in cs]
    for k in range(hi + 1):
        if k < len(initial):
            v = _held(initial[k], bits)
        elif not bits:
            v = 0
            for c, a in zip(at_one, reversed(last)):
                v += a if c == 1 else c * a
        else:
            at: dict[int, list[tuple[int, int]]] = {}  # effective power -> (coefficient, w)
            for terms, (w, e) in zip(powers, reversed(last)):
                for j, a in terms:
                    at.setdefault(j + e, []).append((a, w))
            acc = low = None
            for p in sorted(at, reverse=True):  # Horner from the top power, each gap one shift
                if acc is not None:
                    acc <<= (low - p) * bits
                for a, w in at[p]:
                    if acc is None:  # the first term, not copied into a zero accumulator
                        acc = w if a == 1 else a * w
                    elif a == 1:
                        acc += w
                    elif a == -1:
                        acc -= w
                    else:
                        acc += a * w
                low = p
            v = acc, low
        last.append(v)
        yield v


def _tables(system: str) -> tuple:
    """The live tables _certify reads: its cache key."""
    gadgets = tuple((s, _attached(s, None)) for s in STREAMS[system])
    return system, _BLOCKS[system], gadgets, IDENTITIES[system]


@lru_cache(maxsize=None)
def _certify(tables: tuple) -> tuple:
    """Prove the system `tables` names for every n and return the rule every walk runs:
    (cs, {stream: its initial values u_s^T M^k v0 for k < first graph n + len(cs)}), with
    cs = transfer.characteristic of the block, the same for every stream.

    Refuse first a table that is no closed recurrence system: an adopted identity
    whose left side is no stream of the system, a stream with no or several adopted
    identities, an identity with no terms or with a term that reads no stream, a read
    that evaluation in stream order has not reached (a later or foreign stream, the
    stream itself or n ahead), or a start whose deepest read lies below the first graph
    n.  Then, by each rule's residual lhs_n - rhs_n on the transfer values at its start,
    start + 1 and start + 2 (_proven), refuse the first adopted identity that fails and
    then the first stream whose characteristic rule fails.  Three zeros are zero at every
    n (transfer.py's three-point lemma), so the transfer values, which are the graphs'
    domination polynomials, satisfy every identity of this closed system, and the walks
    of cs from these initial values yield exactly them.
    """
    system, block, gadgets, identities = tables
    streams = [s for s, _ in gadgets]
    first = _first_n(system)
    for e in identities:
        if e.adopted and e.lhs not in streams:
            raise RecurrenceConfigError(e.label, f"left side {e.lhs} is no stream of {system}")
    rules = []
    for i, s in enumerate(streams):
        adopted = [e for e in identities if e.adopted and e.lhs == s]
        if len(adopted) != 1:
            raise RecurrenceConfigError(f"{s} stream", f"{len(adopted)} adopted identities"
                                        if adopted else "no adopted identity")
        e = adopted[0]
        if not e.terms:
            raise RecurrenceConfigError(e.label, "no terms")
        if not all(refs for _, refs in e.terms):
            raise RecurrenceConfigError(e.label, "a term reads no stream")
        for t, off in (ref for _, refs in e.terms for ref in refs):
            if t not in (streams if off < 0 else streams[:i] if off == 0 else ()):
                raise RecurrenceConfigError(
                    e.label, f"reads {t} at offset {off}, which evaluation in stream order "
                             f"has not reached")
        low = e.start + min(off for _, refs in e.terms for _, off in refs)  # the deepest read
        if low < first:
            raise RecurrenceConfigError(
                e.label, f"starts at n={e.start}, reading n={low} below the first graph n={first}")
        rules.append(e)
    cs = transfer.characteristic(block)
    start = first + len(cs)
    want = _proven(system, block, gadgets, rules, [
        Identity(s, tuple((c, ((s, -i),)) for i, c in enumerate(cs, 1)), start,
                 f"{s} characteristic recurrence") for s in streams])
    # read-only: the cache hands this one mapping to every caller
    return cs, MappingProxyType({s: tuple(want[s][:start]) for s in streams})


def _proven(system: str, block: tuple, gadgets: tuple, identities: list,
            characteristic: list) -> dict:
    """{stream: u_s^T M^n v0 for n up to the largest start + 2}, once every rule of
    `identities` and then of `characteristic` passes _certify's residual check, taken on
    the rule's left-hand stream; each list by n and then in evaluation order."""
    ws = transfer.states(block, max(e.start for e in identities + characteristic) + 2)
    u = {s: transfer.finish(g) for s, g in gadgets}
    want = {s: [transfer.dot(u[s], w) for w in ws] for s in u}
    for rules in (identities, characteristic):
        for n in range(_first_n(system), len(ws)):
            for e in rules:
                if n >= e.start:
                    r = want[e.lhs][n] - e.rhs(n, lambda t, j: want[t][j])
                    if not r.is_zero():
                        raise RecurrenceConfigError(e.label,
                                                    f"nonzero residual {r.to_text()} at n={n}")
    return want


def stream_values(family: str, lo: int, hi: int, streams: tuple[str, ...]):
    """(k, {stream: polynomial}) for k = lo..hi, yielded bottom-up.

    Every listed stream of a closed system, as verify and q_stream/o_stream read
    them; every refusal is raised by the call itself.  Each listed stream is one
    walk of its characteristic rule, packed with one B sized for every stream of
    the system, and unpacked at k >= lo.
    """
    for s in streams:
        if s not in STREAMS.get(family, ()):
            raise ValueError(f"no stream {s!r} in the {family} system; systems are {STREAMS}")
    if family not in STREAMS:
        raise ValueError(f"no system {family!r}; systems are {STREAMS}")
    top = max(check_n(s, lo, hi) for s in STREAMS[family])
    cs, initial = _certify(_tables(family))  # refused before anything is packed
    packing = _Packing(top)
    walks = {s: islice(_walk(cs, initial[s], hi, packing.bits), lo, None) for s in streams}
    return ((k, {s: packing.unpack(*next(w)) for s, w in walks.items()})
            for k in range(lo, hi + 1))


def family_values(family: str, lo: int, hi: int):
    """(n, family_polynomial(family, n)) for n = lo..hi, yielded from one walk up to hi;
    every refusal is raised by this call."""
    check_n(family, lo, hi, recurrence=True)
    return ((n, v[family]) for n, v in stream_values(family[0], lo, hi, (family,)))


def family_polynomials(family: str, lo: int, hi: int) -> list[DomPoly]:
    """family_polynomial for n = lo..hi, all from one walk up to hi."""
    return [p for _, p in family_values(family, lo, hi)]


def family_polynomial(family: str, n: int) -> DomPoly:
    """Recurrence-path polynomial for any family name, including gadget streams."""
    return family_polynomials(family, n, n)[0]


def family_counts(family: str, lo: int, hi: int) -> list[int]:
    """D(X_n, 1) for n = lo..hi: the count walk (B = 0) of the proven rule."""
    check_n(family, lo, hi, recurrence=True)
    cs, initial = _certify(_tables(family[0]))
    return list(islice(_walk(cs, initial[family], hi, 0), lo, None))


def count_sequence(family: str, max_n: int) -> tuple[int, list[int]]:
    """(start n, counts): `sequence`'s D(X_n, 1) for n = 1..max_n, T's after its formal seed."""
    if family == "T":
        return 0, t_count_sequence(max_n)
    return 1, family_counts(family, 1, max_n)


# -- T chain ----------------------------------------------------------------------

def t_polynomial(n: int) -> DomPoly:
    """D(T_n,x) by the order-2 polynomial recurrence."""
    return family_polynomial("T", n)


def t_coefficient_table(n: int) -> list[int]:
    """Row of dominating-set counts d(T_n, k), k = 0..2n+1: the coefficients of t_polynomial."""
    return list(family_polynomial("T", n).coeffs)


def t_count_sequence(n_max: int) -> list[int]:
    """t_0..t_{n_max}: the formal seed T0_COUNT_SEED, then D(T_n, 1) from the count walk."""
    if n_max < 0:
        raise ValueError(f"n_max >= 0 required, got {n_max}")
    return [T0_COUNT_SEED, *family_counts("T", 1, max(n_max, 1))][: n_max + 1]


# -- Q and O chains: streams of the closed systems --------------------------------

def q_stream(n: int) -> list[dict[str, DomPoly]]:
    """Bottom-up Q-stream values for k = 0..n, each keyed by STREAMS["Q"]."""
    return [v for _, v in stream_values("Q", 0, n, STREAMS["Q"])]


def q_polynomial(n: int) -> DomPoly:
    """D(Q_n,x) by the walk of the certified Q system."""
    return family_polynomial("Q", n)


def o_stream(n: int) -> list[dict[str, DomPoly]]:
    """Bottom-up O-stream values for k = 0..n, each keyed by STREAMS["O"]."""
    return [v for _, v in stream_values("O", 0, n, STREAMS["O"])]


def o_polynomial(n: int) -> DomPoly:
    """D(O_n,x) by the walk of the certified O system."""
    return family_polynomial("O", n)
