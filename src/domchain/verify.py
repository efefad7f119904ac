"""Cross-checks every published chain identity against the enumeration oracle.

Each check takes one entry of families.IDENTITIES, builds the actual graphs
on both sides, evaluates the right-hand side from oracle polynomials of the
ingredient graphs, and compares coefficient-exactly with the oracle
polynomial of the subject graph.  The closed streams themselves are then
compared with the oracle.  Checks marked adopted=False exercise variants of
the published system that the oracle rejects; their mismatches are report
content, not failures, and their entries carry the errata.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable

from . import families, oracle
from .families import Erratum
from .poly import DomPoly


@dataclass(frozen=True)
class IdentityCheck:
    family: str
    n: int
    identity: str
    recurrence: DomPoly
    oracle_poly: DomPoly
    adopted: bool = True

    @property
    def match(self) -> bool:
        return self.recurrence == self.oracle_poly

    @property
    def first_mismatch(self) -> int | None:
        """Lowest coefficient index where the two sides differ, or None."""
        return (self.recurrence - self.oracle_poly).gamma()

    def to_json_dict(self) -> dict:
        d = {
            "family": self.family,
            "n": self.n,
            "identity": self.identity,
            "recurrence": self.recurrence.coeff_strings(),
            "oracle": self.oracle_poly.coeff_strings(),
            "match": self.match,
            "adopted": self.adopted,
        }
        if not self.match:
            d["first_mismatch"] = self.first_mismatch
        return d


@dataclass
class VerificationReport:
    max_n: int
    families: tuple[str, ...]
    checks: list[IdentityCheck] = field(default_factory=list)
    errata: list[Erratum] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        """True iff every adopted-form check matches the oracle."""
        return all(c.match for c in self.checks if c.adopted)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok      " if c.match else "MISMATCH"
            tag = "" if c.adopted else "  [literal variant]"
            lines.append(f"{status}  {c.identity}  n={c.n}{tag}")
            if not c.match:
                lines.append(f"          recurrence: {c.recurrence.to_text()}")
                lines.append(f"          oracle:     {c.oracle_poly.to_text()}")
                lines.append(f"          first differing coefficient: x^{c.first_mismatch}")
        if self.errata:
            lines.append("")
            lines.append("errata:")
            for e in self.errata:
                lines.append(f"  - {e.identity}")
                lines.append(f"      stated:    {e.stated}")
                lines.append(f"      validated: {e.validated}")
                lines.append(f"      evidence:  {e.evidence}")
        n_adopted = sum(1 for c in self.checks if c.adopted)
        n_ok = sum(1 for c in self.checks if c.adopted and c.match)
        lines.append("")
        lines.append(
            f"adopted checks: {n_ok}/{n_adopted} match; "
            f"overall: {'ALL MATCH' if self.all_match else 'MISMATCH'}"
        )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "families": list(self.families),
            "all_match": self.all_match,
            "checks": [c.to_json_dict() for c in self.checks],
            "errata": [e.to_json_dict() for e in self.errata],
        }


def verify_families(
    max_n: int = 6,
    family_subset: tuple[str, ...] | None = None,
    include_literal: bool = False,
    cap: int | None = None,
) -> VerificationReport:
    """Check every chain identity against the oracle for all n within the cap.

    Raises ValueError for a cap outside 0..HARD_CAP, max_n < 1 or an empty
    family_subset (None selects every family), and EnumerationCapError when
    a selected family's n = 1 graphs do not all fit the cap, so no run passes
    with no checks.
    """
    cap = oracle.check_cap(cap)
    if max_n < 1:
        raise ValueError(f"max_n >= 1 required, got {max_n}")
    fams = families.CHAIN_FAMILIES if family_subset is None else tuple(family_subset)
    if not fams:
        raise ValueError("family_subset selects no family, so there is nothing to check")

    def largest(fam: str, n: int) -> int:
        """Vertex count of the largest graph in the family's table at n."""
        return max(families.family_order(e.lhs, n, e.subject) for e in families.IDENTITIES[fam])

    for f in fams:
        if f not in families.CHAIN_FAMILIES:
            raise ValueError(f"unknown family {f!r}; expected T, Q, or O")
        oracle.check_order(largest(f, 1), cap)

    @cache
    def poly(family: str, n: int, attachment: str | None) -> DomPoly:
        return oracle.domination_polynomial(
            families.build_chain(family, n, attachment=attachment), cap=cap)

    report = VerificationReport(max_n=max_n, families=fams)
    for fam in families.CHAIN_FAMILIES:
        if fam not in fams:
            continue
        table = families.IDENTITIES[fam]
        top = 1  # the largest n whose graphs all fit the cap
        while top < max_n and largest(fam, top + 1) <= cap:
            top += 1
        for n in range(1, top + 1):
            for e in table:
                if n >= e.start and (e.adopted or include_literal):
                    report.checks.append(IdentityCheck(
                        fam, n, e.label, e.rhs(n, lambda s, k: poly(s, k, None)),
                        poly(e.lhs, n, e.subject), e.adopted,
                    ))
        report.checks.extend(_closed_checks(fam, top, poly))
        # listed by identity name within each family
        for err in sorted((e.erratum for e in table if e.erratum), key=lambda err: err.identity):
            report.errata.append(
                replace(err, evidence=err.evidence + err.literal_note) if include_literal else err
            )
    return report


def _closed_checks(fam: str, top: int, poly: Callable[[str, int, str | None], DomPoly]):
    """The streams as the walks build them against the oracle, n = 1..top.

    The walks run the rule families._certify returns, not the identities checked above,
    so these checks test the walks.
    """
    counts = families.t_count_sequence(top) if fam == "T" else None
    for n, values in families.stream_values(fam, 1, top, families.STREAMS[fam]):
        for s, p in values.items():
            label = ("d(T_n,k) coefficient-table recurrence" if s == "T"
                     else f"closed {s} stream vs oracle")
            yield IdentityCheck(fam, n, label, p, poly(s, n, None))
        if fam == "T":
            yield IdentityCheck("T", n, "t_n = 3t_{n-1} + 2t_{n-2} total-count recurrence",
                                DomPoly((counts[n],)), DomPoly((poly("T", n, None).eval_at(1),)))
