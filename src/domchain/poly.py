"""Exact dense univariate polynomials over Python's arbitrary-precision ints.

Coefficient index i holds the coefficient of x^i.  For a polynomial that is
the domination polynomial of an n-vertex graph, index i equals the number of
dominating sets of size i.  Intermediate recurrence values may have negative
coefficients; only final domination polynomials are expected nonnegative.
"""
from __future__ import annotations

import re
from typing import Iterable, Sequence


class ExactDivisionError(ArithmeticError):
    """Division by (x-1) left a nonzero remainder (a recurrence-contract bug)."""

    def __init__(self, remainder: int):
        super().__init__(f"(x-1) does not divide polynomial: remainder {remainder}")
        self.remainder = remainder


class DomPoly:
    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "DomPoly":
        return cls()

    @classmethod
    def one(cls) -> "DomPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "DomPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, a: int, k: int) -> "DomPoly":
        return cls((0,) * k + (a,))

    # -- structure ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    def __getitem__(self, i: int) -> int:
        return self._c[i] if 0 <= i < len(self._c) else 0

    @property
    def degree(self) -> int:
        """Highest nonzero index; -1 for the zero polynomial."""
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    def gamma(self) -> int | None:
        """Lowest index with a nonzero coefficient (None for zero)."""
        for i, c in enumerate(self._c):
            if c:
                return i
        return None

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "DomPoly") -> "DomPoly":
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DomPoly(out)

    def __sub__(self, other: "DomPoly") -> "DomPoly":
        return self + -other

    def __neg__(self) -> "DomPoly":
        return DomPoly(-c for c in self._c)

    def __mul__(self, other: "DomPoly") -> "DomPoly":
        out = [0] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return DomPoly(out)

    def scale_by_monomial(self, a: int, k: int) -> "DomPoly":
        """self * a*x^k."""
        return DomPoly([0] * k + [a * c for c in self._c])

    def eval_at(self, t: int) -> int:
        acc = 0
        for c in reversed(self._c):
            acc = acc * t + c
        return acc

    def divide_exact_by_x_minus_1(self) -> "DomPoly":
        """Exact quotient q with (x-1)*q == self; raises if the remainder is nonzero."""
        if not self._c:
            return DomPoly()
        q = [0] * (len(self._c) - 1)
        carry = 0
        for i in range(len(self._c) - 1, 0, -1):
            carry += self._c[i]
            q[i - 1] = carry
        remainder = self._c[0] + carry
        if remainder != 0:
            raise ExactDivisionError(remainder)
        return DomPoly(q)

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DomPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"DomPoly({self.to_text()!r})"

    # -- text / JSON renderings ---------------------------------------------------

    def to_text(self) -> str:
        """Descending powers with explicit '^', e.g. 'x^5+5x^4+10x^3+8x^2+x'."""
        if not self._c:
            return "0"
        parts = []
        for i in range(len(self._c) - 1, -1, -1):
            c = self._c[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                term = var if mag == 1 else f"{mag}{var}"
            sign = "-" if c < 0 else ("" if not parts else "+")
            parts.append(sign + term)
        return "".join(parts)

    _TERM_RE = re.compile(r"^([+-]?)(\d*)(?:(x)(?:\^(\d+))?)?$")

    @classmethod
    def from_text(cls, text: str) -> "DomPoly":
        s = text.replace(" ", "")
        if s in ("", "0"):
            return cls()
        # split keeping signs attached to each term
        terms = re.findall(r"[+-]?[^+-]+", s)
        coeffs: dict[int, int] = {}
        for term in terms:
            m = cls._TERM_RE.match(term)
            if not m or (not m.group(2) and not m.group(3)):
                raise ValueError(f"cannot parse polynomial term {term!r}")
            sign = -1 if m.group(1) == "-" else 1
            coef = int(m.group(2)) if m.group(2) else 1
            if m.group(3):
                power = int(m.group(4)) if m.group(4) else 1
            else:
                power = 0
            coeffs[power] = coeffs.get(power, 0) + sign * coef
        out = [0] * (max(coeffs) + 1)
        for k, v in coeffs.items():
            out[k] = v
        return cls(out)

    def coeff_strings(self) -> list[str]:
        """Ascending decimal-string coefficients from index 0 (big-int safe JSON)."""
        if not self._c:
            return ["0"]
        return [str(c) for c in self._c]

    @classmethod
    def from_coeff_strings(cls, strings: Sequence[str]) -> "DomPoly":
        return cls(int(s) for s in strings)
