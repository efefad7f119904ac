import pytest
from hypothesis import given, settings, strategies as st

from domchain.poly import DomPoly, ExactDivisionError

polys = st.lists(st.integers(-10**12, 10**12), max_size=8).map(DomPoly)


class TestBasics:
    def test_normalization(self):
        assert DomPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert DomPoly(()).is_zero()
        assert DomPoly((0, 0)).is_zero()

    def test_constructors(self):
        assert DomPoly.zero().degree == -1
        assert DomPoly.one().coeffs == (1,)
        assert DomPoly.x().coeffs == (0, 1)
        assert DomPoly.monomial(3, 2).coeffs == (0, 0, 3)
        assert DomPoly.monomial(0, 5).is_zero()

    def test_getitem_out_of_range(self):
        p = DomPoly((1, 2))
        assert p[5] == 0 and p[-1] == 0 and p[1] == 2

    def test_gamma(self):
        assert DomPoly((0, 0, 3, 1)).gamma() == 2
        assert DomPoly.zero().gamma() is None
        assert DomPoly.one().gamma() == 0

    def test_eval_at(self):
        p = DomPoly((0, 8, 10, 5, 1))  # no x^5 term on purpose
        assert p.eval_at(1) == 24
        assert p.eval_at(0) == 0
        assert p.eval_at(-2) == -16 + 40 - 40 + 16

    def test_scale_by_monomial(self):
        p = DomPoly((1, 1))
        assert p.scale_by_monomial(3, 2).coeffs == (0, 0, 3, 3)
        assert p.scale_by_monomial(0, 2).is_zero()


class TestDivision:
    def test_exact_quotient(self):
        p = DomPoly((-1, 1)) * DomPoly((2, 5, 7))
        assert p.divide_exact_by_x_minus_1() == DomPoly((2, 5, 7))

    def test_zero(self):
        assert DomPoly.zero().divide_exact_by_x_minus_1().is_zero()

    def test_remainder_error_carries_value_at_one(self):
        p = DomPoly((3, 1, 4))
        with pytest.raises(ExactDivisionError) as ei:
            p.divide_exact_by_x_minus_1()
        assert ei.value.remainder == p.eval_at(1)

    @settings(max_examples=100, deadline=None)
    @given(polys)
    def test_multiply_then_divide_roundtrip(self, p):
        assert (p * DomPoly((-1, 1))).divide_exact_by_x_minus_1() == p


class TestRingAxioms:
    @settings(max_examples=80, deadline=None)
    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        assert a * DomPoly.one() == a
        assert (a * DomPoly.zero()).is_zero() and (DomPoly.zero() * a).is_zero()
        assert (a - a).is_zero()

    @settings(max_examples=80, deadline=None)
    @given(polys, polys, st.integers(-20, 20))
    def test_evaluation_is_a_homomorphism(self, a, b, t):
        assert (a + b).eval_at(t) == a.eval_at(t) + b.eval_at(t)
        assert (a * b).eval_at(t) == a.eval_at(t) * b.eval_at(t)


class TestRendering:
    def test_canonical_text(self):
        assert DomPoly((0, 1, 8, 10, 5, 1)).to_text() == "x^5+5x^4+10x^3+8x^2+x"
        assert DomPoly((0, 3, 3, 1)).to_text() == "x^3+3x^2+3x"
        assert DomPoly.zero().to_text() == "0"
        assert DomPoly((7,)).to_text() == "7"
        assert DomPoly((0, 1)).to_text() == "x"
        assert DomPoly((-2, -1, 1)).to_text() == "x^2-x-2"
        assert DomPoly((1, 0, 1)).to_text() == "x^2+1"

    def test_from_text(self):
        assert DomPoly.from_text("x^5+5x^4+10x^3+8x^2+x") == DomPoly((0, 1, 8, 10, 5, 1))
        assert DomPoly.from_text("0") == DomPoly.zero()
        assert DomPoly.from_text("x^2 - x - 2") == DomPoly((-2, -1, 1))
        assert DomPoly.from_text("-x") == DomPoly((0, -1))
        assert DomPoly.from_text("x+x") == DomPoly((0, 2))
        with pytest.raises(ValueError):
            DomPoly.from_text("x^")
        with pytest.raises(ValueError):
            DomPoly.from_text("2y")

    @settings(max_examples=100, deadline=None)
    @given(polys)
    def test_text_roundtrip(self, p):
        assert DomPoly.from_text(p.to_text()) == p

    def test_coeff_strings(self):
        p = DomPoly((0, 0, 15, 29, 21, 7, 1))
        assert p.coeff_strings() == ["0", "0", "15", "29", "21", "7", "1"]
        assert DomPoly.zero().coeff_strings() == ["0"]
        big = DomPoly((10**40,))
        assert DomPoly.from_coeff_strings(big.coeff_strings()) == big

    @settings(max_examples=100, deadline=None)
    @given(polys)
    def test_coeff_strings_roundtrip(self, p):
        assert DomPoly.from_coeff_strings(p.coeff_strings()) == p
