from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from totalpos import Polynomial


coeff_lists = st.lists(st.fractions(max_denominator=20), min_size=0, max_size=6)


def poly(coeffs):
    return Polynomial.make(coeffs)


class TestConstruction:
    def test_trailing_zeros_are_trimmed(self):
        assert poly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_polynomial(self):
        z = Polynomial.make([])
        assert z.coeffs == ()
        assert z.is_zero()
        assert z.degree == -1

    def test_monomial(self):
        assert Polynomial.monomial(3).coeffs == (0, 0, 0, 1)
        assert Polynomial.monomial(0).coeffs == (1,)
        assert Polynomial.monomial(2, 5).coeffs == (0, 0, 5)

    def test_linear_power_expands_binomially(self):
        # (z - 1)^3 = -1 + 3z - 3z^2 + z^3
        assert Polynomial.linear_power(1, 3).coeffs == (-1, 3, -3, 1)
        # (z + 1)^3
        assert Polynomial.linear_power(-1, 3).coeffs == (1, 3, 3, 1)
        assert Polynomial.linear_power(7, 0).coeffs == (1,)

    def test_coefficient_out_of_range_is_zero(self):
        p = poly([Fraction(1, 2), 0, 1])
        assert p.coefficient(0) == Fraction(1, 2)
        assert p.coefficient(7) == 0

    def test_padded_extends_with_zeros(self):
        assert poly([1, 2]).padded(4) == (1, 2, 0, 0)


class TestArithmetic:
    def test_product_example(self):
        assert (poly([1, 1]) * poly([-1, 1])).coeffs == (-1, 0, 1)

    @given(coeff_lists, coeff_lists)
    def test_product_coefficients_are_the_convolution(self, a, b):
        f, g = poly(a), poly(b)
        width = len(a) + len(b)
        assert (f * g).padded(width) == tuple(
            sum(f.coefficient(i) * g.coefficient(k - i) for i in range(k + 1))
            for k in range(width)
        )

    @given(coeff_lists, coeff_lists)
    def test_product_degree_adds(self, a, b):
        f, g = poly(a), poly(b)
        if f.is_zero() or g.is_zero():
            assert (f * g).is_zero()
        else:
            assert (f * g).degree == f.degree + g.degree


class TestValidation:
    def test_monomial_power_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Polynomial.monomial(-1)

    def test_linear_power_exponent_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Polynomial.linear_power(1, -2)
