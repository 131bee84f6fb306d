from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from totalpos import (
    binomial,
    format_rational,
    parse_rational,
    pochhammer,
    saalschuetz_check,
)
from totalpos.scalars import SaalschuetzCheck


def saalschuetz_oracle(a: int, b: int, k: int) -> SaalschuetzCheck:
    """Independent oracle: the balanced sum with every Pochhammer product
    of every term computed afresh, in Fraction arithmetic."""
    if a < 0:
        raise ValueError("a must be >= 0")
    lhs = Fraction(0)
    for s in range(a + 1):
        den1 = pochhammer(-a - b + 1, s)
        den2 = pochhammer(-k - a - b + 2, s)
        if den1 == 0 or den2 == 0:
            raise ValueError(
                f"denominator factor vanishes at s={s}; need a, b, k >= 1"
            )
        num = pochhammer(1, s) * pochhammer(-k - a - 2 * b + 1, s) * pochhammer(-a, s)
        lhs += Fraction(num, den1 * den2 * math.factorial(s))
    rden = (k + b - 1) * b
    if rden == 0:
        raise ValueError("right-side denominator vanishes; need b, k >= 1")
    rhs = Fraction((k + a + b - 1) * (a + b), rden)
    return SaalschuetzCheck(lhs == rhs, lhs, rhs)


class TestBinomial:
    def test_matches_comb_for_nonnegative_arguments(self):
        for n in range(0, 12):
            for k in range(0, 12):
                assert binomial(n, k) == math.comb(n, k)

    def test_vanishes_above_the_diagonal(self):
        assert binomial(3, 5) == 0
        assert binomial(0, 1) == 0

    def test_negative_upper_argument_uses_falling_factorial(self):
        # binomial(n, k) = n(n-1)...(n-k+1)/k! for any integer n.
        assert binomial(-1, 2) == 1
        assert binomial(-1, 3) == -1
        assert binomial(-2, 2) == 3
        assert binomial(-3, 1) == -3

    def test_negative_lower_argument_gives_zero(self):
        assert binomial(3, -1) == 0
        assert binomial(-2, -1) == 0

    @given(st.integers(-20, 20), st.integers(1, 12))
    def test_pascal_recurrence(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)

    @given(st.integers(-20, 20), st.integers(1, 12))
    def test_falling_factorial_quotient(self, n, k):
        prod = 1
        for step in range(k):
            prod *= n - step
        assert binomial(n, k) * math.factorial(k) == prod


class TestPochhammer:
    def test_small_integer_values(self):
        assert pochhammer(3, 0) == 1
        assert pochhammer(3, 1) == 3
        assert pochhammer(3, 2) == 12
        assert pochhammer(1, 4) == 24

    def test_rational_base_stays_exact(self):
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(2, -1)

    @given(st.integers(-8, 8), st.integers(0, 6), st.integers(0, 6))
    def test_concatenation_rule(self, z, s, r):
        # (z)_{s+r} = (z)_s * (z+s)_r
        assert pochhammer(z, s + r) == pochhammer(z, s) * pochhammer(z + s, r)


class TestSaalschuetz:
    def test_unit_example(self):
        chk = saalschuetz_check(1, 1, 1)
        assert chk.holds
        assert chk.lhs == chk.rhs == 4

    def test_asymmetric_example(self):
        chk = saalschuetz_check(2, 1, 1)
        assert chk.holds
        assert chk.lhs == chk.rhs == 9

    def test_small_grid_holds(self):
        for a in range(1, 6):
            for b in range(1, 6):
                for k in range(1, 6):
                    assert saalschuetz_check(a, b, k).holds

    def test_sides_match_the_per_term_oracle(self):
        for a in range(0, 21):
            for b in range(1, 13):
                for k in range(1, 13):
                    got = saalschuetz_check(a, b, k)
                    want = saalschuetz_oracle(a, b, k)
                    assert (got.lhs, got.rhs) == (want.lhs, want.rhs), (a, b, k)
                    assert got.holds

    def test_vanishing_denominators_raise_as_the_oracle_does(self):
        raised = set()
        for a in range(-1, 9):
            for b in range(-4, 4):
                for k in range(-4, 4):
                    try:
                        want = saalschuetz_oracle(a, b, k)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as info:
                            saalschuetz_check(a, b, k)
                        assert str(info.value) == str(exc), (a, b, k)
                        raised.add(str(exc))
                    else:
                        assert saalschuetz_check(a, b, k) == want, (a, b, k)
        assert "denominator factor vanishes at s=1; need a, b, k >= 1" in raised
        assert "denominator factor vanishes at s=5; need a, b, k >= 1" in raised
        assert "right-side denominator vanishes; need b, k >= 1" in raised
        assert "a must be >= 0" in raised

    def test_sides_are_exact_fractions(self):
        chk = saalschuetz_check(3, 2, 4)
        assert isinstance(chk.lhs, Fraction)
        assert isinstance(chk.rhs, Fraction)


class TestRationalText:
    def test_integers_print_without_denominator(self):
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(3) == "3"

    def test_fractions_print_in_lowest_terms(self):
        assert format_rational(Fraction(-3, 7)) == "-3/7"

    def test_parse_reports_canonical_form(self):
        assert parse_rational("-3") == (Fraction(-3), True)
        assert parse_rational("1/2") == (Fraction(1, 2), True)
        assert parse_rational("2/4") == (Fraction(1, 2), False)

    def test_parse_rejects_garbage(self):
        for text in ("a/b", "", "1/0", "1.5.2"):
            with pytest.raises(ValueError):
                parse_rational(text)

    @given(st.fractions(max_denominator=1000))
    def test_format_parse_round_trip(self, x):
        text = format_rational(x)
        value, canonical = parse_rational(text)
        assert value == x
        assert canonical
