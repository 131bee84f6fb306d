from __future__ import annotations

import inspect
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalpos import (
    ExtPolynomial,
    ExtScalar,
    FamilyConstants,
    Polynomial,
    ScanBudgetError,
    SearchExhaustedError,
    coefficient_matrix,
    determinant,
    ext_i,
    ext_rational,
    ext_sigma,
    extended_family,
    hyperplane_coefficients,
    search_constants,
    verify_extended_general_position,
    weierstrass_h,
)
from totalpos.surface import _family_with_pairs, _value_pool

from oracles import constants_from_extras, ext_lift


quads = st.tuples(*[st.fractions(max_denominator=6)] * 4)


def same_report(a, b):
    """Equal in every field except elapsed_ms."""
    return replace(a, elapsed_ms=0) == replace(b, elapsed_ms=0)


def scalar(q, disc=2):
    return ExtScalar(*[Fraction(x) for x in q], disc)


class TestExtScalar:
    def test_generators(self):
        i = ext_i(2)
        s = ext_sigma(2)
        assert (i * i).to_quadruple() == (-1, 0, 0, 0)
        assert (s * s).to_quadruple() == (2, 0, 0, 0)
        assert (i * s).to_quadruple() == (0, 0, 0, 1)

    def test_perfect_square_discriminant_collapses(self):
        s = ext_sigma(9)
        assert s.to_quadruple() == (3, 0, 0, 0)
        # Equality and is_zero stay exact: sigma - 3 is zero at disc = 9.
        assert s == ext_rational(3, 9)
        assert (s - ext_rational(3, 9)).is_zero

    def test_rational_embedding(self):
        x = ext_rational(Fraction(2, 3), 2)
        assert not x.is_zero
        assert x.to_quadruple() == (Fraction(2, 3), 0, 0, 0)

    def test_mixed_discriminants_rejected(self):
        with pytest.raises(ValueError):
            ext_rational(1, 2) + ext_rational(1, 3)

    @settings(max_examples=60)
    @given(quads, quads, quads)
    def test_ring_axioms(self, a, b, c):
        x, y, z = scalar(a), scalar(b), scalar(c)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x - x == scalar((0, 0, 0, 0))

    @settings(max_examples=40)
    @given(quads, quads)
    def test_no_zero_divisors_at_nonsquare_discriminant(self, a, b):
        x, y = scalar(a), scalar(b)
        if not x.is_zero and not y.is_zero:
            assert not (x * y).is_zero

    def test_json_list_uses_rational_strings(self):
        x = scalar((Fraction(1, 2), -1, 0, 2))
        assert x.to_json_list() == ["1/2", "-1", "0", "2"]


class TestExtPolynomial:
    def test_degree_and_coefficients(self):
        q = ext_lift(Polynomial.make([1, Fraction(1, 2), 3]), 2)
        assert q.degree == 2
        assert q.coefficient(1) == ext_rational(Fraction(1, 2), 2)

    def test_scale_and_difference(self):
        p = ext_lift(Polynomial.make([0, 0, 1]), 2)
        i = ext_i(2)
        q = p.scale(i)
        assert q.coefficient(2) == i
        assert (p - p).is_zero

    def test_product_skips_zero_coefficients(self, monkeypatch):
        """Only nonzero coefficient pairs are multiplied, and the product
        is that of the rational polynomials: z^3 - 2 times 3z^4 + z takes
        2 * 2 scalar products."""
        p, q = Polynomial.make([-2, 0, 0, 1]), Polynomial.make([0, 1, 0, 0, 3])
        products = []
        mul = ExtScalar.__mul__
        monkeypatch.setattr(ExtScalar, "__mul__", lambda x, y: products.append(1) or mul(x, y))
        ext = ext_lift(p, 2) * ext_lift(q, 2)
        assert len(products) == 4
        assert ext == ext_lift(p * q, 2)


class TestWeierstrassSystem:
    def test_m4_components(self):
        h = weierstrass_h(4)
        # Discriminant 1 collapses the radical part entirely.
        assert [p.disc for p in h] == [1, 1, 1, 1]
        as_quads = [[c.to_quadruple() for c in p.coeffs] for p in h]
        assert as_quads[0] == [(1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)]
        assert as_quads[1] == [(0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, -1, 0, 0)]
        assert as_quads[2] == [(0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0)]
        assert as_quads[3] == [(0, 0, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0)]

    def test_component_count_and_degrees(self):
        for m in (4, 6, 8, 10):
            h = weierstrass_h(m)
            assert len(h) == m
            assert all(p.degree <= m - 1 for p in h)
            assert max(p.degree for p in h) == m - 1

    def test_squares_sum_to_zero(self):
        for m in (4, 6, 8, 10, 12):
            h = weierstrass_h(m)
            total = ExtPolynomial.zero(h[0].disc)
            for p in h:
                total = total + p * p
            assert total.is_zero

    @pytest.mark.parametrize("m", range(4, 41, 2))
    def test_h_is_a_basis(self, m):
        """Members 2l+1 and 2l+2 live on the powers (l, 2t-1-l), the last
        two on (t-1, t); these pairs partition range(m), and each pair's
        2x2 coefficient determinant is -2i, or -2i*disc for the last pair,
        so the coefficient matrix is invertible.  No division is used."""
        t = m // 2
        h = weierstrass_h(m)
        disc = h[0].disc
        minus_two_i = ext_rational(-2, disc) * ext_i(disc)
        pairs = [(l, 2 * t - 1 - l) for l in range(t - 1)] + [(t - 1, t)]
        assert sorted(k for pair in pairs for k in pair) == list(range(m))
        for l, (lo, hi) in enumerate(pairs):
            first, second = h[2 * l], h[2 * l + 1]
            for p in (first, second):
                assert all(p.coefficient(k).is_zero for k in range(m) if k not in (lo, hi))
            det = (first.coefficient(lo) * second.coefficient(hi)
                   - first.coefficient(hi) * second.coefficient(lo))
            expected = minus_two_i * ext_rational(disc if l == t - 1 else 1, disc)
            assert det == expected and not det.is_zero

    def test_degenerate_m2_rejected(self):
        with pytest.raises(ValueError, match="degenerates"):
            weierstrass_h(2)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            weierstrass_h(5)


class TestFamilyConstants:
    def test_first_pair_is_pinned(self):
        with pytest.raises(ValueError, match="fixed at"):
            FamilyConstants(pairs=((Fraction(0), Fraction(2)),))

    def test_values_must_be_distinct(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            constants_from_extras([(3, 3)])
        with pytest.raises(ValueError, match="pairwise distinct"):
            constants_from_extras([(1, 3)])

    def test_values_flatten_in_order(self):
        c = constants_from_extras([(2, 3)])
        assert c.values == (0, 1, 2, 3)


class TestExtendedFamily:
    def test_size_is_triangular(self):
        c4 = constants_from_extras([(2, 3)])
        assert len(extended_family(4, c4)) == 10
        c6 = constants_from_extras([(2, 3), (4, 5)])
        assert len(extended_family(6, c6)) == 21

    def test_extra_block_entries(self):
        c = constants_from_extras([(2, 3)])
        fam = extended_family(4, c)
        # Block for the pair (a, b) runs (z-a)^(m-i) (z-b)^(i-1), i = 1..m.
        assert fam[6] == Polynomial.linear_power(2, 3)
        assert fam[7] == Polynomial.linear_power(2, 2) * Polynomial.linear_power(3, 1)
        assert fam[9] == Polynomial.linear_power(3, 3)

    def test_pair_count_must_match_m(self):
        with pytest.raises(ValueError, match="exactly 2"):
            extended_family(4, FamilyConstants(pairs=((Fraction(0), Fraction(1)),)))

    def test_constructed_failure(self):
        # (a2, b2) = (-3/2, 3) makes specific quadruples dependent.
        c = constants_from_extras([(Fraction(-3, 2), 3)])
        rep = verify_extended_general_position(4, c)
        assert not rep.ok
        assert (1, 2, 6, 8) in rep.failures
        assert rep.total_subsets == 210

    def test_small_integer_pair_that_fails(self):
        # (z - 2)^3 = z^3 - 6(z - 1)^2 - 2 lies in the span of three base members.
        c = constants_from_extras([(2, 3)])
        rep = verify_extended_general_position(4, c)
        assert not rep.ok

    def test_searched_m4_family_has_every_4_subset_independent(self):
        """One exact 4x4 determinant per subset, and the scan agrees."""
        constants = search_constants(4).constants
        matrix = coefficient_matrix(extended_family(4, constants), 4)
        subsets = list(itertools.combinations(range(10), 4))
        assert len(subsets) == 210
        assert all(determinant(matrix.submatrix(rows, range(4))) != 0 for rows in subsets)
        rep = verify_extended_general_position(4, constants)
        assert rep.checked_subsets == 210 and rep.failures == ()


    def test_takes_only_m_and_constants(self):
        params = list(inspect.signature(verify_extended_general_position).parameters)
        assert params == ["m", "constants"]


class TestSearchConstants:
    def test_m4_search_is_reproducible(self):
        # Pinned values: the seeded stream must draw the same pairs on
        # every supported Python version.
        res = search_constants(4)
        assert res.constants.pairs == ((Fraction(0), Fraction(1)), (Fraction(9, 5), Fraction(-3, 7)))
        assert res.attempts == 1
        assert len(res.rejected) == res.attempts - 1
        again = search_constants(4)
        assert again.constants == res.constants and again.attempts == res.attempts
        m6 = search_constants(6)
        assert m6.constants.pairs[1:] == (
            (Fraction(9, 5), Fraction(-3, 7)),
            (Fraction(9, 2), Fraction(-7, 6)),
        )
        assert m6.attempts == 10

    def test_found_constants_verify_exhaustively(self):
        res = search_constants(4)
        rep = verify_extended_general_position(4, res.constants)
        assert rep.ok
        assert rep.total_subsets == 210
        # The search hands over the report of its accepted last walk.
        assert same_report(res.report, rep)

    def test_rejections_carry_stage_and_reason(self):
        # Seed 3 rejects candidates at both stages of m = 6.
        res = search_constants(6, seed=3)
        stages = {r[0] for r in res.rejected}
        reasons = {r[2] for r in res.rejected}
        assert stages == {2, 3}
        assert reasons == {"singular-subset"}

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_candidates_never_repeat_a_value(self, seed):
        """Only singular pairs are rejected, the accepted values are all
        distinct, and the searched family is in general position."""
        res = search_constants(6, seed=seed)
        assert all(reason == "singular-subset" for _, _, reason in res.rejected)
        values = res.constants.values
        assert len(values) == len(set(values)) == 6
        rep = verify_extended_general_position(6, res.constants)
        assert rep.ok
        assert same_report(res.report, rep)

    def test_running_out_of_fresh_values_is_exhaustion(self):
        # bound 1 leaves only -1 besides the fixed 0 and 1.
        with pytest.raises(SearchExhaustedError, match="fewer than two") as info:
            search_constants(4, bound=1)
        assert info.value.partial.attempts == 0
        assert info.value.partial.rejected == ()
        assert info.value.partial.report is None

    @pytest.mark.parametrize("kwargs", [{"bound": 0}, {"retry_limit": 0}, {"retry_limit": -3}])
    def test_nonpositive_bound_or_retry_limit_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="positive integer"):
            search_constants(4, **kwargs)

    def test_injected_candidates_take_priority(self):
        res = search_constants(4, candidates=[(Fraction(-3), Fraction(-4))])
        assert res.constants.pairs[1] == (Fraction(-3), Fraction(-4))
        assert res.attempts == 1

    def test_duplicate_injected_candidate_is_rejected(self):
        res = search_constants(4, candidates=[(0, 2), (Fraction(-3), Fraction(-4))])
        assert res.rejected[0][2] == "duplicate-constant"
        assert res.constants.pairs[1] == (Fraction(-3), Fraction(-4))

    def test_retry_limit_exhaustion_reports_progress(self):
        singular = [(2, 3), (Fraction(-3, 2), 3)]
        with pytest.raises(SearchExhaustedError, match="within 2 candidates") as info:
            search_constants(4, retry_limit=2, candidates=singular)
        assert info.value.partial.attempts == 2
        assert [r[1] for r in info.value.partial.rejected] == singular
        assert {r[2] for r in info.value.partial.rejected} == {"singular-subset"}
        assert info.value.partial.report is None

    def test_partial_result_after_an_accepted_stage_has_no_report(self):
        # Seed 0 accepts its first m=6 candidate at stage 2, then runs out.
        with pytest.raises(SearchExhaustedError, match="within 1 candidates") as info:
            search_constants(6, retry_limit=1)
        assert len(info.value.partial.constants.pairs) == 2
        assert info.value.partial.report is None

    def test_sampled_stage_counterexample_is_singular(self):
        # A search that sampled its stages once accepted these m=8 pairs.
        pairs = [(Fraction(13, 4), Fraction(-2, 9)), (8, 9), (Fraction(3, 7), Fraction(-5, 11))]
        matrix = coefficient_matrix(extended_family(8, constants_from_extras(pairs)), 8)
        rows = (1, 2, 3, 4, 5, 6, 9, 29)
        assert determinant(matrix.submatrix([i - 1 for i in rows], range(8))) == 0
        # The pair (3/7, -5/11) already fails at stage 2, on 20 rows.
        stage2 = coefficient_matrix(_family_with_pairs(8, [(Fraction(3, 7), Fraction(-5, 11))]), 8)
        assert stage2.rows == 20
        with pytest.raises(SearchExhaustedError) as info:
            search_constants(
                8, retry_limit=1, candidates=pairs[2:], exhaustive_limit=math.comb(36, 8)
            )
        assert info.value.partial.rejected == ((2, pairs[2], "singular-subset"),)
        assert info.value.partial.report is None

    @pytest.mark.parametrize("bound, size", [(10, 125), (37, 1725)])
    def test_value_pool_is_in_fraction_order(self, bound, size):
        """Every p/q in lowest terms once, ascending, as the seeded draws
        index into it: against the coprime pairs ordered by p/q."""
        pairs = [(p, q) for q in range(1, bound + 1) for p in range(-bound, bound + 1)
                 if math.gcd(p, q) == 1]
        pairs.sort(key=lambda pq: pq[0] / pq[1])
        values = [Fraction(p, q) for p, q in pairs]
        assert _value_pool(bound, ()) == values
        fixed = (Fraction(0), Fraction(1))
        pool = _value_pool(bound, fixed)
        assert pool == [v for v in values if v not in fixed]
        assert len(pool) == size

    def test_large_bound_draws_the_pinned_pair(self):
        res = search_constants(4, bound=300)
        assert res.constants.pairs[1] == (Fraction(-30, 191), Fraction(206, 77))
        assert res.attempts == 1

    @pytest.mark.parametrize("m", [4.0, True, 5, 2, 0], ids=repr)
    def test_bad_m_is_refused_with_one_message(self, m):
        with pytest.raises(ValueError) as info:
            search_constants(m)
        assert str(info.value) == "m must be an even integer >= 4"

    def test_search_beyond_the_exhaustive_budget_is_refused(self):
        with pytest.raises(ScanBudgetError, match="30260340"):
            search_constants(8)
        with pytest.raises(ScanBudgetError):
            search_constants(4, exhaustive_limit=209)


class TestHyperplaneCoefficients:
    def test_m4_first_row(self):
        res = search_constants(4)
        data = hyperplane_coefficients(4, res.constants)
        assert [x.to_quadruple() for x in data.c[0]] == [
            (Fraction(1, 2), 0, 0, 0),
            (0, Fraction(-1, 2), 0, 0),
            (0, 0, 0, 0),
            (0, 0, 0, 0),
        ]

    def test_reconstruction_is_exact(self):
        for m in (4, 6):
            res = search_constants(m)
            data = hyperplane_coefficients(m, res.constants)
            fam = extended_family(m, res.constants)
            disc = data.h[0].disc
            for i, f in enumerate(fam):
                acc = ExtPolynomial.zero(disc)
                for j in range(m):
                    acc = acc + data.h[j].scale(data.c[i][j])
                assert (acc - ext_lift(f, disc)).is_zero

    @pytest.mark.parametrize("m", range(4, 25, 2))
    def test_closed_form_reconstructs_seeded_families(self, m):
        """sum_j c[i][j] h[j] = f[i] exactly for seeded constants (no
        search), in both sigma branches: disc = t - 1 is a perfect square
        at m = 4, 10, 20, where sigma folds into the rational part."""
        rng = random.Random(m)
        values = [Fraction(0), Fraction(1)]
        while len(values) < m:
            v = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            if v not in values:
                values.append(v)
        constants = constants_from_extras(zip(values[2::2], values[3::2]))
        data = hyperplane_coefficients(m, constants)
        hs = weierstrass_h(m)
        assert data.h == tuple(hs)
        disc = hs[0].disc
        zero = ext_rational(0, disc)
        fam = extended_family(m, constants)
        assert len(data.c) == len(fam) == m * (m + 1) // 2
        for f, row in zip(fam, data.c):
            acc = [zero] * m
            for c, h in zip(row, hs):
                for k, x in enumerate(h.coeffs):
                    if not x.is_zero:
                        acc[k] = acc[k] + c * x
            assert acc == [ext_rational(f.coefficient(k), disc) for k in range(m)]
        radical = any(x.sre or x.sim for row in data.c for x in row)
        assert radical == (math.isqrt(disc) ** 2 != disc)

    def test_root_list_matches_constants(self):
        res = search_constants(4)
        data = hyperplane_coefficients(4, res.constants)
        assert data.psi_roots == (0, 1, Fraction(9, 5), Fraction(-3, 7))
        assert data.psi_roots == res.constants.values

    def test_json_schema(self):
        res = search_constants(4)
        d = hyperplane_coefficients(4, res.constants).to_json_dict()
        assert set(d) == {"m", "constants", "h", "c", "psi_roots"}
        assert d["m"] == 4
        assert len(d["c"]) == 10
        assert all(len(row) == 4 for row in d["c"])
        assert all(len(entry) == 4 for row in d["c"] for entry in row)
