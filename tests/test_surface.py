from __future__ import annotations

import inspect
import math
import random
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
    constants_from_extras,
    determinant,
    ext_i,
    ext_rational,
    ext_sigma,
    extended_family,
    hyperplane_coefficients,
    search_constants,
    verify_extended_general_position,
    weierstrass_h,
    wronskian,
)
from totalpos.matrices import _has_zero_maximal_minor
from totalpos.surface import _family_with_pairs


quads = st.tuples(*[st.fractions(max_denominator=6)] * 4)


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
        assert s.is_rational

    def test_rational_embedding(self):
        x = ext_rational(Fraction(2, 3), 2)
        assert x.is_rational and not x.is_zero
        assert x.to_quadruple() == (Fraction(2, 3), 0, 0, 0)

    def test_division_round_trip(self):
        x = scalar((1, 2, Fraction(1, 2), -1))
        y = scalar((3, -1, 0, 2))
        assert ((x / y) * y) == x

    def test_zero_division_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ext_rational(1, 2) / scalar((0, 0, 0, 0))

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
    def test_from_rational_round_trip(self):
        p = Polynomial.make([1, Fraction(1, 2), 3])
        q = ExtPolynomial.from_rational(p, 2)
        assert q.degree == 2
        assert q.coefficient(1) == ext_rational(Fraction(1, 2), 2)

    def test_arithmetic_and_derivative(self):
        p = ExtPolynomial.from_rational(Polynomial.make([0, 0, 1]), 2)
        i = ext_i(2)
        q = p.scale(i)
        assert q.derivative().coefficient(1) == i + i
        assert (p - p).is_zero

    def test_eval_at_extension_point(self):
        p = ExtPolynomial.from_rational(Polynomial.make([0, 0, 1]), 2)
        assert p.eval_at(ext_sigma(2)) == ext_rational(2, 2)


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
        assert verify_extended_general_position(6, res.constants).ok

    def test_running_out_of_fresh_values_is_exhaustion(self):
        # bound 1 leaves only -1 besides the fixed 0 and 1.
        with pytest.raises(SearchExhaustedError, match="fewer than two") as info:
            search_constants(4, bound=1)
        assert info.value.partial.attempts == 0
        assert info.value.partial.rejected == ()

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

    def test_sampled_stage_counterexample_is_singular(self):
        # A search that sampled its stages once accepted these m=8 pairs.
        pairs = [(Fraction(13, 4), Fraction(-2, 9)), (8, 9), (Fraction(3, 7), Fraction(-5, 11))]
        matrix = coefficient_matrix(extended_family(8, constants_from_extras(pairs)), 8)
        rows = (1, 2, 3, 4, 5, 6, 9, 29)
        assert determinant(matrix.submatrix([i - 1 for i in rows], range(8))) == 0
        # The pair (3/7, -5/11) already fails at stage 2, on 20 rows.
        stage2 = coefficient_matrix(_family_with_pairs(8, [(Fraction(3, 7), Fraction(-5, 11))]), 8)
        assert stage2.rows == 20
        assert _has_zero_maximal_minor(stage2)

    def test_search_beyond_the_exhaustive_budget_is_refused(self):
        with pytest.raises(ScanBudgetError, match="30260340"):
            search_constants(8)
        with pytest.raises(ScanBudgetError):
            search_constants(4, exhaustive_limit=209)


class TestWronskian:
    def test_examples(self):
        one = Polynomial.make([1])
        z = Polynomial.monomial(1)
        assert wronskian([one, z], 0) == 1
        assert wronskian([z, Polynomial.make([0, 2])], 1) == 0
        assert wronskian([one], 5) == 1

    def test_extension_lift(self):
        h = weierstrass_h(6)
        value = wronskian(h[:2], 0)
        assert isinstance(value, ExtScalar)

    def test_nonzero_at_some_small_point_for_independent_subsets(self):
        # Independence of each 4-subset shows up as a nonzero value of the
        # 4x4 derivative determinant at one of a handful of rational points.
        from itertools import combinations

        res = search_constants(4)
        fam = extended_family(4, res.constants)
        points = [0, Fraction(1, 2), 2, 3, 5]
        for subset in combinations(fam, 4):
            assert any(wronskian(subset, p) != 0 for p in points)


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
                assert (acc - ExtPolynomial.from_rational(f, disc)).is_zero

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
