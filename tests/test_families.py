from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest

import totalpos.families
import totalpos.networks
from totalpos import (
    ExactMatrix,
    MinorQuery,
    Polynomial,
    ScanBudgetError,
    SectionWeights,
    binomial,
    block_determinants,
    build_three_section,
    closed_form_matrix,
    coefficient_matrix,
    determinant,
    family_polys,
    general_position,
    minor,
    positive_minor_scan,
    sign_factorization_check,
    standard_weights,
    verify_network_equals_block_matrix,
    weight_matrix,
)
from totalpos.families import PositiveMinorReport
from totalpos.matrices import _build_context, _positive_grassmannian, maximal_minor_scan

from oracles import matmul, sign_factorization_matrices
from test_networks import assert_in_order_routing_matches, positive_collection_oracle


def positive_minor_oracle(m, with_witnesses=False):
    """Independent oracle: one determinant per block-matrix minor whose
    columns contain {t+1, ..., m}, by (extra size, extra, rows), with
    elapsed_ms 0, and witnesses from the backtracking search.  It reads
    the block's integer rows through the families module, so a patched
    block reaches it too."""
    t = m // 2
    block = ExactMatrix.from_rows(totalpos.families._binomial_block(m))
    net = build_three_section(standard_weights(m)) if with_witnesses else None
    tail = tuple(range(t + 1, m + 1))
    violations = []
    missing = []
    total = 0
    for extra_size in range(0, t + 1):
        for extra in combinations(range(1, t + 1), extra_size):
            cols = extra + tail
            for rows in combinations(range(1, m + 1), t + extra_size):
                total += 1
                value = determinant(
                    block.submatrix([i - 1 for i in rows], [j - 1 for j in cols])
                )
                if value <= 0:
                    violations.append((rows, cols, value))
                elif with_witnesses and positive_collection_oracle(net, rows, cols) is None:
                    missing.append((rows, cols))
    return PositiveMinorReport(
        m=m,
        total_minors=total,
        violations=tuple(violations),
        witnesses_attached=with_witnesses,
        missing_witnesses=tuple(missing),
        elapsed_ms=0,
    )


def without_timing(report):
    return report.to_json_dict() | {"elapsed_ms": 0}


# Expanded coefficient rows for the three smallest families, frozen by hand.
COEFFS_M2 = [
    [1, 0],
    [-1, 1],
    [0, 1],
]
COEFFS_M4 = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [1, -2, 1, 0],
    [-1, 3, -3, 1],
    [0, 0, -1, 1],
    [0, 0, 0, 1],
]
COEFFS_M6 = [
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [-1, 3, -3, 1, 0, 0],
    [1, -4, 6, -4, 1, 0],
    [-1, 5, -10, 10, -5, 1],
    [0, 0, 0, 1, -2, 1],
    [0, 0, 0, 0, -1, 1],
    [0, 0, 0, 0, 0, 1],
]


class TestFamilyPolys:
    def test_m2_family(self):
        polys = family_polys(2)
        assert [p.coeffs for p in polys] == [(1,), (-1, 1), (0, 1)]

    def test_m4_family(self):
        polys = family_polys(4)
        assert polys[0] == Polynomial.make([1])
        assert polys[1] == Polynomial.monomial(1)
        assert polys[2] == Polynomial.linear_power(1, 2)
        assert polys[3] == Polynomial.linear_power(1, 3)
        assert polys[4] == Polynomial.monomial(2) * Polynomial.linear_power(1, 1)
        assert polys[5] == Polynomial.monomial(3)

    def test_m6_mixed_block_starts_cubed(self):
        polys = family_polys(6)
        assert polys[6] == Polynomial.monomial(3) * Polynomial.linear_power(1, 2)

    def test_family_size_and_degrees(self):
        for m in (2, 4, 6, 8, 10):
            polys = family_polys(m)
            assert len(polys) == 3 * (m // 2)
            assert all(p.degree <= m - 1 for p in polys)

    def test_requires_even_m(self):
        with pytest.raises(ValueError):
            family_polys(5)


class TestCoefficientMatrix:
    def test_printed_matrices(self):
        for m, expected in ((2, COEFFS_M2), (4, COEFFS_M4), (6, COEFFS_M6)):
            M = coefficient_matrix(family_polys(m), m)
            assert M.to_lists() == expected

    def test_width_pads_short_polynomials(self):
        M = coefficient_matrix([Polynomial.make([3])], 4)
        assert M.to_lists() == [[3, 0, 0, 0]]

    def test_width_must_cover_degrees(self):
        with pytest.raises(ValueError):
            coefficient_matrix([Polynomial.monomial(4)], 4)


class TestBinomialBlock:
    def test_entries_are_absolute_values_of_the_tail_rows(self):
        for m in (2, 4, 6, 8):
            t = m // 2
            M = coefficient_matrix(family_polys(m), m)
            B = closed_form_matrix(m)
            for i in range(m):
                for j in range(m):
                    assert B.entries[i][j] == abs(M.entries[t + i][j])

    def test_m6_middle_row(self):
        B = closed_form_matrix(6)
        assert list(B.entries[2]) == [1, 5, 10, 10, 5, 1]

    def test_closed_form_entries(self):
        for m in (2, 4, 6, 8, 10):
            t = m // 2
            B = closed_form_matrix(m)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i <= t:
                        assert B.entries[i - 1][j - 1] == binomial(t + i - 1, j - 1)
                    else:
                        assert B.entries[i - 1][j - 1] == binomial(2 * t - i, j - i)


class TestFactorization:
    def test_block_determinants_are_all_one(self):
        for m in (2, 4, 6, 8, 12, 16, 20, 24):
            assert block_determinants(m) == (1, 1, 1)

    def test_sign_factorization_reconstructs_the_coefficient_matrix(self):
        for m in (2, 4, 6, 8, 10, 12):
            S1, B, S2 = sign_factorization_matrices(m)
            product = matmul(matmul(S1, B), S2)
            assert product.to_lists() == coefficient_matrix(family_polys(m), m).to_lists()
            assert sign_factorization_check(m)

    @pytest.mark.parametrize("m", range(2, 42, 2))
    def test_integer_check_agrees_with_the_matrix_product(self, m):
        """The entrywise integer check decides the same identity as the
        product of the three factors."""
        S1, B, S2 = sign_factorization_matrices(m)
        product_ok = matmul(matmul(S1, B), S2) == coefficient_matrix(family_polys(m), m)
        assert sign_factorization_check(m) is product_ok is True

    @pytest.mark.parametrize("row, col", [(0, 0), (1, 3), (3, 0), (5, 7), (11, 7), (8, 2)])
    def test_fails_on_one_perturbed_coefficient(self, monkeypatch, row, col):
        """m=8 has 12 rows: identity rows 0..3 (col 3 of row 1 lies past its
        degree), the (z-1) powers 4..7 and the mixed rows 8..11."""
        polys = list(family_polys(8))
        coeffs = list(polys[row].padded(8))
        coeffs[col] += 1
        polys[row] = Polynomial.make(coeffs)
        monkeypatch.setattr(totalpos.families, "family_polys", lambda m: tuple(polys))
        assert not sign_factorization_check(8)

    @pytest.mark.parametrize("side, k", [(0, 0), (0, 5), (0, 11), (1, 0), (1, 6)])
    def test_fails_on_one_flipped_sign(self, monkeypatch, side, k):
        signs = totalpos.families._sign_vectors(8)
        flipped = [list(signs[0]), list(signs[1])]
        flipped[side][k] = -flipped[side][k]
        monkeypatch.setattr(totalpos.families, "_sign_vectors", lambda m: tuple(flipped))
        assert not sign_factorization_check(8)

    def test_fails_on_a_missing_row(self, monkeypatch):
        polys = family_polys(8)[:-1]
        monkeypatch.setattr(totalpos.families, "family_polys", lambda m: polys)
        assert not sign_factorization_check(8)

    def test_middle_factor_stacks_identity_over_the_block(self):
        m, t = 6, 3
        _, mid, _ = sign_factorization_matrices(m)
        assert mid.rows == 3 * t and mid.cols == m
        block = closed_form_matrix(m)
        for i in range(t):
            assert list(mid.entries[i]) == [int(i == j) for j in range(m)]
        for i in range(m):
            assert mid.entries[t + i] == block.entries[i]

    def test_sign_matrices_are_diagonal_with_unit_entries(self):
        S1, _, S2 = sign_factorization_matrices(6)
        for S, n in ((S1, 9), (S2, 6)):
            assert S.rows == S.cols == n
            for i in range(n):
                for j in range(n):
                    if i == j:
                        assert abs(S.entries[i][j]) == 1
                    else:
                        assert S.entries[i][j] == 0


class TestNetworkIdentity:
    def test_block_matrix_is_the_network_weight_matrix(self):
        for m in (2, 4, 6, 8, 10, 12):
            assert verify_network_equals_block_matrix(m)
            net = build_three_section(standard_weights(m))
            assert weight_matrix(net).to_lists() == closed_form_matrix(m).to_lists()


    @pytest.mark.parametrize("key", [(1, 1), (2, 3), (4, 1), (5, 2), (7, 1)])
    def test_fails_on_one_perturbed_right_weight(self, monkeypatch, key):
        """Each of these right weights of the m=8 network is nonzero; adding
        one to it changes the weight matrix."""
        weights = standard_weights(8)
        assert weights.right[key] != 0
        planted = SectionWeights(
            n=8, left=weights.left, middle=weights.middle,
            right={**weights.right, key: weights.right[key] + 1},
        )
        monkeypatch.setattr(totalpos.families, "standard_weights", lambda m: planted)
        assert not verify_network_equals_block_matrix(8)


def family_walk(m, exhaustive_limit=10**7):
    """The exhaustive Laplace walk over every m-subset of the family."""
    return maximal_minor_scan(coefficient_matrix(family_polys(m), m), exhaustive_limit=exhaustive_limit)


class TestGeneralPosition:
    def test_every_maximal_minor_is_nonzero_for_small_m(self):
        rep = family_walk(2)
        assert rep.ok and rep.total_subsets == 3
        rep = family_walk(4)
        assert rep.ok and rep.total_subsets == 15
        assert rep.min_abs_nonzero_det == 1

    def test_budget_guard(self):
        with pytest.raises(ScanBudgetError):
            family_walk(20, exhaustive_limit=100)

    def test_exhaustive_mode_rejects_sampling_arguments(self):
        for kwargs in ({"seed": 1}, {"sample_count": 10}):
            with pytest.raises(ValueError, match="only apply to sampled mode"):
                general_position(4, **kwargs)
        with pytest.raises(ValueError, match="unknown mode"):
            general_position(4, "random")

    @pytest.mark.parametrize("m", range(4, 26, 2))
    def test_reordered_rows_reduce_to_integer_sign_regular_coordinates(self, m):
        """Rows reordered to 1..t, 3t, 3t-1, ..., 2t+1, t+1..2t: the basis
        reduction picks the first 2t rows, and the coordinates C of rows
        t+1..2t in that basis are integers, none of them 0, with a rank-one
        sign pattern, and the first t columns of |C| are the block B1,
        B1[i][j] = C(t+i-1, j-1)."""
        t = m // 2
        M = coefficient_matrix(family_polys(m), m)
        order = [*range(t), *range(3 * t - 1, 2 * t - 1, -1), *range(t, 2 * t)]
        ctx = _build_context(ExactMatrix.from_rows(M.entries[i] for i in order))
        assert ctx.basis_pos == (*range(2 * t), *[-1] * t)
        C = [[Fraction(x, ctx.den) for x in row] for row in ctx.coord]
        assert all(x.denominator == 1 and x != 0 for row in C for x in row)
        signs = [[x > 0 for x in row] for row in C]
        flipped = [not s for s in signs[0]]
        assert all(row in (signs[0], flipped) for row in signs)
        assert [[abs(x) for x in row[:t]] for row in C] == [
            [math.comb(t + i, j) for j in range(t)] for i in range(t)
        ]

    def test_sampled_mode(self):
        rep = general_position(12, mode="sampled", seed=11, sample_count=300)
        assert rep.ok
        assert rep.checked_subsets == 300
        assert rep.mode == "sampled"


def stacked(coords):
    """[I; C]: the identity over the rows of coords, so that C is its own
    coordinate matrix in the basis of the first rows."""
    c = len(coords[0])
    return ExactMatrix.from_rows([[int(i == j) for j in range(c)] for i in range(c)] + coords)


def macmahon(a: int, b: int, c: int) -> Fraction:
    """MacMahon's count of plane partitions in an a x b x c box,
    prod_{i<=a, j<=b} (i+j+c-1)/(i+j-1), one falling factorial over
    another for each i."""
    num = den = 1
    for i in range(1, a + 1):
        num *= math.perm(i + b + c - 1, b)
        den *= math.perm(i + b - 1, b)
    return Fraction(num, den)


class TestPositiveGrassmannianCertificate:
    @pytest.mark.parametrize("m", range(2, 20, 2))
    def test_matches_the_exhaustive_walk(self, m):
        """Every even m <= 18: the certificate proves what the walk finds,
        with the same subset count, no failures and the same min |det|."""
        walk = family_walk(m)
        rep = general_position(m)
        assert (rep.total_subsets, rep.checked_subsets, rep.failures) == (
            walk.total_subsets, walk.checked_subsets, walk.failures) == (
            math.comb(3 * m // 2, m), math.comb(3 * m // 2, m), ())
        assert rep.min_abs_nonzero_det == walk.min_abs_nonzero_det == 1
        d = rep.to_json_dict()
        assert (d["mode"], d["method"], d["claim"]) == ("exhaustive", "positive-grassmannian", "proved")
        assert d["certificate"]["refused"] is None
        assert walk.to_json_dict()["method"] == "laplace-walk"

    def test_m16_certificate(self):
        cert = general_position(16).to_json_dict()["certificate"]
        assert cert["row_order"] == [*range(1, 9), *range(24, 16, -1), *range(9, 17)]
        assert cert["row_signs"] == [1, -1] * 4
        assert cert["col_signs"] == [1, -1] * 8
        assert cert["solid_minors"] == 492  # sum of (9-k)(17-k), k = 1..8
        assert cert["least_initial_minor"] == "1"

    @pytest.mark.parametrize("m", range(4, 42, 2))
    def test_initial_minors_are_determinants_of_the_coordinates(self, m):
        """C', unflipped by the recorded signs, is the coordinate matrix of
        rows t+1..2t in the basis of the first 2t reordered rows (C * B
        equals those rows), and each of the t*m recorded initial minors is
        the determinant of its contiguous submatrix of C'."""
        t = m // 2
        M = coefficient_matrix(family_polys(m), m)
        order = [*range(t), *range(3 * t - 1, 2 * t - 1, -1), *range(t, 2 * t)]
        cert = _positive_grassmannian(M, order)
        assert cert.refusal is None and cert.row_order == tuple(order)
        coords = ExactMatrix.from_rows(
            [r * s * x for s, x in zip(cert.col_signs, row)]
            for r, row in zip(cert.row_signs, cert.matrix)
        )
        basis = M.submatrix(order[:m], range(m))
        assert matmul(coords, basis) == M.submatrix(order[m:], range(m))
        C = ExactMatrix.from_rows(cert.matrix)
        assert len(cert.initial_minors) == t * m
        assert {(i, j) for i, j, _, _ in cert.initial_minors} == (
            {(0, j) for j in range(m)} | {(i, 0) for i in range(t)})
        for i, j, k, value in cert.initial_minors:
            assert min(i, j) == 0
            assert determinant(C.submatrix(range(i, i + k), range(j, j + k))) == value > 0

    def test_initial_minors_are_macmahon_box_counts(self):
        """Every recorded initial minor (top row i, left column j, size k)
        of C' is a count of plane partitions in a box: 1 down the left
        column, and along the top row a box whose sides depend on where
        the window meets the boundary t between B1 and D."""
        assert [macmahon(n, n, n) for n in range(1, 5)] == [2, 20, 980, 232848]
        assert macmahon(2, 3, 0) == macmahon(0, 3, 4) == 1
        for m in [*range(4, 42, 2), 64]:
            t = m // 2
            for i, j, k, x in general_position(m).certificate.initial_minors:
                if i > 0:
                    want = 1
                elif j + k <= t:
                    want = macmahon(k, j, t - j)
                elif j < t:
                    want = macmahon(k, t - j, t - k)
                else:
                    want = macmahon(k, j - t, 2 * t - k - j)
                assert x == want, (m, i, j, k)

    @pytest.mark.parametrize(
        "coords, refused",
        [
            # Positive; the only vanishing 2x2 minor, on columns 1 and 3, is
            # not contiguous, so a solid one must fail: columns 2, 3 give -1.
            ([[1, 1, 1], [1, 2, 1]], ("minor", [1, 2], [2, 3])),
            # The sign pattern is not rank one: no flip makes (2, 2) positive.
            ([[1, 1], [1, -1]], ("sign", [2], [2])),
            ([[Fraction(1, 2), 1]], ("integral", [1], [1])),
        ],
        ids=["non-contiguous-zero", "sign-pattern", "non-integral"],
    )
    def test_planted_refusals_name_the_failing_condition(self, coords, refused):
        M = stacked(coords)
        cert = _positive_grassmannian(M, range(M.rows))
        condition, rows, cols = refused
        assert cert.to_json_dict()["refused"] == {"condition": condition, "rows": rows, "cols": cols}
        assert cert.to_json_dict()["least_initial_minor"] is None

    def test_a_basis_out_of_place_is_refused(self):
        """Rows 1 and 2 are dependent, so the basis skips row 2; in the
        order 1, 3, 2 the dependence is a zero coordinate."""
        M = ExactMatrix.from_rows([[1, 1], [2, 2], [1, 2]])
        assert _positive_grassmannian(M, [0, 1, 2]).refusal == ("basis", (), ())
        assert _positive_grassmannian(M, [0, 2, 1]).refusal == ("sign", (0,), (1,))

    def test_refused_family_falls_back_to_the_walk(self, monkeypatch):
        """A family with a repeated member: the certificate is refused, and
        the report is the walk's, with the refusal attached."""
        polys = family_polys(6)
        planted = polys[:3] + (polys[1],) + polys[4:]
        monkeypatch.setattr(totalpos.families, "family_polys", lambda m: planted)
        rep = general_position(6)
        walk = maximal_minor_scan(coefficient_matrix(planted, 6))
        assert rep.certificate.refusal is not None
        assert rep.failures == walk.failures and len(walk.failures) == math.comb(7, 4)
        assert (rep.total_subsets, rep.checked_subsets, rep.min_abs_nonzero_det) == (
            walk.total_subsets, walk.checked_subsets, walk.min_abs_nonzero_det)
        d = rep.to_json_dict()
        assert (d["method"], d["claim"]) == ("laplace-walk", "proved")
        assert d["certificate"]["refused"]["condition"] in ("sign", "minor")
        with pytest.raises(ScanBudgetError):
            general_position(6, exhaustive_limit=50)

    def test_refusal_in_general_position_gives_the_clean_walk(self, monkeypatch):
        """A row order the certificate cannot use, on the true family: the
        walk runs and finds no failure; past the budget it is refused."""
        monkeypatch.setattr(totalpos.families, "_row_order", lambda m: list(range(3 * m // 2)))
        rep = general_position(8)
        assert rep.certificate.refusal is not None
        walk = family_walk(8)
        assert (rep.failures, rep.min_abs_nonzero_det, rep.checked_subsets) == (
            (), walk.min_abs_nonzero_det, walk.checked_subsets)
        assert rep.method == "laplace-walk"
        with pytest.raises(ScanBudgetError):
            general_position(20, exhaustive_limit=10**6)


class TestPositiveMinorScan:
    def test_minor_counts(self):
        for m, total in ((2, 3), (4, 15), (6, 84), (8, 495)):
            rep = positive_minor_scan(m)
            assert rep.ok
            assert rep.total_minors == total
            assert rep.violations == ()
            assert not rep.witnesses_attached

    def test_witnesses_cover_every_minor(self):
        for m in (2, 4, 6):
            rep = positive_minor_scan(m, with_witnesses=True)
            assert rep.ok
            assert rep.witnesses_attached
            assert rep.missing_witnesses == ()

    def test_example_minor_value(self):
        # One three-row minor of the m=4 block whose columns include the tail.
        B = closed_form_matrix(4)
        assert minor(B, MinorQuery((2, 3, 4), (2, 3, 4))) == 3
        assert minor(B, MinorQuery((1, 2, 3, 4), (1, 2, 3, 4))) == 1

    def test_report_serializes(self):
        d = positive_minor_scan(2).to_json_dict()
        assert d["m"] == 2
        assert d["total_minors"] == 3
        assert d["violations"] == []

    @pytest.mark.parametrize(
        "m, with_witnesses",
        [(m, False) for m in range(2, 11, 2)] + [(m, True) for m in range(2, 9, 2)],
    )
    def test_laplace_walk_matches_per_minor_oracle(self, m, with_witnesses):
        rep = positive_minor_scan(m, with_witnesses=with_witnesses)
        assert without_timing(rep) == without_timing(positive_minor_oracle(m, with_witnesses))

    def test_planted_violations_match_the_oracle(self, monkeypatch):
        """The m=6 block with entry (1, 4) raised from 1 to 4, planted in
        the builder where families looks it up: 22 of the 84 qualifying
        minors turn <= 0, one of them to 0, and their values and order
        match."""
        planted = totalpos.families._binomial_block(6)
        planted[0][3] = 4
        monkeypatch.setattr(totalpos.families, "_binomial_block", lambda m: planted)
        rep = positive_minor_scan(6)
        expected = positive_minor_oracle(6)
        assert rep.violations == expected.violations
        assert without_timing(rep) == without_timing(expected)
        values = [value for _, _, value in rep.violations]
        assert len(values) == 22 and values.count(0) == 1

    @pytest.mark.parametrize("m", range(2, 13, 2))
    def test_witness_routing_matches_find_positive_collection(self, m, monkeypatch):
        """The queries the scan hands to _route_in_order, in its order,
        get the answers and step totals find_positive_collection gives
        each one alone."""
        seen = []
        route_in_order = totalpos.families._route_in_order

        def spy(net, queries):
            seen.append((net, list(queries)))
            return route_in_order(net, seen[-1][1])

        monkeypatch.setattr(totalpos.families, "_route_in_order", spy)
        rep = positive_minor_scan(m, with_witnesses=True)
        [(net, queries)] = seen
        assert len(queries) == rep.total_minors
        assert net == build_three_section(standard_weights(m))
        assert assert_in_order_routing_matches(net, queries, monkeypatch) == 0

    def test_m10_routes_each_distinct_pair_once(self, monkeypatch):
        """3,003 queries of 20,020 pairs in all (k extra columns: C(5, k)
        column sets, C(10, 5 + k) row sets, 5 + k pairs each) need 2,033
        searches: one per distinct (previous path, pair).  They find 717
        distinct paths."""
        paths = []
        lowest_path = totalpos.networks._lowest_path

        def spy(*args):
            found = lowest_path(*args)
            paths.append(found[0])
            return found

        monkeypatch.setattr(totalpos.networks, "_lowest_path", spy)
        assert positive_minor_scan(10, with_witnesses=True).ok
        pairs = sum(math.comb(5, k) * math.comb(10, 5 + k) * (5 + k) for k in range(6))
        assert (pairs, len(paths), len(set(paths))) == (20020, 2033, 717)

    def test_m12_every_qualifying_minor_is_positive(self):
        rep = positive_minor_scan(12)
        assert rep.ok
        assert rep.total_minors == 18564
