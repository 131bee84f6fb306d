from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalpos import (
    ExactMatrix,
    MinorQuery,
    MinorWitness,
    ScanBudgetError,
    ScanVerdict,
    coefficient_matrix,
    determinant,
    extended_family,
    family_polys,
    general_position,
    is_totally_nonnegative,
    is_totally_positive,
    maximal_minor_scan,
    minor,
    verify_extended_general_position,
)
import totalpos
import totalpos.matrices
from totalpos.matrices import (
    _bareiss_det,
    _bareiss_kernel,
    _bareiss_reduce,
    _build_context,
    _decode_ranks,
    _laplace_kernel,
    _laplace_walk,
    _minor_count,
    _over,
    _scan_report,
)

from oracles import constants_from_extras, diagonal, identity, matmul


def cofactor_determinant(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        rest = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * cofactor_determinant(rest)
    return total


def unrank_combination(rank, n, k):
    """Independent oracle: the k-subset of range(n) of one lexicographic
    rank, decoded from scratch."""
    out = []
    c = 0
    r = rank
    for pos in range(k):
        while True:
            rem = math.comb(n - c - 1, k - pos - 1)
            if r < rem:
                out.append(c)
                c += 1
                break
            r -= rem
            c += 1
    return tuple(out)


def leading_minors_vanish(rows):
    """Whether a leading principal minor of size 1 .. k-1 is 0: exactly
    when Bareiss elimination without row exchanges meets a zero pivot."""
    return any(_bareiss_det([row[:s] for row in rows[:s]]) == 0 for s in range(1, len(rows)))


def total_scan_oracle(matrix, strict):
    """Independent oracle: one determinant per minor, in (size, lex) order,
    stopping at the first minor < 0 (or <= 0 when strict)."""
    r, c = matrix.rows, matrix.cols
    for k in range(1, min(r, c) + 1):
        for rows_idx in combinations(range(r), k):
            for cols_idx in combinations(range(c), k):
                value = determinant(matrix.submatrix(rows_idx, cols_idx))
                if value < 0 or strict and value == 0:
                    query = MinorQuery(
                        tuple(i + 1 for i in rows_idx), tuple(j + 1 for j in cols_idx)
                    )
                    return ScanVerdict(False, MinorWitness(query, value))
    return ScanVerdict(True, None)


def forward_bareiss_det(rows):
    """Independent oracle: Bareiss's forward elimination of a square integer
    matrix, updating only the rows below each pivot, with a row exchange at
    a zero pivot; its last pivot is the determinant."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = a[k][k]
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pkk - aik * ak[j]) // prev
        prev = pkk
    return sign * a[n - 1][n - 1]


def gauss_jordan_basis(matrix):
    """Independent oracle for the scan's basis reduction: one Gauss-Jordan
    reduction of M^T over Q.

    Column i of M^T is row i of M, so the pivot columns are the
    lexicographically first row basis B; once the last pivot is cleared,
    each non-pivot column holds the B-coordinates x of its row (x * B =
    row); and |det B| is the product of the pivot magnitudes.  Returns
    (basis, C, |det B|), C with one row per non-basis row, or None when M
    has rank below its column count.
    """
    r, c = matrix.rows, matrix.cols
    work = [list(col) for col in zip(*matrix.entries)]
    basis = []
    abs_det_b = Fraction(1)
    for j in range(r):
        k = len(basis)
        if k == c:
            break
        p = next((i for i in range(k, c) if work[i][j]), None)
        if p is None:
            continue
        work[k], work[p] = work[p], work[k]
        pivot = work[k][j]
        abs_det_b *= abs(pivot)
        prow = work[k] = [x / pivot for x in work[k]]
        for i in range(c):
            factor = work[i][j]
            if i != k and factor:
                work[i] = [x - factor * y for x, y in zip(work[i], prow)]
        basis.append(j)
    if len(basis) < c:
        return None
    coord = [tuple(row[i] for row in work) for i in range(r) if i not in basis]
    return basis, coord, abs_det_b


def lift_row(row):
    """A rational row as integers over the lcm of its denominators:
    (integers, scale)."""
    scale = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(Fraction(x) * scale) for x in row], scale


def direct_minors(matrix):
    """Independent oracle: det M[I] for every row subset I of size cols, in
    lex order, one forward Bareiss determinant of the integer-lifted rows
    each."""
    lifted = []
    for row in matrix.entries:
        scale = math.lcm(*(x.denominator for x in row))
        lifted.append(([int(x * scale) for x in row], scale))
    out = []
    for rows_idx in combinations(range(matrix.rows), matrix.cols):
        denom = math.prod(lifted[i][1] for i in rows_idx)
        value = forward_bareiss_det([lifted[i][0] for i in rows_idx])
        out.append((rows_idx, Fraction(value, denom)))
    return out


def oracle_report(minors, ranks=None):
    """(failures, min |det| over nonzero ones, checked) over the subsets of
    the given lex ranks (all when None)."""
    picked = minors if ranks is None else [minors[k] for k in ranks]
    failures = tuple(tuple(i + 1 for i in rows_idx) for rows_idx, d in picked if d == 0)
    return failures, min((abs(d) for _, d in picked if d), default=None), len(picked)


def seeded_shapes(seed, entry):
    """1000 matrices of shapes 1..5 x 1..5, entries from entry(rng)."""
    rng = random.Random(seed)
    out = []
    for _ in range(1000):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        out.append(ExactMatrix.from_rows([[entry(rng) for _ in range(c)] for _ in range(r)]))
    return out


def perturbed_vandermonde():
    """Generalized Vandermonde matrices (x_i / 7)^(y_j), totally positive for
    increasing x and y, with a fifth of the entries moved by +-1/1000."""
    rng = random.Random(20261019)
    out = []
    for _ in range(1000):
        xs = sorted(rng.sample(range(1, 20), rng.randint(1, 5)))
        ys = sorted(rng.sample(range(0, 12), rng.randint(1, 5)))
        out.append(ExactMatrix.from_rows(
            [[Fraction(x, 7) ** y
              + (Fraction(rng.choice((-1, 1)), 1000) if rng.random() < 0.2 else 0)
              for y in ys]
             for x in xs]
        ))
    return out


def planted_wide():
    """A totally positive 2x40 matrix, except the minor on columns 39, 40
    (the last 2x2 minor in lex order) is -1/2."""
    second = [Fraction(j) for j in range(1, 40)] + [Fraction(77, 2)]
    return ExactMatrix.from_rows([[1] * 40, second])


def transpose(matrix):
    return ExactMatrix.from_rows(zip(*matrix.entries))


def random_rational_matrices():
    """300 seeded tall matrices with small rational entries.  They have
    many zero minors, their denominators give non-unit row scales, and
    their coordinate matrices C come both wide (walked as the transpose)
    and tall."""
    rng = random.Random(20261018)
    out = []
    for _ in range(300):
        c = rng.randint(2, 5)
        r = rng.randint(c + 1, c + 6)
        out.append(ExactMatrix.from_rows(
            [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(c)]
             for _ in range(r)]
        ))
    return out


def product_matrices(seed, shape):
    """300 seeded products L * R of small rational matrices, L of size
    r x k and R of size k x c for (r, c, k) = shape(rng), so rank <= k."""
    rng = random.Random(seed)
    out = []
    for _ in range(300):
        r, c, k = shape(rng)
        left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(r)]
        right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)]
                 for _ in range(k)]
        out.append(ExactMatrix.from_rows(
            [[sum((left[i][p] * right[p][j] for p in range(k)), Fraction(0))
              for j in range(c)] for i in range(r)]
        ))
    return out


def low_rank_shape(rng):
    """A tall or square shape with rank k in 0 .. cols - 1."""
    c = rng.randint(1, 5)
    return rng.randint(c, c + 4), c, rng.randint(0, c - 1)


def square_shape(rng):
    """A square shape, full rank two times in three."""
    n = rng.randint(1, 5)
    return n, n, n if rng.random() < 2 / 3 else rng.randint(0, n - 1)


def planted_m6(extras):
    """The extended m=6 family for constants that leave dependent subsets."""
    return [coefficient_matrix(extended_family(6, constants_from_extras(extras)), 6)]


def fraction_sum_product(a_rows, b_rows):
    """Independent oracle: each entry of a * b as a plain sum of Fraction
    products."""
    width = len(b_rows[0]) if b_rows else 0
    return [
        [sum((Fraction(row[p]) * Fraction(b_rows[p][j]) for p in range(len(b_rows))), Fraction(0))
         for j in range(width)]
        for row in a_rows
    ]


@st.composite
def product_operands(draw):
    """Row lists of an r x k and a k x c matrix, r, k, c in 0..4, with
    rational entries of both signs; k is 0 when r is, since a matrix
    without rows has no columns."""
    r, k, c = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    k = k if r else 0
    entries = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    a = [[draw(entries) for _ in range(k)] for _ in range(r)]
    b = [[draw(entries) for _ in range(c)] for _ in range(k)]
    return a, b


def walk_records(entries, descend=lambda node: True):
    """Every (node, subsets, minors, scale) the Laplace walk of the rational
    rows entries visits, in order; it descends below the nodes that
    descend(node) accepts.  The walk gets the rows as integers over their
    least common denominator."""
    records = []

    def visit(node, subsets, minors, scale):
        records.append((node, subsets, minors, scale))
        return descend(node)

    den = math.lcm(*(x.denominator for row in entries for x in row))
    _laplace_walk([[int(x * den) for x in row] for row in entries], den, visit)
    return records


def check_walk_record(matrix, record):
    """One visited node against the per-minor determinant oracle: its
    column subsets, its scale (the product of its walked rows' common
    denominators) and each minor over that scale."""
    node, subsets, minors, scale = record
    transposed = matrix.cols > matrix.rows
    walked = transpose(matrix) if transposed else matrix
    assert subsets == tuple(combinations(range(walked.cols), len(node)))
    assert scale == math.prod(
        math.lcm(*(x.denominator for x in walked.entries[i])) for i in node
    )
    assert len(minors) == len(subsets)
    for other, value in zip(subsets, minors):
        rows, cols = (other, node) if transposed else (node, other)
        assert isinstance(value, int)
        assert Fraction(value, scale) == determinant(matrix.submatrix(rows, cols))


def shapes_by_width(seed, entry):
    """Three seeded matrices for each width 1..6 (the shorter side), the
    longer side up to two more, wide and tall alike."""
    rng = random.Random(seed)
    out = []
    for width in range(1, 7):
        for _ in range(3):
            longer = rng.randint(width, width + 2)
            r, c = (width, longer) if rng.random() < 0.5 else (longer, width)
            out.append(ExactMatrix.from_rows([[entry(rng) for _ in range(c)] for _ in range(r)]))
    return out


@st.composite
def reduction_inputs(draw):
    """A tall or square rational matrix, c in 1..5 columns and c..c+5
    rows, so that its coordinate matrix C is empty, wide or tall: random
    small entries, a product of lower rank, or random rows with one or
    two rows repeated or zeroed.  The entries come from a drawn seed."""
    c = draw(st.integers(1, 5))
    r = draw(st.integers(c, c + 5))
    kind = draw(st.sampled_from(("random", "low-rank", "repeated", "zero")))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))

    if kind == "low-rank":
        k = rng.randint(0, c - 1)
        left = [[entry() for _ in range(k)] for _ in range(r)]
        right = [[entry() for _ in range(c)] for _ in range(k)]
        rows = [[sum((row[p] * right[p][j] for p in range(k)), Fraction(0)) for j in range(c)]
                for row in left]
    else:
        rows = [[entry() for _ in range(c)] for _ in range(r)]
        for _ in range(rng.randint(1, 2) if kind != "random" else 0):
            target = rng.randrange(r)
            if kind == "repeated":
                rows[target] = list(rows[rng.randrange(r)])
            else:
                rows[target] = [Fraction(0)] * c
    return ExactMatrix.from_rows(rows)


def check_reduction(matrix):
    """The integer basis reduction against the Gauss-Jordan oracle: the
    same basis, C and |det B|; the same integer rows and scales of C that
    the sampled engine lifted per row; and, for the walk, the same
    integer walked rows (C's rows, or its columns when C is wide, each
    over the lcm of its denominators)."""
    ctx = _build_context(matrix)
    expected = gauss_jordan_basis(matrix)
    if expected is None:
        assert ctx is None
        return
    basis, coord, abs_det_b = expected
    assert Fraction(ctx.den, ctx.det_scale) == abs_det_b
    assert [i for i, p in enumerate(ctx.basis_pos) if p >= 0] == basis
    assert [p for p in ctx.basis_pos if p >= 0] == list(range(matrix.cols))
    assert ctx.den > 0
    assert [[Fraction(x, ctx.den) for x in row] for row in ctx.coord] == [list(row) for row in coord]
    assert [_over(row, ctx.den) for row in ctx.coord] == [lift_row(row) for row in coord]
    walked = list(zip(*coord)) if coord and len(coord[0]) > len(coord) else coord
    seen = []

    def visit(node, subsets, minors, scale):
        seen.append((minors, scale))
        return False

    _laplace_walk(ctx.coord, ctx.den, visit)
    assert seen == [lift_row(row) for row in walked]


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(max_denominator=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestExactMatrix:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([[1, 2], [3]])

    def test_entries_become_fractions(self):
        M = ExactMatrix.from_rows([[1, "1/2"], [Fraction(3), 0]])
        assert M.entries[0][1] == Fraction(1, 2)
        assert all(isinstance(x, Fraction) for row in M.entries for x in row)

    def test_shape(self):
        M = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (M.rows, M.cols) == (2, 3)

    def test_submatrix_uses_zero_based_positions(self):
        M = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert M.submatrix((0,), (0, 2)).to_lists() == [[1, 3]]

    def test_identity_and_diagonal(self):
        assert identity(2).to_lists() == [[1, 0], [0, 1]]
        assert diagonal([1, Fraction(1, 2)]).to_lists() == [[1, 0], [0, Fraction(1, 2)]]

    def test_matmul_against_hand_product(self):
        A = ExactMatrix.from_rows([[1, 2], [3, 4]])
        B = ExactMatrix.from_rows([[0, 1], [1, 1]])
        assert matmul(A, B).to_lists() == [[2, 3], [4, 7]]

    def test_matmul_shape_mismatch(self):
        A = ExactMatrix.from_rows([[1, 2, 3]])
        with pytest.raises(ValueError):
            matmul(A, A)

    @settings(max_examples=100)
    @given(product_operands())
    def test_matmul_matches_fraction_sums(self, operands):
        a_rows, b_rows = operands
        product = matmul(ExactMatrix.from_rows(a_rows), ExactMatrix.from_rows(b_rows))
        assert product.to_lists() == fraction_sum_product(a_rows, b_rows)
        assert all(isinstance(x, Fraction) for row in product.entries for x in row)


class TestBasisReduction:
    @settings(max_examples=300)
    @given(reduction_inputs())
    def test_matches_the_gauss_jordan_oracle(self, matrix):
        check_reduction(matrix)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(random_rational_matrices, id="random-rational"),
            pytest.param(lambda: product_matrices(5, low_rank_shape), id="low-rank"),
            pytest.param(lambda: product_matrices(6, square_shape), id="square"),
            pytest.param(lambda: planted_m6([(-1, 2), (3, -2)]), id="planted-290"),
            pytest.param(
                lambda: [coefficient_matrix(family_polys(m), m) for m in (6, 16, 20, 40)],
                id="family",
            ),
        ],
    )
    def test_seeded_matrices_match_the_oracle(self, build):
        for matrix in build():
            check_reduction(matrix)

    @settings(max_examples=300)
    @given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**32))
    def test_determinant_matches_forward_elimination(self, n, rank, seed):
        """_bareiss_det, the last pivot of the forward reduction, against
        Bareiss's forward elimination, singular matrices of every rank
        below n included; the Gauss-Jordan reduction finds the same pivots
        and determinant."""
        rng = random.Random(seed)
        k = min(rank, n)
        if k < n:
            left = [[rng.randint(-30, 30) for _ in range(k)] for _ in range(n)]
            right = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(k)]
            rows = [[sum(row[p] * right[p][j] for p in range(k)) for j in range(n)]
                    for row in left]
        else:
            rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        expected = forward_bareiss_det(rows)
        assert _bareiss_det(rows) == expected
        pivots, _, det = _bareiss_reduce(rows, forward=True)
        assert (pivots, det) == (_bareiss_reduce(rows)[0], _bareiss_reduce(rows)[2])
        if k < n:
            assert expected == 0

    @settings(max_examples=200)
    @given(st.integers(1, 5), st.integers(1, 7), st.data())
    def test_reduced_rows_are_the_last_pivot_times_the_coordinates(self, n, width, data):
        """The pivot rows hold the last pivot P times the identity in the
        pivot columns and P times their coordinates elsewhere: row k of the
        reduction, over P, is the coordinate of each column on pivot
        column k, checked against the input's columns."""
        rows = [[data.draw(st.integers(-3, 3)) for _ in range(width)] for _ in range(n)]
        original = [row[:] for row in rows]
        pivots, reduced, det = _bareiss_reduce(rows)
        assert rows == original
        if not pivots:
            assert all(x == 0 for row in rows for x in row)
            return
        last = reduced[0][pivots[0]]
        assert abs(det) == abs(last)
        rank = len(pivots)
        for k in range(rank):
            assert [reduced[k][j] for j in pivots] == [last * (i == k) for i in range(rank)]
        assert all(x == 0 for row in reduced[rank:] for x in row)
        for j in range(width):
            column = [Fraction(sum(Fraction(reduced[k][j], last) * rows[i][p]
                                   for k, p in enumerate(pivots)))
                      for i in range(n)]
            assert column == [rows[i][j] for i in range(n)]


class TestDeterminant:
    def test_examples(self):
        assert determinant(ExactMatrix.from_rows([[1, 2], [3, 4]])) == -2
        assert determinant(ExactMatrix.from_rows([[5]])) == 5
        assert determinant(identity(6)) == 1

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            determinant(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @settings(max_examples=60)
    @given(square_matrices)
    def test_matches_cofactor_expansion(self, rows):
        assert determinant(ExactMatrix.from_rows(rows)) == cofactor_determinant(rows)

    @settings(max_examples=40)
    @given(square_matrices, st.data())
    def test_multiplicative(self, rows_a, data):
        n = len(rows_a)
        rows_b = data.draw(
            st.lists(
                st.lists(st.fractions(max_denominator=6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        A, B = ExactMatrix.from_rows(rows_a), ExactMatrix.from_rows(rows_b)
        assert determinant(matmul(A, B)) == determinant(A) * determinant(B)


class TestMinor:
    def test_one_based_index_convention(self):
        M = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert minor(M, MinorQuery((1,), (3,))) == 3
        assert minor(M, MinorQuery((1, 2), (1, 2))) == -3
        assert minor(M, MinorQuery((1, 2, 3), (1, 2, 3))) == -3

    def test_query_validation(self):
        with pytest.raises(ValueError):
            MinorQuery((2, 1), (1, 2))
        with pytest.raises(ValueError):
            MinorQuery((1, 1), (1, 2))
        with pytest.raises(ValueError):
            minor(ExactMatrix.from_rows([[1]]), MinorQuery((1,), (1, 2)))
        with pytest.raises(ValueError):
            minor(ExactMatrix.from_rows([[1]]), MinorQuery((1,), (2,)))


class TestPositivityVerdicts:
    def test_triangular_matrix_is_nonnegative_but_not_positive(self):
        M = ExactMatrix.from_rows([[1, 1], [0, 1]])
        assert is_totally_nonnegative(M).ok
        verdict = is_totally_positive(M)
        assert not verdict.ok
        assert verdict.witness.value == 0

    def test_positive_example(self):
        M = ExactMatrix.from_rows([[1, 1], [1, 2]])
        assert is_totally_positive(M).ok
        assert is_totally_nonnegative(M).ok

    def test_failure_witness_is_an_actual_minor(self):
        M = ExactMatrix.from_rows([[1, 2], [3, 4]])
        verdict = is_totally_nonnegative(M)
        assert not verdict.ok
        w = verdict.witness
        assert w.value < 0
        assert minor(M, w.query) == w.value

    def test_size_guard_limits_work(self):
        M = identity(30)
        with pytest.raises(ScanBudgetError):
            is_totally_nonnegative(M, size_guard=10)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda: seeded_shapes(
                    20261018, lambda rng: Fraction(rng.randint(-3, 9), rng.randint(1, 4))
                ),
                id="random-rational",
            ),
            pytest.param(
                lambda: seeded_shapes(7, lambda rng: rng.choice((0, 0, 0, 1, 2, -1))),
                id="zero-heavy",
            ),
            pytest.param(perturbed_vandermonde, id="perturbed-vandermonde"),
            pytest.param(lambda: [planted_wide()], id="wide-2x40"),
            pytest.param(lambda: [transpose(planted_wide())], id="tall-40x2"),
            pytest.param(lambda: [ExactMatrix.from_rows([])], id="empty-0x0"),
        ],
    )
    def test_laplace_walk_matches_per_minor_oracle(self, build):
        """Whole verdicts, witness query and exact value, against the oracle."""
        verdicts = []
        for M in build():
            for strict, scan in ((False, is_totally_nonnegative), (True, is_totally_positive)):
                verdict = scan(M)
                assert verdict == total_scan_oracle(M, strict)
                verdicts.append(verdict)
        if len(verdicts) > 2:
            # Each seeded family holds passing and failing matrices.
            assert {v.ok for v in verdicts} == {True, False}

    def test_planted_witnesses(self):
        wide = planted_wide()
        expected = MinorWitness(MinorQuery((1, 2), (39, 40)), Fraction(-1, 2))
        assert is_totally_positive(wide) == (False, expected)
        tall = is_totally_nonnegative(transpose(wide))
        assert tall == (False, MinorWitness(MinorQuery((39, 40), (1, 2)), Fraction(-1, 2)))


class TestLaplaceKernels:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda: shapes_by_width(
                    20261020, lambda rng: Fraction(rng.randint(-3, 9), rng.randint(1, 4))
                ),
                id="random-rational",
            ),
            pytest.param(
                lambda: shapes_by_width(8, lambda rng: rng.choice((0, 0, 0, 1, 2, -1))),
                id="zero-heavy",
            ),
            pytest.param(lambda: [planted_wide()], id="wide-2x40"),
            pytest.param(lambda: [transpose(planted_wide())], id="tall-40x2"),
            pytest.param(lambda: [ExactMatrix.from_rows([])], id="empty-0x0"),
        ],
    )
    def test_every_visited_minor_matches_its_determinant(self, build):
        """The walk visits every row subset of the walked side up to the
        shorter side's size, depth first (lex order of tuples), and each
        visited minor is the determinant of its submatrix."""
        for M in build():
            records = walk_records(M.entries)
            walked, width = max(M.rows, M.cols), min(M.rows, M.cols)
            expected = sorted(
                node for k in range(1, width + 1) for node in combinations(range(walked), k)
            )
            assert [record[0] for record in records] == expected
            for record in records:
                check_walk_record(M, record)

    def test_each_kernel_is_generated_once_and_reused(self):
        rng = random.Random(4)
        M = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)] for _ in range(6)]
        )
        _laplace_kernel.cache_clear()
        first = walk_records(M.entries)
        assert _laplace_kernel.cache_info().misses == 4
        assert walk_records(M.entries) == first
        info = _laplace_kernel.cache_info()
        assert (info.misses, info.currsize) == (4, 4)
        assert info.hits > 0
        assert _laplace_kernel(4, 2) is _laplace_kernel(4, 2)

    def test_kernels_are_built_only_for_the_sizes_walked(self):
        M = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        _laplace_kernel.cache_clear()
        assert len(walk_records(M.entries, lambda node: False)) == 3
        assert _laplace_kernel.cache_info().currsize == 1

    def test_import_builds_no_kernel(self):
        code = (
            "import totalpos, totalpos.cli\n"
            "from totalpos.matrices import _bareiss_kernel, _laplace_kernel\n"
            "print(_laplace_kernel.cache_info().currsize,"
            " _bareiss_kernel.cache_info().currsize)\n"
        )
        src = os.path.dirname(os.path.dirname(totalpos.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        child = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["0", "0"]

    def test_width_eleven_compiles_quickly_and_expands_exactly(self):
        """11 x 11 is the widest square shape the default 10^6 guard of the
        total-minor scans admits.  Its eleven kernels (11 * 2^10 products in
        all) compile in about 0.04 s on a 2-vCPU box; the bound only stops
        a generator that grows out of hand.  The walk descends along the
        prefixes (0, ..., k-1) only, so every kernel runs once per sibling,
        and the minors on that path are checked against determinants."""
        assert _minor_count(11, 11) <= 10**6 < _minor_count(12, 12)
        _laplace_kernel.cache_clear()
        t0 = time.perf_counter()
        kernels = [_laplace_kernel(11, s) for s in range(1, 12)]
        assert time.perf_counter() - t0 < 10
        assert [len(subsets) for subsets, _ in kernels] == [math.comb(11, s) for s in range(1, 12)]
        rng = random.Random(11)
        M = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(11)]
             for _ in range(11)]
        )
        records = walk_records(M.entries, lambda node: node == tuple(range(len(node))))
        path = [record for record in records if record[0] == tuple(range(len(record[0])))]
        assert len(path) == 11
        assert _laplace_kernel.cache_info().misses == 11
        for record in path:
            check_walk_record(M, record)
        assert path[-1][2] != [0]  # det M, nonzero for this seed


@st.composite
def gathered_squares(draw, entries=st.integers(-10**6, 10**6)):
    """(rows, cols, sub): k integer rows, k in 1..12, up to three columns
    wider than k, the k sorted column indices a kernel gathers, and the
    gathered k x k matrix."""
    k = draw(st.integers(1, 12))
    width = k + draw(st.integers(0, 3))
    rows = [[draw(entries) for _ in range(width)] for _ in range(k)]
    cols = sorted(draw(st.permutations(range(width)))[:k])
    return rows, cols, [[row[j] for j in cols] for row in rows]


class TestBareissKernels:
    @settings(max_examples=150)
    @given(gathered_squares())
    def test_kernel_matches_the_elimination_loop(self, square):
        """Every determinant equals the loop's; None comes exactly at a
        zero pivot, which random signed entries almost never give."""
        rows, cols, sub = square
        got = _bareiss_kernel(len(sub))(rows, cols)
        if got is None:
            assert len(sub) > 2 and leading_minors_vanish(sub)
        else:
            assert got == _bareiss_det(sub)

    @settings(max_examples=100)
    @given(gathered_squares(st.integers(-3, 3)), st.data())
    def test_singular_matrices_give_zero_or_fall_back(self, square, data):
        """A row that is a sum of multiples of the others makes the matrix
        singular: the kernel returns 0, or None at a zero pivot, and the
        loop then returns 0."""
        rows, cols, sub = square
        k = len(sub)
        weights = [data.draw(st.integers(-2, 2)) for _ in range(k - 1)]
        target = data.draw(st.integers(0, k - 1))
        others = [row for i, row in enumerate(rows) if i != target]
        rows[target] = [sum(w * row[j] for w, row in zip(weights, others))
                        for j in range(len(rows[0]))]
        sub = [[row[j] for j in cols] for row in rows]
        got = _bareiss_kernel(k)(rows, cols)
        assert got in (0, None)
        assert _bareiss_det(sub) == 0
        assert (got is None) == (k > 2 and leading_minors_vanish(sub))

    @settings(max_examples=100)
    @given(st.integers(3, 12), st.data())
    def test_zero_leading_entry_falls_back(self, k, data):
        """A zero (1, 1) entry is a zero first pivot: the kernel gives None
        even when the determinant is not 0, and the loop's row exchange
        finds it.  The anti-diagonal with nonzero entries is one such
        matrix, with determinant +-(product of its entries)."""
        values = data.draw(st.lists(st.integers(-50, 50).filter(bool), min_size=k, max_size=k))
        anti = [[values[i] if i + j == k - 1 else 0 for j in range(k)] for i in range(k)]
        assert _bareiss_kernel(k)(anti, list(range(k))) is None
        sign = (-1) ** (k * (k - 1) // 2)
        assert _bareiss_det(anti) == sign * math.prod(values)
        rows = data.draw(st.lists(st.integers(-9, 9), min_size=k * k, max_size=k * k))
        rows = [[0] + rows[1:k]] + [rows[i * k:(i + 1) * k] for i in range(1, k)]
        assert _bareiss_kernel(k)(rows, list(range(k))) is None
        if k <= 5:
            assert _bareiss_det(rows) == cofactor_determinant(rows)

    def test_small_kernels_have_no_pivot_test(self):
        """Sizes 0, 1 and 2 are the loop's own closed forms: 1, the entry
        and the cross product, zero or not."""
        assert _bareiss_kernel(0)([], []) == 1
        assert _bareiss_kernel(1)([[5, 0, 7]], [1]) == 0
        assert _bareiss_kernel(2)([[0, 1], [2, 3]], [0, 1]) == -2

    def test_scan_falls_back_at_zero_pivots(self, monkeypatch):
        """M = [I; C] with C anti-diagonal: C's full minor and others have a
        zero first pivot, so the sampled scan calls the loop for them and
        still matches one determinant of M[I] per subset."""
        k = 4
        rows = [[int(i == j) for j in range(k)] for i in range(k)]
        rows += [[i + 1 if i + j == k - 1 else 0 for j in range(k)] for i in range(k)]
        M = ExactMatrix.from_rows(rows)
        calls = []
        loop = totalpos.matrices._bareiss_det

        def spy(sub):
            calls.append(len(sub))
            return loop(sub)

        monkeypatch.setattr(totalpos.matrices, "_bareiss_det", spy)
        total = math.comb(2 * k, k)
        rep = maximal_minor_scan(M, mode="sampled", seed=1, sample_count=total)
        assert calls and max(calls) == k
        expected = oracle_report(direct_minors(M))
        assert (rep.failures, rep.min_abs_nonzero_det, rep.checked_subsets) == expected

    def test_kernels_are_compiled_once_per_size(self):
        _bareiss_kernel.cache_clear()
        first = _bareiss_kernel(7)
        assert _bareiss_kernel(7) is first
        info = _bareiss_kernel.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


class TestDecodeRanks:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_every_rank_in_order_is_lex_order(self, n):
        """All ranks, consecutive from 0 to total - 1, for every k in 0..n
        (k = 1 and k = n included)."""
        for k in range(n + 1):
            total = math.comb(n, k)
            assert list(_decode_ranks(n, k, range(total))) == list(combinations(range(n), k))

    @pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (5, 5), (9, 4), (30, 20), (75, 50)])
    def test_single_ranks(self, n, k):
        """One rank at a time: the first, the last and a few between."""
        total = math.comb(n, k)
        for rank in {0, 1 % total, total // 3, total // 2, total - 2 if total > 1 else 0, total - 1}:
            assert list(_decode_ranks(n, k, [rank])) == [unrank_combination(rank, n, k)]

    @settings(max_examples=200)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))), st.data())
    def test_sorted_ranks_match_one_at_a_time_decoding(self, shape, data):
        n, k = shape
        total = math.comb(n, k)
        ranks = sorted(data.draw(st.sets(st.integers(0, total - 1), min_size=1, max_size=60)))
        assert list(_decode_ranks(n, k, ranks)) == [unrank_combination(r, n, k) for r in ranks]

    def test_sampled_ranks_of_the_m20_family(self):
        """The draw of the sampled m = 20 scan: C(30, 20) subsets, about 300
        ranks apart, plus both ends."""
        total = math.comb(30, 20)
        ranks = sorted(set(random.Random(1).sample(range(total), 3000)) | {0, total - 1})
        assert list(_decode_ranks(30, 20, ranks)) == [unrank_combination(r, 30, 20) for r in ranks]


@pytest.fixture
def pool_spy(monkeypatch):
    """Wrap multiprocessing.Pool; the list records the worker count of
    each pool started."""
    real_pool = multiprocessing.Pool
    started = []

    def spy_pool(processes=None, *args, **kwargs):
        started.append(processes)
        return real_pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy_pool)
    return started


class TestMaximalMinorScan:
    def test_small_exhaustive_scan(self):
        rep = maximal_minor_scan(ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1]]))
        assert rep.ok
        assert (rep.total_subsets, rep.checked_subsets) == (3, 3)
        assert rep.min_abs_nonzero_det == 1
        assert rep.failures == ()

    def test_reports_lex_first_zero_subset(self):
        M = ExactMatrix.from_rows([[1, 1], [2, 2], [0, 1], [1, 0]])
        rep = maximal_minor_scan(M)
        assert not rep.ok
        assert rep.failures[0] == (1, 2)
        assert rep.checked_subsets == 6

    @pytest.mark.parametrize(
        "build, expected_failures",
        [
            pytest.param(random_rational_matrices, None, id="random-rational"),
            pytest.param(lambda: planted_m6([(-1, 2), (3, -2)]), 290, id="planted-290"),
            pytest.param(lambda: planted_m6([(-3, -4), (2, 5)]), 43, id="planted-43"),
            pytest.param(
                lambda: [coefficient_matrix(family_polys(8), 8)], 0, id="m8-family"
            ),
            pytest.param(lambda: product_matrices(5, low_rank_shape), None, id="low-rank"),
            pytest.param(lambda: product_matrices(6, square_shape), None, id="square"),
        ],
    )
    def test_direct_and_reduced_engines_agree(self, build, expected_failures):
        """Exhaustive and sampled scans against one determinant of M[I] per
        row subset (failures, min |det| and checked count), and the
        constant search's early-exit decision: a rejection exactly when
        some minor is 0, else the exhaustive report."""
        failures = 0
        rng = random.Random(20261018)
        for M in build():
            minors = direct_minors(M)
            total = math.comb(M.rows, M.cols)
            count = rng.randint(1, min(total, 4000))
            seed = rng.randrange(10**6)
            ranks = sorted(random.Random(seed).sample(range(total), count))
            sampled = {"mode": "sampled", "seed": seed, "sample_count": count}
            for kwargs, expected in (
                ({}, oracle_report(minors)),
                (sampled, oracle_report(minors, ranks)),
            ):
                rep = maximal_minor_scan(M, **kwargs)
                assert (rep.failures, rep.min_abs_nonzero_det, rep.checked_subsets) == expected
                assert rep.total_subsets == total
            decided = _scan_report(M, stop_at_zero=True)
            assert (decided is None) == any(d == 0 for _, d in minors)
            if decided is not None:
                full = maximal_minor_scan(M)
                assert replace(decided, elapsed_ms=0) == replace(full, elapsed_ms=0)
            failures += len(oracle_report(minors)[0])
        if expected_failures is None:
            assert failures > 100
        else:
            assert failures == expected_failures

    @pytest.mark.parametrize(
        "cpus, count, pools",
        [(None, 5000, []), (1, 5000, []), (2, 4095, []), (2, 4096, [2]), (2, 5000, [2])],
    )
    def test_pool_is_sized_by_cpu_count(self, monkeypatch, pool_spy, cpus, count, pools):
        """Only sampled scans of at least 4096 subsets on more than one CPU
        start a pool, of one worker per CPU; planted failures check that
        its chunks merge in rank order."""
        started = pool_spy
        (M,) = planted_m6([(-1, 2), (3, -2)])
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        here = maximal_minor_scan(M, mode="sampled", seed=3, sample_count=count)
        assert started == []
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rep = maximal_minor_scan(M, mode="sampled", seed=3, sample_count=count)
        assert started == pools
        assert here.failures
        assert rep.failures == here.failures
        assert rep.min_abs_nonzero_det == here.min_abs_nonzero_det

    def test_threads_environment_variable_is_ignored(self, monkeypatch, pool_spy):
        """TOTALPOS_THREADS no longer sizes the pool: an invalid value is
        not read, and a count of 1 does not keep two CPUs from pooling."""
        (M,) = planted_m6([(-1, 2), (3, -2)])
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("TOTALPOS_THREADS", "two")
        small = maximal_minor_scan(M, mode="sampled", seed=3, sample_count=100)
        assert small.checked_subsets == 100
        monkeypatch.setenv("TOTALPOS_THREADS", "1")
        maximal_minor_scan(M, mode="sampled", seed=3, sample_count=4096)
        assert pool_spy == [2]

    def test_worker_pool_runs_without_fork(self, monkeypatch):
        """A child interpreter with two CPUs, the spawn start method and
        os.fork disabled runs the pooled sampled scan and matches this
        process."""
        (M,) = planted_m6([(-1, 2), (3, -2)])
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        here = maximal_minor_scan(M, mode="sampled", seed=3, sample_count=5000)
        code = textwrap.dedent("""
            import json, multiprocessing, os

            def no_fork():
                raise OSError("fork is disabled in this interpreter")

            os.fork = no_fork
            os.cpu_count = lambda: 2
            multiprocessing.set_start_method("spawn")
            from totalpos import (
                FamilyConstants, coefficient_matrix, extended_family,
                maximal_minor_scan,
            )
            family = extended_family(6, FamilyConstants(((0, 1), (-1, 2), (3, -2))))
            rep = maximal_minor_scan(
                coefficient_matrix(family, 6), mode="sampled", seed=3,
                sample_count=5000,
            )
            print(json.dumps(rep.to_json_dict()))
        """)
        src = os.path.dirname(os.path.dirname(totalpos.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        child = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        there = json.loads(child.stdout)
        assert here.failures
        expected = here.to_json_dict()
        expected["elapsed_ms"] = there["elapsed_ms"]
        assert there == expected

    def test_sampled_mode_is_seed_deterministic(self):
        M = coefficient_matrix(family_polys(8), 8)
        a = maximal_minor_scan(M, mode="sampled", seed=5, sample_count=100)
        b = maximal_minor_scan(M, mode="sampled", seed=5, sample_count=100)
        assert a.mode == "sampled"
        assert a.checked_subsets == 100
        assert (a.seed, a.sample_count) == (5, 100)
        assert a.failures == b.failures
        assert a.min_abs_nonzero_det == b.min_abs_nonzero_det

    def test_mode_argument_validation(self):
        M = ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(ValueError):
            maximal_minor_scan(M, mode="sampled")
        with pytest.raises(ValueError):
            maximal_minor_scan(M, mode="exhaustive", seed=3)
        with pytest.raises(ValueError):
            maximal_minor_scan(M, mode="guess")

    def test_sampled_draw_past_sys_maxsize_is_refused(self):
        """random.sample draws from at most sys.maxsize items, and C(75, 50)
        is more: the scan raises ScanBudgetError naming the limit before
        any reduction."""
        M = ExactMatrix.from_rows([[0] * 50] * 75)
        assert math.comb(75, 50) > sys.maxsize
        with pytest.raises(ScanBudgetError, match=r"sys\.maxsize.*C\(75, 50\)"):
            maximal_minor_scan(M, mode="sampled", seed=1, sample_count=1)
        with pytest.raises(ScanBudgetError, match=r"C\(75, 50\)"):
            general_position(50, mode="sampled", seed=1, sample_count=10)

    def test_exhaustive_limit_guard(self):
        M = coefficient_matrix(family_polys(8), 8)
        with pytest.raises(ScanBudgetError):
            maximal_minor_scan(M, exhaustive_limit=100)

    def test_report_serializes_to_plain_json_types(self):
        rep = maximal_minor_scan(ExactMatrix.from_rows([[1, 0], [0, 1], [1, 1]]))
        d = rep.to_json_dict()
        assert d["total_subsets"] == 3
        assert d["failures"] == []
        assert d["min_abs_nonzero_det"] == "1"
        assert isinstance(d["elapsed_ms"], int)


class TestWorkerCountIsNotConfigurable:
    def test_resolve_threads_is_gone(self):
        assert not hasattr(totalpos, "resolve_threads")
        assert "resolve_threads" not in totalpos.__all__

    @pytest.mark.parametrize(
        "scan",
        [
            lambda: maximal_minor_scan(identity(2), threads=2),
            lambda: general_position(2, threads=2),
            lambda: verify_extended_general_position(
                4, constants_from_extras([(-3, -4)]), threads=2
            ),
        ],
        ids=["maximal_minor_scan", "general_position", "verify_extended_general_position"],
    )
    def test_threads_argument_is_rejected(self, scan):
        with pytest.raises(TypeError, match="threads"):
            scan()
