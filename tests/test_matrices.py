from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
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
    constants_from_extras,
    determinant,
    diagonal,
    extended_family,
    family_polys,
    general_position,
    identity,
    is_totally_nonnegative,
    is_totally_positive,
    matmul,
    maximal_minor_scan,
    minor,
    verify_extended_general_position,
)
import totalpos
from totalpos.matrices import _bareiss_det, _has_zero_maximal_minor


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


def direct_minors(matrix):
    """Independent oracle: det M[I] for every row subset I of size cols, in
    lex order, one Bareiss determinant of the integer-lifted rows each."""
    lifted = []
    for row in matrix.entries:
        scale = math.lcm(*(x.denominator for x in row))
        lifted.append(([int(x * scale) for x in row], scale))
    out = []
    for rows_idx in combinations(range(matrix.rows), matrix.cols):
        denom = math.prod(lifted[i][1] for i in rows_idx)
        value = _bareiss_det([lifted[i][0] for i in rows_idx])
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
        early-exit predicate against any zero among them."""
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
            assert _has_zero_maximal_minor(M) == any(d == 0 for _, d in minors)
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
                coefficient_matrix, constants_from_extras, extended_family,
                maximal_minor_scan,
            )
            family = extended_family(6, constants_from_extras([(-1, 2), (3, -2)]))
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
