"""Exact matrices over the rationals.

Fraction-free (Bareiss) determinants over a common-denominator integer
lift, minor queries, total-nonnegativity/positivity scans, and the
maximal-minor scan engine that backs general-position certificates.

One walk enumerates minors for every exhaustive scan (_laplace_walk).
It visits row prefixes depth first.  A node holds every minor on its
rows, and a child gets its minors by Laplace expansion along its new
last row from its parent's, with no division, so zero minors cost
nothing extra: at most sum_k k*C(r,k)*C(c,k) integer multiply-adds for
an r x c matrix.  A wide matrix is walked as its transpose so that the
expansion tables span the shorter side.  It has four consumers: the
TNN/TP verdicts here, which keep the least violation and prune below
it; exhaustive maximal-minor scans, which walk the coordinate matrix C
below; the zero-minor test of a constant-search candidate, which walks
the same C; and the positive-minor scan of the families module, which
walks the block's columns tail first and keeps the minors whose columns
contain the tail block.

The scan engine reduces each maximal minor to a small complementary
minor.  One Gauss-Jordan reduction of M^T over Q gives the
lexicographically first invertible row basis B (its pivot columns),
every remaining row in B-coordinates (matrix C, its other columns) and
|det B| (the product of its pivots).  For a row subset I using k
non-basis rows, |det M[I]| = |det B| * |det C[K, Jc]| where Jc is the
complement of the basis positions I occupies.  So the maximal minors of
M are, up to the factor |det B| and the row scales, exactly the minors
of C, the all-basis subset being the empty minor.  When the reduction
finds fewer pivots than columns, every maximal minor is 0 and no
determinant is taken.  Whether any maximal minor is 0 is the same walk
over C, descending no further after its first zero minor
(_has_zero_maximal_minor).
Sampled scans take one determinant of C per subset; from 4096 subsets
up they spread over one worker process per CPU.  The per-subset
determinant of M[I] is the test oracle.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import ScanBudgetError
from .scalars import format_rational

__all__ = [
    "ExactMatrix",
    "MinorQuery",
    "MinorWitness",
    "ScanVerdict",
    "GeneralPositionReport",
    "determinant",
    "minor",
    "matmul",
    "identity",
    "diagonal",
    "is_totally_nonnegative",
    "is_totally_positive",
    "maximal_minor_scan",
]


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rational matrix; entries[i][j] is the (i+1, j+1) entry."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "ExactMatrix":
        out = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if out:
            width = len(out[0])
            if any(len(row) != width for row in out):
                raise ValueError("ragged rows")
        return cls(out)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        """Submatrix by 0-based index sequences."""
        return ExactMatrix(
            tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        )

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class MinorQuery:
    """Equal-length, strictly increasing, 1-based row and column index sets."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        for name, idx in (("rows", self.rows), ("cols", self.cols)):
            if any(i < 1 for i in idx):
                raise ValueError(f"{name} must be 1-based positive indices")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if len(self.rows) != len(self.cols):
            raise ValueError("rows and cols must have equal length")


class MinorWitness(NamedTuple):
    query: MinorQuery
    value: Fraction


class ScanVerdict(NamedTuple):
    ok: bool
    witness: Optional[MinorWitness]


def _int_lift_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale a rational row to integers; returns (row, scale)."""
    scale = math.lcm(*(x.denominator for x in row)) if row else 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free elimination; exact integer determinant."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a = [row[:] for row in rows]
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


def determinant(matrix: ExactMatrix) -> Fraction:
    if matrix.rows != matrix.cols:
        raise ValueError("determinant requires a square matrix")
    lifted = []
    denom = 1
    for row in matrix.entries:
        ints, scale = _int_lift_row(row)
        lifted.append(ints)
        denom *= scale
    return Fraction(_bareiss_det(lifted), denom)


def minor(matrix: ExactMatrix, query: MinorQuery) -> Fraction:
    if not query.rows:
        return Fraction(1)
    if query.rows[-1] > matrix.rows or query.cols[-1] > matrix.cols:
        raise ValueError("minor query indices out of range")
    sub = matrix.submatrix([i - 1 for i in query.rows], [j - 1 for j in query.cols])
    return determinant(sub)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError("inner dimensions must agree")
    bt = list(zip(*b.entries)) if b.entries else []
    return ExactMatrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
            for row in a.entries
        )
    )


def identity(n: int) -> ExactMatrix:
    one, zero = Fraction(1), Fraction(0)
    return ExactMatrix(
        tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    )


def diagonal(values: Sequence) -> ExactMatrix:
    zero = Fraction(0)
    vals = [Fraction(v) for v in values]
    n = len(vals)
    return ExactMatrix(
        tuple(tuple(vals[i] if i == j else zero for j in range(n)) for i in range(n))
    )


def _minor_count(rows: int, cols: int) -> int:
    # sum over k >= 1 of C(rows, k) * C(cols, k), by Vandermonde
    return math.comb(rows + cols, rows) - 1


def _laplace_tables(n: int) -> list:
    """Laplace expansion terms for the minors over the columns range(n).

    Entry s (1 <= s <= n) is (subsets, plus, minus): the s-subsets J of
    the columns in lex order, and for each column j the pairs (t, q) with
    J = subsets[t] containing j at position p and J - {j} the (s-1)-subset
    of lex rank q, split by the cofactor sign (-1)^(s-1+p) of a new last
    row.  Entry 0 is unused.  Together they hold sum_s s*C(n, s) pairs.
    """
    out: list = [None]
    rank = {(): 0}
    for s in range(1, n + 1):
        subsets = list(combinations(range(n), s))
        plus: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        minus: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for t, cols in enumerate(subsets):
            for p, j in enumerate(cols):
                terms = minus if (s - 1 + p) % 2 else plus
                terms[j].append((t, rank[cols[:p] + cols[p + 1:]]))
        out.append((subsets, plus, minus))
        rank = {cols: t for t, cols in enumerate(subsets)}
    return out


def _laplace_walk(entries: Sequence[Sequence], visit: Callable) -> None:
    """Every minor of a rational matrix, depth first over row prefixes.

    A node is a row set I; it holds the vector of det A[I, J] over the
    |I|-subsets J of the columns in lex order.  The child I + (i), for
    i > max I, gets each minor by expansion along its new last row:
    det A[I+i, J] = sum_p (-1)^(|I|+p) a[i][j_p] det A[I, J - j_p], with
    p counted from 0.  The update never divides, so zero minors cost
    nothing extra, and zero entries of the new row are skipped; a walk
    takes at most sum_k k*C(r,k)*C(c,k) big-integer multiply-adds.

    A wide matrix (more columns than rows) is walked as its transpose,
    so the expansion tables span the shorter side; "rows" below are the
    walked ones.  Each walked row is lifted to integers once, so a node's
    minors are integers over one positive scale, the product of its row
    scales, and keep their signs.  For every node, in depth-first order,
    visit(node, subsets, minors, scale) gets the row tuple, the column
    subsets in lex order, the integer minors and the scale; the walk
    descends below the node only when visit returns true.
    """
    grid = list(entries)
    if grid and len(grid[0]) > len(grid):
        grid = list(zip(*grid))
    lifted = [_int_lift_row(row) for row in grid]
    depth = min(len(grid), len(grid[0])) if grid else 0
    tables = _laplace_tables(depth)

    def walk(node: tuple, parent: list[int], scale: int) -> None:
        s = len(node) + 1
        subsets, plus, minus = tables[s]
        for i in range(node[-1] + 1 if node else 0, len(lifted)):
            row, row_scale = lifted[i]
            minors = [0] * len(subsets)
            for j, a in enumerate(row):
                if a:
                    for t, q in plus[j]:
                        minors[t] += a * parent[q]
                    for t, q in minus[j]:
                        minors[t] -= a * parent[q]
            child, child_scale = node + (i,), scale * row_scale
            if visit(child, subsets, minors, child_scale) and s < depth:
                walk(child, minors, child_scale)

    if depth:
        walk((), [1], 1)


def _total_scan(matrix: ExactMatrix, strict: bool, size_guard: int) -> ScanVerdict:
    """The least (size, rows, cols) minor < 0 (or <= 0 when strict), from
    one Laplace walk; nodes larger than the best violation found so far
    are not visited."""
    count = _minor_count(matrix.rows, matrix.cols)
    if count > size_guard:
        raise ScanBudgetError(
            f"total-minor scan needs {count} minors, over the guard {size_guard}"
        )
    transposed = matrix.cols > matrix.rows
    best: Optional[tuple[tuple, Fraction]] = None  # ((size, rows, cols), minor)

    def visit(node, subsets, minors, scale) -> bool:
        nonlocal best
        low = min(minors)
        if low < 0 or strict and low == 0:
            t = next(t for t, x in enumerate(minors) if x < 0 or strict and x == 0)
            cols = subsets[t]
            key = (len(node), cols, node) if transposed else (len(node), node, cols)
            if best is None or key < best[0]:
                best = (key, Fraction(minors[t], scale))
        return best is None or len(node) < best[0][0]

    _laplace_walk(matrix.entries, visit)
    if best is None:
        return ScanVerdict(True, None)
    (_, rows_idx, cols_idx), value = best
    query = MinorQuery(tuple(i + 1 for i in rows_idx), tuple(j + 1 for j in cols_idx))
    return ScanVerdict(False, MinorWitness(query, value))


def is_totally_nonnegative(matrix: ExactMatrix, size_guard: int = 10**6) -> ScanVerdict:
    """All minors >= 0; witness is the first violation in (size, lex) order.

    The C(r+c, r) - 1 minors come from the division-free Laplace walk over
    row prefixes (_laplace_walk): at most sum_k k*C(r,k)*C(c,k) integer
    multiply-adds.  ScanBudgetError is raised before any work when the
    count exceeds size_guard.
    """
    return _total_scan(matrix, strict=False, size_guard=size_guard)


def is_totally_positive(matrix: ExactMatrix, size_guard: int = 10**6) -> ScanVerdict:
    """All minors > 0; witness is the first violation in (size, lex) order.

    Same Laplace walk and size_guard as is_totally_nonnegative.
    """
    return _total_scan(matrix, strict=True, size_guard=size_guard)


# ---------------------------------------------------------------------------
# maximal-minor scan engine


@dataclass(frozen=True)
class GeneralPositionReport:
    total_subsets: int
    checked_subsets: int
    mode: str  # "exhaustive" | "sampled"
    failures: tuple[tuple[int, ...], ...]  # 1-based row subsets with det 0
    min_abs_nonzero_det: Optional[Fraction]
    elapsed_ms: int
    seed: Optional[int] = None
    sample_count: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        out: dict = {
            "total_subsets": self.total_subsets,
            "checked_subsets": self.checked_subsets,
            "mode": self.mode,
        }
        if self.mode == "sampled":
            out["seed"] = self.seed
            out["sample_count"] = self.sample_count
        out["failures"] = [{"rows": list(rows), "det": "0"} for rows in self.failures]
        out["min_abs_nonzero_det"] = (
            format_rational(self.min_abs_nonzero_det)
            if self.min_abs_nonzero_det is not None
            else None
        )
        out["elapsed_ms"] = self.elapsed_ms
        return out


def _unrank_combination(rank: int, n: int, k: int) -> list[int]:
    """Lexicographic unrank of a k-subset of range(n)."""
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
    return out


def _subsets(n: int, k: int, ranks: Optional[Sequence[int]]) -> Iterable[Sequence[int]]:
    """The k-subsets of range(n): all in lexicographic order when ranks is
    None, else those of the given lexicographic ranks, in that order."""
    if ranks is None:
        return combinations(range(n), k)
    return (_unrank_combination(rank, n, k) for rank in ranks)


@dataclass(frozen=True)
class _BasisContext:
    """Complementary-minor reduction through an invertible row basis."""

    n_rows: int
    n_cols: int
    basis_pos: tuple[int, ...]  # row index -> basis position, -1 if non-basis
    coord_pos: tuple[int, ...]  # row index -> C row index, -1 if basis row
    coord: tuple[tuple[Fraction, ...], ...]  # C, one row per non-basis row
    coord_rows: tuple[tuple[int, ...], ...]  # C, integer-lifted per row
    coord_scales: tuple[int, ...]

    def det_parts(self, subset: Sequence[int]) -> tuple[int, int]:
        k_rows = []
        used = []
        for i in subset:
            p = self.basis_pos[i]
            if p >= 0:
                used.append(p)
            else:
                k_rows.append(self.coord_pos[i])
        if not k_rows:
            return 1, 1
        free = sorted(set(range(self.n_cols)) - set(used))
        sub = [[self.coord_rows[r][j] for j in free] for r in k_rows]
        scale = 1
        for r in k_rows:
            scale *= self.coord_scales[r]
        return _bareiss_det(sub), scale


def _walk_scan(ctx: _BasisContext):
    """Every minor of the coordinate matrix C, from one Laplace walk.

    The minor det C[K, J] stands for the row subset made of the basis
    rows at the positions outside J and the non-basis rows K; the empty
    minor, 1, is the all-basis subset.  A wide C is walked as its
    transpose, so a node is then a column set J and its minors run over
    the row sets K.  Returns the same (failures, best (|det|, scale))
    pair as _scan_chunk, with the failures in lexicographic order.
    """
    transposed = ctx.n_cols > len(ctx.coord)
    zeros: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (K, J)
    # The smallest nonzero |det C[K, J]| so far, as (|integer minor|,
    # scale); the root's empty minor is 1 with scale 1.
    best = (1, 1)
    count = 1

    def visit(node, subsets, minors, scale) -> bool:
        nonlocal best, count
        count += len(minors)
        if 0 in minors:
            for other, x in zip(subsets, minors):
                if not x:
                    zeros.append((other, node) if transposed else (node, other))
            low = min((abs(x) for x in minors if x), default=None)
        else:
            low = min(map(abs, minors))
        if low is not None and low * best[1] < best[0] * scale:
            best = (low, scale)
        return True

    _laplace_walk(ctx.coord, visit)
    expected = math.comb(ctx.n_rows, ctx.n_cols)
    if count != expected:
        raise AssertionError(f"minor walk visited {count} of {expected} subsets")
    basis_rows = [i for i, p in enumerate(ctx.basis_pos) if p >= 0]
    coord_to_row = [i for i, p in enumerate(ctx.basis_pos) if p < 0]
    failures = []
    for kk, jj in zeros:
        outside = set(range(ctx.n_cols)) - set(jj)
        rows = [basis_rows[p] for p in outside] + [coord_to_row[k] for k in kk]
        failures.append(tuple(sorted(i + 1 for i in rows)))
    failures.sort()
    return failures, best


def _has_zero_maximal_minor(matrix: ExactMatrix) -> bool:
    """Whether some maximal minor of a matrix with rows >= cols is 0: one
    Laplace walk over the coordinate matrix C that descends no further
    once it has met a zero minor."""
    ctx, _ = _build_context(matrix)
    if ctx is None:
        return True
    found = False

    def visit(node, subsets, minors, scale) -> bool:
        nonlocal found
        found = found or 0 in minors
        return not found

    _laplace_walk(ctx.coord, visit)
    return found


def _scan_chunk(payload):
    """(failures, best (|det|, scale)) over the subsets of the given
    lexicographic ranks, one determinant each."""
    ctx, ranks = payload
    failures: list[tuple[int, ...]] = []
    best: Optional[tuple[int, int]] = None  # (|det| numerator part, scale part)
    for comb in _subsets(ctx.n_rows, ctx.n_cols, ranks):
        d, scale = ctx.det_parts(comb)
        if d == 0:
            failures.append(tuple(i + 1 for i in comb))
        else:
            ad = -d if d < 0 else d
            if best is None or ad * best[1] < best[0] * scale:
                best = (ad, scale)
    return failures, best


def _build_context(matrix: ExactMatrix):
    """One Gauss-Jordan reduction of M^T over Q.

    Column i of M^T is row i of M, so the pivot columns are the
    lexicographically first row basis B; once the last pivot is cleared,
    each non-pivot column holds the B-coordinates x of its row
    (x * B = row); and |det B| is the product of the pivot magnitudes,
    since the other row operations leave it unchanged.  Returns
    (context, |det B|), or (None, None) when M has rank below its column
    count.
    """
    r, c = matrix.rows, matrix.cols
    work = [list(col) for col in zip(*matrix.entries)]
    basis: list[int] = []
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
        return None, None
    basis_pos = [-1] * r
    for pos, i in enumerate(basis):
        basis_pos[i] = pos
    coord_pos = [-1] * r
    coord = []
    for i in range(r):
        if basis_pos[i] < 0:
            coord_pos[i] = len(coord)
            coord.append(tuple(row[i] for row in work))
    lifted = [_int_lift_row(row) for row in coord]
    ctx = _BasisContext(
        n_rows=r,
        n_cols=c,
        basis_pos=tuple(basis_pos),
        coord_pos=tuple(coord_pos),
        coord=tuple(coord),
        coord_rows=tuple(tuple(ints) for ints, _ in lifted),
        coord_scales=tuple(scale for _, scale in lifted),
    )
    return ctx, abs_det_b


def _per_subset_scan(ctx, ranks):
    """One determinant per sampled row subset, in rank order; from 4096
    subsets up, spread over one worker process per CPU."""
    checked = len(ranks)
    n_workers = os.cpu_count() or 1
    n_chunks = min(n_workers * 4, checked) if n_workers > 1 else 1
    bounds = [checked * i // n_chunks for i in range(n_chunks + 1)]
    payloads = [
        (ctx, tuple(ranks[bounds[i]: bounds[i + 1]]))
        for i in range(n_chunks)
        if bounds[i + 1] > bounds[i]
    ]
    if n_workers > 1 and len(payloads) > 1 and checked >= 4096:
        with multiprocessing.Pool(n_workers) as pool:
            return pool.map(_scan_chunk, payloads)
    return [_scan_chunk(p) for p in payloads]


def maximal_minor_scan(
    matrix: ExactMatrix,
    mode: str = "exhaustive",
    *,
    seed: Optional[int] = None,
    sample_count: Optional[int] = None,
    exhaustive_limit: int = 10**7,
) -> GeneralPositionReport:
    """Scan row subsets of size cols; record every zero-determinant subset.

    Exhaustive mode covers all C(rows, cols) subsets.  When the matrix has
    full column rank, one Laplace walk over the coordinate matrix C
    (_walk_scan) yields every maximal minor in one process, failures in
    lexicographic order; a square matrix has an empty C, and its one
    subset's |det| is |det B|.  Sampled mode draws sample_count distinct
    subsets with the given seed and takes one determinant per subset in
    rank order, spread over one worker process per CPU from 4096 subsets
    up.  The report is identical for any worker count.

    Below full column rank every maximal minor is 0, so the subsets (all,
    or the sampled ones) are listed as failures without taking a
    determinant.
    """
    t0 = time.perf_counter()
    r, c = matrix.rows, matrix.cols
    if c < 1:
        raise ValueError("matrix must have at least one column")
    if r < c:
        raise ValueError("need at least as many rows as columns")
    total = math.comb(r, c)
    if mode == "exhaustive":
        if seed is not None or sample_count is not None:
            raise ValueError("seed/sample_count only apply to sampled mode")
        if total > exhaustive_limit:
            raise ScanBudgetError(
                f"exhaustive scan of {total} subsets exceeds the budget "
                f"{exhaustive_limit}; use sampled mode"
            )
        checked = total
        ranks = None
    elif mode == "sampled":
        if seed is None or sample_count is None:
            raise ValueError("sampled mode requires seed and sample_count")
        if sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if sample_count > total:
            raise ValueError(
                f"sample_count {sample_count} exceeds the {total} subsets available"
            )
        ranks = sorted(random.Random(seed).sample(range(total), sample_count))
        checked = sample_count
    else:
        raise ValueError(f"unknown mode: {mode!r}")

    ctx, abs_det_b = _build_context(matrix)

    if ctx is None:
        zeros = [tuple(i + 1 for i in comb) for comb in _subsets(r, c, ranks)]
        parts = [(zeros, None)]
    elif ranks is None:
        parts = [_walk_scan(ctx)]
    else:
        parts = _per_subset_scan(ctx, ranks)

    failures: list[tuple[int, ...]] = []
    best: Optional[tuple[int, int]] = None
    for part_failures, part_best in parts:
        failures.extend(part_failures)
        if part_best is not None:
            if best is None or part_best[0] * best[1] < best[0] * part_best[1]:
                best = part_best
    min_abs = Fraction(best[0], best[1]) * abs_det_b if best is not None else None

    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return GeneralPositionReport(
        total_subsets=total,
        checked_subsets=checked,
        mode=mode,
        failures=tuple(failures),
        min_abs_nonzero_det=min_abs,
        elapsed_ms=elapsed_ms,
        seed=seed,
        sample_count=sample_count,
    )
