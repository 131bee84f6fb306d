"""Exact matrices over the rationals.

One fraction-free (Bareiss) elimination for determinants (forward only)
and the scan's basis reduction (Gauss-Jordan), minor queries,
total-nonnegativity/positivity scans, the positive-Grassmannian
certificate of general position, and the maximal-minor scan engine
(an exhaustive walk or a seeded sample) that families.general_position
runs when the certificate is refused or a sample is asked for.

The certificate (_positive_grassmannian) proves that no maximal minor
vanishes without enumerating them: in a given row order the basis must
be the first rows, the coordinates C of the rest must be integers whose
sign pattern has rank one, and every solid minor of the sign-flipped C',
taken level by level by Dodgson condensation, must be positive.  Those
include the initial minors, so C' is totally positive, and every
maximal minor is +-det B times a minor of C'.  The cost is one basis
reduction and about t^2 m / 3 integer updates for a t x m matrix C.

One walk enumerates minors for every exhaustive scan (_laplace_walk).
It visits row prefixes depth first.  A node holds every minor on its
rows, and a child gets its minors by Laplace expansion along its new
last row from its parent's, with no division, so zero minors cost
nothing extra: at most sum_k k*C(r,k)*C(c,k) integer multiply-adds for
an r x c matrix.  The expansion from one minor size to the next is a
generated kernel (_laplace_kernel): one function per (width, size),
compiled on first use from source that spells every minor out as a
signed sum of products, and cached for the life of the process, so
the multiply-adds run as straight-line code with no per-term loop.  A
wide matrix is walked as its transpose so that the kernels span the
shorter side.  It has four consumers: the
TNN/TP verdicts here, which keep the least violation and prune below
it; exhaustive maximal-minor scans, which walk the coordinate matrix C
below; the zero-minor test of a constant-search candidate, which walks
the same C; and the positive-minor scan of the families module, which
walks the block's columns tail first and keeps the minors whose columns
contain the tail block.

The scan engine reduces each maximal minor to a small complementary
minor.  M is lifted to integers over the least common denominator S of
its entries; one fraction-free Gauss-Jordan reduction of the transpose
(_bareiss_reduce, also behind determinant) gives the lexicographically
first invertible row basis B (its pivot columns), every remaining row
in B-coordinates (matrix C, its other columns, over the last pivot D)
and |det B| = |D| / S^c.  For a row subset I using k non-basis rows,
|det M[I]| = |det B| * |det C[K, Jc]| where Jc is the complement of the
basis positions I occupies.  So the maximal minors of M are, up to the
factor |det B| and the row scales, exactly the minors of C, the
all-basis subset being the empty minor.  When the reduction finds fewer
pivots than columns, every maximal minor is 0 and no determinant is
taken.  The constant search decides each candidate by the same walk
over C, descending no further after its first zero minor: a stopped
walk is a rejection, and a finished one gives the report.
Sampled scans decode their sorted ranks by shared prefixes
(_decode_ranks) and take one determinant of C per subset, from a
generated straight-line Bareiss kernel per size (_bareiss_kernel) that
gathers its own entries; from 4096 subsets up they spread over one
worker process per CPU.  The per-subset determinant of M[I] is the test
oracle.
"""

from __future__ import annotations

import functools
import math
import os
import random
import sys
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
    "TPCertificate",
    "determinant",
    "minor",
    "is_totally_nonnegative",
    "is_totally_positive",
    "maximal_minor_scan",
]

# Default budgets: the largest minor count a total-minor scan takes on
# (size_guard), and the largest subset count an exhaustive maximal-minor
# walk takes on (exhaustive_limit; families and surface share it).
SIZE_GUARD = 10**6
EXHAUSTIVE_LIMIT = 10**7


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


def _int_lift(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """(integer rows, d): rational rows over their least common denominator d."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _over(row: Sequence[int], den: int) -> tuple[list[int], int]:
    """row / den (den > 0) in lowest terms: (row // g, den // g), g = gcd(den, *row)."""
    g = math.gcd(den, *row)
    return [x // g for x in row], den // g


def _bareiss_reduce(
    rows: Sequence[Sequence[int]], *, forward: bool = False
) -> tuple[list[int], list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss,
    Math. Comp. 22, 1968): (pivot columns, reduced rows, det).

    Each column in turn takes as its pivot p the first nonzero entry at or
    below the next pivot row, exchanged into that row, or is skipped.  Every
    other row then becomes (a*p - f*b) // prev, with f its entry in p's
    column, b the pivot row's entry in a's column and prev the previous
    pivot (1 at first); each entry is a minor, so the division is exact.
    The pivot rows end with the last pivot P times the identity in the
    pivot columns and P times their coordinates over those elsewhere; det
    is P times the sign of the row exchanges.  With forward, only the rows
    below each pivot are updated (plain Bareiss elimination): the rows
    come out echelon, not reduced, and det is the same.
    """
    a = [list(row) for row in rows]
    n = len(a)
    pivots: list[int] = []
    sign = prev = 1
    for j in range(len(a[0]) if a else 0):
        k = len(pivots)
        if k == n:
            break
        if not a[k][j]:
            p = next((i for i in range(k + 1, n) if a[i][j]), None)
            if p is None:
                continue
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[j]
        lo = j + 1 if forward else 0
        tail = pivot_row[lo:]
        for i in range(k + 1 if forward else 0, n):
            if i != k:
                row = a[i]
                f = row[j]
                row[lo:] = [(x * pivot - f * y) // prev for x, y in zip(row[lo:], tail)]
        prev = pivot
        pivots.append(j)
    return pivots, a, sign * prev


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact integer determinant: forward _bareiss_reduce's, or 0 when a
    column has no pivot."""
    pivots, _, det = _bareiss_reduce(rows, forward=True)
    return det if len(pivots) == len(rows) else 0


@functools.lru_cache(maxsize=None)
def _bareiss_kernel(k: int) -> Callable:
    """_bareiss_reduce's elimination of a k x k matrix without row
    exchanges, updating only the rows below each pivot, as one
    straight-line function det(rows, cols).

    det takes integer rows and k column indices and unpacks the entries
    rows[i][cols[j]] into locals, so the gather runs inside it.  It then
    makes the loop's exact integer updates of those rows in order and
    returns the same determinant, or None at the first zero pivot, where
    the loop would exchange rows; the caller then falls back to
    _bareiss_det.  Kernels
    are compiled on first use and kept for the life of the process, like
    _laplace_kernel; the source grows as k^3.
    """
    lines = ["def det(rows, cols):"]
    if k == 0:
        lines.append("    return 1")
    else:
        cols = "".join(f"c{j}, " for j in range(k))
        lines.append(f"    {cols}= cols")
        for i in range(k):
            entries = ", ".join(f"r[c{j}]" for j in range(k))
            lines.append(f"    r = rows[{i}]")
            lines.append(f"    {''.join(f'a{i}_{j}, ' for j in range(k))}= {entries},")
        if k == 2:
            lines.append("    return a0_0 * a1_1 - a0_1 * a1_0")
        elif k > 2:
            for p in range(k - 1):
                lines.append(f"    if not a{p}_{p}:")
                lines.append("        return None")
                div = f" // a{p - 1}_{p - 1}" if p else ""
                for i in range(p + 1, k):
                    for j in range(p + 1, k):
                        lines.append(
                            f"    a{i}_{j} = (a{i}_{j} * a{p}_{p} - a{i}_{p} * a{p}_{j}){div}"
                        )
        lines.append(f"    return a{k - 1}_{k - 1}")
    namespace: dict = {}
    exec(compile("\n".join(lines) + "\n", f"<bareiss kernel {k}>", "exec"), namespace)
    return namespace["det"]


def determinant(matrix: ExactMatrix) -> Fraction:
    if matrix.rows != matrix.cols:
        raise ValueError("determinant requires a square matrix")
    rows, den = _int_lift(matrix.entries)
    return Fraction(_bareiss_det(rows), den**matrix.rows)


def minor(matrix: ExactMatrix, query: MinorQuery) -> Fraction:
    if not query.rows:
        return Fraction(1)
    if query.rows[-1] > matrix.rows or query.cols[-1] > matrix.cols:
        raise ValueError("minor query indices out of range")
    sub = matrix.submatrix([i - 1 for i in query.rows], [j - 1 for j in query.cols])
    return determinant(sub)


def _minor_count(rows: int, cols: int) -> int:
    # sum over k >= 1 of C(rows, k) * C(cols, k), by Vandermonde
    return math.comb(rows + cols, rows) - 1


@functools.lru_cache(maxsize=None)
def _laplace_kernel(n: int, s: int) -> tuple[tuple[tuple[int, ...], ...], Callable]:
    """The Laplace expansion from the (s-1)-minors to the s-minors over the
    columns range(n), as (subsets, expand).

    subsets holds the s-subsets J of the columns in lex order.  expand(rows,
    parent) takes the parent's minors over the (s-1)-subsets in lex order
    and returns, for each integer row in rows, the s-minors of the parent's
    rows plus that row as their new last row: entry t is
    sum_p (-1)^(s-1+p) row[j_p] * parent[rank(J - j_p)] for J = subsets[t],
    with p counted from 0.  expand is one straight-line function compiled
    from source built of n, s and lex ranks only; it unpacks the parent
    into locals and spells every minor out as one signed sum of products,
    s*C(n, s) products per row in all.  Kernels are built on first use and
    kept for the life of the process; a walk of width n uses n of them.
    """
    subsets = tuple(combinations(range(n), s))
    rank = {cols: q for q, cols in enumerate(combinations(range(n), s - 1))}
    sums = []
    for cols in subsets:
        plus, minus = [], []
        for p, j in enumerate(cols):
            term = f"r{j} * p{rank[cols[:p] + cols[p + 1:]]}"
            (minus if (s - 1 + p) % 2 else plus).append(term)
        sums.append(" - ".join([" + ".join(plus), *minus]))
    source = (
        "def expand(rows, parent):\n"
        f"    {''.join(f'p{q}, ' for q in range(len(rank)))}= parent\n"
        "    out = []\n"
        "    append = out.append\n"
        f"    for {''.join(f'r{j}, ' for j in range(n))}in rows:\n"
        f"        append([{', '.join(sums)}])\n"
        "    return out\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<laplace kernel {n}x{s}>", "exec"), namespace)
    return subsets, namespace["expand"]


def _laplace_walk(rows: Sequence[Sequence[int]], den: int, visit: Callable) -> None:
    """Every minor of the rational matrix rows / den (integer rows over one
    positive common denominator), depth first over row prefixes.

    A node is a row set I; it holds the vector of det A[I, J] over the
    |I|-subsets J of the columns in lex order.  The child I + (i), for
    i > max I, gets each minor by expansion along its new last row:
    det A[I+i, J] = sum_p (-1)^(|I|+p) a[i][j_p] det A[I, J - j_p], with
    p counted from 0.  One generated kernel per (width, minor size)
    (_laplace_kernel, compiled on first use and cached) computes every
    child of a node in one call, as straight-line signed sums of
    products.  The update never divides, so zero minors cost nothing
    extra; zero entries are multiplied like any other, and a walk takes
    at most sum_k k*C(r,k)*C(c,k) big-integer multiply-adds.

    A wide matrix (more columns than rows) is walked as its transpose,
    so the kernels span the shorter side; "rows" below are the walked
    ones.  Each walked row is divided by its gcd with den once (_over),
    so a node's minors are integers over one positive scale, the product
    of its row scales, and keep their signs.  For every node, in
    depth-first order, visit(node, subsets, minors, scale) gets the row
    tuple, the column subsets in lex order, the integer minors and the
    scale; the walk descends below the node only when visit returns true.
    """
    grid = list(rows)
    if grid and len(grid[0]) > len(grid):
        grid = list(zip(*grid))
    lifted = [_over(row, den) for row in grid]
    rows = [ints for ints, _ in lifted]
    width = len(grid[0]) if grid else 0
    depth = min(len(grid), width)

    def walk(node: tuple, parent: list[int], scale: int) -> None:
        s = len(node) + 1
        subsets, expand = _laplace_kernel(width, s)
        start = node[-1] + 1 if node else 0
        for i, minors in enumerate(expand(rows[start:], parent), start):
            child, child_scale = node + (i,), scale * lifted[i][1]
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

    _laplace_walk(*_int_lift(matrix.entries), visit)
    if best is None:
        return ScanVerdict(True, None)
    (_, rows_idx, cols_idx), value = best
    query = MinorQuery(tuple(i + 1 for i in rows_idx), tuple(j + 1 for j in cols_idx))
    return ScanVerdict(False, MinorWitness(query, value))


def is_totally_nonnegative(matrix: ExactMatrix, size_guard: int = SIZE_GUARD) -> ScanVerdict:
    """All minors >= 0; witness is the first violation in (size, lex) order.

    The C(r+c, r) - 1 minors come from the division-free Laplace walk over
    row prefixes (_laplace_walk): at most sum_k k*C(r,k)*C(c,k) integer
    multiply-adds.  ScanBudgetError is raised before any work when the
    count exceeds size_guard.
    """
    return _total_scan(matrix, strict=False, size_guard=size_guard)


def is_totally_positive(matrix: ExactMatrix, size_guard: int = SIZE_GUARD) -> ScanVerdict:
    """All minors > 0; witness is the first violation in (size, lex) order.

    Same Laplace walk and size_guard as is_totally_nonnegative.
    """
    return _total_scan(matrix, strict=True, size_guard=size_guard)


# ---------------------------------------------------------------------------
# maximal-minor scan engine


@dataclass(frozen=True)
class TPCertificate:
    """A positive-Grassmannian certificate (_positive_grassmannian), or the
    condition that refused it.

    row_order is M's rows (0-based) in reduction order; C' is the sign-
    flipped coordinate matrix; initial_minors holds (top row, left column,
    size, minor) of every solid minor of C' in its first row or column.
    A refusal is (condition, rows, cols) with 0-based indices into C';
    both are empty for "basis".
    """

    row_order: tuple[int, ...]
    solid_minors: int = 0  # computed, up to a refusal
    refusal: Optional[tuple[str, tuple[int, ...], tuple[int, ...]]] = None
    row_signs: tuple[int, ...] = ()
    col_signs: tuple[int, ...] = ()
    matrix: tuple[tuple[int, ...], ...] = ()  # C'
    initial_minors: tuple[tuple[int, int, int, int], ...] = ()
    det_basis: Optional[Fraction] = None  # |det B|

    def to_json_dict(self) -> dict:
        refused = None
        if self.refusal is not None:
            condition, rows, cols = self.refusal
            refused = {
                "condition": condition,
                "rows": [i + 1 for i in rows],
                "cols": [j + 1 for j in cols],
            }
        return {
            "row_order": [i + 1 for i in self.row_order],
            "row_signs": list(self.row_signs),
            "col_signs": list(self.col_signs),
            "solid_minors": self.solid_minors,
            "least_initial_minor": None if refused else str(
                min(x for *_, x in self.initial_minors)
            ),
            "refused": refused,
        }


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
    certificate: Optional[TPCertificate] = None  # tried before the walk

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def method(self) -> str:
        if self.mode == "sampled":
            return "sampled"
        if self.certificate is not None and self.certificate.refusal is None:
            return "positive-grassmannian"
        return "laplace-walk"

    @property
    def claim(self) -> str:
        """Whether every subset is covered ("proved") or a sample ("sampled")."""
        return "sampled" if self.mode == "sampled" else "proved"

    def to_json_dict(self) -> dict:
        out: dict = {
            "total_subsets": self.total_subsets,
            "checked_subsets": self.checked_subsets,
            "mode": self.mode,
            "method": self.method,
            "claim": self.claim,
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
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json_dict()
        out["elapsed_ms"] = self.elapsed_ms
        return out


def _decode_ranks(n: int, k: int, ranks: Iterable[int]) -> Iterable[tuple[int, ...]]:
    """The k-subsets of range(n) of the given ascending lexicographic
    ranks, in that order, decoded by their shared prefixes.

    The subsets that share the first p + 1 elements of the current one
    form a block of consecutive ranks of size C(n - 1 - comb[p], k - 1 - p)
    (the combinatorial number system), ending before end[p].  For each
    rank the decoder keeps the positions up to the deepest block that
    still contains it and re-decodes only the positions after that one:
    the first of them moves on from its old block, and each one after it
    starts at its parent's first block.  Sampled ranks lie a few hundred
    apart, so mostly only the last few positions change.
    """
    binom = [[math.comb(a, b) for b in range(k)] for a in range(n)]
    comb = [-1] * k
    end = [0] * k  # no block holds a rank yet, so position 0 starts at 0
    for rank in ranks:
        q = k
        while q and rank >= end[q - 1]:
            q -= 1
        if q < k:
            c, base = comb[q] + 1, end[q]
            for p in range(q, k):
                size = binom[n - 1 - c][k - 1 - p]
                while rank >= base + size:
                    base += size
                    c += 1
                    size = binom[n - 1 - c][k - 1 - p]
                comb[p], end[p] = c, base + size
                c += 1
        yield tuple(comb)


@dataclass(frozen=True)
class _BasisContext:
    """Complementary-minor reduction through an invertible row basis."""

    n_rows: int
    n_cols: int
    basis_pos: tuple[int, ...]  # row index -> basis position, -1 if non-basis
    coord: tuple[tuple[int, ...], ...]  # den * C, one row per non-basis row
    den: int  # |D|, the last pivot's magnitude: C's common denominator
    det_scale: int  # S^c, so that |det B| = den / det_scale


def _walk_scan(ctx: _BasisContext, stop_at_zero: bool = False):
    """Every minor of the coordinate matrix C, from one Laplace walk.

    The minor det C[K, J] stands for the row subset made of the basis
    rows at the positions outside J and the non-basis rows K; the empty
    minor, 1, is the all-basis subset.  A wide C is walked as its
    transpose, so a node is then a column set J and its minors run over
    the row sets K.  Returns _scan_chunk's (failures, best (|det|, scale))
    pair, failures in lexicographic order.  With stop_at_zero it descends
    no further after the first zero minor and then returns None.
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
        return not (stop_at_zero and zeros)

    _laplace_walk(ctx.coord, ctx.den, visit)
    if stop_at_zero and zeros:
        return None
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


def _scan_chunk(payload):
    """(failures, best (|det|, scale)) over the subsets of the given
    ascending lexicographic ranks, one determinant each.

    Walking a subset sorts its rows into basis rows, whose positions leave
    the free columns of C, and non-basis rows, whose rows of C (each
    divided by its gcd with C's denominator, _over) and scales are
    gathered; |det M[I]| is |det B| times |det C[K, free]| over the
    product of the scales.  The determinant is the generated kernel for
    its size (_bareiss_kernel), or _bareiss_det when a pivot is 0.
    """
    ctx, ranks = payload
    n_cols = ctx.n_cols
    # Per row of M: its basis position, or its integer row of C and scale.
    coord = iter(ctx.coord)
    kinds = [(p, None, 1) if p >= 0 else (-1, *_over(next(coord), ctx.den))
             for p in ctx.basis_pos]
    failures: list[tuple[int, ...]] = []
    best: Optional[tuple[int, int]] = None  # (|det| numerator part, scale part)
    for comb in _decode_ranks(ctx.n_rows, n_cols, ranks):
        rows = []
        free = list(range(n_cols))
        scale = 1
        for i in comb:
            p, row, row_scale = kinds[i]
            if row is None:
                free[p] = -1
            else:
                rows.append(row)
                scale *= row_scale
        free = [j for j in free if j >= 0]
        d = _bareiss_kernel(len(rows))(rows, free)
        if d is None:
            d = _bareiss_det([[row[j] for j in free] for row in rows])
        if d == 0:
            failures.append(tuple(i + 1 for i in comb))
        else:
            ad = -d if d < 0 else d
            if best is None or ad * best[1] < best[0] * scale:
                best = (ad, scale)
    return failures, best


def _build_context(matrix: ExactMatrix):
    """One fraction-free Gauss-Jordan reduction of M^T over Z.

    M is lifted to the integer matrix A = S * M over the least common
    denominator S of its entries, and A^T is reduced by _bareiss_reduce.
    Column i of A^T is row i of M, so the pivot columns are the
    lexicographically first row basis B.  With D the last pivot, each
    non-pivot column holds D times the B-coordinates x of its row (x * B
    = row), so C is kept as those integer columns over |D|; and |det B| =
    |D| / S^c, since det A[B] = S^c det B and D is det A[B] up to sign.
    Returns None when M has rank below its column count.
    """
    r, c = matrix.rows, matrix.cols
    rows, scale = _int_lift(matrix.entries)
    basis, work, _ = _bareiss_reduce(list(zip(*rows)))
    if len(basis) < c:
        return None
    last = work[0][basis[0]]  # D, on the diagonal of every pivot row
    sign = -1 if last < 0 else 1
    basis_pos = [-1] * r
    for pos, i in enumerate(basis):
        basis_pos[i] = pos
    coord = tuple(tuple(sign * row[i] for row in work) for i in range(r) if basis_pos[i] < 0)
    return _BasisContext(r, c, tuple(basis_pos), coord, abs(last), scale**c)


def _positive_grassmannian(matrix: ExactMatrix, order: Sequence[int]) -> TPCertificate:
    """A proof that no maximal minor of M (r x c, r > c) vanishes, by total
    positivity of its coordinate matrix, or the condition that refuses it.

    M's rows are reduced in the given order (_build_context), and the basis
    B must be the first c of them.  C, the coordinates of the other rows
    in B (columns in B's order), must be integral: den divides every
    entry of coord.  The signs r_i = sign C[i][0] and c_j = sign(r_0
    C[0][j]) must make every entry of C' = (r_i c_j C[i][j]) positive, so
    C's sign pattern has rank one ("sign").  Then every solid (contiguous
    square) minor of C' is computed level by level by Dodgson condensation
    (the Desnanot-Jacobi identity), each level dividing exactly by the
    positive level two below, and must be positive ("minor").  These
    include the initial minors (those in C''s first row or column), so
    C' is totally positive (Gasca and Pena, Linear Algebra Appl. 165,
    1992).  Every maximal minor of M is +-det B times a minor of C, so none
    vanishes, and as each nonempty minor of C' is an integer >= 1 and the
    all-basis subset has the empty minor 1, the least |maximal minor| is
    |det B| = den / det_scale.
    """
    c = matrix.cols
    order = tuple(order)
    ctx = _build_context(ExactMatrix(tuple(matrix.entries[i] for i in order)))
    if ctx is None or ctx.basis_pos[:c] != tuple(range(c)):
        return TPCertificate(order, refusal=("basis", (), ()))
    for i, row in enumerate(ctx.coord):
        for j, x in enumerate(row):
            if x % ctx.den:
                return TPCertificate(order, refusal=("integral", (i,), (j,)))
    coord = [[x // ctx.den for x in row] for row in ctx.coord]
    row_signs = tuple(1 if row[0] > 0 else -1 for row in coord)
    col_signs = tuple(1 if row_signs[0] * x > 0 else -1 for x in coord[0])
    level = [[r * s * x for s, x in zip(col_signs, row)] for r, row in zip(row_signs, coord)]
    done = functools.partial(TPCertificate, order, row_signs=row_signs, col_signs=col_signs,
                             matrix=tuple(map(tuple, level)))
    below = [[1] * (c + 1)] * (len(level) + 1)  # level 0: the empty minors
    count, initial = 0, []
    for k in range(1, min(len(level), c) + 1):
        if k > 1:
            level, below = [
                [(a[j] * b[j + 1] - a[j + 1] * b[j]) // d[j + 1] for j in range(len(a) - 1)]
                for a, b, d in zip(level, level[1:], below[1:])
            ], level
        count += len(level) * len(level[0])
        if min(map(min, level)) <= 0:
            i, j = next((i, j) for i, row in enumerate(level) for j, x in enumerate(row) if x <= 0)
            refusal = ("sign" if k == 1 else "minor", tuple(range(i, i + k)), tuple(range(j, j + k)))
            return done(solid_minors=count, refusal=refusal)
        initial += [(0, j, k, x) for j, x in enumerate(level[0])]
        initial += [(i, 0, k, row[0]) for i, row in enumerate(level[1:], 1)]
    return done(solid_minors=count, initial_minors=tuple(initial),
                det_basis=Fraction(ctx.den, ctx.det_scale))


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
        # Imported here: only a pooled scan needs it, and its import holds
        # about 1 MB in every process that loads totalpos.
        import multiprocessing

        with multiprocessing.Pool(n_workers) as pool:
            return pool.map(_scan_chunk, payloads)
    return [_scan_chunk(p) for p in payloads]


def maximal_minor_scan(
    matrix: ExactMatrix,
    mode: str = "exhaustive",
    *,
    seed: Optional[int] = None,
    sample_count: Optional[int] = None,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> GeneralPositionReport:
    """Scan row subsets of size cols; record every zero-determinant subset.

    Exhaustive mode covers all C(rows, cols) subsets.  When the matrix has
    full column rank, one Laplace walk over the coordinate matrix C
    (_walk_scan) yields every maximal minor in one process, failures in
    lexicographic order; a square matrix has an empty C, and its one
    subset's |det| is |det B|.  Sampled mode draws sample_count distinct
    subsets with the given seed and takes one determinant of C per subset
    in rank order (_scan_chunk), spread over one worker process per CPU
    from 4096 subsets up.  The report is identical for any worker count.
    The draw needs C(rows, cols) <= sys.maxsize; above it (the family's
    matrix from m = 50 on) sampled mode raises ScanBudgetError.

    Below full column rank every maximal minor is 0, so the subsets (all,
    or the sampled ones) are listed as failures without taking a
    determinant.
    """
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
    elif mode == "sampled":
        if seed is None or sample_count is None:
            raise ValueError("sampled mode requires seed and sample_count")
        if sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if total > sys.maxsize:
            raise ScanBudgetError(
                f"sampled scan draws from at most sys.maxsize = {sys.maxsize} "
                f"subsets, and this matrix has C({r}, {c}) = {total}"
            )
        if sample_count > total:
            raise ValueError(
                f"sample_count {sample_count} exceeds the {total} subsets available"
            )
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return _scan_report(matrix, seed, sample_count)


def _scan_report(matrix, seed=None, sample_count=None, *, stop_at_zero=False):
    """maximal_minor_scan's report over every row subset (seed None) or
    sample_count subsets drawn with seed (arguments already checked by
    maximal_minor_scan); with stop_at_zero, the constant search's
    decision, None when a maximal minor is 0 (the walk stops).

    Exhaustive reports come from the Laplace walk over C (_walk_scan).
    Sampled ranks are drawn by random.sample, sorted, and decoded by
    shared prefixes; each drawn subset takes one generated-kernel
    determinant (_scan_chunk).
    """
    t0 = time.perf_counter()
    r, c = matrix.rows, matrix.cols
    total = math.comb(r, c)
    ranks = None
    if seed is not None:
        ranks = sorted(random.Random(seed).sample(range(total), sample_count))
    ctx = _build_context(matrix)

    if ctx is None:
        if stop_at_zero:
            return None
        subsets = combinations(range(r), c) if ranks is None else _decode_ranks(r, c, ranks)
        zeros = [tuple(i + 1 for i in comb) for comb in subsets]
        parts = [(zeros, None)]
    elif ranks is None:
        walked = _walk_scan(ctx, stop_at_zero)
        if walked is None:
            return None
        parts = [walked]
    else:
        parts = _per_subset_scan(ctx, ranks)

    failures: list[tuple[int, ...]] = []
    best: Optional[tuple[int, int]] = None
    for part_failures, part_best in parts:
        failures.extend(part_failures)
        if part_best is not None:
            if best is None or part_best[0] * best[1] < best[0] * part_best[1]:
                best = part_best
    min_abs = Fraction(best[0] * ctx.den, best[1] * ctx.det_scale) if best else None

    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return GeneralPositionReport(
        total_subsets=total,
        checked_subsets=total if ranks is None else sample_count,
        mode="exhaustive" if ranks is None else "sampled",
        failures=tuple(failures),
        min_abs_nonzero_det=min_abs,
        elapsed_ms=elapsed_ms,
        seed=seed,
        sample_count=sample_count,
    )
