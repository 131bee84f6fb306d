"""The three-block polynomial family and its positivity certificates.

For even m = 2t the family consists of the 3t polynomials

    z^(i-1)            for 1 <= i <= t,
    (z-1)^(i-1)        for t+1 <= i <= 2t,
    z^(i-t-1) (z-1)^(m-i+t)   for 2t+1 <= i <= 3t,

all of degree < m.  The tail 2t rows of the coefficient matrix carry, up
to alternating signs, a block matrix of binomial coefficients that also
arises as the weight matrix of the standard three-section network; the
functions here build both sides, check the sign factorization linking
them, and run the minor scans that certify general position and total
nonnegativity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .matrices import (
    EXHAUSTIVE_LIMIT,
    ExactMatrix,
    GeneralPositionReport,
    _laplace_walk,
    _positive_grassmannian,
    determinant,
    maximal_minor_scan,
)
from .networks import (
    find_positive_collection,
    weight_matrix,  # unused; perfbench/tracer.py wraps it here by name
)
from .poly import Polynomial
from .scalars import format_rational
from .three_section import (
    _Sweep,
    _binomial_block,
    _even_half,
    _slot_word,
    build_three_section,
    standard_weights,
)

__all__ = [
    "family_polys",
    "coefficient_matrix",
    "block_determinants",
    "sign_factorization_check",
    "verify_network_equals_block_matrix",
    "general_position",
    "positive_minor_scan",
    "PositiveMinorReport",
]


def family_polys(m: int) -> tuple[Polynomial, ...]:
    """The 3t family members, in order, each of degree < m."""
    t = _even_half(m)
    polys = [Polynomial.monomial(i - 1) for i in range(1, t + 1)]
    polys += [Polynomial.linear_power(1, i - 1) for i in range(t + 1, 2 * t + 1)]
    polys += [
        Polynomial.monomial(i - t - 1) * Polynomial.linear_power(1, m - i + t)
        for i in range(2 * t + 1, 3 * t + 1)
    ]
    return tuple(polys)


def coefficient_matrix(polys: Sequence[Polynomial], width: int) -> ExactMatrix:
    """Rows of coefficients in ascending powers, padded to the given width."""
    return ExactMatrix.from_rows(p.padded(width) for p in polys)


def block_determinants(m: int) -> tuple[Fraction, Fraction, Fraction]:
    """Determinants of the blocks B1, B2 and B3 of the binomial block
    (three_section.closed_form_matrix); each equals 1."""
    block = _binomial_block(m)
    low, high = slice(0, m // 2), slice(m // 2, m)
    return tuple(
        determinant(ExactMatrix.from_rows(row[cols] for row in block[rows]))
        for rows, cols in ((low, low), (low, high), (high, high))
    )


def _sign_vectors(m: int) -> tuple[list[int], list[int]]:
    """(left, right): the diagonals of the sign factorization's outer
    factors.  right is (-1)^i for i=1..t, then (-1)^(t+i) for i=1..t;
    left is right followed by t ones."""
    t = _even_half(m)
    right = [(-1) ** i for i in range(1, t + 1)] + [
        (-1) ** (t + i) for i in range(1, t + 1)
    ]
    return right + [1] * t, right


def _stack_rows(m: int) -> list[list[int]]:
    """The middle factor as integer rows: the t x m identity over the block."""
    block = _binomial_block(m)
    return [[int(i == j) for j in range(m)] for i in range(m // 2)] + block


def sign_factorization_check(m: int) -> bool:
    """Exact equality of the three-factor product diag(left) * S *
    diag(right) with the coefficient rows, entrywise on integers: left
    and right are the sign vectors (_sign_vectors), and S is the middle
    stack (_stack_rows), the t x m identity over the block
    [[B1, B2], [0, B3]], 3t x m.

    Scaling by a diagonal on either side scales the entries, so the
    product's entry (i, j) is left[i] * S[i][j] * right[j]: each
    coefficient of the family is compared with that integer, no matrix
    product formed.
    """
    left, right = _sign_vectors(m)
    rows = [p.padded(m) for p in family_polys(m)]
    stack = _stack_rows(m)
    return len(rows) == len(stack) == len(left) and all(
        list(row) == [l * x * r for x, r in zip(srow, right)]
        for row, srow, l in zip(rows, stack, left)
    )


def verify_network_equals_block_matrix(m: int) -> bool:
    """Weight matrix of the standard network equals the block matrix,
    entrywise, with no network built: one integer sweep (_Sweep) over the
    standard slot word, each column in lowest terms against the integer
    block's column, whose potential must then be 1."""
    word = _slot_word(standard_weights(m))
    sweep = _Sweep(m).apply(chain.from_iterable(word))
    block = _binomial_block(m)
    return sweep.den == [1] * m and sweep.cols == [list(col) for col in zip(*block)]


def _row_order(m: int) -> list[int]:
    """Rows 1..t, 3t, 3t-1, ..., 2t+1, then t+1..2t, 0-based: the order in
    which the family reduces to a totally positive coordinate matrix."""
    t = _even_half(m)
    return [*range(t), *range(3 * t - 1, 2 * t - 1, -1), *range(t, 2 * t)]


def general_position(
    m: int,
    mode: str = "exhaustive",
    *,
    seed: Optional[int] = None,
    sample_count: Optional[int] = None,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> GeneralPositionReport:
    """Whether every m-subset of the family is linearly independent.

    Exhaustive mode proves it for any even m from the positive-Grassmannian
    certificate (matrices._positive_grassmannian) in the family's row
    order: no walk, every C(3t, m) subset covered.  When the certificate
    is refused, the exhaustive walk runs within exhaustive_limit
    (ScanBudgetError past it), and its report carries the refused
    certificate.  Sampled mode draws sample_count subsets with seed
    (maximal_minor_scan): evidence, not a proof.
    """
    t0 = time.perf_counter()
    matrix = coefficient_matrix(family_polys(m), m)
    if mode != "exhaustive" or seed is not None or sample_count is not None:
        # maximal_minor_scan checks the mode and its arguments.
        return maximal_minor_scan(
            matrix,
            mode,
            seed=seed,
            sample_count=sample_count,
            exhaustive_limit=exhaustive_limit,
        )
    cert = _positive_grassmannian(matrix, _row_order(m))
    if cert.refusal is not None:
        report = maximal_minor_scan(matrix, exhaustive_limit=exhaustive_limit)
        return replace(report, certificate=cert)
    total = math.comb(matrix.rows, m)
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return GeneralPositionReport(
        total, total, "exhaustive", (), cert.det_basis, elapsed_ms, certificate=cert
    )


@dataclass(frozen=True)
class PositiveMinorReport:
    m: int
    total_minors: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...], Fraction], ...]
    witnesses_attached: bool
    missing_witnesses: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return not self.violations and not self.missing_witnesses

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "total_minors": self.total_minors,
            "violations": [
                {"rows": list(r), "cols": list(c), "value": format_rational(v)}
                for r, c, v in self.violations
            ],
            "witnesses_attached": self.witnesses_attached,
            "missing_witnesses": [
                {"rows": list(r), "cols": list(c)} for r, c in self.missing_witnesses
            ],
            "elapsed_ms": self.elapsed_ms,
        }


def positive_minor_scan(
    m: int,
    *,
    with_witnesses: bool = False,
) -> PositiveMinorReport:
    """Check positivity of every block-matrix minor whose column set
    contains {t+1, ..., m}; optionally attach a positive path-collection
    witness from the standard network for each one.

    One Laplace walk yields the minors, tail first: it walks the
    transposed block with the columns in descending order, so a node is
    a column set (m, m-1, ...) and the tail {t+1, ..., m} is exactly its
    first t entries.  A node that does not start with the tail is not
    descended into, and a node that contains it holds the minors on every
    row set; each minor is taken times the reversal sign
    (-1)^(s(s-1)/2) that restores ascending column order.  The kept
    minors are reported by (number of extra columns, extra columns,
    rows), each set in lex order.
    """
    t0 = time.perf_counter()
    block = _binomial_block(m)
    t = m // 2
    tail = tuple(range(t, m))
    head = tuple(range(t))  # the tail's walk positions
    kept = []  # (extra columns, rows, value), 0-based

    def visit(node, subsets, minors, scale) -> bool:
        s = len(node)
        if node[:t] != head[:s]:
            return False
        if s >= t:
            extra = tuple(sorted(m - 1 - i for i in node[t:]))
            sign = -1 if s * (s - 1) // 2 % 2 else 1
            kept.extend(
                (extra, rows, Fraction(sign * minor, scale))
                for rows, minor in zip(subsets, minors)
            )
        return True

    _laplace_walk(list(zip(*block))[::-1], 1, visit)
    kept.sort(key=lambda item: (len(item[0]), item[0], item[1]))
    net = build_three_section(standard_weights(m)) if with_witnesses else None
    violations = []
    missing = []
    for extra, rows0, value in kept:
        rows = tuple(i + 1 for i in rows0)
        cols = tuple(j + 1 for j in extra + tail)
        if value <= 0:
            violations.append((rows, cols, value))
        elif with_witnesses:
            found = find_positive_collection(net, rows, cols)
            if found is None:
                missing.append((rows, cols))
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return PositiveMinorReport(
        m=m,
        total_minors=len(kept),
        violations=tuple(violations),
        witnesses_attached=with_witnesses,
        missing_witnesses=tuple(missing),
        elapsed_ms=elapsed_ms,
    )
