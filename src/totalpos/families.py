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

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .matrices import (
    ExactMatrix,
    GeneralPositionReport,
    _laplace_walk,
    determinant,
    diagonal,
    matmul,
    maximal_minor_scan,
)
from .networks import find_positive_collection, weight_matrix
from .poly import Polynomial
from .scalars import format_rational
from .three_section import build_three_section, closed_form_matrix, standard_weights

__all__ = [
    "family_polys",
    "coefficient_matrix",
    "binomial_block_matrix",
    "block_determinants",
    "sign_factorization_matrices",
    "sign_factorization_check",
    "verify_network_equals_block_matrix",
    "general_position",
    "positive_minor_scan",
    "PositiveMinorReport",
]


def _check_even(m: int) -> int:
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be even and >= 2, got {m}")
    return m // 2


def family_polys(m: int) -> tuple[Polynomial, ...]:
    """The 3t family members, in order, each of degree < m."""
    t = _check_even(m)
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


def binomial_block_matrix(m: int) -> ExactMatrix:
    """The m x m binomial block matrix [[B1, B2], [0, B3]].

    B1[i][j] = C(t+i-1, j-1), B2[i][j] = C(t+i-1, t+j-1) and
    B3[i][j] = C(t-i, j-i), each t x t: entry (i, j) of the whole is
    closed_form_entry(i, j, m).
    """
    _check_even(m)
    return closed_form_matrix(m)


def block_determinants(m: int) -> tuple[Fraction, Fraction, Fraction]:
    """Determinants of the blocks B1, B2 and B3 of binomial_block_matrix;
    each equals 1."""
    t = _check_even(m)
    block = binomial_block_matrix(m)
    low, high = range(t), range(t, m)
    return tuple(
        determinant(block.submatrix(rows, cols))
        for rows, cols in ((low, low), (low, high), (high, high))
    )


def sign_factorization_matrices(m: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """(left diagonal, middle stack, right diagonal) whose product is the
    coefficient matrix of the family.

    Left: diag((-1)^i for i=1..t, (-1)^(t+i) for i=1..t, 1 for i=1..t).
    Middle: identity over (B1 B2) over (0 B3), 3t x m.
    Right: diag((-1)^i for i=1..t, (-1)^(t+i) for i=1..t).
    """
    t = _check_even(m)
    left = diagonal(
        [(-1) ** i for i in range(1, t + 1)]
        + [(-1) ** (t + i) for i in range(1, t + 1)]
        + [1] * t
    )
    block = binomial_block_matrix(m)
    mid_rows = [
        [Fraction(int(i == j)) for j in range(m)] for i in range(t)
    ] + [list(row) for row in block.entries]
    middle = ExactMatrix.from_rows(mid_rows)
    right = diagonal(
        [(-1) ** i for i in range(1, t + 1)] + [(-1) ** (t + i) for i in range(1, t + 1)]
    )
    return left, middle, right


def sign_factorization_check(m: int) -> bool:
    """Exact equality of the three-factor product with the coefficient rows."""
    left, middle, right = sign_factorization_matrices(m)
    product = matmul(matmul(left, middle), right)
    return product == coefficient_matrix(family_polys(m), m)


def verify_network_equals_block_matrix(m: int) -> bool:
    """Weight matrix of the standard network equals the block matrix, entrywise."""
    net = build_three_section(standard_weights(m))
    return weight_matrix(net) == binomial_block_matrix(m)


def general_position(
    m: int,
    mode: str = "exhaustive",
    *,
    seed: Optional[int] = None,
    sample_count: Optional[int] = None,
    exhaustive_limit: int = 10**7,
) -> GeneralPositionReport:
    """Scan all (or sampled) m-subsets of the family for linear dependence.

    The default exhaustive budget C(3t, m) <= 10^7 covers m <= 18; larger
    m must use sampled mode.
    """
    matrix = coefficient_matrix(family_polys(m), m)
    return maximal_minor_scan(
        matrix,
        mode,
        seed=seed,
        sample_count=sample_count,
        exhaustive_limit=exhaustive_limit,
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
    t = _check_even(m)
    t0 = time.perf_counter()
    block = binomial_block_matrix(m)
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

    _laplace_walk([list(col) for col in zip(*block.entries)][::-1], visit)
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
