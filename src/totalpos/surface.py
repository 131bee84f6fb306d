"""Extended polynomial families and their null-sum basis.

Arithmetic happens in Q(i, sigma) with i^2 = -1 and sigma^2 = disc for a
nonnegative integer disc; scalars are quadruples p + q*i + r*sigma +
s*i*sigma.  When disc is a perfect square, sigma is substituted by its
integer value at construction, so the sigma components of every scalar
collapse to zero and the representation stays a field in all cases.

The family here extends the three-block family by parameter pairs: each
extra pair (a, b) of distinct rationals contributes the m polynomials
(z-a)^(m-i) (z-b)^(i-1).  A deterministic search finds pairs keeping the
whole family in general position, and the null-sum basis expresses every
family member as an exact linear combination of m fixed quadratic-field
polynomials whose squares sum to zero.  Each basis polynomial pairs the
powers l and 2t-1-l, so those coefficients come in closed form; the one
elimination over Q(i, sigma) is the Wronskian determinant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import ScanBudgetError, SearchExhaustedError
from .families import coefficient_matrix, family_polys
from .matrices import (
    ExactMatrix,
    GeneralPositionReport,
    _has_zero_maximal_minor,
    determinant,
    maximal_minor_scan,
)
from .poly import Polynomial
from .scalars import Rational, format_rational

__all__ = [
    "ExtScalar",
    "ext_rational",
    "ext_i",
    "ext_sigma",
    "ExtPolynomial",
    "weierstrass_h",
    "FamilyConstants",
    "constants_from_extras",
    "extended_family",
    "verify_extended_general_position",
    "SearchResult",
    "search_constants",
    "wronskian",
    "WeierstrassData",
    "hyperplane_coefficients",
]


def _square_root_if_square(disc: int) -> Optional[int]:
    if disc < 0:
        return None
    root = math.isqrt(disc)
    return root if root * root == disc else None


@dataclass(frozen=True)
class ExtScalar:
    """p + q*i + r*sigma + s*i*sigma with sigma^2 = disc >= 0."""

    re: Fraction
    im: Fraction
    sre: Fraction
    sim: Fraction
    disc: int

    def __post_init__(self):
        if isinstance(self.disc, bool) or not isinstance(self.disc, int) or self.disc < 0:
            raise ValueError("disc must be a nonnegative integer")
        re, im = Fraction(self.re), Fraction(self.im)
        sre, sim = Fraction(self.sre), Fraction(self.sim)
        root = _square_root_if_square(self.disc)
        if root is not None and (sre or sim):
            re, im, sre, sim = re + sre * root, im + sim * root, Fraction(0), Fraction(0)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "sre", sre)
        object.__setattr__(self, "sim", sim)

    def _check(self, other: "ExtScalar") -> None:
        if self.disc != other.disc:
            raise ValueError("scalars live in different extension fields")

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im or self.sre or self.sim)

    @property
    def is_rational(self) -> bool:
        return not (self.im or self.sre or self.sim)

    def __add__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return ExtScalar(
            self.re + other.re,
            self.im + other.im,
            self.sre + other.sre,
            self.sim + other.sim,
            self.disc,
        )

    def __neg__(self) -> "ExtScalar":
        return ExtScalar(-self.re, -self.im, -self.sre, -self.sim, self.disc)

    def __sub__(self, other: "ExtScalar") -> "ExtScalar":
        return self + (-other)

    def __mul__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        # (x1 + y1*sigma)(x2 + y2*sigma) = (x1x2 + disc*y1y2) + (x1y2 + y1x2)*sigma
        # with x, y complex: (a+bi)(c+di) = (ac - bd) + (ad + bc)i.
        a, b, c, d = self.re, self.im, other.re, other.im
        p, q, r, s = self.sre, self.sim, other.sre, other.sim
        disc = self.disc
        re = a * c - b * d + disc * (p * r - q * s)
        im = a * d + b * c + disc * (p * s + q * r)
        sre = a * r - b * s + p * c - q * d
        sim = a * s + b * r + p * d + q * c
        return ExtScalar(re, im, sre, sim, disc)

    def _inverse(self) -> "ExtScalar":
        if self.is_zero:
            raise ZeroDivisionError("division by zero extension-field scalar")
        # 1/(x + y*sigma) = (x - y*sigma) / (x^2 - disc*y^2); the complex
        # denominator is nonzero because disc >= 0 is a non-square here
        # (square disc already collapsed y to 0 at construction).
        a, b = self.re, self.im
        p, q = self.sre, self.sim
        disc = self.disc
        den_re = a * a - b * b - disc * (p * p - q * q)
        den_im = 2 * (a * b - disc * p * q)
        norm = den_re * den_re + den_im * den_im
        inv_re, inv_im = den_re / norm, -den_im / norm
        conj = ExtScalar(a, b, -p, -q, disc)
        return conj * ExtScalar(inv_re, inv_im, 0, 0, disc)

    def __truediv__(self, other: "ExtScalar") -> "ExtScalar":
        self._check(other)
        return self * other._inverse()

    def to_quadruple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.re, self.im, self.sre, self.sim)

    def to_json_list(self) -> list[str]:
        return [format_rational(x) for x in self.to_quadruple()]

    def __repr__(self):
        return (
            f"ExtScalar({self.re}, {self.im}, {self.sre}, {self.sim}, "
            f"disc={self.disc})"
        )


def ext_rational(x: Rational | int, disc: int) -> ExtScalar:
    return ExtScalar(Fraction(x), Fraction(0), Fraction(0), Fraction(0), disc)


def ext_i(disc: int) -> ExtScalar:
    return ExtScalar(Fraction(0), Fraction(1), Fraction(0), Fraction(0), disc)


def ext_sigma(disc: int) -> ExtScalar:
    return ExtScalar(Fraction(0), Fraction(0), Fraction(1), Fraction(0), disc)


@dataclass(frozen=True)
class ExtPolynomial:
    """Polynomial with ExtScalar coefficients, ascending powers, trimmed."""

    disc: int
    coeffs: tuple[ExtScalar, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        for c in coeffs:
            if c.disc != self.disc:
                raise ValueError("coefficient from a different extension field")
        while coeffs and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, disc: int) -> "ExtPolynomial":
        return cls(disc, ())

    @classmethod
    def from_rational(cls, poly: Polynomial, disc: int) -> "ExtPolynomial":
        return cls(disc, tuple(ext_rational(c, disc) for c in poly.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> ExtScalar:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return ext_rational(0, self.disc)

    def _check(self, other: "ExtPolynomial") -> None:
        if self.disc != other.disc:
            raise ValueError("polynomials live in different extension fields")

    def __add__(self, other: "ExtPolynomial") -> "ExtPolynomial":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ExtPolynomial(
            self.disc,
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n)),
        )

    def __neg__(self) -> "ExtPolynomial":
        return ExtPolynomial(self.disc, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "ExtPolynomial") -> "ExtPolynomial":
        return self + (-other)

    def __mul__(self, other: "ExtPolynomial") -> "ExtPolynomial":
        self._check(other)
        if self.is_zero or other.is_zero:
            return ExtPolynomial.zero(self.disc)
        zero = ext_rational(0, self.disc)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ExtPolynomial(self.disc, tuple(out))

    def scale(self, factor: ExtScalar) -> "ExtPolynomial":
        if factor.disc != self.disc:
            raise ValueError("scale factor from a different extension field")
        return ExtPolynomial(self.disc, tuple(c * factor for c in self.coeffs))

    def derivative(self, order: int = 1) -> "ExtPolynomial":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        p = self
        for _ in range(order):
            p = ExtPolynomial(
                self.disc,
                tuple(
                    c * ext_rational(k, self.disc)
                    for k, c in enumerate(p.coeffs)
                )[1:],
            )
        return p

    def eval_at(self, point: Rational | int | ExtScalar) -> ExtScalar:
        acc = ext_rational(0, self.disc)
        if isinstance(point, ExtScalar):
            if point.disc != self.disc:
                raise ValueError("evaluation point lives in a different extension")
            x = point
        else:
            x = ext_rational(point, self.disc)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def weierstrass_h(m: int) -> list[ExtPolynomial]:
    """The m quadratic-field polynomials whose squares sum to zero and
    which form a basis of the degree <= m-1 polynomials.

    With t = m/2 and disc = t-1: entries 2l+1 and 2l+2 are
    z^l + z^(2t-l-1) and i(z^l - z^(2t-l-1)) for 0 <= l <= t-2; the last
    two are i*sigma*(z^(t-1) + z^t) and sigma*(z^(t-1) - z^t).  For m = 2
    every sigma factor vanishes, so the construction is rejected.
    """
    if m % 2 or m < 2:
        raise ValueError("m must be an even integer >= 2")
    if m == 2:
        raise ValueError(
            "m = 2 degenerates: the sigma-weighted entries vanish identically"
        )
    t = m // 2
    disc = t - 1
    one = ext_rational(1, disc)
    iu = ext_i(disc)
    sigma = ext_sigma(disc)

    def mono(power: int, coeff: ExtScalar) -> ExtPolynomial:
        zero = ext_rational(0, disc)
        return ExtPolynomial(disc, (zero,) * power + (coeff,))

    hs = []
    for l in range(t - 1):
        low, high = mono(l, one), mono(2 * t - l - 1, one)
        hs.append(low + high)
        hs.append((low - high).scale(iu))
    pair_sum = mono(t - 1, one) + mono(t, one)
    pair_diff = mono(t - 1, one) - mono(t, one)
    hs.append(pair_sum.scale(iu * sigma))
    hs.append(pair_diff.scale(sigma))
    return hs


@dataclass(frozen=True)
class FamilyConstants:
    """Parameter pairs (a_j, b_j), j = 1..t; the first pair is fixed at
    (0, 1) and all 2t values must be pairwise distinct."""

    pairs: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pairs = tuple(
            (Fraction(a), Fraction(b)) for a, b in self.pairs
        )
        if not pairs:
            raise ValueError("at least the fixed pair (0, 1) is required")
        if pairs[0] != (Fraction(0), Fraction(1)):
            raise ValueError("the first pair is fixed at (0, 1)")
        values = [v for pair in pairs for v in pair]
        if len(set(values)) != len(values):
            raise ValueError("family constants must be pairwise distinct")
        object.__setattr__(self, "pairs", pairs)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for pair in self.pairs for v in pair)


def constants_from_extras(
    extras: Iterable[tuple[Rational, Rational]],
) -> FamilyConstants:
    pairs = [(Fraction(0), Fraction(1))]
    pairs.extend((Fraction(a), Fraction(b)) for a, b in extras)
    return FamilyConstants(tuple(pairs))


def _family_with_pairs(m: int, pairs: Sequence[tuple[Fraction, Fraction]]) -> list[Polynomial]:
    """The 3t base polynomials followed by, for each pair (a, b), the m
    polynomials (z-a)^(m-i) (z-b)^(i-1), i = 1..m."""
    polys = list(family_polys(m))
    for a, b in pairs:
        for i in range(1, m + 1):
            polys.append(
                Polynomial.linear_power(a, m - i) * Polynomial.linear_power(b, i - 1)
            )
    return polys


def extended_family(m: int, constants: FamilyConstants) -> list[Polynomial]:
    """The 3t base polynomials followed by, for each extra pair (a, b),
    the m polynomials (z-a)^(m-i) (z-b)^(i-1), i = 1..m; the total is
    m(m+1)/2 polynomials of degree <= m-1.
    """
    t = m // 2
    if len(constants.pairs) != t:
        raise ValueError(f"need exactly {t} constant pairs for m = {m}")
    return _family_with_pairs(m, constants.pairs[1:])


def verify_extended_general_position(
    m: int, constants: FamilyConstants
) -> GeneralPositionReport:
    """Scan every m-subset of the extended family's coefficient matrix."""
    return maximal_minor_scan(coefficient_matrix(extended_family(m, constants), m))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a constants search: the accepted pairs, the number of
    candidate pairs examined, and every rejected candidate with the
    stage (pair index j) and reason."""

    constants: FamilyConstants
    attempts: int
    rejected: tuple[tuple[int, tuple[Fraction, Fraction], str], ...]


def search_constants(
    m: int,
    bound: int = 10,
    seed: int = 0,
    *,
    retry_limit: int = 512,
    candidates: Optional[Sequence[tuple[Rational, Rational]]] = None,
    exhaustive_limit: int = 10**7,
) -> SearchResult:
    """Find constant pairs keeping the extended family in general position.

    Pairs are fixed one stage at a time (pair j before pair j+1).  A
    candidate is accepted when no m-subset of the family built so far has
    determinant 0, decided by one Laplace walk that descends no further
    after the first zero minor; every decision is exhaustive.  The last
    stage scans all C(m(m+1)/2, m) subsets, so ScanBudgetError is raised
    before any candidate is tried when that count exceeds
    exhaustive_limit.
    One candidate stream serves every stage: the forced `candidates`
    first (useful to force or to test specific pairs), then seeded
    random pairs of distinct values from {p/q : |p| <= bound,
    1 <= q <= bound} minus the values already fixed, so the result is
    reproducible from (bound, seed) and only a forced candidate can
    repeat a value.  Reaching the retry limit, or running out of fresh
    values, raises SearchExhaustedError carrying the partial result.
    """
    if m % 2 or m < 4:
        raise ValueError("m must be an even integer >= 4")
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    if retry_limit < 1:
        raise ValueError("retry_limit must be a positive integer")
    total = math.comb(m * (m + 1) // 2, m)
    if total > exhaustive_limit:
        raise ScanBudgetError(
            f"constant search needs an exhaustive scan of {total} subsets, "
            f"over the budget {exhaustive_limit}"
        )
    t = m // 2
    fixed: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(1))]
    attempts = 0
    rejected: list[tuple[int, tuple[Fraction, Fraction], str]] = []
    forced = iter(candidates or ())
    fresh = sorted(
        {Fraction(p, q) for p in range(-bound, bound + 1) for q in range(1, bound + 1)}
        - set(fixed[0])
    )
    rng = random.Random(seed)

    def result() -> SearchResult:
        return SearchResult(
            constants=FamilyConstants(tuple(fixed)),
            attempts=attempts,
            rejected=tuple(rejected),
        )

    while len(fixed) < t:
        if attempts >= retry_limit:
            raise SearchExhaustedError(
                f"no passing constants within {retry_limit} candidates",
                partial=result(),
            )
        pair = next(forced, None)
        if pair is None:
            if len(fresh) < 2:
                raise SearchExhaustedError(
                    f"fewer than two unused values within bound {bound}",
                    partial=result(),
                )
            pair = rng.sample(fresh, 2)
        a, b = Fraction(pair[0]), Fraction(pair[1])
        attempts += 1
        j = len(fixed) + 1
        used = {v for p in fixed for v in p}
        if a == b or a in used or b in used:
            rejected.append((j, (a, b), "duplicate-constant"))
            continue
        # The family truncated to the pairs fixed so far.
        matrix = coefficient_matrix(_family_with_pairs(m, fixed[1:] + [(a, b)]), m)
        if _has_zero_maximal_minor(matrix):
            rejected.append((j, (a, b), "singular-subset"))
            continue
        fixed.append((a, b))
        fresh = [v for v in fresh if v not in (a, b)]
    return result()


def _ext_determinant(rows: list[list[ExtScalar]], disc: int) -> ExtScalar:
    """Exact Gaussian elimination over the quadruple field."""
    n = len(rows)
    mat = [row[:] for row in rows]
    det = ext_rational(1, disc)
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if not mat[r][col].is_zero), None
        )
        if pivot_row is None:
            return ext_rational(0, disc)
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            det = -det
        pivot = mat[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            if mat[r][col].is_zero:
                continue
            factor = mat[r][col] / pivot
            mat[r] = [
                mat[r][k] - factor * mat[col][k] for k in range(n)
            ]
    return det


PolyLike = Union[Polynomial, ExtPolynomial]


def wronskian(polys: Sequence[PolyLike], point: Rational | int):
    """Determinant of the derivative matrix (row v = v-th derivatives)
    evaluated at the point: Fraction for rational inputs, ExtScalar when
    any input carries extension-field coefficients."""
    if not polys:
        raise ValueError("wronskian needs at least one polynomial")
    if all(isinstance(p, Polynomial) for p in polys):
        n = len(polys)
        rows = [
            [p.derivative(v).eval_at(Fraction(point)) for p in polys]
            for v in range(n)
        ]
        return determinant(ExactMatrix.from_rows(rows))
    discs = {p.disc for p in polys if isinstance(p, ExtPolynomial)}
    if len(discs) != 1:
        raise ValueError("polynomials live in different extension fields")
    disc = discs.pop()
    lifted = [
        p if isinstance(p, ExtPolynomial) else ExtPolynomial.from_rational(p, disc)
        for p in polys
    ]
    n = len(lifted)
    rows = [
        [p.derivative(v).eval_at(point) for p in lifted] for v in range(n)
    ]
    return _ext_determinant(rows, disc)


@dataclass(frozen=True)
class WeierstrassData:
    """The null-sum basis h, the hyperplane coefficient rows c expressing
    each family polynomial in that basis, and the parameter values (the
    poles of the associated height differential)."""

    m: int
    constants: FamilyConstants
    h: tuple[ExtPolynomial, ...]
    c: tuple[tuple[ExtScalar, ...], ...]
    psi_roots: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "constants": [
                [format_rational(a), format_rational(b)]
                for (a, b) in self.constants.pairs
            ],
            "h": [
                [coeff.to_json_list() for coeff in poly.coeffs] for poly in self.h
            ],
            "c": [[x.to_json_list() for x in row] for row in self.c],
            "psi_roots": [format_rational(x) for x in self.psi_roots],
        }


def hyperplane_coefficients(m: int, constants: FamilyConstants) -> WeierstrassData:
    """Express every extended-family polynomial exactly in the null-sum
    basis: row i solves sum_j c[i][j] * h[j] = f[i].

    Each h pairs the powers l and 2t-1-l, so the solve is in closed form.
    With f_k the coefficient of z^k in f, for l <= t-2:
    c[2l] = (f_l + f_(2t-1-l))/2 and c[2l+1] = -i (f_l - f_(2t-1-l))/2;
    and c[m-2] = -i sigma (f_(t-1) + f_t)/(2 disc),
    c[m-1] = sigma (f_(t-1) - f_t)/(2 disc).  ExtScalar folds sigma into
    the rational part when disc is a perfect square.
    """
    hs = weierstrass_h(m)
    t = m // 2
    disc = hs[0].disc
    c_rows = []
    for f in extended_family(m, constants):
        row = []
        for l in range(t - 1):
            low = Fraction(f.coefficient(l))
            high = Fraction(f.coefficient(2 * t - 1 - l))
            row.append(ExtScalar((low + high) / 2, 0, 0, 0, disc))
            row.append(ExtScalar(0, (high - low) / 2, 0, 0, disc))
        low, high = Fraction(f.coefficient(t - 1)), Fraction(f.coefficient(t))
        row.append(ExtScalar(0, 0, 0, -(low + high) / (2 * disc), disc))
        row.append(ExtScalar(0, 0, (low - high) / (2 * disc), 0, disc))
        c_rows.append(tuple(row))
    return WeierstrassData(
        m=m,
        constants=constants,
        h=tuple(hs),
        c=tuple(c_rows),
        psi_roots=constants.values,
    )
