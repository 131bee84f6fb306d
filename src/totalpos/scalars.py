"""Exact rational scalars.

Generalized binomial coefficients, rising (Pochhammer) products, the
balanced terminating hypergeometric sum check, and the canonical string
form used for rationals in JSON output.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Union

# Exact rational scalar used throughout: always stored reduced, with a
# positive denominator, which is exactly what Fraction guarantees.
Rational = Fraction

Scalar = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the negative-upper-index extension.

    For n < 0 this is (-1)^k * C(k - n - 1, k); it is 0 whenever k < 0 or
    0 <= n < k.
    """
    if k < 0:
        return 0
    if n >= 0:
        if k > n:
            return 0
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def pochhammer(z: Scalar, s: int) -> Scalar:
    """Rising product z (z+1) ... (z+s-1); the empty product is 1.

    Integer input stays integer; Fraction input yields a Fraction.
    """
    if s < 0:
        raise ValueError("pochhammer length must be >= 0")
    acc: Scalar = 1
    for i in range(s):
        acc = acc * (z + i)
    return acc


class SaalschuetzCheck(NamedTuple):
    holds: bool
    lhs: Fraction
    rhs: Fraction


def saalschuetz_check(a: int, b: int, k: int) -> SaalschuetzCheck:
    """Compare the terminating balanced sum against its closed product form.

    The sum runs over s = 0..a.  Safe whenever a >= 0 and b, k >= 1; any
    vanishing denominator factor raises instead of dividing by zero.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    # Term s is (1)_s (c)_s (-a)_s / ((d1)_s (d2)_s s!), and (1)_s = s!, so
    # term s is term s-1 times (c+s-1)(s-1-a) / ((d1+s-1)(d2+s-1)).  The sum
    # so far is top / den, with den the denominator of the latest term.
    c, d1, d2 = -k - a - 2 * b + 1, -a - b + 1, -k - a - b + 2
    num = top = den = 1
    for s in range(1, a + 1):
        step = (d1 + s - 1) * (d2 + s - 1)
        if step == 0:
            raise ValueError(
                f"denominator factor vanishes at s={s}; need a, b, k >= 1"
            )
        num *= (c + s - 1) * (s - 1 - a)
        top = top * step + num
        den *= step
    lhs = Fraction(top, den)
    rden = (k + b - 1) * b
    if rden == 0:
        raise ValueError("right-side denominator vanishes; need b, k >= 1")
    rhs = Fraction((k + a + b - 1) * (a + b), rden)
    return SaalschuetzCheck(lhs == rhs, lhs, rhs)


def format_rational(x: Scalar) -> str:
    """Canonical string for JSON output: "p/q", or just "p" when q = 1."""
    return str(Fraction(x))


def parse_rational(text: str) -> tuple[Fraction, bool]:
    """Parse "p" or "p/q"; returns (value, canonical).

    canonical is False when the input was legal but not in reduced
    positive-denominator form (e.g. "2/4" or "1/-2").
    """
    match = _RATIONAL_RE.match(text.strip())
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    value = Fraction(num, den)
    return value, str(value) == text.strip()
