"""Dense univariate polynomials with exact rational coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .scalars import Scalar, binomial

__all__ = ["Polynomial"]


def _trim(coeffs: tuple) -> tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class Polynomial:
    """Coefficients in ascending powers; no trailing zeros; () is zero."""

    coeffs: tuple

    @classmethod
    def make(cls, coeffs: Sequence[Scalar]) -> "Polynomial":
        return cls(_trim(tuple(coeffs)))

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        if coeff == 0:
            return cls(())
        return cls((0,) * power + (coeff,))

    @classmethod
    def linear_power(cls, root: Scalar, exponent: int) -> "Polynomial":
        """(z - root)^exponent expanded by the binomial theorem."""
        if exponent < 0:
            raise ValueError("linear_power exponent must be >= 0")
        # A list, not a generator: tuple() of a generator is built at a
        # guessed length and resized, so each call moves one tuple onto
        # another length's free list, and over many calls those lists hold
        # memory until the next full garbage collection.
        return cls.make(
            [
                binomial(exponent, k) * (-root) ** (exponent - k)
                for k in range(exponent + 1)
            ]
        )

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Scalar:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def padded(self, width: int) -> tuple:
        if len(self.coeffs) > width:
            raise ValueError(f"degree {self.degree} does not fit width {width}")
        return self.coeffs + (0,) * (width - len(self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(_trim(tuple(out)))
