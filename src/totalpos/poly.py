"""Dense univariate polynomials with exact rational coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .scalars import Scalar, binomial


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
    def zero(cls) -> "Polynomial":
        return cls(())

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
        return cls.make(
            tuple(
                binomial(exponent, k) * (-root) ** (exponent - k)
                for k in range(exponent + 1)
            )
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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.make(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.make(
            tuple(self.coefficient(i) - other.coefficient(i) for i in range(n))
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

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

    def scale(self, factor: Scalar) -> "Polynomial":
        if factor == 0:
            return Polynomial(())
        return Polynomial(tuple(c * factor for c in self.coeffs))

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(order):
            p = Polynomial(tuple(i * p.coeffs[i] for i in range(1, len(p.coeffs))))
        return p

    def eval_at(self, point) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc
