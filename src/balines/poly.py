"""Dense exact univariate polynomials.

Coefficients are Fractions (any exact field with the usual operators works).
Index equals degree; the leading coefficient of a nonzero polynomial is
nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NonSquarefree


class DensePoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def rational(coeffs: Sequence) -> "DensePoly":
        return DensePoly([Fraction(c) for c in coeffs])

    @staticmethod
    def zero() -> "DensePoly":
        return DensePoly([])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "DensePoly") -> "DensePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return DensePoly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return DensePoly([self[k] - other[k] for k in range(n)])

    def __neg__(self) -> "DensePoly":
        return DensePoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return DensePoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return DensePoly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "DensePoly":
        return DensePoly([c * a for a in self.coeffs])

    def derivative(self) -> "DensePoly":
        return DensePoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "DensePoly":
        if self.is_zero:
            return self
        lead = self.leading()
        return DensePoly([c / lead for c in self.coeffs])

    def divmod(self, other: "DensePoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return DensePoly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top == 0:
                continue
            q = top / lead
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * b
        return DensePoly(quot), DensePoly(rem)

    def __mod__(self, other: "DensePoly") -> "DensePoly":
        return self.divmod(other)[1]

    def gcd(self, other: "DensePoly") -> "DensePoly":
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def is_squarefree(self) -> bool:
        g = self.gcd(self.derivative())
        return g.degree <= 0

    def check_squarefree(self) -> None:
        if not self.is_squarefree():
            raise NonSquarefree(f"gcd with derivative has degree > 0: {self}")

    def __call__(self, x):
        """Horner evaluation; works for exact scalars and mpmath numbers."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero:
            return "DensePoly(0)"
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "DensePoly(" + " + ".join(terms) + ")"
