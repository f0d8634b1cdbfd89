"""Dense exact univariate polynomials over the rationals, stored as integer
numerators over one denominator, coefficient k = nums[k] / den, in a normal
form: no trailing zero numerator, den > 0, gcd(den, every numerator) = 1
and den = 1 for the zero polynomial.  So den is the lcm of the coefficients'
denominators, and integer kernels read nums and den; coeffs gives Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Optional, Tuple

from .errors import NonSquarefree


class DensePoly:
    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = (), den: Optional[int] = None):
        """coeffs are rationals (anything Fraction takes), lowest degree
        first; with den, they are integer numerators over den."""
        if den is None:
            cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
            den = math.lcm(*(c.denominator for c in cs))
            coeffs = [c.numerator * (den // c.denominator) for c in cs]
        if den == 0:
            raise ZeroDivisionError("polynomial with denominator 0")
        nums = list(coeffs)
        while nums and nums[-1] == 0:
            nums.pop()
        g = math.gcd(den, *nums) * (1 if den > 0 else -1)
        self.nums, self.den = tuple(a // g for a in nums), den // g

    @staticmethod
    def zero() -> "DensePoly":
        return DensePoly()

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as Fractions, index equal to degree."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __eq__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other: "DensePoly") -> "DensePoly":
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return DensePoly([a * x + b * y for x, y in
                          zip_longest(self.nums, other.nums, fillvalue=0)], den)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self + -other

    def __neg__(self) -> "DensePoly":
        return DensePoly([-a for a in self.nums], self.den)

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return DensePoly()
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return DensePoly(out, self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "DensePoly":
        c = c if isinstance(c, int) else Fraction(c)
        return DensePoly([c.numerator * a for a in self.nums], c.denominator * self.den)

    def derivative(self) -> "DensePoly":
        return DensePoly([k * a for k, a in enumerate(self.nums)][1:], self.den)

    def monic(self) -> "DensePoly":
        return DensePoly(self.nums, self.nums[-1]) if self.nums else self

    def divmod(self, other: "DensePoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.nums)
        if dq < 0:
            return DensePoly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        lead, divisor = other.leading(), other.coeffs
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top == 0:
                continue
            q = top / lead
            quot[k] = q
            for j, b in enumerate(divisor):
                rem[k + j] = rem[k + j] - q * b
        return DensePoly(quot), DensePoly(rem)

    def __mod__(self, other: "DensePoly") -> "DensePoly":
        return self.divmod(other)[1]

    def gcd(self, other: "DensePoly") -> "DensePoly":
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

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
