"""Laurent polynomials in u = e^{i*phi} with GaussianRational coefficients.

A TrigPoly represents sum_l c_l u^l.  It is real-valued on the real phi axis
iff c_{-l} = conj(c_l) for all l.  Differentiation d/dphi maps c_l to i*l*c_l.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping

import mpmath as mp

from .errors import IdentityFailed
from .scalars import GaussianRational

_HALF = Fraction(1, 2)
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (re, im), k mod 4


class TrigPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, GaussianRational] | None = None):
        out: Dict[int, GaussianRational] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = GaussianRational.of(c)
                if not c.is_zero:
                    out[int(k)] = c
        self.coeffs = out

    # --- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly()

    @staticmethod
    def const(c) -> "TrigPoly":
        return TrigPoly({0: GaussianRational.of(c)})

    @staticmethod
    def monomial(l: int, c=1) -> "TrigPoly":
        return TrigPoly({l: GaussianRational.of(c)})

    @staticmethod
    def sin(k: int) -> "TrigPoly":
        """sin(k*phi) = (u^k - u^-k) / (2i)."""
        if k == 0:
            return TrigPoly.zero()
        half_over_i = GaussianRational(Fraction(0), -_HALF)  # 1/(2i) = -i/2
        return TrigPoly({k: half_over_i, -k: -half_over_i})

    @staticmethod
    def cos(k: int) -> "TrigPoly":
        """cos(k*phi) = (u^k + u^-k) / 2."""
        if k == 0:
            return TrigPoly.const(1)
        h = GaussianRational(_HALF, Fraction(0))
        return TrigPoly({k: h, -k: h})

    # --- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def max_freq(self) -> int:
        if self.is_zero:
            raise ValueError("zero TrigPoly has no top frequency")
        return max(self.coeffs)

    def min_freq(self) -> int:
        if self.is_zero:
            raise ValueError("zero TrigPoly has no bottom frequency")
        return min(self.coeffs)

    def is_real(self) -> bool:
        for l, c in self.coeffs.items():
            if self.coeffs.get(-l, GaussianRational()) != c.conjugate():
                return False
        return True

    def conj(self) -> "TrigPoly":
        return TrigPoly({-l: c.conjugate() for l, c in self.coeffs.items()})

    # --- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = dict(self.coeffs)
        for l, c in other.coeffs.items():
            out[l] = out.get(l, GaussianRational()) + c
        return TrigPoly(out)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly({l: -c for l, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return self.scale(other)
        terms1, d1 = _integer_terms(self)
        terms2, d2 = _integer_terms(other)
        acc: Dict[int, List[int]] = {}
        for l1, a1, b1 in terms1:
            for l2, a2, b2 in terms2:
                slot = acc.setdefault(l1 + l2, [0, 0])
                slot[0] += a1 * a2 - b1 * b2
                slot[1] += a1 * b2 + b1 * a2
        return _from_integers(acc, d1 * d2)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "TrigPoly":
        if isinstance(c, GaussianRational):
            return TrigPoly({l: c * v for l, v in self.coeffs.items()})
        c = Fraction(c)
        out = TrigPoly()
        if c:
            out.coeffs = {l: GaussianRational(v.re * c, v.im * c)
                          for l, v in self.coeffs.items()}
        return out

    def __pow__(self, k: int) -> "TrigPoly":
        if k < 0:
            raise ValueError("negative TrigPoly power")
        out = TrigPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def dphi(self) -> "TrigPoly":
        """Derivative with respect to phi: c_l -> i*l*c_l."""
        out = TrigPoly()
        out.coeffs = {l: GaussianRational(-l * c.im, l * c.re)
                      for l, c in self.coeffs.items() if l}
        return out

    def subs_power(self, q: int) -> "TrigPoly":
        """Substitute phi -> q*phi, i.e. u -> u^q."""
        return TrigPoly({q * l: c for l, c in self.coeffs.items()})

    # --- numerics -----------------------------------------------------------

    def eval(self, phi):
        """Numeric value at real phi (mpmath); returns mpc."""
        u = mp.exp(mp.mpc(0, 1) * phi)
        acc = mp.mpc(0)
        for l, c in self.coeffs.items():
            term = mp.mpc(mp.mpf(c.re.numerator) / c.re.denominator,
                          mp.mpf(c.im.numerator) / c.im.denominator)
            acc += term * u ** l
        return acc

    def __repr__(self):
        if self.is_zero:
            return "TrigPoly(0)"
        items = ", ".join(f"u^{l}: {c}" for l, c in sorted(self.coeffs.items()))
        return f"TrigPoly({items})"


def _integer_terms(f: TrigPoly):
    """([(l, re, im)], d): f = sum (re + im*i) u^l / d with integer re, im and
    d the lcm of the coefficient denominators."""
    coeffs = f.coeffs.values()
    d = math.lcm(*(c.re.denominator for c in coeffs),
                 *(c.im.denominator for c in coeffs))
    return [(l, c.re.numerator * (d // c.re.denominator),
             c.im.numerator * (d // c.im.denominator))
            for l, c in f.coeffs.items()], d


def _from_integers(acc: Mapping[int, List[int]], d: int) -> TrigPoly:
    """TrigPoly sum (re + im*i) u^l / d, dropping zero coefficients."""
    out = TrigPoly()
    out.coeffs = {l: GaussianRational(Fraction(re, d), Fraction(im, d))
                  for l, (re, im) in acc.items() if re or im}
    return out


def wronskian(fs: List[TrigPoly]) -> TrigPoly:
    """Wronskian det[d^i f_j / dphi^i], i = 0..len(fs)-1.

    Expanded multilinearly over the monomials of each f_j: since
    d/dphi u^l = i*l*u^l, the Wronskian of u^(l_1)..u^(l_n) is the
    Vandermonde u^(sum l) prod_{a<b} i(l_b - l_a), so

        W = i^(n(n-1)/2) sum prod_j c_(j,l_j) prod_{a<b} (l_b - l_a) u^(sum l)

    over every choice (l_1..l_n) of one monomial per f; a choice with a
    repeated l contributes nothing.  The sum runs on Gaussian-integer
    numerators over the product of the f's common denominators and needs no
    division.  Cost: the product of the support sizes (2^n for n sines).
    """
    if not fs:
        raise ValueError("wronskian of an empty list")
    n = len(fs)
    denom = 1
    # partial choices (frequencies so far, Vandermonde-weighted numerator),
    # started from the unit i^(n(n-1)/2)
    partial = [((),) + _I_POWERS[n * (n - 1) // 2 % 4]]
    for f in fs:
        terms, d = _integer_terms(f)
        denom *= d
        grown = []
        for chosen, re, im in partial:
            for l, a, b in terms:
                v = 1
                for k in chosen:
                    v *= l - k
                if v:
                    grown.append((chosen + (l,), (re * a - im * b) * v,
                                  (re * b + im * a) * v))
        partial = grown
    acc: Dict[int, List[int]] = {}
    for chosen, re, im in partial:
        slot = acc.setdefault(sum(chosen), [0, 0])
        slot[0] += re
        slot[1] += im
    return _from_integers(acc, denom)


def require_identity(lhs: TrigPoly, rhs: TrigPoly, what: str) -> bool:
    """Assert lhs == rhs exactly; raises IdentityFailed with the difference."""
    diff = lhs - rhs
    if not diff.is_zero:
        raise IdentityFailed(f"{what}: difference has {len(diff.coeffs)} terms",
                             difference=diff)
    return True
