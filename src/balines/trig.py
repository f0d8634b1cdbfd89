"""Laurent polynomials in u = e^{i*phi} with Gaussian-rational coefficients.

A TrigPoly represents sum_l c_l u^l.  It is real-valued on the real phi axis
iff c_{-l} = conj(c_l) for all l.  Differentiation d/dphi maps c_l to i*l*c_l.

It is stored as Gaussian-integer numerators over one denominator,
c_l = (re_l + im_l*i) / den, in a normal form: no zero terms, den > 0,
gcd(den, every re_l and im_l) = 1, and den = 1 for the zero polynomial.  So
equal polynomials have equal terms and den, and every operation computes on
the stored integers directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .errors import IdentityFailed

_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (re, im), k mod 4


def _gaussian(c) -> Tuple[int, int, int]:
    """(re, im, d) with c = (re + im*i) / d, for a rational c or an (re, im)
    pair of rationals."""
    re, im = (Fraction(c[0]), Fraction(c[1])) if isinstance(c, tuple) \
        else (Fraction(c), Fraction(0))
    d = math.lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _normal(acc: Mapping[int, Tuple[int, int]], den: int) -> "TrigPoly":
    """The TrigPoly sum (re + im*i) u^l / den over acc, den > 0, in normal
    form."""
    terms = {l: (re, im) for l, (re, im) in acc.items() if re or im}
    g = math.gcd(den, *(x for v in terms.values() for x in v))
    if g != 1:
        terms = {l: (re // g, im // g) for l, (re, im) in terms.items()}
    out = TrigPoly.__new__(TrigPoly)
    out.terms, out.den = terms, den // g
    return out


class TrigPoly:
    __slots__ = ("terms", "den")

    def __init__(self, coeffs: Mapping | None = None):
        """coeffs maps l to a rational or an (re, im) pair of rationals."""
        parts = {int(l): _gaussian(c) for l, c in (coeffs or {}).items()}
        den = math.lcm(*(d for _, _, d in parts.values()))
        p = _normal({l: (re * (den // d), im * (den // d))
                     for l, (re, im, d) in parts.items()}, den)
        self.terms, self.den = p.terms, p.den

    # --- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly()

    @staticmethod
    def const(c) -> "TrigPoly":
        return TrigPoly({0: c})

    @staticmethod
    def sin(k: int) -> "TrigPoly":
        """sin(k*phi) = (u^k - u^-k) / (2i) = (-i u^k + i u^-k) / 2."""
        if k == 0:
            return TrigPoly.zero()
        return _normal({k: (0, -1), -k: (0, 1)}, 2)

    @staticmethod
    def cos(k: int) -> "TrigPoly":
        """cos(k*phi) = (u^k + u^-k) / 2."""
        if k == 0:
            return TrigPoly.const(1)
        return _normal({k: (1, 0), -k: (1, 0)}, 2)

    # --- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    # --- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        g = math.gcd(self.den, other.den)
        f1, f2 = other.den // g, self.den // g
        acc = {l: [re * f1, im * f1] for l, (re, im) in self.terms.items()}
        for l, (re, im) in other.terms.items():
            slot = acc.setdefault(l, [0, 0])
            slot[0] += re * f2
            slot[1] += im * f2
        return _normal(acc, self.den * f1)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        out = TrigPoly.__new__(TrigPoly)
        out.terms = {l: (-re, -im) for l, (re, im) in self.terms.items()}
        out.den = self.den
        return out

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return self.scale(other)
        acc: Dict[int, List[int]] = {}
        terms2 = other.terms.items()
        for l1, (a1, b1) in self.terms.items():
            for l2, (a2, b2) in terms2:
                slot = acc.setdefault(l1 + l2, [0, 0])
                slot[0] += a1 * a2 - b1 * b2
                slot[1] += a1 * b2 + b1 * a2
        return _normal(acc, self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "TrigPoly":
        """c times self, for a rational c or an (re, im) pair of rationals."""
        x, y, d = _gaussian(c)
        return _normal({l: (re * x - im * y, re * y + im * x)
                        for l, (re, im) in self.terms.items()}, self.den * d)

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
        return _normal({l: (-l * im, l * re) for l, (re, im) in self.terms.items()},
                       self.den)

    def subs_power(self, q: int) -> "TrigPoly":
        """Substitute phi -> q*phi, i.e. u -> u^q, for q != 0 (ValueError on
        q = 0, which would merge terms)."""
        if q == 0:
            raise ValueError("subs_power needs q != 0")
        out = TrigPoly.__new__(TrigPoly)
        out.terms = {q * l: v for l, v in self.terms.items()}
        out.den = self.den
        return out

    def __repr__(self):
        if self.is_zero:
            return "TrigPoly(0)"
        items = ", ".join(f"u^{l}: ({re}{im:+}i)"
                          for l, (re, im) in sorted(self.terms.items()))
        return f"TrigPoly({items}; /{self.den})"


def wronskian(fs: List[TrigPoly]) -> TrigPoly:
    """Wronskian det[d^i f_j / dphi^i], i = 0..len(fs)-1.

    Expanded multilinearly over the monomials of each f_j: since
    d/dphi u^l = i*l*u^l, the Wronskian of u^(l_1)..u^(l_n) is the
    Vandermonde u^(sum l) prod_{a<b} i(l_b - l_a), so

        W = i^(n(n-1)/2) sum prod_j c_(j,l_j) prod_{a<b} (l_b - l_a) u^(sum l)

    over every choice (l_1..l_n) of one monomial per f; a choice with a
    repeated l contributes nothing.  The sum runs on the stored numerators
    over the product of the f's denominators and needs no division.  Cost:
    the product of the support sizes (2^n for n sines).
    """
    if not fs:
        raise ValueError("wronskian of an empty list")
    n = len(fs)
    denom = 1
    # partial choices (frequencies so far, Vandermonde-weighted numerator),
    # started from the unit i^(n(n-1)/2)
    partial = [((),) + _I_POWERS[n * (n - 1) // 2 % 4]]
    for f in fs:
        denom *= f.den
        grown = []
        for chosen, re, im in partial:
            for l, (a, b) in f.terms.items():
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
    return _normal(acc, denom)


def require_identity(lhs: TrigPoly, rhs: TrigPoly, what: str) -> bool:
    """Assert lhs == rhs exactly; raises IdentityFailed with the difference."""
    diff = lhs - rhs
    if not diff.is_zero:
        raise IdentityFailed(f"{what}: difference has {len(diff.terms)} terms",
                             difference=diff)
    return True
