"""Symmetric-function conversions between the root charts of an arrangement.

Two exact fingerprints build every arrangement: e_k (elementary symmetric in
the unit-circle coordinates z_j) and ehat_r (elementary symmetric in the
squared slopes).  This module turns them into P and R, takes P to the slope
chart (cayley) and an even-degree R back to e (e_from_ehat), converts power
sums and elementary values, and gives the closed forms: e_k of the
one-heavy-line family, ehat_r of it and of the two-heavy-line family.  The
paper's f chart (sin^2 of the angles), its conversions and the binomial
identities behind the closed forms are test oracles, in tests/paper.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import List, Sequence

from .poly import DensePoly


def poly_from_elementary(e: Sequence[Fraction], n: int) -> DensePoly:
    """Monic degree-n polynomial sum_i (-1)^i e_i w^(n-i), with e_0 = 1."""
    if len(e) != n:
        raise ValueError(f"expected {n} elementary values, got {len(e)}")
    full = [1] + [Fraction(v) for v in e]
    return DensePoly([-c if i % 2 else c for i, c in enumerate(full)][::-1])


def power_sums_from_elementary(e: Sequence[Fraction], upto: int) -> List[Fraction]:
    """Newton's identities: p_1..p_upto from e_1..e_n (e_k = 0 beyond n)."""
    e = [Fraction(v) for v in e]

    def ee(k):
        return e[k - 1] if 1 <= k <= len(e) else Fraction(0)

    p: List[Fraction] = []
    for k in range(1, upto + 1):
        acc = (-1) ** (k - 1) * k * ee(k)
        for i in range(1, k):
            acc += (-1) ** (i - 1) * ee(i) * p[k - i - 1]
        p.append(acc)
    return p


def elementary_from_power_sums(p: Sequence[Fraction], upto: int) -> List[Fraction]:
    """Newton's identities in reverse: e_1..e_upto from p_1..p_upto."""
    p = [Fraction(v) for v in p]
    e: List[Fraction] = []
    for k in range(1, upto + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            prev = e[k - i - 1] if k - i >= 1 else Fraction(1)
            acc += (-1) ** (i - 1) * prev * p[i - 1]
        e.append(acc / k)
    return e


def r_poly_from_ehat(ehat: Sequence[Fraction], n: int) -> DensePoly:
    """Monic degree-n slope polynomial alpha^(n mod 2) * sum (-1)^r ehat_r alpha^(2(nu-r))."""
    ehat = [Fraction(v) for v in ehat]
    nu = n // 2
    if len(ehat) != nu:
        raise ValueError(f"expected {nu} ehat values, got {len(ehat)}")
    coeffs = [0] * (n + 1)
    for r, c in enumerate([1] + ehat):
        coeffs[2 * (nu - r) + (n % 2)] = -c if r % 2 else c
    return DensePoly(coeffs)


def _times_linear(re: List[int], im: List[int], s: int):
    """(re + i im)(alpha + s i) for coefficient lists indexed by power."""
    return ([a - s * b for a, b in zip([0] + re, im + [0])],
            [b + s * a for a, b in zip(re + [0], [0] + im)])


def cayley(P: DensePoly) -> DensePoly:
    """The slope chart of a rational z-chart polynomial: the monic R with
    P(1) R(alpha) = P((alpha+i)/(alpha-i)) (alpha-i)^n, n = deg P, by Horner
    on P's numerators as Gaussian integers.  A root e^{2i phi} of P gives the
    factor -2i e^{i phi} sin(phi) (alpha - cot phi).  ValueError when P(1) = 0
    (a root on the phi = 0 line) or the imaginary part does not cancel."""
    n, a = P.degree, P.nums
    p1 = sum(a)
    if p1 == 0:
        raise ValueError("P(1) = 0: P has a root on the phi = 0 line")
    hre, him = [a[n]], [0]  # sum_{k >= j} a_k (alpha+i)^(k-j) (alpha-i)^(n-k)
    vre, vim = [1], [0]  # (alpha-i)^(n-j)
    for k in range(n - 1, -1, -1):
        hre, him = _times_linear(hre, him, 1)
        vre, vim = _times_linear(vre, vim, -1)
        hre = [h + a[k] * v for h, v in zip(hre, vre)]
        him = [h + a[k] * v for h, v in zip(him, vim)]
    if any(him):
        raise ValueError("P((alpha+i)/(alpha-i)) (alpha-i)^n is not a real "
                         "multiple of a real polynomial")
    return DensePoly(hre, p1)


def _times_square(p: List[int], s: int) -> List[int]:
    """p (z + s)^2 for a coefficient list indexed by power."""
    return [a + 2 * s * b + c for a, b, c in zip(p + [0, 0], [0] + p + [0], [0, 0] + p)]


def e_from_ehat(ehat: Sequence[Fraction], n: int) -> List[Fraction]:
    """e_1..e_n of the z chart of the even-degree slope polynomial
    R = sum_r (-1)^r ehat_r alpha^(n-2r).  With alpha = i(z+1)/(z-1),
    (z-1)^n R(alpha) = (-1)^(n/2) sum_r ehat_r (z+1)^(n-2r) (z-1)^(2r), a
    multiple of P: Horner in (z-1)^2 on the numerators of ehat over their
    common denominator, then one division per coefficient by the leading
    one, sum_r ehat_r times that denominator (nonzero for positive ehat)."""
    nu = n // 2
    if n % 2 or len(ehat) != nu:
        raise ValueError(f"expected even n and n/2 ehat values, got n = {n} and {len(ehat)}")
    den = lcm(*(x.denominator for x in ehat))
    a = [den] + [x.numerator * (den // x.denominator) for x in ehat]
    h, v = [a[nu]], [1]  # sum_{s >= r} a_s (z-1)^(2(s-r)) (z+1)^(2(nu-s)), (z+1)^(2(nu-r))
    for r in range(nu - 1, -1, -1):
        h, v = _times_square(h, -1), _times_square(v, 1)
        h = [x + a[r] * y for x, y in zip(h, v)]
    return [Fraction(-c if k % 2 else c, h[n]) for k, c in enumerate(reversed(h[:-1]), 1)]


# --- closed forms --------------------------------------------------------------


def e_values(m: int, n: int) -> List[Fraction]:
    """e_k = (-1)^k C(n,k) C(m+k-1,k) / C(m+n-1,k), k = 1..n (z_0 = 1)."""
    return [
        Fraction((-1) ** k * comb(n, k) * comb(m + k - 1, k), comb(m + n - 1, k))
        for k in range(1, n + 1)
    ]


def ehat_values(m: int, n: int, mt: int = 0) -> List[Fraction]:
    """ehat_r = C([n/2], r) prod_{i=1}^r (2*ceil(n/2) - 2i + 1 + 2mt) / (2m + 2i - 1):
    am1n's at mt = 0, twomult's (even n, mt at phi = pi/2) otherwise."""
    nu = n // 2
    ceil_half = (n + 1) // 2
    out = []
    prod = Fraction(1)
    for r in range(1, nu + 1):
        prod *= Fraction(2 * ceil_half - 2 * r + 1 + 2 * mt, 2 * m + 2 * r - 1)
        out.append(comb(nu, r) * prod)
    return out
