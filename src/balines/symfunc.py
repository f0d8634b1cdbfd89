"""Symmetric-function conversions between the root charts of an arrangement.

Three exact fingerprints appear throughout: e_k (elementary symmetric in the
unit-circle coordinates z_j), f_i (elementary symmetric in sin^2 of the
angles, one per mirror pair), and ehat_r (elementary symmetric in the squared
slopes).  This module converts between them and houses the closed forms and
binomial identities for the distinguished one-heavy-line family.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import List, Sequence

from .errors import DegenerateConfiguration, OutOfRange
from .poly import DensePoly


def poly_from_elementary(e: Sequence[Fraction], n: int) -> DensePoly:
    """Monic degree-n polynomial sum_i (-1)^i e_i w^(n-i), with e_0 = 1."""
    if len(e) != n:
        raise ValueError(f"expected {n} elementary values, got {len(e)}")
    full = [Fraction(1)] + [Fraction(v) for v in e]
    coeffs = [Fraction(0)] * (n + 1)
    for i, ei in enumerate(full):
        coeffs[n - i] = (-1) ** i * ei
    return DensePoly(coeffs)


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


def f_to_e(f: Sequence[Fraction], n: int) -> List[Fraction]:
    """Elementary symmetric e_1..e_n of the z chart from the f chart.

    For even n each mirror pair with u = sin^2(phi) contributes the factor
    w^2 - (2 - 4u) w + 1, which gives

        e_r = sum_i (-1)^i 4^i C(n-2i, r-i) f_i       (r <= n/2)

    and e_r = e_{n-r} beyond the middle.  For odd n the extra self-mirrored
    root z = -1 is appended after the even-n conversion.
    """
    f = [Fraction(v) for v in f]
    if len(f) != n // 2:
        raise ValueError(f"expected {n // 2} f values, got {len(f)}")
    if n == 0:
        return []
    nev = n - (n % 2)
    full_f = [Fraction(1)] + f

    def e_even(r: int) -> Fraction:
        if r == 0:
            return Fraction(1)
        if r > nev // 2:
            return e_even(nev - r)
        acc = Fraction(0)
        for i in range(0, r + 1):
            acc += (-1) ** i * Fraction(4) ** i * comb(nev - 2 * i, r - i) * full_f[i]
        return acc

    e_prime = [e_even(r) for r in range(0, nev + 1)]
    if n % 2 == 0:
        return e_prime[1:]
    # append the root z = -1:  e_r -> e'_r - e'_{r-1}
    out = []
    for r in range(1, n + 1):
        hi = e_prime[r] if r <= nev else Fraction(0)
        out.append(hi - e_prime[r - 1])
    return out


def f_to_ehat(f: Sequence[Fraction]) -> List[Fraction]:
    """Elementary symmetric values of 1/u_i - 1 from those of u_i.

    With U(t) = prod(t - u_i), the polynomial with roots 1/u_i - 1 is
    (-1)^nu (s+1)^nu U(1/(s+1)) / f_nu = (-1)^nu / f_nu * sum_i (-1)^i f_i (s+1)^i.
    """
    f = [Fraction(v) for v in f]
    nu = len(f)
    if nu == 0:
        return []
    if f[-1] == 0:
        raise DegenerateConfiguration("top f value is zero (some u_i = 0)")
    full_f = [Fraction(1)] + f
    v = DensePoly.zero()
    s_plus_1 = DensePoly.rational([1, 1])
    power = DensePoly.rational([1])
    for i in range(0, nu + 1):
        v = v + power.scale((-1) ** i * full_f[i])
        power = power * s_plus_1
    v = v.scale(Fraction((-1) ** nu, 1) / f[-1])
    return [(-1) ** r * v[nu - r] for r in range(1, nu + 1)]


def r_poly_from_ehat(ehat: Sequence[Fraction], n: int) -> DensePoly:
    """Monic degree-n slope polynomial alpha^(n mod 2) * sum (-1)^r ehat_r alpha^(2(nu-r))."""
    ehat = [Fraction(v) for v in ehat]
    nu = n // 2
    if len(ehat) != nu:
        raise ValueError(f"expected {nu} ehat values, got {len(ehat)}")
    full = [Fraction(1)] + ehat
    coeffs = [Fraction(0)] * (n + 1)
    for r in range(0, nu + 1):
        coeffs[2 * (nu - r) + (n % 2)] = (-1) ** r * full[r]
    return DensePoly(coeffs)


def _times_linear(re: List[int], im: List[int], s: int):
    """(re + i im)(alpha + s i) for coefficient lists indexed by power."""
    return ([a - s * b for a, b in zip([0] + re, im + [0])],
            [b + s * a for a, b in zip(re + [0], [0] + im)])


def cayley(P: DensePoly) -> DensePoly:
    """The slope chart of a rational z-chart polynomial: the monic R with
    P(1) R(alpha) = P((alpha+i)/(alpha-i)) (alpha-i)^n, n = deg P, by Horner
    on Gaussian-integer numerators.  A root e^{2i phi} of P gives the factor
    -2i e^{i phi} sin(phi) (alpha - cot phi).  ValueError when P(1) = 0 (a
    root on the phi = 0 line) or the imaginary part does not cancel."""
    n = P.degree
    den = math.lcm(*(c.denominator for c in P.coeffs))
    a = [c.numerator * (den // c.denominator) for c in P.coeffs]
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
    return DensePoly([Fraction(c, p1) for c in hre])


# --- closed forms for the one-heavy-line family ------------------------------


def e_values(m: int, n: int) -> List[Fraction]:
    """e_k = (-1)^k C(n,k) C(m+k-1,k) / C(m+n-1,k), k = 1..n (z_0 = 1)."""
    return [
        Fraction((-1) ** k * comb(n, k) * comb(m + k - 1, k), comb(m + n - 1, k))
        for k in range(1, n + 1)
    ]


def ehat_values(m: int, n: int) -> List[Fraction]:
    """ehat_r = C([n/2], r) prod_{i=1}^r (2*ceil(n/2) - 2i + 1) / (2m + 2i - 1)."""
    nu = n // 2
    ceil_half = (n + 1) // 2
    out = []
    prod = Fraction(1)
    for r in range(1, nu + 1):
        prod *= Fraction(2 * ceil_half - 2 * r + 1, 2 * m + 2 * r - 1)
        out.append(comb(nu, r) * prod)
    return out


def f_values(m: int, n: int) -> List[Fraction]:
    """f_i = C([n/2], i) 2^-i prod_{s=1}^i (2m + 2[n/2] - 2s + 1) / (m + n - s)."""
    nu = n // 2
    out = []
    prod = Fraction(1)
    for i in range(1, nu + 1):
        prod *= Fraction(2 * m + 2 * nu - 2 * i + 1, 2 * (m + n - i))
        out.append(comb(nu, i) * prod)
    return out


# --- the two Saalschutz-backed identities ------------------------------------


def identity_a_lhs(m: int, n: int, r: int) -> Fraction:
    return Fraction((-1) ** r * comb(n, r) * comb(m + r - 1, r), comb(m + n - 1, r))


def identity_a_rhs(m: int, n: int, r: int) -> Fraction:
    """Literal right side; stated for even n only."""
    if n % 2 != 0:
        raise OutOfRange("identity A is stated for even n")
    if not 1 <= r <= n // 2:
        raise OutOfRange(f"need 1 <= r <= n/2, got r={r}")
    acc = Fraction(0)
    prod = Fraction(1)
    for i in range(0, r + 1):
        if i >= 1:
            prod *= Fraction(2 * m + n - 2 * i + 1, m + n - i)
        acc += (-1) ** i * Fraction(2) ** i * comb(n - 2 * i, r - i) * comb(n // 2, i) * prod
    return acc


def identity_b_lhs(m: int, n: int, r: int) -> Fraction:
    nu = n // 2
    if not 1 <= r <= nu:
        raise OutOfRange(f"need 1 <= r <= [n/2], got r={r}")
    ceil_half = (n + 1) // 2
    acc = Fraction(0)
    prod = Fraction(1)
    for i in range(0, r + 1):
        if i >= 1:
            s = i - 1
            prod *= Fraction(m + ceil_half + s, 2 * m + 2 * s + 1)
        acc += (-1) ** (r - i) * Fraction(2) ** i * comb(nu - i, r - i) * comb(nu, i) * prod
    return acc


def identity_b_rhs(m: int, n: int, r: int) -> Fraction:
    nu = n // 2
    if not 1 <= r <= nu:
        raise OutOfRange(f"need 1 <= r <= [n/2], got r={r}")
    return ehat_values(m, n)[r - 1]


# --- terminating Saalschutz sum ----------------------------------------------


def _poch(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def saalschutz_lhs(a: Fraction, b: Fraction, c: Fraction, r: int) -> Fraction:
    """Terminating 3F2(a, b, -r; c, 1+a+b-c-r; 1) as an exact sum."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    d2 = 1 + a + b - c - r
    acc = Fraction(0)
    for t in range(0, r + 1):
        num = _poch(a, t) * _poch(b, t) * _poch(Fraction(-r), t)
        den = _poch(c, t) * _poch(d2, t) * _poch(Fraction(1), t)
        acc += num / den
    return acc


def saalschutz_rhs(a: Fraction, b: Fraction, c: Fraction, r: int) -> Fraction:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return (_poch(c - a, r) * _poch(c - b, r)) / (_poch(c, r) * _poch(c - a - b, r))
