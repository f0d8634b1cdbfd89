"""The paper's closed forms and identities, used as test oracles.

The package computes with none of these: it builds the one-heavy-line
arrangement from e_k and ehat_r alone and finds Hilbert coefficients by
exact ranks.  The results stated here are what those computations must
reproduce:

- the f chart (elementary symmetric in sin^2 of the angles) and its
  conversions to e_k and ehat_r, with the two Saalschutz-backed binomial
  identities behind the closed forms of e_k and ehat_r;
- the slope recurrence that the k = 1 conditions at the light lines put on
  R, for one heavy line and for two perpendicular ones;
- the per-degree segment formulas for the Hilbert coefficients b_i of a
  type-(m, 1^n) arrangement, and the series coefficients of a numerator;
- membership of a homogeneous polynomial in the quasi-invariants, read off
  the package's remainder-map system, and two invariants every arrangement
  has.

A formula asked for outside the range it is stated for raises OutOfRange.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence

from balines.config import Configuration
from balines.poly import DensePoly
from balines.quasi import assemble_system, m1n_chart
from balines.symfunc import ehat_values


class OutOfRange(ValueError):
    """A formula was requested outside its range of validity."""


# --- the f chart ---------------------------------------------------------------


def f_values(m: int, n: int) -> List[Fraction]:
    """f_i = C([n/2], i) 2^-i prod_{s=1}^i (2m + 2[n/2] - 2s + 1) / (m + n - s)."""
    nu = n // 2
    out = []
    prod = Fraction(1)
    for i in range(1, nu + 1):
        prod *= Fraction(2 * m + 2 * nu - 2 * i + 1, 2 * (m + n - i))
        out.append(comb(nu, i) * prod)
    return out


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
    ValueError when the top f value is zero (some u_i = 0).
    """
    f = [Fraction(v) for v in f]
    nu = len(f)
    if nu == 0:
        return []
    if f[-1] == 0:
        raise ValueError("top f value is zero (some u_i = 0)")
    full_f = [Fraction(1)] + f
    v = DensePoly.zero()
    s_plus_1 = DensePoly([1, 1])
    power = DensePoly([1])
    for i in range(0, nu + 1):
        v = v + power.scale((-1) ** i * full_f[i])
        power = power * s_plus_1
    v = v.scale(Fraction((-1) ** nu, 1) / f[-1])
    return [(-1) ** r * v[nu - r] for r in range(1, nu + 1)]


# --- the slope recurrence of the k = 1 light-line conditions ----------------


def slope_recurrence(m: int, n: int, mt: int = 0) -> List[Fraction]:
    """r_0..r_n of the monic R whose roots are the light slopes, with m at
    phi = 0 and mt at pi/2 (README, "One closed form for both families"):
    r_n = 1, r_(n-1) = 0 and, for k = n-1..1,

        r_(k-1) = -(k+1)(k+2mt) r_(k+1) / ((k-1-n)(k-n-2m)),

    whose denominator is nonzero: both factors are negative for k < n."""
    r = [Fraction(0)] * (n + 1)
    r[n] = Fraction(1)
    for k in range(n - 1, 0, -1):
        den = (k - 1 - n) * (k - n - 2 * m)
        assert den != 0, (m, n, mt, k)
        r[k - 1] = Fraction(-(k + 1) * (k + 2 * mt), den) * r[k + 1]
    return r


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


def poch(x: Fraction, k: int) -> Fraction:
    """Rising factorial (x)_k."""
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
        num = poch(a, t) * poch(b, t) * poch(Fraction(-r), t)
        den = poch(c, t) * poch(d2, t) * poch(Fraction(1), t)
        acc += num / den
    return acc


def saalschutz_rhs(a: Fraction, b: Fraction, c: Fraction, r: int) -> Fraction:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return (poch(c - a, r) * poch(c - b, r)) / (poch(c, r) * poch(c - a - b, r))


# --- quasi-invariant membership and two universal invariants ---------------------


def is_quasi_invariant(c: Configuration, coeffs: Sequence[Fraction]) -> bool:
    """Exact membership test for a homogeneous polynomial sum c_i x^(d-i) y^i."""
    coeffs = [Fraction(v) for v in coeffs]
    d = len(coeffs) - 1
    system = assemble_system(c, d)
    free = set(system.free)
    if any(v for i, v in enumerate(coeffs) if i not in free):
        return False  # the heavy line kills these coefficients
    signed = [coeffs[i] * (1 if (d - i - 1) % 2 == 0 else -1) / scale
              for i, scale in zip(system.free, system.column_scale)]
    return all(sum(v * s for v, s in zip(row, signed)) == 0 for row in system.matrix)


def radial_invariant(d: int = 2) -> List[Fraction]:
    """Coefficients of x^2 + y^2."""
    if d != 2:
        raise ValueError("the radial invariant has degree 2")
    return [Fraction(1), Fraction(0), Fraction(1)]


def product_invariant(c: Configuration) -> List[Fraction]:
    """Coefficients of prod_lines (line form)^(2 mult): the squared defining
    polynomial, built from R so it stays rational for irrational slopes."""
    m, n, R = m1n_chart(c)
    # prod (x + alpha_j y) = sum_k r_k (-1)^(n-k) x^k y^(n-k),  R = sum r_k a^k
    lin = [(-1) ** (n - k) * R[k] for k in range(n + 1)]  # index = power of x
    sq: Dict[int, Fraction] = {}
    for a in range(n + 1):
        for b in range(n + 1):
            sq[a + b] = sq.get(a + b, Fraction(0)) + lin[a] * lin[b]
    # heavy line contributes y^(2m); x-power unchanged
    d = 2 * n + 2 * m
    coeffs = [Fraction(0)] * (d + 1)
    for xpow, v in sq.items():
        coeffs[d - xpow] = v  # i = index of y-power = d - xpow
    return coeffs


def is_symmetric_slope_chart(c: Configuration) -> bool:
    """Whether slopes pair off as {a, -a} (plus one zero slope when n is odd)."""
    m1n_chart(c)
    if c.kind == "am1n":
        return True
    exact = [ln.alpha_exact for ln in c.lines if ln.mult == 1 and ln.phi != 0]
    if not all(isinstance(a, Fraction) for a in exact):
        return False
    zeros = [a for a in exact if a == 0]
    if len(zeros) != len(exact) % 2:
        return False
    nonzero = sorted(a for a in exact if a != 0)
    return sorted(-a for a in nonzero) == nonzero


# --- Hilbert series coefficients --------------------------------------------------


def expand_numerator(numer: Sequence[int], D: int) -> List[int]:
    """Series coefficients of N(t) / (1 - t^2)^2 through degree D."""
    return [sum((k + 1) * numer[d - 2 * k]
                for k in range(d // 2 + 1) if d - 2 * k < len(numer))
            for d in range(D + 1)]


SEGMENT_NAMES = (
    "low_degree_alternation",
    "heavy_threshold_value",
    "odd_tail_linear",
    "even_tail_linear",
    "stable_tail",
    "odd_mid_window",
    "odd_window_distinct_slopes",
    "sym_low_window",
    "sym_odd_upper",
    "exceptional_even_window",
    "sym_even_window",
)


def segment_prediction(name: str, m: int, n: int, r: Optional[int] = None,
                       symmetric: bool = False, am1n: bool = False,
                       D: Optional[int] = None) -> Dict[int, int]:
    """Predicted b_i over the degrees one formula covers; OutOfRange when its
    hypothesis (parity, 2r vs m+n, symmetry) fails."""
    D = D if D is not None else 2 * m + 2 * n + 4
    out: Dict[int, int] = {}
    if name == "low_degree_alternation":
        for k in range(0, min(n, D) + 1):
            out[k] = 1 if k % 2 == 0 else 0
    elif name == "heavy_threshold_value":
        if n % 2 == 0:
            if 2 * m + n - 1 <= D:
                out[2 * m + n - 1] = m
        else:
            if 2 * m + n - 2 <= D:
                out[2 * m + n - 2] = m - 1
    elif name == "odd_tail_linear":
        start = 2 * m + n - 1
        if start % 2 == 0:
            start += 1
        for i in range(start, D + 1, 2):
            out[i] = i + 1 - m - n
    elif name == "even_tail_linear":
        for i in range(2 * (m + n), D + 1, 2):
            out[i] = i + 1 - m - n
    elif name == "stable_tail":
        for i in range(2 * m + 2 * n - 1, D + 1):
            out[i] = i + 1 - m - n
    elif name == "odd_mid_window":
        lo = 2 * m + n + 1 if n % 2 == 0 else 2 * m + n
        for i in range(lo, min(2 * m + 2 * n - 3, D) + 1, 2):
            out[i] = i + 1 - m - n
    elif name == "odd_window_distinct_slopes":
        if r is None:
            raise OutOfRange("needs the distinct-squared-slope count r")
        if 2 * r > m + n:
            raise OutOfRange(f"window formula needs 2r <= m+n, got r={r}")
        lo = n + 1 if (n + 1) % 2 == 1 else n + 2
        for i in range(lo, min(2 * m + n - 1, D) + 1, 2):
            if i <= 2 * r - 1:
                out[i] = 0
            elif i <= 2 * m + 2 * n - 2 * r - 1:
                out[i] = (i + 1) // 2 - r
            else:
                out[i] = i + 1 - m - n
    elif name == "sym_low_window":
        if not symmetric:
            raise OutOfRange("needs the paired-slope symmetry")
        for i in range(n, min(2 * m, D) + 1):
            if i % 2 == 1:
                out[i] = (i + 1) // 2 - (n + 1) // 2
            else:
                out[i] = i // 2 + 1 - n // 2
    elif name == "sym_odd_upper":
        if not symmetric:
            raise OutOfRange("needs the paired-slope symmetry")
        lo = max(2 * m - 1, n - 1)
        if lo % 2 == 0:
            lo += 1
        for i in range(lo, min(2 * m + n - 1, D) + 1, 2):
            out[i] = (i + 1) // 2 - (n + 1) // 2
    elif name == "exceptional_even_window":
        if not am1n:
            raise OutOfRange("only the distinguished family takes these values")
        for s in range(1, n // 2 + 1):
            i = 2 * (m + n - s)
            if i <= D:
                out[i] = i - m - n + 2
    elif name == "sym_even_window":
        if not symmetric:
            raise OutOfRange("needs the paired-slope symmetry")
        for s in range(n // 2 + 1, min(n, m + (n + 1) // 2) + 1):
            i = 2 * (m + n - s)
            if 0 <= i <= D:
                out[i] = i // 2 - n // 2 + 1
    else:
        raise ValueError(f"unknown segment formula {name!r}")
    return out


def segment_oracles(m: int, n: int, r: Optional[int] = None,
                    symmetric: bool = False, am1n: bool = False,
                    D: Optional[int] = None) -> Dict[str, Dict[int, int]]:
    """All applicable per-degree predictions; inapplicable formulas are skipped."""
    out = {}
    for name in SEGMENT_NAMES:
        try:
            out[name] = segment_prediction(name, m, n, r=r, symmetric=symmetric,
                                           am1n=am1n, D=D)
        except OutOfRange:
            continue
    return out
