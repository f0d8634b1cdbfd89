"""Planar arrangements of lines with multiplicities, in three charts.

A line is stored by the angle phi in [0, pi) of its unit normal
(cos phi, sin phi); z = e^{2i phi} is the unit-circle chart and
alpha = cot(phi) the slope chart (phi = 0 maps to alpha = infinity,
i.e. the vector (0, 1) of the slope chart).

A Configuration is an exact record (elementary symmetric values, or the
slopes of a random chart), from which the polynomials P and R and the slope
groups are derived, whenever the construction provides one, and a chart of
numeric lines, which the am1n, twomult and random families build only when
something reads them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath as mp
from mpmath.libmp import (from_int, from_man_exp, mpf_add, mpf_cos_sin, mpf_div, mpf_ge,
                          mpf_gt, mpf_mul_int, mpf_pi, mpf_pos, mpf_sub, round_nearest,
                          to_fixed)

from .errors import CollisionError, IdentityFailed, MissingExactData
from .jsontext import to_json_text
from .numeric import (GUARD_BITS, angle_gap, check_precision, hex_to_mpf, mpf_to_hex,
                      order_keys, reduce_angle_mod_pi, to_mp, working)
from .poly import DensePoly
from .roots import poly_roots
from .symfunc import (cayley, e_values, ehat_values, poly_from_elementary,
                      r_poly_from_ehat)


class _Infinity:
    """Sentinel for the infinite slope of the phi = 0 line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


@dataclass(frozen=True)
class Line:
    mult: object  # int everywhere except locus charts, which allow reals
    phi: object  # mpf, exact snapshot
    alpha_exact: object = None  # Fraction | INF | None


def _is_multiplicity(v) -> bool:
    """Whether v can be a stored multiplicity: a non-bool int or float in (0, inf)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < math.inf


@dataclass(frozen=True)
class Multiplicities:
    values: Tuple[object, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("empty multiplicity list")
        for v in self.values:
            if not _is_multiplicity(v):
                raise ValueError(f"multiplicity {v!r} is not a positive finite number")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


# The families a configuration can come from; a file of any other kind is
# refused at load.
KINDS = ("am1n", "twomult", "qexpanded", "general", "random")


@dataclass(frozen=True, eq=False)
class Configuration:
    """An arrangement as an exact record plus a numeric chart of lines.

    The exact record is kind, precision, m, mtilde, n, q, seed, the
    elementary values e (z chart) and ehat (squared slopes), the branch
    sign and the slopes ``alphas`` of a random chart; P, R and ``groups``
    are derived from it.  The chart is ``lines``: angles at ``precision``
    bits.  Families whose lines follow from the record (am1n, twomult and
    random) leave ``chart`` unset, and the lines are built the first time
    something reads them (``len`` included), then cached; every other
    family, and every loaded file, passes its lines as ``chart``.
    Equality and hashing compare the record and the lines."""

    kind: str  # one of KINDS
    precision: int
    m: Optional[int] = None
    mtilde: Optional[int] = None
    n: Optional[int] = None
    q: Optional[int] = None
    seed: Optional[int] = None
    e: Optional[Tuple[Fraction, ...]] = None
    ehat: Optional[Tuple[Fraction, ...]] = None
    e_branch_sign: Optional[int] = None
    alphas: Optional[Tuple[Fraction, ...]] = None
    chart: Optional[Tuple[Line, ...]] = None

    @cached_property
    def lines(self) -> Tuple[Line, ...]:
        return self.chart if self.chart is not None else _exact_chart(self)

    @cached_property
    def P(self) -> Optional[DensePoly]:
        """Monic polynomial, from e, whose roots are the multiplicity-1 z's."""
        if self.e is None or self.n is None:
            return None
        return poly_from_elementary(list(self.e), self.n)

    @cached_property
    def R(self) -> Optional[DensePoly]:
        """Monic polynomial whose roots are the multiplicity-1 slopes: closed form
        (am1n), cayley(P) (twomult, qexpanded), prod (alpha - a) (random)."""
        if self.kind == "am1n" and self.ehat is not None:
            return r_poly_from_ehat(list(self.ehat), self.n)
        if self.kind in ("twomult", "qexpanded") and self.P is not None:
            return cayley(self.P)
        if self.kind == "random":
            alphas = self.alphas
            if alphas is None:
                alphas = [ln.alpha_exact for ln in self.lines if ln.alpha_exact is not INF]
            if all(isinstance(a, Fraction) for a in alphas):
                return _slope_product(alphas)
        return None

    @cached_property
    def groups(self) -> Tuple[tuple, ...]:
        """The exact slope chart as (A, mult) pairs: (INF, m) for the phi = 0 line,
        then per multiplicity the monic A whose roots are the slopes of the other
        lines of that multiplicity.  Empty without R (general, locus, stripped)."""
        if self.R is None:
            return ()
        q, merged = self.q or 1, {}
        # z^q = 1 (z != 1) for the phi = 0 line's copies, z^q = -1 for pi/2's
        copies = [(DensePoly([1] * q), self.m),
                  (DensePoly([1] + [0] * (q - 1) + [1]), self.mtilde)]
        for A, mult in [(cayley(z), mu) for z, mu in copies if z.degree and mu] + [(self.R, 1)]:
            merged[mult] = merged[mult] * A if mult in merged else A
        return ((INF, self.m),) + tuple((A, mult) for mult, A in merged.items())

    def _key(self) -> tuple:
        return (self.kind, self.lines, self.precision, self.m, self.mtilde,
                self.n, self.q, self.seed, self.e, self.ehat, self.e_branch_sign)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __len__(self):
        return len(self.lines)

    # --- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m,
            "mtilde": self.mtilde,
            "n": self.n,
            "q": self.q,
            "seed": self.seed,
            "precision_bits": self.precision,
            "e": [str(v) for v in self.e] if self.e is not None else None,
            "ehat": [str(v) for v in self.ehat] if self.ehat is not None else None,
            "e_branch_sign": self.e_branch_sign,
            "lines": [
                {
                    "mult": ln.mult,
                    "phi_hex": mpf_to_hex(ln.phi),
                    "alpha": ("inf" if ln.alpha_exact is INF
                              else str(ln.alpha_exact)
                              if isinstance(ln.alpha_exact, Fraction) else None),
                }
                for ln in self.lines
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Configuration":
        if not isinstance(d, dict):
            raise TypeError(f"a configuration is a JSON object, not {type(d).__name__}")
        if d["kind"] not in KINDS:
            raise ValueError(f"unknown kind {d['kind']!r}, not one of {', '.join(KINDS)}")
        precision = check_precision(d["precision_bits"])
        lines = []
        for k, entry in enumerate(d["lines"]):
            mult = entry["mult"]
            if not _is_multiplicity(mult):
                raise ValueError(f"line {k}: multiplicity {mult!r} is not a positive "
                                 "finite number")
            alpha = entry.get("alpha")
            alpha_exact = (INF if alpha == "inf" else None if alpha is None
                           else _fraction(alpha, f"line {k}: alpha"))
            lines.append(Line(mult=mult, phi=hex_to_mpf(entry["phi_hex"]),
                              alpha_exact=alpha_exact))
        Multiplicities(tuple(ln.mult for ln in lines))  # ValueError on no lines
        _check_distinct_angles([ln.phi for ln in lines], precision)
        e, ehat = (None if d.get(key) is None
                   else tuple(_fraction(v, f"{key}[{j}]") for j, v in enumerate(d[key]))
                   for key in ("e", "ehat"))
        c = Configuration(
            kind=d["kind"], precision=precision, m=d.get("m"),
            mtilde=d.get("mtilde"), n=d.get("n"), q=d.get("q"), seed=d.get("seed"),
            e=e, ehat=ehat, e_branch_sign=d.get("e_branch_sign"),
            chart=tuple(lines))
        _check_record(c)
        _check_slopes(c)
        return c

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(to_json_text(self.to_json_dict()))

    @staticmethod
    def load(path: str) -> "Configuration":
        with open(path) as fh:
            return Configuration.from_json_dict(json.load(fh))

    def digest(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def _fraction(value, what: str) -> Fraction:
    """Fraction(value); ValueError naming what when its denominator is 0 or
    it is not finite."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} {value!r} is not finite")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} {value!r} has a zero denominator") from None


def _slope_product(alphas: Sequence[Fraction]) -> DensePoly:
    """prod (alpha - a) over the slopes a: prod (q alpha - p) on integers for
    a = p/q, over its leading coefficient prod q."""
    nums = [1]
    for a in alphas:
        p, q = a.numerator, a.denominator
        nums = [q * lo - p * hi for lo, hi in zip([0] + nums, nums + [0])]
    return DensePoly(nums, nums[-1])


def integer_mults(c: Configuration) -> List[int]:
    """The multiplicities of c's lines as ints.  ValueError unless each is a
    positive integer, as the existence conditions and the quasi-invariants
    need; only a locus chart carries other values, and truncating 2.5 to 2
    would answer for another arrangement."""
    for v in (ln.mult for ln in c.lines):
        if not (isinstance(v, int) or isinstance(v, float) and v.is_integer()) or v < 1:
            raise ValueError(f"multiplicity {v!r} is not a positive integer")
    return [int(ln.mult) for ln in c.lines]


def _check_distinct_angles(phis, precision: int) -> None:
    """CollisionError when two of the angles lie within 2^-(precision/2) of
    each other mod pi, compared exactly (numeric.angle_gap)."""
    gap, at, e = angle_gap(phis, precision)
    if gap < 1 << (-(precision // 2) - e):
        raise CollisionError(f"two lines coincide near phi = "
                             f"{mp.nstr(mp.mp.make_mpf(from_man_exp(at, e)), 10)}")


def _sorted_lines(lines: Sequence[Line]) -> Tuple[Line, ...]:
    """lines in increasing phi, lines of equal phi in their order."""
    keys = order_keys([ln.phi for ln in lines])
    return tuple(ln for _, _, ln in sorted(zip(keys, range(len(lines)), lines)))


# The least value each kind's builder gives the integer fields of its record.
_INT_FIELDS = {"am1n": {"m": 1, "n": 1}, "random": {"m": 1, "n": 0},
               "twomult": {"m": 1, "mtilde": 0, "n": 2},
               "qexpanded": {"m": 1, "mtilde": 0, "n": 2, "q": 2}}


def _check_int_field(kind: str, name: str, value) -> None:
    """ValueError unless value is a non-bool int at least _INT_FIELDS[kind][name]."""
    low = _INT_FIELDS[kind][name]
    if type(value) is not int or value < low:
        raise ValueError(f"{kind} needs an integer {name} >= {low}, not {value!r}")


def _check_record(c: Configuration) -> None:
    """ValueError unless each integer field of c's kind (_INT_FIELDS) is a
    non-bool int no less than its builder gives it, an am1n record has the
    closed-form e and ehat of its m and n, and a twomult record the e and
    branch sign that build_two_mult picks."""
    for name in _INT_FIELDS.get(c.kind, {}):
        value = getattr(c, name)
        if value is None and c.kind == "qexpanded" and name != "q":
            continue  # an expansion of a general chart, or of one without mtilde
        _check_int_field(c.kind, name, value)
    if c.kind == "am1n" and (list(c.e or ()) != e_values(c.m, c.n)
                             or list(c.ehat or ()) != ehat_values(c.m, c.n)):
        raise ValueError(f"e and ehat are not those of am1n ({c.m}, {c.n})")
    if c.kind == "twomult":
        sign, e = _two_mult_branch(c.m, c.mtilde or 0, c.n)
        if list(c.e or ()) != e or c.e_branch_sign != sign:
            raise ValueError(f"e and e_branch_sign are not those of twomult "
                             f"({c.m}, {c.mtilde}, {c.n})")


def _check_slopes(c: Configuration) -> None:
    """ValueError unless the lines are those of c's groups (as many of each
    multiplicity as they count, each group vanishing at as many distinct lines
    of its multiplicity as its degree) and each stored slope is cot phi of its
    line.  One cos/sin per line at precision/2 + GUARD_BITS fraction bits, then
    integers against 2^-(precision/2) (see _vanishes); nothing is re-solved."""
    groups = [(_form(A), mult) for A, mult in c.groups]
    want = sorted(mult for form, mult in groups for _ in range(len(form) - 1))
    have = sorted(ln.mult for ln in c.lines)
    if groups and want != have:
        raise ValueError(f"the record has the multiplicities {want}, the lines {have}")
    bits, tol = check_precision(c.precision) // 2 + GUARD_BITS, c.precision // 2
    points = {(ln.phi._mpf_, ln.mult): [to_fixed(v, bits) for v in mpf_cos_sin(ln.phi._mpf_, bits)]
              for ln in c.lines if groups or ln.alpha_exact is not None}
    for form, mult in groups:
        zeros = sum(_vanishes(form, *xy, bits, tol) for (_, mu), xy in points.items()
                    if mu == mult)
        if zeros < len(form) - 1:
            raise ValueError(f"the slope group of degree {len(form) - 1} and multiplicity "
                             f"{mult} vanishes at only {zeros} distinct stored lines")
    for k, ln in enumerate(c.lines):
        a = ln.alpha_exact
        if a is not None and not _vanishes(_form(a), *points[ln.phi._mpf_, ln.mult], bits, tol):
            raise ValueError(f"line {k}: the stored slope {a} is not cot phi")


def _form(A) -> List[int]:
    """Integer c_j with sum_j c_j cos^j sin^(d-j) a positive multiple of sin^d(phi)
    A(cot phi), d = deg A; INF is the form sin phi, a slope s the A alpha - s."""
    if A is INF:
        return [1, 0]
    if isinstance(A, Fraction):
        return [-A.numerator, A.denominator]
    return list(A.nums)


def _vanishes(form: Sequence[int], x: int, y: int, bits: int, tol_bits: int) -> bool:
    """Whether |sum_j form[j] x^j y^(d-j)| <= 2^-tol_bits sum_j |form[j]| at (x, y)
    / 2^bits, by Horner in fixed point.  On the unit circle the sum bounds the
    form, and rounding moves it by about d units of 2^-bits times the sum."""
    value, ypow = form[-1] << bits, 1 << bits
    for a in reversed(form[:-1]):
        ypow = ypow * y >> bits
        value = (value * x >> bits) + a * ypow
    return abs(value) <= sum(map(abs, form)) << bits >> tol_bits


def build_am1n(m: int, n: int, precision: int = 256) -> Configuration:
    """The unique real arrangement with one multiplicity-m line at phi = 0
    and n multiplicity-1 lines, fixed by its elementary symmetric values.
    Its lines are the roots of P, found when first read."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    check_precision(precision)
    e = e_values(m, n)
    ehat = ehat_values(m, n)
    return Configuration(kind="am1n", precision=precision, m=m, n=n,
                         e=tuple(e), ehat=tuple(ehat))


def _exact_chart(c: Configuration) -> Tuple[Line, ...]:
    """Lines of an am1n or twomult record: multiplicity m at phi = 0,
    mtilde (when positive) at pi/2 and phi = acot(alpha) (+ pi for
    alpha < 0) per real root alpha of R, sorted.  The roots are finite and
    certified distinct, so only R(0) = 0 with mtilde > 0 is a CollisionError.
    A random record's lines come from its stored slopes (_slope_chart)."""
    if c.kind == "random" and c.alphas is not None:
        return _slope_chart(c)
    if c.kind not in ("am1n", "twomult") or c.R is None:
        raise MissingExactData(f"a {c.kind} configuration without lines")
    if c.mtilde and c.R[0] == 0:
        raise CollisionError("a multiplicity-1 line lies on the phi = pi/2 line")
    alphas = poly_roots(c.R, c.precision)
    with working(c.precision, guard=96):
        phis = [mp.acot(a) + mp.pi if a < 0 else mp.acot(a) for a in alphas]
    with working(c.precision):
        lines = [Line(mult=c.m, phi=mp.mpf(0), alpha_exact=INF)]
        if c.mtilde:
            lines.append(Line(mult=c.mtilde, phi=mp.pi / 2, alpha_exact=Fraction(0)))
        lines += [Line(mult=1, phi=+phi) for phi in phis]
    return _sorted_lines(lines)


def _slope_chart(c: Configuration) -> Tuple[Line, ...]:
    """Lines of a random record: multiplicity m at phi = 0 and phi =
    acot(alpha) (+ pi for alpha < 0) per stored slope, sorted.  CollisionError
    when two lines lie within 2^-(precision/2) of each other."""
    with working(c.precision):
        lines = [Line(mult=c.m, phi=mp.mpf(0), alpha_exact=INF)]
        for a in c.alphas:
            phi = mp.acot(to_mp(a))
            if phi < 0:
                phi += mp.pi
            lines.append(Line(mult=1, phi=phi, alpha_exact=a))
    _check_distinct_angles([ln.phi for ln in lines], c.precision)
    return _sorted_lines(lines)


def _two_mult_recurrence(m: int, mt: int, n: int, sign: int) -> List[Fraction]:
    """e_n..e_0 (descending) from the three-term recurrence and seeds.  The
    leading coefficient (m + mt + n - k - 1)(k + 1) is at least 1 for
    m >= 1, mt >= 0 and 1 <= k < n."""
    N = n + m + mt - 1
    e = {n: Fraction(1), n - 1: Fraction(sign * (m - mt) * n, N)}
    for k in range(1, n):
        val = ((m + mt + k - 1) * (k - n - 1) * e[n - k + 1]
               + (n - 2 * k) * (m - mt) * e[n - k])
        e[n - k - 1] = Fraction(-val, (m + mt + n - k - 1) * (k + 1))
    return [e[j] for j in range(1, n + 1)]


def _two_mult_ode_residual(m: int, mt: int, n: int, P: DensePoly) -> DensePoly:
    """w(w^2-1) P'' - ((n-1)(w^2-1) - m(w+1)^2 - mt(w-1)^2) P'
    - (n(m+mt) w + n(m-mt)) P, exactly (z_0 = 1).  On integers: each
    coefficient is an integer combination of P's numerators and those of its
    first two derivatives, over P's denominator."""
    a = list(P.nums)
    a1 = [k * x for k, x in enumerate(a)][1:]
    a2 = [k * x for k, x in enumerate(a1)][1:]
    size = len(a) + 1  # coefficients of the residual

    def pad(xs):  # pad(xs)[k + 3] is the coefficient of w^k
        return [0, 0, 0] + xs + [0] * (size + 3 - len(xs))

    A, A1, A2 = pad(a), pad(a1), pad(a2)
    # minus the coefficients of (n-1-m-mt) w^2 + 2(mt-m) w - (n-1+m+mt)
    # and of n(m+mt) w + n(m-mt)
    q2, q1, q0 = m + mt + 1 - n, 2 * (m - mt), n - 1 + m + mt
    r1, r0 = -n * (m + mt), -n * (m - mt)
    out = [A2[k] - A2[k + 2] + q2 * A1[k + 1] + q1 * A1[k + 2] + q0 * A1[k + 3]
           + r1 * A[k + 2] + r0 * A[k + 3] for k in range(size)]
    return DensePoly(out, P.den)


def _two_mult_branch(m: int, mt: int, n: int) -> Tuple[int, List[Fraction]]:
    """(sign, e) of the recurrence branch whose P satisfies the
    two-multiplicity ODE: sign 1 when m = mt, where the seed is zero, else
    -1.  The ODE is checked exactly, and IdentityFailed raised if it fails."""
    if m < 1 or mt < 0:
        raise ValueError("need m >= 1 and mt >= 0")
    if n < 2 or n % 2 != 0:
        raise ValueError("the two-multiplicity family needs even n >= 2")
    sign = 1 if m == mt else -1
    e = _two_mult_recurrence(m, mt, n, sign)
    residual = _two_mult_ode_residual(m, mt, n, poly_from_elementary(e, n))
    if not residual.is_zero:
        raise IdentityFailed(f"the sign {sign} branch does not satisfy the two-multiplicity "
                             f"ODE for (m, mt, n) = ({m}, {mt}, {n})", difference=residual)
    return sign, e


def build_two_mult(m: int, mt: int, n: int, precision: int = 256) -> Configuration:
    """Arrangement with multiplicity m at phi = 0, mt at phi = pi/2 (omitted
    when mt = 0) and n multiplicity-1 lines produced by the recurrence.

    The seed e_{n-1} is a sign times (m - mt) n / (n + m + mt - 1); the sign,
    reported in e_branch_sign, is -1 (1 when m = mt), the branch whose
    polynomial P satisfies the two-multiplicity ODE, checked exactly."""
    sign, e = _two_mult_branch(m, mt, n)
    check_precision(precision)
    return Configuration(kind="twomult", precision=precision, m=m, mtilde=mt,
                         n=n, e=tuple(e), e_branch_sign=sign)


def t_q_expand(c: Configuration, q: int) -> Configuration:
    """Replace each line at phi with the q lines at (phi + pi*s)/q, s = 1..q,
    so that sin(q*phi - phi_i) factors over the expanded angles.

    Exact data transforms too: the multiplicity-1 polynomial becomes
    P(w^q) (roots are the q-th roots of the z_i), read off e, and the
    record's q is the total expansion.  Raises CollisionError when two
    expanded lines coincide."""
    if q < 1:
        raise ValueError("need q >= 1")
    if q == 1:
        return c
    # With phi = phi0 + k*pi, phi0 in [0, pi), the q angles (phi + pi*s)/q
    # mod pi are phi0/q + r*pi/q, r = 0..q-1, each in [0, pi).  Formed with
    # extra guard bits, they need no reduction that cancels, and phi0 = 0
    # keeps its copy at exactly 0.  The arithmetic is on libmp values:
    # phi0/q + r*(pi/q) at p + 2*GUARD_BITS bits, one rounding to p +
    # GUARD_BITS, which may reach pi and then has pi subtracted.
    wide, prec = c.precision + 2 * GUARD_BITS, c.precision + GUARD_BITS
    rnd, three, div = round_nearest, from_int(3), from_int(q)
    step = mpf_div(mpf_pi(wide, rnd), div, wide, rnd)
    pi = mpf_pi(prec, rnd)
    new_lines = []
    for ln in c.lines:
        phi = ln.phi._mpf_
        if phi[0] or mpf_gt(phi, three):  # below 0 or above 3: reduce mod pi
            with mp.workprec(wide):
                phi = reduce_angle_mod_pi(ln.phi)._mpf_
        else:  # phi/pi < 0.96 has floor 0, so the reduction only rounds phi
            phi = mpf_pos(phi, wide, rnd)
        base = mpf_div(phi, div, wide, rnd)
        for r in range(q):
            angle = mpf_pos(mpf_add(base, mpf_mul_int(step, r, wide, rnd), wide, rnd),
                            prec, rnd)
            if mpf_ge(angle, pi):
                angle = mpf_sub(angle, pi, prec, rnd)
            new_lines.append(Line(mult=ln.mult, phi=mp.mp.make_mpf(angle)))
    _check_distinct_angles([ln.phi for ln in new_lines], c.precision)

    e = None
    if c.e is not None and c.n:
        # P(w^q) = sum_j (-1)^j e_j w^(q(n-j)), so E_(qj) = (-1)^((q-1)j) e_j
        # and E_K = 0 when q does not divide K
        e = [Fraction(0)] * (q * c.n)
        for j, ej in enumerate(c.e, 1):
            e[q * j - 1] = -ej if (q - 1) * j % 2 else ej
    return Configuration(kind="qexpanded", precision=c.precision, m=c.m,
                         mtilde=c.mtilde, n=(c.n * q if c.n else None),
                         q=(c.q or 1) * q, e=tuple(e) if e else None,
                         e_branch_sign=c.e_branch_sign, chart=_sorted_lines(new_lines))


def from_alphas(m: int, alphas: Sequence[Fraction], precision: int = 256,
                seed: Optional[int] = None) -> Configuration:
    """Type-(m, 1^n) configuration of kind random from exact rational slopes.

    The heavy line is (0, 1) in the slope chart (phi = 0 here); each slope
    alpha gives the line with normal angle arccot(alpha).  The record keeps
    the slopes, and the lines are built when first read; two lines within
    2^-(precision/2) of each other raise CollisionError then.  An m that is
    a multiplicity but not an int (2.5) is refused as Configuration.load
    refuses it in a random record."""
    Multiplicities((m,))  # ValueError on a value no file can store
    _check_int_field("random", "m", m)
    alphas = tuple(Fraction(a) for a in alphas)
    if len(set(alphas)) != len(alphas):
        raise CollisionError("slopes must be distinct")
    check_precision(precision)
    return Configuration(kind="random", precision=precision, m=m, n=len(alphas),
                         seed=seed, alphas=alphas)


_SLOPE_BOUND = 50  # largest |p| and q of a random slope p/q


def random_type_m1n(m: int, n: int, seed: int, precision: int = 256) -> Configuration:
    """Seeded generic type-(m, 1^n) configuration with rational slopes drawn
    from {p/q : 1 <= |p| <= 50, 1 <= q <= 50}."""
    rng = random.Random(seed)
    alphas: List[Fraction] = []
    seen = set()
    while len(alphas) < n:
        p = rng.randint(1, _SLOPE_BOUND) * (1 if rng.randint(0, 1) else -1)
        den = rng.randint(1, _SLOPE_BOUND)
        a = Fraction(p, den)
        if a != 0 and a not in seen:
            seen.add(a)
            alphas.append(a)
    return from_alphas(m, alphas, precision=precision, seed=seed)


def general_from_angles(mults: Sequence, phis: Sequence, precision: int = 256) -> Configuration:
    """Configuration from explicit angles (numeric chart only)."""
    Multiplicities(tuple(mults))  # ValueError on a value no file can store
    check_precision(precision)
    with working(precision):
        lines = []
        for mu, phi in zip(mults, phis):
            phi = reduce_angle_mod_pi(mp.mpf(phi))
            alpha = INF if phi == 0 else None
            lines.append(Line(mult=mu, phi=phi, alpha_exact=alpha))
    _check_distinct_angles([ln.phi for ln in lines], precision)
    return Configuration(kind="general", precision=precision, chart=_sorted_lines(lines))


def perturb_line(c: Configuration, index: int, delta: float) -> Configuration:
    """Copy of c with one angle shifted; exact data no longer applies."""
    with working(c.precision):
        mults = [ln.mult for ln in c.lines]
        phis = [ln.phi + (delta if i == index else 0)
                for i, ln in enumerate(c.lines)]
        return general_from_angles(mults, phis, c.precision)


# --- equivalence of arrangements ---------------------------------------------


def _circular_angle_distance(a, b):
    d = abs(a - b)
    return min(d, abs(mp.pi - d))


def _matched_distance(pairs_a, pairs_b):
    """Max distance after sorting both (phi, mult) lists; inf on mult mismatch."""
    pa = sorted(pairs_a)
    pb = sorted(pairs_b)
    worst = mp.mpf(0)
    for (phi1, m1), (phi2, m2) in zip(pa, pb):
        if m1 != m2:
            return mp.inf
        worst = max(worst, _circular_angle_distance(phi1, phi2))
    return worst


def angle_multiset_distance(c1: Configuration, c2: Configuration):
    """Distance between arrangements modulo rotation.

    Tries every rotation aligning a line of c1 to the first line of c2,
    then reports the smallest max mismatch of the sorted angle multisets;
    equal multiplicity multisets are required."""
    if len(c1) != len(c2):
        return mp.inf
    if sorted(ln.mult for ln in c1.lines) != sorted(ln.mult for ln in c2.lines):
        return mp.inf
    precision = min(c1.precision, c2.precision)
    with working(precision):
        b = [(ln.phi, ln.mult) for ln in c2.lines]
        base = c2.lines[0].phi
        best = mp.inf
        for ref in c1.lines:
            delta = base - ref.phi
            a = [(reduce_angle_mod_pi(ln.phi + delta), ln.mult) for ln in c1.lines]
            best = min(best, _matched_distance(a, b))
        # also the un-rotated comparison
        a0 = [(ln.phi, ln.mult) for ln in c1.lines]
        best = min(best, _matched_distance(a0, b))
        return best
