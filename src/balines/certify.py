"""Existence-condition residuals and exact ODE checks for arrangements.

Two families of conditions are evaluated per line j and order k <= mult(j):
the first-order family

    sum_{i != j} m_i (z_i + z_j)^{2k-1} / (z_i - z_j)^{2k-1} = 0

and the locus family

    sum_{i != j} m_i (m_i + 1) z_i (z_i + z_j)^{2k-1} / (z_i - z_j)^{2k+1} = 0.

With c_i = cot(phi_i - phi_j), the unit-circle chart z = e^{2i phi} gives

    (z_i + z_j) / (z_i - z_j) = -i c_i,
    z_i / (z_i - z_j)^2 = -(1 + c_i^2) / (4 z_j),

so each family is a unimodular constant times a real sum:

    first:  sum_{i != j} m_i c_i^{2k-1}
    locus:  sum_{i != j} m_i (m_i + 1) c_i^{2k-1} (1 + c_i^2) / 4.

One real kernel evaluates both sums.  The Cartesian conditions, written in
the angle differences at x = (-sin phi_j, cos phi_j), are the same sums
times -1 (first) and -4 (locus), so their relative residuals are the
kernel's.  A certificate aggregates relative residuals (|sum| over the
largest summand magnitude, floored at 1) over all (j, k) of both families.

The kernel runs on Python ints with F = precision + GUARD_BITS fraction
bits.  Each line's cos and sin are stored once; cot(phi_i - phi_j) is one
integer division by the addition formula, the odd powers come from
repeated multiplication by the stored c^2, and the locus term of order k
is (m_i + 1)/4 times the sum of the first terms of orders k and k + 1.
Next to every quantity runs a bound on its rounding error in units of
2^-F (running error analysis, Wilkinson 1963; Higham 2002, section 3.3):
each stored cos and sin is off by at most _INPUT_ERROR units, and every
product, shift and quotient adds its truncation.  The sums of the bounds
bound the error of each condition's sum and of its scale, each formed
once by sum and max over the pairs' powers and bounds.  A condition
passes when |sum| + bound < threshold * (scale - its bound), and fails,
verified, when |sum| - bound >= threshold * (scale + its bound).  The
certificate passes when every condition passes and fails when one fails
verified (one exact pass over the conditions); otherwise the table and
sums are redone with F doubled, at most _MAX_DOUBLINGS times, after which
IllConditioned is raised.  Two lines whose sin(phi_i - phi_j) does not
exceed its error bound are collinear (CollisionError).  The JSON
certificate reports the F that decided (fraction_bits) and the worst
bound over its scale (max_bound_log2).

The residuals keep the kernel's integers and every reported number is read
off one quotient, |total| / scale of those integers, rounded once: at the
working precision for relative() and max_residual, whose condition exact
cross-multiplication picks, and at 53 bits for each residual_log2, so the
JSON is the same at any ambient precision and its max_residual_log2 is the
largest of its residual_log2s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import List, NamedTuple, Sequence, Tuple

import mpmath as mp
from mpmath.libmp import (from_int, from_man_exp, mpf_cos_sin, mpf_div, round_nearest,
                          to_fixed)

from .config import Configuration, Line, _two_mult_ode_residual, integer_mults
from .errors import CollisionError, IllConditioned, MissingExactData
from .numeric import GUARD_BITS, log2_abs, working
from .poly import DensePoly

# Units of 2^-F by which a stored cos or sin may miss the true value: the
# mpf at F + 10 bits is within an ulp, and to_fixed truncates.
_INPUT_ERROR = 2
# Doublings of F before an undecided certificate raises IllConditioned.
_MAX_DOUBLINGS = 2


class ConditionResidual(NamedTuple):
    """One condition's sum in fixed point: the real sum is total * 2^exp and
    the largest summand magnitude top * 2^exp, each off by at most
    error * 2^exp (the bound of the sum covers each summand's).  value,
    scale and bound are those in real units, as exact mpfs."""

    j: int
    k: int
    form: str  # polar-first | polar-locus
    exp: int
    total: int
    error: int
    top: int

    def _real(self, man: int):
        return mp.mp.make_mpf(from_man_exp(man, self.exp))

    @property
    def value(self):
        """The real cot sum."""
        return self._real(self.total)

    @property
    def scale(self):
        """The largest summand magnitude, floored at 1."""
        return self._real(self.ratio()[1])

    @property
    def bound(self):
        """Bound on the rounding error of value."""
        return self._real(self.error)

    def relative(self):
        """|value| / scale at the working precision, rounded once."""
        num, den = self.ratio()
        return mp.mp.make_mpf(mpf_div(from_int(num), from_int(den), mp.mp.prec,
                                      round_nearest))

    def ratio(self) -> Tuple[int, int]:
        """|total| and the scale in units of 2^exp, whose quotient is the
        relative residual."""
        return abs(self.total), max(1 << -self.exp, self.top)


def _residual_log2(r: ConditionResidual) -> float:
    """log2_abs(r.relative()) at 53 bits: int true division rounds the
    quotient once, to nearest with ties to even as mpmath does, after a
    shift by a power of two that makes it a normal float in (1/2, 2); then
    log2 of its odd mantissa plus one integer exponent, as log2_abs reads
    an mpf."""
    num, den = r.ratio()
    if not num:
        return float("-inf")
    shift = den.bit_length() - num.bit_length()
    x = (num << shift) / den if shift >= 0 else num / (den << -shift)
    man, power = x.as_integer_ratio()  # man is odd, or 2 when x is 2.0
    return math.log2(man) + 1 - power.bit_length() - shift


@dataclass(frozen=True)
class BACertificate:
    digest: str
    precision: int
    threshold: object  # mpf
    max_residual: object  # mpf, max relative residual
    verdict: str  # pass | fail
    residuals: Sequence[ConditionResidual]
    fraction_bits: int = 0  # F of the sums that decided the verdict
    max_bound_log2: float = float("-inf")  # worst bound over its scale

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        """The certificate with every log2 read off a 53-bit value, whatever
        the working precision; max_residual_log2 is the largest
        residual_log2 (-inf when there is no condition)."""
        log2s = [_residual_log2(r) for r in self.residuals]
        return {
            "digest": self.digest,
            "precision_bits": self.precision,
            "fraction_bits": self.fraction_bits,
            "max_residual_log2": max(log2s, default=float("-inf")),
            "max_bound_log2": self.max_bound_log2,
            "threshold_log2": log2_abs(self.threshold),
            "verdict": self.verdict,
            "per_condition": [
                {"j": r.j, "k": r.k, "form": r.form, "residual_log2": x}
                for r, x in zip(self.residuals, log2s)
            ],
        }


def _sums(mults: Sequence[int], phis: Sequence, orders: Sequence[int],
          frac: int) -> List[ConditionResidual]:
    """(first, locus) sums of line j for k = 1..orders[j], j in order, with
    `frac` fraction bits and error bounds in units of 2^-frac, on integer
    weights mults, each at least 1.

    One cos/sin per line; per unordered pair (j, i) one division for c =
    cot(phi_i - phi_j), its square, and the odd powers c^(2k-1), which
    line j weighs by m_i and line i by -m_j.  The power of order k + 1 is
    the one of order k times c^2; its bound follows from |x c2 - X t^2| <=
    |x| |c2 - t^2| + t^2 |x - X| plus the truncation.  The locus sums are
    kept four times over, so that they need no division."""
    one = 1 << frac
    e = _INPUT_ERROR
    eta = e * (one << 2) + 2 * e * e  # error of the products below, units 2^-2F
    cs = []  # cos, sin, cos + sin, cos - sin of each line
    for phi in phis:
        c, s = (to_fixed(v, frac) for v in mpf_cos_sin(phi._mpf_, frac + 10))
        cs.append((c, s, c + s, c - s))
    # rows[j]: per partner of line j, in order, c, its bound, c^3, its bound...
    rows = [[] for _ in cs]
    n = len(cs)
    for j in range(n):
        cj, sj, aj, bj = cs[j]
        oj, rows_j = orders[j], rows[j]
        for i in range(j + 1, n):
            oi = orders[i]
            top = oi if oi > oj else oj
            if not top:
                continue
            ci, si, ai, _ = cs[i]
            # N + iD = (c_i + i s_i)(c_j - i s_j), the cos and sin of
            # phi_i - phi_j times 2^2F, by three products
            k1 = cj * ai
            den = k1 - ci * aj
            gap = (den if den > 0 else -den) - eta
            if gap <= 0:
                raise CollisionError(f"lines {i} and {j} are collinear")
            p = ((k1 - si * bj) << frac) // den  # cot
            size = p if p > 0 else -p
            # |N/D - n/d| <= eta (|D| + |N|) / (|D| (|D| - eta)), |N/D| <= |cot| + 1,
            # and x // y <= x >> (bit length of y - 1)
            b = 2 + (eta * (one + size + 1) >> (gap.bit_length() - 1))
            cot2 = (p * p) >> frac
            err2 = (((size << 1) + b) * b >> frac) + 2  # |T^2 - X^2| <= E (2|T| + E)
            over = cot2 + err2  # bounds cot^2 from above
            row = [p, b]
            for _ in range(top):
                b = ((size * err2 + over * b) >> frac) + 2
                p = (p * cot2) >> frac
                size = p if p > 0 else -p
                row += (p, b)
            rows_j.append(row)
            rows[i].append(row)
    # Line j weighs partner i by s m_i and s m_i (m_i + 1), s = -1 for an
    # earlier partner (its cot is of phi_j - phi_i): weights 1 and 2 by sum
    # and max over the columns, then the difference for each m_i > 1, whose
    # terms are larger.
    heavy = [(i, m) for i, m in enumerate(mults) if m != 1]
    out = []
    for j, oj in enumerate(orders):
        # partner i is at position i (earlier) or i - 1 (later) in rows[j]
        fix = [(i if i < j else i - 1, -1 if i < j else 1, m, m * (m + 1))
               for i, m in heavy if i != j]
        cols = list(zip(*rows[j]))[:2 * oj + 2] or [()] * (2 * oj + 2)  # no partner: zeros
        sums = [sum(col) if c % 2 else sum(col[j:]) - sum(col[:j]) for c, col in enumerate(cols)]
        for at in range(0, 2 * oj, 2):
            powers, bounds, higher, hbounds = cols[at:at + 4]
            total, bound = sums[at], sums[at + 1]
            top = max(map(abs, powers), default=0)
            ltotal, lbound = 2 * (sums[at] + sums[at + 2]), 2 * (sums[at + 1] + sums[at + 3])
            ltop = 2 * max(map(abs, map(add, powers, higher)), default=0)
            for pos, sign, m, w in fix:
                p, pair = powers[pos], powers[pos] + higher[pos]
                total += sign * (m - 1) * p
                bound += (m - 1) * bounds[pos]
                top = max(top, m * abs(p))
                ltotal += sign * (w - 2) * pair
                lbound += (w - 2) * (bounds[pos] + hbounds[pos])
                ltop = max(ltop, w * abs(pair))
            k = at // 2 + 1
            out += (ConditionResidual(j, k, "polar-first", -frac, total, bound, top),
                    ConditionResidual(j, k, "polar-locus", -frac - 2, ltotal, lbound, ltop))
    return out


def first_condition_residual_lines(lines: Sequence[Line], j: int, k: int) -> ConditionResidual:
    """The first-family residual at line j and order k, with F the ambient
    working precision.  Every multiplicity (an int, or a float, so dyadic)
    is w / 2^s exactly, for one s; the family is linear in the weights, so
    it is summed on the ints w, and s is taken off the exponent."""
    ratios = [ln.mult.as_integer_ratio() for ln in lines]
    den = max(d for _, d in ratios)  # 2^s
    orders = [k if i == j else 0 for i in range(len(lines))]
    r = _sums([w * (den // d) for w, d in ratios], [ln.phi for ln in lines], orders,
              mp.mp.prec)[2 * k - 2]
    return r._replace(exp=r.exp - den.bit_length() + 1)


def default_threshold(precision: int):
    return mp.mpf(2) ** (-(precision - 32))


def _decide(sums: Sequence[ConditionResidual], threshold):
    """(verdict, worst, max_bound_log2) by one pass of exact integer
    comparisons, each scale lying between max(1, top - error) and max(1,
    top + error): pass, fail, or '' when a bound straddles the threshold
    and none fails verified; the first condition of largest |total| /
    max(1, top), None if all are 0; the largest log2(error / least scale)."""
    sign, man, exp, _ = threshold._mpf_
    man = -man if sign else man
    # x < threshold * y exactly when (x << left) < (man * y) << right
    left, right = (-exp, 0) if exp < 0 else (0, exp)
    passed, failed = True, False
    worst, num, den = None, 0, 1
    max_bound = float("-inf")
    for s in sums:
        _, _, _, e, total, error, top = s
        one, size = 1 << -e, abs(total)
        lo, hi = max(one, top - error), max(one, top + error)
        passed = passed and (size + error) << left < (man * lo) << right
        failed = failed or (size - error) << left >= (man * hi) << right
        scale = max(one, top)
        if size * den > num * scale:
            worst, num, den = s, size, scale
        if error:
            max_bound = max(max_bound, math.log2(error) - math.log2(lo))
    return "pass" if passed else "fail" if failed else "", worst, max_bound


def certify_ba(c: Configuration, threshold=None) -> BACertificate:
    """Evaluate both polar families over all (j, k <= mult_j).

    The verdict is pass iff every relative residual (|sum| over the largest
    summand magnitude) is proved below the threshold, by default
    2^-(precision - 32), and fail iff one is proved at or above it; see the
    module docstring for the rule and the doubling of F in between."""
    mults = integer_mults(c)
    phis = [ln.phi for ln in c.lines]
    with working(c.precision):
        thr = mp.mpf(threshold) if threshold is not None else default_threshold(c.precision)
        frac = c.precision + GUARD_BITS
        for _ in range(_MAX_DOUBLINGS + 1):
            sums = _sums(mults, phis, mults, frac)
            verdict, worst, max_bound = _decide(sums, thr)
            if verdict:
                break
            frac *= 2
        else:
            raise IllConditioned(
                f"a residual stays within its rounding bound of the threshold "
                f"at {frac // 2} fraction bits")
        max_residual = worst.relative() if worst is not None else mp.mpf(0)
    return BACertificate(digest=c.digest(), precision=c.precision,
                         threshold=thr, max_residual=max_residual, verdict=verdict,
                         residuals=tuple(sums), fraction_bits=frac,
                         max_bound_log2=max_bound)


# --- exact ODE residuals ------------------------------------------------------


def ode_residual_am1n(c: Configuration) -> DensePoly:
    """(w + 1) times the am1n residual w(w-1) P'' - ((n-1)(w-1) - m(w+1)) P'
    - mn P, exactly (z_0 = 1): the two-multiplicity residual at mt = 0, zero
    exactly when the am1n residual is."""
    if c.kind != "am1n" or c.P is None:
        raise MissingExactData(f"expected an am1n record with e, got {c.kind}")
    return _two_mult_ode_residual(c.m, 0, c.n, c.P)


def ode_residual_two_mult(c: Configuration) -> DensePoly:
    """w(w^2-1) P'' - ((n-1)(w^2-1) - m(w+1)^2 - mt(w-1)^2) P'
    - (n(m+mt) w + n(m-mt)) P, exactly (z_0 = 1)."""
    if c.kind != "twomult" or c.P is None:
        raise MissingExactData(f"expected a twomult record with e, got {c.kind}")
    return _two_mult_ode_residual(c.m, c.mtilde or 0, c.n, c.P)
