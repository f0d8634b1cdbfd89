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
kernel's.  A certificate aggregates relative residuals over all (j, k) of
both families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import mpmath as mp

from .config import Configuration, Line, _two_mult_ode_residual
from .errors import CollisionError, MissingExactData
from .numeric import log2_abs, working
from .poly import DensePoly


@dataclass(frozen=True)
class ConditionResidual:
    j: int
    k: int
    value: object  # mpf, the real cot sum
    scale: object  # mpf, largest summand magnitude (floored at 1)
    form: str  # polar-first | polar-locus

    def relative(self):
        return abs(self.value) / self.scale


@dataclass(frozen=True)
class BACertificate:
    digest: str
    precision: int
    threshold: object  # mpf
    max_residual: object  # mpf, max relative residual
    verdict: str  # pass | fail
    residuals: Sequence[ConditionResidual]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "digest": self.digest,
            "precision_bits": self.precision,
            "max_residual_log2": log2_abs(self.max_residual),
            "threshold_log2": log2_abs(self.threshold),
            "verdict": self.verdict,
            "per_condition": [
                {
                    "j": r.j,
                    "k": r.k,
                    "form": r.form,
                    "residual_log2": log2_abs(r.relative()),
                }
                for r in self.residuals
            ],
        }


def _cot(phis: Sequence, i: int, j: int):
    """cot(phi_i - phi_j); CollisionError when the two lines coincide."""
    cos, sin = mp.cos_sin(phis[i] - phis[j])
    if sin == 0:
        raise CollisionError(f"lines {i} and {j} are collinear")
    return cos / sin


def _cot_table(phis: Sequence) -> List[list]:
    """rows[j][i] = cot(phi_i - phi_j) for a sequence of angles, one cot per
    unordered pair since the table is antisymmetric."""
    n = len(phis)
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            rows[j][i] = _cot(phis, i, j)
            rows[i][j] = -rows[j][i]
    return rows


def _residuals(lines: Sequence[Line], j: int, row: Sequence, kmax: int
               ) -> List[Tuple[ConditionResidual, ConditionResidual]]:
    """(first, locus) residuals at line j for k = 1..kmax, in one pass over
    the other lines; row[i] = cot(phi_i - phi_j).  The odd powers of c_i
    come from repeated multiplication by c_i^2."""
    first = [mp.mpf(0)] * kmax
    locus = [mp.mpf(0)] * kmax
    first_scale = [mp.mpf(1)] * kmax
    locus_scale = [mp.mpf(1)] * kmax
    for i, ln in enumerate(lines):
        if i == j:
            continue
        c = row[i]
        c2 = c * c
        weight = (ln.mult + 1) * (1 + c2) / 4
        term = ln.mult * c
        for k in range(kmax):
            locus_term = term * weight
            first[k] += term
            locus[k] += locus_term
            first_scale[k] = max(first_scale[k], abs(term))
            locus_scale[k] = max(locus_scale[k], abs(locus_term))
            term *= c2
    return [(ConditionResidual(j=j, k=k + 1, value=first[k],
                               scale=first_scale[k], form="polar-first"),
             ConditionResidual(j=j, k=k + 1, value=locus[k],
                               scale=locus_scale[k], form="polar-locus"))
            for k in range(kmax)]


def first_condition_residual_lines(lines: Sequence[Line], j: int, k: int) -> ConditionResidual:
    """The first-family residual at line j and order k."""
    return _residuals(lines, j, _cot_table([ln.phi for ln in lines])[j], k)[k - 1][0]


def default_threshold(precision: int):
    return mp.mpf(2) ** (-(precision - 32))


def certify_ba(c: Configuration, threshold=None) -> BACertificate:
    """Evaluate both polar families over all (j, k <= mult_j).

    The verdict is pass iff every relative residual (|sum| over the largest
    summand magnitude) stays below the threshold, by default
    2^-(precision - 32)."""
    for ln in c.lines:
        if int(ln.mult) != ln.mult:
            raise ValueError("certification needs integer multiplicities")
    with working(c.precision):
        thr = mp.mpf(threshold) if threshold is not None else default_threshold(c.precision)
        rows = _cot_table([ln.phi for ln in c.lines])
        residuals = [res for j, ln in enumerate(c.lines)
                     for pair in _residuals(c.lines, j, rows[j], int(ln.mult))
                     for res in pair]
        worst = max(r.relative() for r in residuals)
        verdict = "pass" if worst < thr else "fail"
    return BACertificate(digest=c.digest(), precision=c.precision,
                         threshold=thr, max_residual=worst, verdict=verdict,
                         residuals=tuple(residuals))


# --- exact ODE residuals ------------------------------------------------------


def ode_residual_am1n(c: Configuration) -> DensePoly:
    """w(w-1) P'' - ((n-1)(w-1) - m(w+1)) P' - mn P, exactly (z_0 = 1)."""
    if c.P is None or c.m is None or c.n is None:
        raise MissingExactData("configuration lacks exact P")
    if c.kind != "am1n":
        raise MissingExactData(f"expected an am1n configuration, got {c.kind}")
    m, n = c.m, c.n
    P = c.P
    P1 = P.derivative()
    P2 = P1.derivative()
    w = DensePoly.rational([0, 1])
    one = DensePoly.rational([1])
    term2 = (w - one).scale(Fraction(n - 1)) - (w + one).scale(Fraction(m))
    return (w * (w - one)) * P2 - term2 * P1 - P.scale(Fraction(m * n))


def ode_residual_two_mult(c: Configuration) -> DensePoly:
    """w(w^2-1) P'' - ((n-1)(w^2-1) - m(w+1)^2 - mt(w-1)^2) P'
    - (n(m+mt) w + n(m-mt)) P, exactly (z_0 = 1)."""
    if c.P is None or c.m is None or c.n is None:
        raise MissingExactData("configuration lacks exact P")
    if c.kind != "twomult":
        raise MissingExactData(f"expected a twomult configuration, got {c.kind}")
    return _two_mult_ode_residual(c.m, c.mtilde or 0, c.n, c.P)
