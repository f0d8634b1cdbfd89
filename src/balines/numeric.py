"""Arbitrary-precision floating-point helpers on top of mpmath.

Conventions used throughout the package:

- every public operation takes a ``precision`` in bits (>= 64) and runs its
  mpmath arithmetic under ``working(precision)``, which adds guard bits;
- mpf values serialize as hex-float strings built from the exact internal
  (sign, mantissa, exponent) triple, so round-trips are bit-exact.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from operator import sub

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_pi, round_nearest

GUARD_BITS = 64
MIN_PRECISION = 64


def check_precision(precision: int) -> int:
    """precision itself; ValueError unless it is an int (not a bool) of at
    least MIN_PRECISION bits."""
    if (isinstance(precision, bool) or not isinstance(precision, int)
            or precision < MIN_PRECISION):
        raise ValueError(f"precision must be an integer >= {MIN_PRECISION} bits, "
                         f"got {precision!r}")
    return precision


@contextmanager
def working(precision: int, guard: int = GUARD_BITS):
    check_precision(precision)
    with mp.workprec(precision + guard):
        yield


def to_mp(x):
    """Convert exact rationals to mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpmathify(x)


def mpf_to_hex(x) -> str:
    """Exact hex serialization of an mpf: [-]0xMANTISSApEXP."""
    if not isinstance(x, mp.mpf):
        # conversion must not round: use enough bits for exact ints/floats
        with mp.workprec(max(getattr(x, "bit_length", lambda: 64)(), 64) + 8):
            x = mp.mpf(x)
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if exp == 0:
            return "0x0p0"
        raise ValueError(f"cannot serialize non-finite value {x}")
    return f"{'-' if sign else ''}0x{man:x}p{exp}"


def hex_to_mpf(s: str):
    """Inverse of mpf_to_hex; exact regardless of ambient precision."""
    if not isinstance(s, str):
        raise ValueError(f"bad hex float {s!r}")
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    if not s.startswith("0x"):
        raise ValueError(f"bad hex float {s!r}")
    man_s, exp_s = s[2:].split("p")
    man = int(man_s, 16)
    return mp.mp.make_mpf(from_man_exp(-man if neg else man, int(exp_s)))


def order_keys(xs):
    """Ints ordered and tied as the mpfs xs are, none much wider than the
    widest mantissa whatever the exponents: |x| as the position of its top
    bit above the lowest one's, then its mantissa widened to the widest."""
    parts = [x._mpf_ for x in xs]  # (sign, man, exp, bc)
    width = max([x[3] for x in parts], default=0)
    low = min([x[2] + x[3] for x in parts if x[1]], default=0) - 1
    return [(-1 if sign else 1) * (((exp + bc - low) << width) + (man << (width - bc)))
            if man else 0 for sign, man, exp, bc in parts]


def angle_gap(phis, precision: int):
    """(gap, at, e): the least gap between the angles mod the working-precision
    pi, the one across the pi wrap included, and the angle it starts at, as
    exact ints over 2^-e, e the least exponent but at least twice pi's (lower
    bits floored); ValueError on an angle of 2^(precision/2) or more, which
    that pi cannot place."""
    if any(sum(phi._mpf_[2:]) > precision // 2 for phi in phis):  # exponent plus bit count
        raise ValueError(f"an angle of 2^{precision // 2} or more is too large to reduce "
                         f"mod pi at {precision} bits")
    pi = mpf_pi(precision + GUARD_BITS, round_nearest)
    parts = [(-man if sign else man, exp) for sign, man, exp, _ in [pi, *(x._mpf_ for x in phis)]]
    e = max(min(exp for _, exp in parts), 2 * pi[2])
    ints = [man << (exp - e) if exp >= e else man >> (e - exp) for man, exp in parts]
    s = sorted(x % ints[0] for x in ints[1:])
    return (*min(zip(map(sub, s[1:] + [s[0] + ints[0]], s), s)), e)


def reduce_angle_mod_pi(phi):
    """Map an angle to the representative in [0, pi)."""
    pi = mp.pi
    k = mp.floor(phi / pi)
    out = phi - k * pi
    if out >= pi:
        out -= pi
    if out < 0:
        out += pi
    return out


def log2_abs(x) -> float:
    """float(log2|x|) of x rounded to 53 bits, whatever the working
    precision, with -inf for 0; safe for tiny/huge mpf values, which it reads
    as mantissa times a power of two."""
    with mp.workprec(53):
        ax = abs(mp.mpf(x))
    _, man, exp, _ = ax._mpf_
    if man:
        return math.log2(man) + exp
    return float(mp.log(ax, 2)) if ax else float("-inf")
