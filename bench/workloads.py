"""Request mixes for the four benchmark workloads.

Each workload is one *cycle*: a list of CLI requests that the closed loop in
``run.py`` replays whole.  The shapes that set a request's cost (family,
m, mt, n, q, multiplicities) are the same for every seed; the seed picks
the content that does not move the cost much (random slopes, which line of
a failing certificate is moved and by how much) and the order.  Seeded
shapes, tried first, moved the cycle's p50 and p90 by 7-13% between seeds,
which is as much as the benchmark's bounds allow.

Input files (``--input``) are written here, during set-up, with the library
itself: ``perturb_line`` for failing certificates, ``random_type_m1n`` with
the exact charts removed for the numeric Hilbert route, and small
``build_am1n``/``build_two_mult`` bases for ``construct tq``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

WORKLOADS = ("certify", "hilbert", "construct", "darboux")
PRECISION = 256


@dataclass(frozen=True)
class Request:
    kind: str                 # "<workload>.<shape>", e.g. "certify.perturbed"
    argv: Tuple[str, ...]     # CLI arguments, without --precision and -o
    expect: Dict = field(default_factory=dict)  # what the output checks need


def _args(*parts) -> Tuple[str, ...]:
    return tuple(str(p) for p in parts)


def _build(family: str, m: int, mt: int, n: int):
    from balines import build_am1n, build_two_mult

    return (build_am1n(m, n, PRECISION) if family == "am1n"
            else build_two_mult(m, mt, n, PRECISION))


def generate(workload: str, seed: int, inputs: Path) -> List[Request]:
    """The request cycle of one workload; writes its input files to inputs."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    reqs = _GENERATORS[workload](rng, inputs)
    rng.shuffle(reqs)
    return reqs


# --- certify ------------------------------------------------------------------

# Bases of the failing certificates, one grid point per size class.
PERTURBED_BASES = (("am1n", 2, 0, 3), ("am1n", 4, 0, 6), ("am1n", 6, 0, 10),
                   ("twomult", 1, 1, 2), ("twomult", 3, 0, 4),
                   ("twomult", 4, 2, 6))


def _certify(rng: random.Random, inputs: Path) -> List[Request]:
    from balines import perturb_line

    # The criterion-3 grid (am1n m 1..6 x n 1..10; twomult m 1..4 x mt 0..4
    # x n 2,4,6), half of it on a checkerboard, with q running through 1..4
    # along every row and column of the grid.
    grid = [("am1n", m, 0, n) for m in range(1, 7) for n in range(1, 11)]
    grid += [("twomult", m, mt, n) for m in range(1, 5) for mt in range(5)
             for n in (2, 4, 6)]
    reqs = []
    for family, m, mt, n in grid:
        coord = m + n if family == "am1n" else m + mt + n // 2
        if coord % 2:
            continue
        q = 1 + (coord // 2) % 4
        reqs.append(Request(
            "certify.grid",
            _args("certify", "--family", family, "--m", m, "--mt", mt,
                  "--n", n, "--q", q),
            {"verdict": "pass", "conditions": 2 * q * (m + mt + n)}))
    # A fixed share of failing certificates: a seeded line of each base moved
    # by a seeded 0.01-0.02 rad.
    for k, (family, m, mt, n) in enumerate(PERTURBED_BASES):
        base = _build(family, m, mt, n)
        index = rng.randrange(len(base.lines))
        delta = rng.choice((-1, 1)) * (0.01 + 0.01 * rng.random())
        path = inputs / f"perturbed-{k}.json"
        perturb_line(base, index, delta).save(str(path))
        reqs.append(Request(
            "certify.perturbed", _args("certify", "--input", path),
            {"verdict": "fail", "conditions": 2 * (m + mt + n)}))
    return reqs


# --- hilbert ------------------------------------------------------------------

# Exact Hilbert series of two larger random arrangements (about 1 s each).
# Their slope seeds are fixed, because the cost of a large case moves by up
# to half between slope draws.  (4, 20) takes 6-9 s: a cycle that held it
# could not repeat often enough within a run (see run.py).
LARGE_EXACT = ((3, 12, 1), (4, 12, 1))
# The same sizes on the numeric route.  At 256 bits IllConditioned refuses
# (4, 20) with these slopes (exit 3) and answers (3, 14): see checks.py.
LARGE_NUMERIC = ((3, 14, 1), (4, 20, 1))


def _save_numeric_chart(cfg, path: Path) -> None:
    """Save cfg with e, ehat and every finite slope removed, so that the
    Hilbert series can only come from the numeric rank."""
    data = cfg.to_json_dict()
    data["e"] = data["ehat"] = None
    for line in data["lines"]:
        if line["alpha"] != "inf":
            line["alpha"] = None
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def _hilbert(rng: random.Random, inputs: Path) -> List[Request]:
    from balines import random_type_m1n

    def seed():
        return rng.randrange(1, 10 ** 6)

    reqs = []
    population = [(m, n) for m in range(1, 4) for n in range(2, 6)]
    for m, n in population:
        for _ in range(4):
            reqs.append(Request(
                "hilbert.random",
                _args("hilbert", "--random", "--m", m, "--n", n,
                      "--seed", seed()),
                {"m": m, "n": n, "family": "random"}))
    for m in range(1, 5):
        for n in range(1, 7):
            reqs.append(Request(
                "hilbert.closed_form",
                _args("hilbert", "--m", m, "--n", n, "--check-closed-form"),
                {"m": m, "n": n, "family": "am1n"}))
    for m, n, s in LARGE_EXACT:
        reqs.append(Request(
            "hilbert.large",
            _args("hilbert", "--random", "--m", m, "--n", n, "--seed", s),
            {"m": m, "n": n, "family": "random"}))
    numeric = [(m, n, seed()) for m, n in population] + list(LARGE_NUMERIC)
    for k, (m, n, s) in enumerate(numeric):
        path = inputs / f"numeric-{k}.json"
        _save_numeric_chart(random_type_m1n(m, n, s, PRECISION), path)
        reqs.append(Request(
            "hilbert.numeric", _args("hilbert", "--input", path),
            {"m": m, "n": n, "family": "random", "may_refuse": True}))
    return reqs


# --- construct ----------------------------------------------------------------

# am1n up to n = 25 (1-1.5 s); n = 40 takes 3-5 s, too long for a cycle
# that repeats within a run.
AM1N = ((2, 25), (6, 16), (1, 10), (3, 12), (5, 14))
TWOMULT = ((1, 0, 2), (2, 1, 4), (3, 2, 6), (4, 3, 8), (1, 1, 10), (2, 2, 12),
           (3, 0, 14), (4, 2, 16))
TQ_BASES = (("am1n", 2, 0, 3), ("am1n", 4, 0, 5), ("am1n", 6, 0, 6),
            ("twomult", 2, 1, 4), ("twomult", 3, 0, 6), ("twomult", 4, 3, 2))
# Loci: m,1^n ones on the damped-Newton path, one (3,1^6) that ends in
# locus._golden_sweep (0.9-1.6 s, against 0.01-0.3 s), and mixed
# multiplicities, of which 1,2,3,4 also ends in the sweep.  Other sweep
# cases cost 3-15 s (2,1^8 .. 2,1^16), too long for a cycle.
LOCI = ("1" + ",1" * 12, "2" + ",1" * 6, "3" + ",1" * 10, "4" + ",1" * 16,
        "3" + ",1" * 6, "2,3,1,1", "1,2,3,4")


def _construct(rng: random.Random, inputs: Path) -> List[Request]:
    reqs = [Request("construct.am1n",
                    _args("construct", "am1n", "--m", m, "--n", n),
                    {"m": m, "n": n})
            for m, n in AM1N]
    reqs += [Request("construct.twomult",
                     _args("construct", "twomult", "--m", m, "--mt", mt, "--n", n),
                     {"m": m, "mt": mt, "n": n})
             for m, mt, n in TWOMULT]
    bases = []
    for k, shape in enumerate(TQ_BASES):
        path = inputs / f"base-{k}.json"
        _build(*shape).save(str(path))
        bases.append(path)
    for k in range(36):
        path, q = bases[k % 6], 2 + (k // 6) % 3
        reqs.append(Request("construct.tq",
                            _args("construct", "tq", "--input", path, "--q", q),
                            {"base": str(path), "q": q}))
    reqs += [Request("construct.locus",
                     _args("construct", "locus", "--mults", mults),
                     {"mults": [int(v) for v in mults.split(",")]})
             for mults in LOCI]
    return reqs


# --- darboux ------------------------------------------------------------------


def _darboux(rng: random.Random, inputs: Path) -> List[Request]:
    def ns(mt):
        return list(range(1, 11)) if mt == 0 else list(range(2, 11, 2))

    items = []
    # m <= 4: every (m, mt) pair, half of its n values on a checkerboard.
    for m in range(1, 5):
        for mt in range(m + 1):
            items += [(m, mt, n) for i, n in enumerate(ns(mt))
                      if (m + mt + i) % 2 == 0]
    # m = 5 and 6 cost 0.3-1.8 s a request: three and one cases.
    items += [(5, mt, ns(mt)[(3 * mt) % len(ns(mt))]) for mt in (0, 2, 4)]
    items.append((6, 3, 10))
    return [Request("darboux.scan",
                    _args("scan", "darboux", "--m", m, "--mt", mt, "--n", n),
                    {"m": m, "mt": mt, "n": n})
            for m, mt, n in items]


_GENERATORS = {"certify": _certify, "hilbert": _hilbert,
               "construct": _construct, "darboux": _darboux}
