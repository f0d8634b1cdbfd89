"""Output checks for the benchmark's requests.

Every expectation here comes from the mathematics, not from an earlier run
of the code: certificate verdicts and thresholds, the closed-form Hilbert
numerator of the one-heavy-line family, the tail law and critical
coefficient of generic arrangements, the characterizing ODEs, the q-th-root
structure of ``t_q_expand``, the critical-point equations of the locus, and
the exact Darboux identities.

``check`` returns ``(ok, reason, record)``; ``record`` holds the exact fields
of the output (verdicts, coefficients, numerators, e/ehat, never an angle),
from which ``run.py`` forms the run's ``output_digest``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

import mpmath as mp

from workloads import PRECISION

THRESHOLD_LOG2 = -(PRECISION - 32)
LOCUS_TOL_LOG2 = -216          # angle agreement with build_am1n (criterion 7)
CRITICAL_POINT_TOL_LOG2 = -200  # relative residual of the locus equations


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as ex:
        raise CheckFailed(f"unreadable output: {ex}") from None


class Checker:
    """Checks outputs; caches the reference arrangements it builds."""

    def __init__(self):
        self._am1n_refs = {}

    def check(self, req, rc: Optional[int], stderr: str,
              out: Path) -> Tuple[bool, str, object]:
        try:
            workload = req.kind.split(".")[0]
            record = getattr(self, f"_{workload}")(req, rc, stderr, out)
            return True, "", record
        except CheckFailed as ex:
            return False, str(ex), None

    # --- certify ------------------------------------------------------------

    def _certify(self, req, rc, stderr, out):
        want = req.expect["verdict"]
        _require(rc == (0 if want == "pass" else 1),
                 f"exit {rc} for an expected {want}: {stderr.strip()}")
        cert = _load(out)
        _require(cert["verdict"] == want, f"verdict {cert['verdict']}")
        _require(cert["precision_bits"] == PRECISION, "precision")
        _require(abs(cert["threshold_log2"] - THRESHOLD_LOG2) < 1e-9, "threshold")
        _require(len(cert["per_condition"]) == req.expect["conditions"],
                 "condition count")
        below = cert["max_residual_log2"] < cert["threshold_log2"]
        _require(below == (want == "pass"), "residual on the wrong side")
        return {"verdict": cert["verdict"]}

    # --- hilbert ------------------------------------------------------------

    def _hilbert(self, req, rc, stderr, out):
        m, n = req.expect["m"], req.expect["n"]
        if rc == 3 and req.expect.get("may_refuse"):
            # IllConditioned: the numeric rank declined to decide.  That is
            # an allowed answer (counted as refused), a guess is not.
            _require(stderr.startswith("error: rank margin"),
                     f"exit 3 without a rank-margin refusal: {stderr.strip()}")
            return "refused"
        _require(rc == 0, f"exit {rc}: {stderr.strip()}")
        h = _load(out)
        _require((h["m"], h["n"]) == (m, n), "wrong (m, n)")
        b, numer = h["coefficients"], h["numerator"]
        D = 2 * m + 2 * n + 4
        _require(len(b) == D + 1, "coefficient count")
        for i in range(2 * m + 2 * n - 1, D + 1):
            _require(b[i] == i + 1 - m - n, f"tail law fails at b_{i}")
        _require(_expand(numer, D) == b, "numerator does not expand to b")
        palindrome = numer == numer[::-1]
        _require(h["gorenstein"] == palindrome, "gorenstein flag")
        if req.expect["family"] == "am1n":
            _require(numer == am1n_numerator(m, n), "closed-form numerator")
            _require(h["M"] == 2 - 2 * m - 2 * n, "Gorenstein shift M")
        else:
            _require(not palindrome, "generic arrangement is Gorenstein")
            _require(b[2 * (m + n - 1)] == m + n - 1, "critical coefficient")
        return {"coefficients": b, "numerator": numer,
                "gorenstein": h["gorenstein"]}

    # --- construct ----------------------------------------------------------

    def _construct(self, req, rc, stderr, out):
        from balines import (Configuration, ode_residual_am1n,
                             ode_residual_two_mult)

        _require(rc == 0, f"exit {rc}: {stderr.strip()}")
        data = _load(out)
        cfg = Configuration.from_json_dict(data)
        mults = sorted(ln["mult"] for ln in data["lines"])
        shape, x = req.kind.split(".")[1], req.expect
        if shape == "am1n":
            _require(mults == sorted([x["m"]] + [1] * x["n"]), "multiplicities")
            _require(ode_residual_am1n(cfg).is_zero, "am1n ODE residual")
        elif shape == "twomult":
            heavy = [x["m"]] + ([x["mt"]] if x["mt"] else [])
            _require(mults == sorted(heavy + [1] * x["n"]), "multiplicities")
            _require(ode_residual_two_mult(cfg).is_zero, "two-mult ODE residual")
        elif shape == "tq":
            base = _load(Path(x["base"]))
            q = x["q"]
            _require(mults == sorted(ln["mult"] for ln in base["lines"] * q),
                     "multiplicities")
            _require(data["n"] == q * base["n"], "n")
            _require([Fraction(v) for v in data["e"]] == _q_root_e(base["e"], q),
                     "e of P(w^q)")
        else:
            _require(mults == sorted(x["mults"]), "multiplicities")
            self._check_locus(cfg, x["mults"])
        return {"mults": mults, "e": data["e"], "ehat": data["ehat"]}

    def _check_locus(self, cfg, mults: List[int]) -> None:
        from balines import angle_multiset_distance, build_am1n

        with mp.workprec(PRECISION):
            worst = mp.mpf(0)
            for lj in cfg.lines:
                terms = [li.mult * mp.cot(lj.phi - li.phi)
                         for li in cfg.lines if li is not lj]
                scale = max([mp.mpf(1)] + [abs(t) for t in terms])
                worst = max(worst, abs(mp.fsum(terms)) / scale)
            _require(worst < mp.mpf(2) ** CRITICAL_POINT_TOL_LOG2,
                     "locus is not a critical point")
            if set(mults[1:]) == {1}:
                m, n = mults[0], len(mults) - 1
                if (m, n) not in self._am1n_refs:
                    self._am1n_refs[m, n] = build_am1n(m, n, PRECISION)
                dist = angle_multiset_distance(cfg, self._am1n_refs[m, n])
                _require(dist < mp.mpf(2) ** LOCUS_TOL_LOG2,
                         "locus differs from build_am1n")

    # --- darboux ------------------------------------------------------------

    def _darboux(self, req, rc, stderr, out):
        _require(rc == 0, f"exit {rc}: {stderr.strip()}")
        scan = _load(out)
        _require(scan["all_pass"] is True and len(scan["items"]) == 1,
                 "scan verdict")
        item = scan["items"][0]
        x = req.expect
        _require((item["m"], item["mt"], item["n"]) == (x["m"], x["mt"], x["n"]),
                 "wrong (m, mt, n)")
        _require(item["levels"] == darboux_levels(x["m"], x["mt"], x["n"]),
                 "level ladder")
        names = ("factorization", "potential", "eigen", "q_scaling_2",
                 "q_scaling_3")
        verdicts = {k: item.get(k) for k in names}
        _require(all(v == "exact-pass" for v in verdicts.values()),
                 f"identities {verdicts}")
        return verdicts


# --- closed forms, written out independently of the library --------------------


def am1n_numerator(m: int, n: int) -> List[int]:
    """1 - t^2 + t^(n+1) + t^(n+2) + t^(2m+n) + t^(2m+n+1) - t^(2m+2n)
    + t^(2m+2n+2)."""
    out = [0] * (2 * m + 2 * n + 3)
    for expo, coef in ((0, 1), (2, -1), (n + 1, 1), (n + 2, 1),
                       (2 * m + n, 1), (2 * m + n + 1, 1),
                       (2 * m + 2 * n, -1), (2 * m + 2 * n + 2, 1)):
        out[expo] += coef
    return out


def _expand(numer: List[int], D: int) -> List[int]:
    """Series coefficients of N(t) / (1 - t^2)^2 through degree D."""
    return [sum((k + 1) * numer[d - 2 * k] for k in range(d // 2 + 1)
                if d - 2 * k < len(numer)) for d in range(D + 1)]


def _q_root_e(base_e: List[str], q: int) -> List[Fraction]:
    """Elementary symmetric values of all q-th roots of the base z_i:
    prod_i (w^q - z_i) = sum_j (-1)^j e_j w^(q(n-j)), so E_qj =
    (-1)^(j(q-1)) e_j and every other E_k vanishes."""
    out = [Fraction(0)] * (q * len(base_e))
    for j, ej in enumerate(base_e, start=1):
        out[q * j - 1] = (-1) ** (j * (q - 1)) * Fraction(ej)
    return out


def darboux_levels(m: int, mt: int, n: int) -> List[int]:
    """The frequency ladder k_1 < ... < k_m of the Darboux chain."""
    if mt == 0:
        return list(range(1, m)) + [m + n]
    return (list(range(1, m - mt + 1))
            + [m - mt + 2 * j for j in range(1, mt)] + [mt + m + n])


def digest_records(records: List[object]) -> str:
    """SHA-256 over the records as a multiset: the cycle's order is seeded,
    its outputs are not."""
    blobs = sorted(json.dumps(r, sort_keys=True, separators=(",", ":"))
                   for r in records)
    return hashlib.sha256("\n".join(blobs).encode()).hexdigest()
