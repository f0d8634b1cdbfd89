"""Closed-loop benchmark of the balines command line.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

One client, one request in flight: each request is a call of
``balines.cli.main(argv)`` in this process, issued when the previous one
returns (``--jobs`` stays 1, precision is 256 bits).  A workload is a cycle
of requests made from the seed during set-up (see workloads.py); the loop
replays whole cycles, at least three, until the next one would end more
than half a cycle past ``--seconds``.  Latencies are scaled by a reference
task timed around each request, then taken as per-request medians over the
cycles (see MIN_CYCLES).  Every output is checked afterwards, outside the
timed interval (see checks.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the same cycles run with every layer wrapped (see
tracer.py), then again untraced, and the last line reports the per-layer
metrics and ``trace.overhead_ratio``.  Lines before it record the set-up
(versions, backend, cores, request counts), the failed and refused ratios
and the ``output_digest`` of the first cycle.  The exit code is 0 when the
run completed; ``correct`` in the result says whether every output checked.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
# The machine this was written on changes speed by up to half, in spells
# from a fraction of a second to minutes.  Each request is therefore timed
# together with a fixed reference task run right before and right after it,
# and its latency is scaled to a machine on which that task takes
# REFERENCE_S (see reference_seconds); each request's latency is then the
# median over at least MIN_CYCLES replays of the cycle.
MIN_CYCLES = 3
REFERENCE_S = 0.0035

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from workloads import PRECISION  # noqa: E402


# Run in a fresh interpreter: the reference task, then the timed import.
IMPORT_TIMER = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:]
import mpmath
from run import reference_seconds
reference = statistics.median(reference_seconds() for _ in range(3))
t0 = time.perf_counter()
import balines.cli
print(time.perf_counter() - t0, reference)
"""


def import_balines() -> None:
    """Import the package from this checkout's src/, and no other copy."""
    if not (SRC / "balines" / "__init__.py").is_file():
        raise SystemExit(f"bench: no balines sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import balines.cli
    if Path(balines.__file__).resolve().parent != SRC / "balines":
        raise SystemExit(f"bench: balines imported from {balines.__file__}, "
                         f"not from {SRC}")


def import_seconds() -> Tuple[float, float]:
    """Seconds a fresh interpreter with mpmath loaded takes to import
    balines.cli, raw and scaled by the reference task timed there."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC), str(BENCH)],
        capture_output=True, text=True, check=True, timeout=120)
    seconds, reference = map(float, proc.stdout.split())
    return seconds, seconds * REFERENCE_S / reference


def generate_seconds(workload: str, seed: int, inputs: Path):
    """Generate the request cycle and its input files; returns the requests
    and the seconds it took, raw and scaled by the reference task timed
    before and after."""
    before = reference_seconds()
    t0 = time.perf_counter()
    requests = workloads.generate(workload, seed, inputs)
    seconds = time.perf_counter() - t0
    after = reference_seconds()
    return requests, seconds, seconds * 2 * REFERENCE_S / (before + after)


def set_up(workload: str, seed: int, workdir: Path):
    """Import, then time SETUP_REPEATS imports in fresh interpreters and as
    many generations of the cycle.  Returns the requests and setup_s (median
    import plus median generation), raw and scaled."""
    import_balines()
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    gens = [generate_seconds(workload, seed, workdir / f"inputs-{r}")
            for r in range(SETUP_REPEATS)]
    raw = (statistics.median(t for t, _ in imports)
           + statistics.median(seconds for _, seconds, _ in gens))
    scaled = (statistics.median(s for _, s in imports)
              + statistics.median(s for _, _, s in gens))
    return gens[-1][0], raw, scaled


# --- the closed loop ------------------------------------------------------------


def reference_seconds() -> float:
    """Time a fixed piece of the arithmetic balines spends its time in:
    exact rationals, 256-bit mpmath floats and small dicts (about 4 ms)."""
    import mpmath as mp

    t0 = time.perf_counter()
    x = Fraction(1)
    for k in range(1, 120):
        x = x * Fraction(k + 1, k + 2) + Fraction(1, k * k + 1)
    with mp.workprec(256):
        y = mp.mpf(1)
        for k in range(1, 200):
            y = (y * k + 1) / (k + 1)
    d: dict = {}
    for k in range(1000):
        d[k % 97] = d.get(k % 97, 0) + k
    return time.perf_counter() - t0


class Outcome(NamedTuple):
    index: int            # position in the cycle
    cycle: int
    rc: Optional[int]     # exit code; None for an uncaught exception
    latency: float        # seconds
    speed: float          # REFERENCE_S over the reference time around it
    stderr: str
    out: Path             # the request's -o file


def execute(requests, outdir: Path, seconds: Optional[float] = None,
            cycles: Optional[int] = None, tracer=None):
    """Replay whole cycles; stop after `cycles` of them, or after at least
    MIN_CYCLES once the elapsed time is within half a mean cycle of
    `seconds`.  Returns the outcomes and the number of cycles."""
    cli = sys.modules["balines.cli"]
    outdir.mkdir(parents=True, exist_ok=True)
    runs: list = []
    references = [reference_seconds()]
    done = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for i, req in enumerate(requests):
            out = outdir / f"{done}-{i}.json"
            argv = list(req.argv) + ["--precision", str(PRECISION), "-o", str(out)]
            if tracer is not None:
                tracer.request = f"{done}-{i}"
            err = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as ex:  # argparse usage errors
                rc = ex.code if isinstance(ex.code, int) else 2
            except Exception as ex:  # an uncaught error is a failed request
                rc = None
                err.write(f"uncaught {type(ex).__name__}: {ex}")
            latency = clock() - t0
            references.append(reference_seconds())
            runs.append((i, done, rc, latency, err.getvalue(), out))
        done += 1
        elapsed = clock() - start
        if cycles is not None:
            if done >= cycles:
                break
        elif done >= MIN_CYCLES and elapsed >= seconds - elapsed / done / 2:
            break
    outcomes = [Outcome(i, c, rc, latency, 2 * REFERENCE_S / (before + after),
                        stderr, out)
                for (i, c, rc, latency, stderr, out), before, after
                in zip(runs, references, references[1:])]
    return outcomes, done


def tail_percentile(n: int) -> float:
    """90, or with fewer than 100 samples the highest percentile that still
    has ten samples beyond it."""
    if n >= 100:
        return 90.0
    return 100.0 * max(n - 11, 0) / max(n - 1, 1)


def percentile(values: List[float], pct: float) -> float:
    """Linear interpolation between the two closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def check_all(requests, outcomes: List[Outcome]):
    """Check every outcome; returns (failed, refused, digest of cycle 0,
    first failure reasons).  Later cycles must repeat cycle 0 exactly."""
    import checks

    checker = checks.Checker()
    failed = refused = 0
    first: dict = {}
    reasons: List[str] = []
    for o in outcomes:
        req = requests[o.index]
        ok, reason, record = checker.check(req, o.rc, o.stderr, o.out)
        if ok and o.cycle == 0:
            first[o.index] = record
        elif ok and record != first.get(o.index):
            ok, reason = False, "output differs from the first cycle"
        if not ok:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{req.kind} {' '.join(req.argv)}: {reason}")
        elif record == "refused":
            refused += 1
    digest = checks.digest_records(
        [[requests[i].kind, first.get(i)] for i in range(len(requests))])
    return failed, refused, digest, reasons


def request_latencies(outcomes: List[Outcome], scaled: bool = True) -> List[float]:
    """Each request's median latency over the cycles that ran it, scaled by
    the speed around each run of it unless `scaled` is false."""
    per_request: dict = {}
    for o in outcomes:
        per_request.setdefault(o.index, []).append(
            o.latency * o.speed if scaled else o.latency)
    return [statistics.median(v) for _, v in sorted(per_request.items())]


def timings(lat: List[float], setup_s: float, pct: float) -> dict:
    """req_per_s is the cycle length over the sum of the per-request
    latencies: the throughput of a median cycle.  p50 and p90 are taken
    over the per-request latencies, so their sample count is the cycle
    length."""
    return {
        "setup_s": (setup_s, "s"),
        "req_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, pct) * 1e3, "ms"),
    }


def environment(workload: str, seed: int, requests, cycles: int) -> dict:
    import mpmath

    return {
        "workload": workload, "seed": seed, "precision": PRECISION,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__, "backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(), "clients": 1, "jobs": 1,
        "cycle_requests": dict(sorted(Counter(r.kind for r in requests).items())),
        "cycles": cycles,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        select=None) -> Tuple[dict, List[str]]:
    """One benchmark run; returns the result object and the report lines
    printed before it.  `select`, when given, maps the generated cycle to
    the requests that run (the benchmark's tests use a few cheap ones)."""
    workdir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    summary: dict = {}
    try:
        requests, wall_setup_s, setup_s = set_up(workload, seed, workdir)
        if select is not None:
            requests = select(requests)
        if trace:
            import tracer as tracing

            tr = tracing.Tracer()
            tr.install()
            try:
                outcomes, cycles = execute(requests, workdir / "traced",
                                           seconds=seconds, tracer=tr)
            finally:
                tr.uninstall()
            plain, _ = execute(requests, workdir / "plain", cycles=cycles)
            # traced req_per_s over untraced req_per_s, on the same cycles
            overhead = (sum(request_latencies(plain))
                        / sum(request_latencies(outcomes)))
            metrics = tr.metrics()
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            WORK.mkdir(exist_ok=True)
            tr.write(WORK / f"spans-{workload}-s{seed}.jsonl")
            outcomes = outcomes + plain
        else:
            outcomes, cycles = execute(requests, workdir / "out", seconds=seconds)
            lat = request_latencies(outcomes)
            pct = tail_percentile(len(lat))
            metrics = timings(lat, setup_s, pct)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            wall = timings(request_latencies(outcomes, scaled=False),
                           wall_setup_s, pct)
            summary.update(latency_samples=len(lat),
                           latency_tail_percentile=round(pct, 2),
                           wall={k: v for k, (v, _) in wall.items()})
        failed, refused, digest, reasons = check_all(requests, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    lines = ["setup " + json.dumps(environment(workload, seed, requests, cycles))]
    summary = {"attempted": attempted, "failed_ratio": failed / attempted,
               "refused_ratio": refused / attempted, "output_digest": digest,
               **summary}
    lines.append("summary " + json.dumps(summary))
    lines += [f"failed: {r}" for r in reasons]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
