"""Batch command-line front end.

Subcommands: construct, certify, hilbert, scan.  Machine-readable output
only (JSON/CSV); every JSON output is the text of json.dumps(payload,
indent=2, sort_keys=True), written by jsontext.to_json_text.  A request is
parsed by its subcommand's parser alone when its first argument names one
(see _parse_args).  Exit codes: 0 success or verified pass, 1 verified
fail, 2 usage error, 3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import mpmath as mp

from . import __version__
from .config import (Configuration, Multiplicities, build_am1n,
                     build_two_mult, integer_mults, random_type_m1n,
                     t_q_expand)
from .certify import certify_ba
from .darboux import build_chain, chain_report
from .errors import BalinesError, CollisionError
from .jsontext import to_json_text
from .locus import solve_general_locus
from .numeric import MIN_PRECISION
from .quasi import (am1n_hilbert_numerator, hilbert_coefficients,
                    hilbert_rational_form, is_gorenstein, m1n_chart,
                    r_parameter)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


class UsageError(Exception):
    """Input the command cannot act on; reported with exit code 2."""


def run_manifest(subcommand: str, params: dict, seed: Optional[int], precision: int,
                 outputs: List[str], wall_clock: Dict[str, float]) -> dict:
    """The manifest each JSON answer carries: the request, the package
    version and each stage's wall time."""
    return {"subcommand": subcommand, "params": params, "seed": seed,
            "precision": precision, "outputs": outputs, "version": __version__,
            "wall_clock": wall_clock}


# The (lowest, highest) accepted value of each integer option, None for no
# bound, set so that no request sizes a computation past seconds (README);
# BA_PRECISION has the bounds of --precision.  scan takes m, mt, n and q as
# range strings, whose ends are checked before they are expanded.
_BOUNDS = {"m": (1, 1000), "mt": (0, 1000), "n": (1, 1000), "q": (1, 1000),
           "D": (0, 10000), "samples": (0, 1000), "jobs": (1, None),
           "precision": (MIN_PRECISION, 65536), "threshold_log2": (-65536, 65536)}


def _check_bound(name: str, value: int, what: Optional[str] = None) -> None:
    """UsageError naming what (default the option --name) unless value lies
    within _BOUNDS[name]."""
    low, high = _BOUNDS[name]
    what = what or "--" + name.replace("_", "-")
    if value < low:
        raise UsageError(f"{what} must be >= {low}")
    if high is not None and value > high:
        raise UsageError(f"{what} must be <= {high}")


def default_precision() -> int:
    """BA_PRECISION when set, else 256; UsageError on a value that is not
    an integer within the bounds of --precision."""
    env = os.environ.get("BA_PRECISION")
    if not env:
        return 256
    try:
        bits = int(env)
    except ValueError:
        raise UsageError(f"BA_PRECISION={env!r} is not an integer") from None
    _check_bound("precision", bits, "BA_PRECISION")
    return bits


def parse_range(text: str, name: Optional[str] = None) -> List[int]:
    """'1..4' -> [1,2,3,4]; '2,4,6' -> [2,4,6]; '3' -> [3].  Raises
    UsageError on any other text, on an empty range such as '3..1' and,
    given an option name, on a value or range end outside _BOUNDS[name],
    which is checked before the range is expanded."""
    out: List[int] = []
    try:
        for chunk in text.split(","):
            chunk = chunk.strip()
            lo, hi = map(int, chunk.split("..")) if ".." in chunk else (int(chunk),) * 2
            if name:
                _check_bound(name, lo)
                _check_bound(name, hi)
            if lo > hi:
                raise UsageError(f"the range {chunk!r} holds no value")
            out.extend(range(lo, hi + 1))
    except ValueError:
        raise UsageError(f"cannot read {text!r} as integers or ranges") from None
    return out


def _save(path: str, write) -> None:
    """write(path); a path that cannot be written is a usage error, as one
    that cannot be read is in _load."""
    try:
        write(path)
    except OSError as ex:
        raise UsageError(f"cannot write {path}: {ex.strerror}") from None


def _write_json(path: Optional[str], payload: dict) -> None:
    text = to_json_text(payload)
    if path:
        _save(path, lambda p: Path(p).write_text(text + "\n"))
    else:
        print(text)


def _require(args, what: str, *names: str) -> None:
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"{what} needs {' and '.join(missing)}")


def _load(path: str, integral: bool = False) -> Configuration:
    """The configuration in path; with integral, also check that every
    multiplicity is a positive integer, as certify and hilbert need.  A
    number too large for the arithmetic that reads it, and JSON nested too
    deeply for the parser, are input errors."""
    try:
        cfg = Configuration.load(path)
        if integral:
            integer_mults(cfg)
        return cfg
    except KeyError as ex:
        raise UsageError(f"{path} lacks the key {ex}") from None
    except (TypeError, ValueError, OverflowError, RecursionError, CollisionError) as ex:
        raise UsageError(f"{path}: {ex}") from None
    except OSError as ex:
        raise UsageError(f"cannot read {path}: {ex.strerror}") from None


def _check_ranges(args) -> None:
    """UsageError unless each integer option, and each end of a range
    option, lies within its _BOUNDS."""
    for name in _BOUNDS:
        value = getattr(args, name, None)
        if isinstance(value, str):
            parse_range(value, name)
        elif value is not None:
            _check_bound(name, value)


def _parse_mults(text: str) -> Multiplicities:
    """Integer-valued entries (2, 2.0, 2e0) become ints, the others floats."""
    try:
        mults = Multiplicities(tuple(int(v) if v.denominator == 1 else float(v)
                                     for v in map(Fraction, text.split(","))))
    except ValueError as ex:
        raise UsageError(f"--mults {text!r}: {ex}") from None
    if len(mults) < 2:
        raise UsageError("--mults needs at least two multiplicities")
    return mults


# --- construct, certify, hilbert ----------------------------------------------

# Each family: the options it needs, and how it is built from the parsed
# arguments.
_FAMILIES = {
    "am1n": (("m", "n"), lambda a: build_am1n(a.m, a.n, a.precision)),
    "twomult": (("m", "n"), lambda a: build_two_mult(a.m, a.mt, a.n, a.precision)),
    "random": (("m", "n"), lambda a: random_type_m1n(a.m, a.n, a.seed, a.precision)),
    "tq": (("input",), lambda a: t_q_expand(_load(a.input), a.q)),
    "locus": (("mults",), lambda a: solve_general_locus(_parse_mults(a.mults),
                                                        a.precision)),
}


def _build(args, family: str, what: str) -> Configuration:
    needs, build = _FAMILIES[family]
    _require(args, what, *needs)
    if family == "twomult" and args.n % 2:
        raise UsageError(f"{what} needs an even --n")
    return build(args)


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    cfg = _build(args, args.family, f"construct {args.family}")
    elapsed = time.perf_counter() - t0
    if args.output:
        _save(args.output, cfg.save)
        manifest = run_manifest(
            subcommand=f"construct {args.family}",
            params={k: getattr(args, k, None)
                    for k in ("m", "mt", "n", "q", "mults", "input")},
            seed=args.seed, precision=args.precision,
            outputs=[args.output], wall_clock={"build": elapsed})
        _write_json(args.output + ".manifest.json", manifest)
    else:
        _write_json(None, cfg.to_json_dict())
    return EXIT_PASS


def cmd_certify(args) -> int:
    if args.input:
        cfg = _load(args.input, integral=True)
    elif args.family:
        cfg = _build(args, args.family, f"certify --family {args.family}")
    else:
        raise UsageError("certify needs --input or --family")
    if args.q > 1:
        cfg = t_q_expand(cfg, args.q)
    t0 = time.perf_counter()
    log2 = args.threshold_log2
    cert = certify_ba(cfg, threshold=None if log2 is None else mp.mpf(2) ** -log2)
    payload = cert.to_json_dict()
    payload["manifest"] = run_manifest(
        subcommand="certify",
        params={"input": args.input, "family": args.family,
                "m": args.m, "mt": args.mt, "n": args.n, "q": args.q,
                "threshold_log2": log2},
        seed=args.seed, precision=cfg.precision,
        outputs=[args.output] if args.output else [],
        wall_clock={"certify": time.perf_counter() - t0})
    _write_json(args.output, payload)
    return EXIT_PASS if cert.passed else EXIT_FAIL


def cmd_hilbert(args) -> int:
    if args.input:
        cfg = _load(args.input, integral=True)
    elif args.random:
        cfg = _build(args, "random", "hilbert --random")
    elif args.m is not None and args.n is not None:
        cfg = _build(args, "am1n", "hilbert")
    else:
        raise UsageError("hilbert needs --input, --random, or --m and --n")
    m, n, _ = m1n_chart(cfg)
    D = args.D if args.D is not None else 2 * m + 2 * n + 4
    if D < 2 * m + 2 * n + 2:
        raise UsageError(f"--D must be >= {2 * m + 2 * n + 2} for m={m}, n={n}")
    t0 = time.perf_counter()
    coeffs = hilbert_coefficients(cfg, D)
    series = hilbert_rational_form(coeffs, m, n)
    payload = series.to_json_dict()
    payload["r"] = r_parameter(cfg)
    payload["manifest"] = run_manifest(
        subcommand="hilbert",
        params={"input": args.input, "m": args.m, "n": args.n, "D": D,
                "random": args.random},
        seed=args.seed, precision=cfg.precision,
        outputs=[p for p in (args.output, args.csv) if p],
        wall_clock={"hilbert": time.perf_counter() - t0})
    if args.csv:
        _save(args.csv, series.save_csv)
    _write_json(args.output, payload)
    if args.check_closed_form:
        want = am1n_hilbert_numerator(m, n)
        return EXIT_PASS if list(series.numerator) == want else EXIT_FAIL
    return EXIT_PASS


# --- scan: parallelizable grid items ----------------------------------------------


def _scan_gorenstein_item(item) -> dict:
    m, n, seed, precision = item
    t0 = time.perf_counter()
    if seed is None:
        cfg = build_am1n(m, n, precision)
        expect_gor, expect_crit = True, m + n
    else:
        cfg = random_type_m1n(m, n, seed, precision)
        expect_gor, expect_crit = False, m + n - 1
    coeffs = hilbert_coefficients(cfg, 2 * m + 2 * n + 4)
    series = hilbert_rational_form(coeffs, m, n)
    gor, M = is_gorenstein(series)
    crit = coeffs[2 * (m + n - 1)]
    ok = (gor == expect_gor) and (crit == expect_crit)
    if expect_gor:
        ok = ok and M == 2 - 2 * m - 2 * n
    return {"m": m, "n": n, "seed": seed, "gorenstein": gor, "M": M,
            "critical_coefficient": crit, "ok": ok,
            "seconds": round(time.perf_counter() - t0, 3)}


def _scan_certify_item(item) -> dict:
    family, m, mt, n, q, precision, threshold = item
    t0 = time.perf_counter()
    try:
        if family == "am1n":
            cfg = build_am1n(m, n, precision)
        else:
            cfg = build_two_mult(m, mt, n, precision)
        cfg = t_q_expand(cfg, q)
        cfg.lines  # build the chart here, so that a collision skips the item
    except CollisionError as ex:
        return {"family": family, "m": m, "mt": mt, "n": n, "q": q,
                "skipped": f"collision: {ex}", "ok": True,
                "seconds": round(time.perf_counter() - t0, 3)}
    cert = certify_ba(cfg, threshold=threshold)
    return {"family": family, "m": m, "mt": mt, "n": n, "q": q,
            "verdict": cert.verdict, "ok": cert.passed,
            "max_residual_log2": cert.to_json_dict()["max_residual_log2"],
            "seconds": round(time.perf_counter() - t0, 3)}


def _scan_darboux_item(item) -> dict:
    m, mt, n, qs, precision = item
    t0 = time.perf_counter()
    cfg = build_two_mult(m, mt, n, precision) if mt >= 1 else build_am1n(m, n, precision)
    chain = build_chain(m, mt, n)
    report = chain_report(chain, cfg, q_values=tuple(qs))
    checks = [v for k, v in report.items()
              if k in ("factorization", "potential", "eigen") or k.startswith("q_scaling")]
    report["ok"] = all(v == "exact-pass" for v in checks)
    report["seconds"] = round(time.perf_counter() - t0, 3)
    return report


def _run_items(worker, items, jobs: int) -> List[dict]:
    """worker(item) for each item, in order, in at most `jobs` processes.

    The pool forks all its workers at the first submit, so it gets no more
    of them than there are items or cores."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items))


def cmd_scan(args) -> int:
    precision = args.precision
    t0 = time.perf_counter()
    if args.what == "gorenstein":
        worker, items = _scan_gorenstein_item, []
        for m in parse_range(args.m):
            for n in parse_range(args.n):
                items.append((m, n, None, precision))
                for s in range(args.samples):
                    items.append((m, n, args.seed + s, precision))
    elif args.what == "certify":
        log2 = args.threshold_log2
        thr = None if log2 is None else mp.mpf(2) ** -log2
        worker, items = _scan_certify_item, []
        qs = parse_range(args.q) if args.q else [1]
        if args.family in ("am1n", "tq"):
            for m in parse_range(args.m):
                for n in parse_range(args.n):
                    for q in (qs if args.family == "tq" else [1]):
                        items.append(("am1n", m, 0, n, q, precision, thr))
        if args.family in ("twomult", "tq"):
            mts = parse_range(args.mt) if args.mt else None
            for m in parse_range(args.m):
                for mt in (mts if mts is not None else range(0, m + 1)):
                    for n in parse_range(args.n):
                        if n % 2 != 0:
                            continue  # the two-heavy-line family needs even n
                        for q in (qs if args.family == "tq" else [1]):
                            items.append(("twomult", m, mt, n, q, precision, thr))
    else:  # darboux
        qs = parse_range(args.q) if args.q else [2, 3]
        worker, items = _scan_darboux_item, []
        for m in parse_range(args.m):
            mts = parse_range(args.mt) if args.mt else range(0, m + 1)
            for mt in mts:
                if mt > m:
                    continue
                for n in parse_range(args.n):
                    if mt >= 1 and n % 2 != 0:
                        continue
                    items.append((m, mt, n, qs, precision))
    if not items:
        raise UsageError(f"the scan {args.what} grid holds no item")
    results = _run_items(worker, items, args.jobs)

    all_ok = all(r.get("ok") for r in results)
    payload = {
        "scan": args.what,
        "all_pass": all_ok,
        "items": results,
        "manifest": run_manifest(
            subcommand=f"scan {args.what}",
            params={k: getattr(args, k, None)
                    for k in ("m", "mt", "n", "q", "samples", "family",
                              "threshold_log2")},
            seed=args.seed, precision=precision,
            outputs=[args.output] if args.output else [],
            wall_clock={"total": time.perf_counter() - t0}),
    }
    _write_json(args.output, payload)
    return EXIT_PASS if all_ok else EXIT_FAIL


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="balines",
        description="Exact computations for planar line arrangements with "
                    "multiplicities: construction, certification, Hilbert "
                    "series, and Darboux identity checks.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    ap.subcommands = sub.choices  # name -> its parser, read by _parse_args

    def common(p, *, threshold=False, jobs=False):
        p.add_argument("--precision", type=int, default=None,
                       help="mantissa bits (default 256; env BA_PRECISION)")
        if threshold:
            p.add_argument("--threshold-log2", type=int, default=None,
                           help="pass threshold 2^-VALUE (default precision-32)")
        p.add_argument("--seed", type=int, default=1)
        if jobs:
            p.add_argument("--jobs", type=int, default=1)
        p.add_argument("-o", "--output", default=None)

    pc = sub.add_parser("construct", help="build arrangements")
    pc.add_argument("family", choices=["am1n", "twomult", "tq", "random", "locus"])
    pc.add_argument("--m", type=int)
    pc.add_argument("--mt", type=int, default=0)
    pc.add_argument("--n", type=int)
    pc.add_argument("--q", type=int, default=1)
    pc.add_argument("--mults", default=None, help="comma list for locus")
    pc.add_argument("--input", default=None, help="base configuration for tq")
    common(pc)
    pc.set_defaults(func=cmd_construct)

    pk = sub.add_parser("certify", help="existence-condition certificates")
    pk.add_argument("--input", default=None)
    pk.add_argument("--family", choices=["am1n", "twomult", "random"], default=None)
    pk.add_argument("--m", type=int)
    pk.add_argument("--mt", type=int, default=0)
    pk.add_argument("--n", type=int)
    pk.add_argument("--q", type=int, default=1)
    common(pk, threshold=True)
    pk.set_defaults(func=cmd_certify)

    ph = sub.add_parser("hilbert", help="Hilbert series and Gorenstein test")
    ph.add_argument("--input", default=None)
    ph.add_argument("--random", action="store_true")
    ph.add_argument("--m", type=int)
    ph.add_argument("--n", type=int)
    ph.add_argument("--D", type=int, default=None)
    ph.add_argument("--csv", default=None)
    ph.add_argument("--check-closed-form", action="store_true")
    common(ph)
    ph.set_defaults(func=cmd_hilbert)

    ps = sub.add_parser("scan", help="aggregate runs over parameter grids")
    ps.add_argument("what", choices=["gorenstein", "certify", "darboux"])
    ps.add_argument("--m", default="1..3")
    ps.add_argument("--mt", default=None)
    ps.add_argument("--n", default="2..5")
    ps.add_argument("--q", default=None)
    ps.add_argument("--samples", type=int, default=20)
    ps.add_argument("--family", choices=["am1n", "twomult", "tq"], default="am1n")
    common(ps, threshold=True, jobs=True)
    ps.set_defaults(func=cmd_scan)
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by later ones in the
    same process; it holds no default read from the environment."""
    return build_parser()


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """What _parser().parse_args(argv) returns, or the SystemExit it raises.

    When argv[0] names a subcommand, the full parse hands every later
    argument to that subcommand's parser, so that parser alone reads them
    here; leftovers are reported by the top-level parser, as parse_args
    reports them.  Any other argv goes through the full parser."""
    parser = _parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(cmd=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.precision is None:
            args.precision = default_precision()
        _check_ranges(args)
        return args.func(args)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except (BalinesError, ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
