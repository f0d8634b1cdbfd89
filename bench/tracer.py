"""Per-layer tracing of balines from outside the library.

``Tracer.install`` wraps the public functions named in ``TRACED`` and patches
every ``balines.*`` module attribute bound to the same function object
(``from .x import f`` copies the binding, so patching only the defining
module would miss ``balines.config.poly_roots`` or
``balines.cli.hilbert_coefficients``).  ``uninstall`` puts the originals
back.

Each call becomes a span ``<module>.<function>`` with a parent span and the
request id of the enclosing ``cli.main`` root span.  Spans stay in memory
and are written out by ``write``.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# (module, attribute) pairs; "Class.method" attributes patch the class.
TRACED = {
    "cli": ["main"],
    "config": ["build_am1n", "build_two_mult", "t_q_expand", "from_alphas",
               "Configuration.load", "Configuration.save",
               "Configuration.digest"],
    "roots": ["poly_roots"],
    "symfunc": ["e_values", "ehat_values", "poly_from_elementary",
                "r_poly_from_ehat", "power_sums_from_elementary",
                "elementary_from_power_sums"],
    "poly": ["DensePoly.divmod", "DensePoly.gcd"],
    "certify": ["certify_ba", "first_condition_residual_lines"],
    "quasi": ["hilbert_coefficients", "assemble_system", "rank_exact",
              "rank_numeric", "qi_dimension_numeric"],
    "locus": ["solve_general_locus"],
    "trig": ["wronskian", "TrigPoly.__mul__", "require_identity"],
    "darboux": ["build_chain", "verify_factorization", "verify_potential",
                "verify_eigen", "q_scaling_check"],
}
# Layers reported as one aggregate rather than per function.
AGGREGATED = ("symfunc",)


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attrs in TRACED.items()
                      for attr in attrs]
        self._index = {name: i for i, name in enumerate(self.names)}
        # span tuples: (id, parent id, name index, start, end, request id)
        self.spans: List[Tuple[int, int, int, float, float, str]] = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters: Dict[str, float] = defaultdict(float)
        self.headroom_bits: List[float] = []
        self.request = ""
        self._stack: List[List] = []  # [span id, seconds in child spans]
        self._active = [0] * len(self.names)
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "balines" or name.startswith("balines."))
                   and m is not None]
        for mod, attrs in TRACED.items():
            module = sys.modules[f"balines.{mod}"]
            for attr in attrs:
                name = f"{mod}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._patch(cls, meth, wrapped)
                    continue
                fn = getattr(module, attr)
                wrapped = self._wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        idx = self._index[name]
        count = _COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else 0
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            self._active[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._active[idx] -= 1
                duration = end - start
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((sid, parent, idx, start, end, self.request))
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def active(self, name: str) -> bool:
        return self._active[self._index[name]] > 0

    # --- results --------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        out: Dict[str, Tuple[float, str]] = {}
        layer_self: Dict[str, float] = defaultdict(float)
        layer_calls: Dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            layer = name.split(".")[0]
            layer_self[layer] += self.self_s[i]
            layer_calls[layer] += self.calls[i]
            if layer not in AGGREGATED:
                out[f"{name}.calls"] = (self.calls[i], "count")
                out[f"{name}.self_s"] = (self.self_s[i], "s")
        for layer in AGGREGATED:
            out[f"{layer}.calls"] = (layer_calls[layer], "count")
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        total = sum(layer_self.values())
        for layer in TRACED:
            out[f"{layer}.self_share"] = (
                layer_self[layer] / total if total else 0.0, "ratio")
        c = self.counters
        builds = self.calls[self._index["config.build_two_mult"]]
        out["config.build_two_mult.roots_per_build"] = (
            c["roots_under_two_mult"] / builds if builds else 0.0, "ratio")
        out["roots.degree_sum"] = (c["roots.degree_sum"], "count")
        out["certify.conditions"] = (c["certify.conditions"], "count")
        out["certify.pair_terms"] = (c["certify.pair_terms"], "count")
        out["certify.headroom_bits_min"] = (
            min(self.headroom_bits) if self.headroom_bits else 0.0, "bits")
        out["quasi.matrix_cells"] = (c["quasi.matrix_cells"], "count")
        out["locus.lines"] = (c["locus.lines"], "count")
        out["trig.wronskian.order_sum"] = (c["trig.wronskian.order_sum"], "count")
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: id, parent, name, start, end, request."""
        with open(path, "w") as fh:
            for sid, parent, idx, start, end, request in self.spans:
                fh.write(json.dumps([sid, parent, self.names[idx],
                                     round(start, 9), round(end, 9),
                                     request]) + "\n")


# --- counters recorded at the layer boundaries ---------------------------------


def _count_roots(tr: Tracer, args, result) -> None:
    tr.counters["roots.degree_sum"] += args[0].degree
    if tr.active("config.build_two_mult"):
        tr.counters["roots_under_two_mult"] += 1


def _count_certificate(tr: Tracer, args, cert) -> None:
    from balines.numeric import log2_abs

    n_conditions = len(cert.residuals)
    tr.counters["certify.conditions"] += n_conditions
    tr.counters["certify.pair_terms"] += n_conditions * (len(args[0].lines) - 1)
    if cert.passed:
        headroom = log2_abs(cert.threshold) - log2_abs(cert.max_residual)
        if headroom != float("inf"):  # an exactly zero residual has no bound
            tr.headroom_bits.append(headroom)


def _count_cells(tr: Tracer, args, result) -> None:
    rows = args[0]
    tr.counters["quasi.matrix_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_locus(tr: Tracer, args, result) -> None:
    tr.counters["locus.lines"] += len(args[0])


def _count_wronskian(tr: Tracer, args, result) -> None:
    tr.counters["trig.wronskian.order_sum"] += len(args[0])


_COUNTERS = {
    "roots.poly_roots": _count_roots,
    "certify.certify_ba": _count_certificate,
    "quasi.rank_exact": _count_cells,
    "quasi.rank_numeric": _count_cells,
    "locus.solve_general_locus": _count_locus,
    "trig.wronskian": _count_wronskian,
}


def metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, plus the overhead ratio that
    run.py adds, in a stable order."""
    names = [(k, unit) for k, (_, unit) in Tracer().metrics().items()]
    return names + [("trace.overhead_ratio", "ratio")]
