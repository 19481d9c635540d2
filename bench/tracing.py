"""Spans and counts around hqz's public functions, from outside the program.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper, in each of those modules and in the ``hqz`` package (so a
name one module imported from another is wrapped where it is called), and
wraps ``ComplexSeries.__call__``.  Spans nest on one stack because the program
is single-threaded and synchronous; a span's self time is its duration
minus the durations of its direct children.  Aggregates are kept for
every span; full span records only while ``keep_spans`` is set.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("series", "quadrature", "planar", "functionals", "laplacian",
                  "ball", "theorems", "gamma")
MAX_SPANS = 200_000
ROOT = "bench.round"

#: per-layer metric -> (kind, span names); "covered" is the time inside any
#: of the spans (nested ones counted once), "self" their self time
TIME_METRICS = {
    "series.eval_s": ("covered", ("series.ComplexSeries.__call__",)),
    "quadrature.refine_s": ("covered", ("quadrature.refined_circle_mean",)),
    "planar.construct_s": ("covered", ("planar.random_qr_map", "planar.make_qr_map")),
    "planar.dilatation_s": ("covered", ("planar.dilatation_sup",)),
    "functionals.circle_mean_p_s": ("covered", ("functionals.circle_mean_p",)),
    "functionals.entropy_u_s": ("covered", ("functionals.entropy_u",
                                            "functionals.entropy_u_report")),
    "functionals.zygmund_plus_s": ("covered", ("functionals.zygmund_plus",
                                               "functionals.zygmund_plus_report")),
    "functionals.calderon_s": ("covered", ("functionals.calderon_ratio_estimate",
                                           "functionals.calderon_square",
                                           "functionals.calderon_square_on_circle")),
    "laplacian.audit_s": ("covered", ("laplacian.audit_laplacians",)),
    "laplacian.ratio_sup_s": ("covered", ("laplacian.laplacian_ratio_sup",)),
    "laplacian.green_s": ("covered", ("laplacian.disk_green_identity",)),
    "ball.s": ("covered", "ball.*"),
    "theorems.verify_T2_self_s": ("self", ("theorems.verify_T2",)),
    "theorems.verify_T1_self_s": ("self", ("theorems.verify_T1",)),
    "theorems.fuzz_search_self_s": ("self", ("theorems.fuzz_search",)),
    "bench.own_self_s": ("self", (ROOT,)),
}
COUNT_METRICS = ("series.eval_calls", "series.eval_points", "quadrature.refine_calls",
                 "quadrature.refine_nodes", "planar.dilatation_calls",
                 "functionals.zygmund_plus_nodes", "laplacian.audit_points",
                 "laplacian.audit_skipped", "ball.axial_mean_calls")


def _count_series(counts, site, args, out):
    z = args[1]
    counts["series.eval_calls"] += 1
    counts["series.eval_points"] += int(np.size(z))


def _count_refine(counts, site, args, out):
    counts["quadrature.refine_calls"] += 1
    counts["quadrature.refine_nodes"] += int(out[2])
    counts[f"quadrature.refine_calls@{site}"] += 1
    counts[f"quadrature.refine_nodes@{site}"] += int(out[2])


def _count_zygmund(counts, site, args, out):
    counts["functionals.zygmund_plus_nodes"] += int(out[2])


def _count_audit(counts, site, args, out):
    counts["laplacian.audit_points"] += len(out.rows)
    counts["laplacian.audit_skipped"] += out.skipped


def _count_calls(key):
    def count(counts, site, args, out):
        counts[key] += 1
    return count


COUNTERS = {
    "series.ComplexSeries.__call__": _count_series,
    "quadrature.refined_circle_mean": _count_refine,
    "functionals.zygmund_plus_report": _count_zygmund,
    "laplacian.audit_laplacians": _count_audit,
    "planar.dilatation_sup": _count_calls("planar.dilatation_calls"),
    "ball.axial_mean": _count_calls("ball.axial_mean_calls"),
}


class Tracer:
    """Span stack, per-name self time, per-metric covered time and counts."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.covered_ns = defaultdict(int)
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.keep_spans = False
        self.next_id = 0

    @staticmethod
    def _groups_of(name: str) -> list[str]:
        """The TIME_METRICS whose covered time a span of ``name`` counts toward."""
        module = name.split(".", 1)[0]
        return [metric for metric, (_, names) in TIME_METRICS.items()
                if (names == f"{module}.*" if isinstance(names, str) else name in names)]

    # -- spans --------------------------------------------------------------
    def enter(self, name: str, groups: list[str]) -> list:
        for gname in groups:
            self.active[gname] += 1
        self.next_id += 1
        parent = self.stack[-1][2] if self.stack else 0
        frame = [name, groups, self.next_id, parent, 0, time.perf_counter_ns()]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        name, groups, span_id, parent, child_ns, start = frame
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][4] += dur
        self.calls[name] += 1
        self.self_ns[name] += dur - child_ns
        for gname in groups:
            self.active[gname] -= 1
            if self.active[gname] == 0:
                self.covered_ns[gname] += dur
        if self.keep_spans and len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn, site: str):
        groups = self._groups_of(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name, groups)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if counter is not None:
                counter(self.counts, site, args, out)
            return out

        return traced

    def round_span(self):
        return self.enter(ROOT, self._groups_of(ROOT))

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES wherever they are bound."""
        mods = {m: importlib.import_module(f"hqz.{m}") for m in TRACED_MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("hqz")]
        originals = {}
        for m in TRACED_MODULES:
            for attr, obj in vars(mods[m]).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == f"hqz.{m}"):
                    originals[id(obj)] = f"{m}.{attr}"
        for ns in namespaces:
            site = ns.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(ns).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    setattr(ns, attr, self.wrap(originals[id(obj)], obj, site))
        cls = mods["series"].ComplexSeries
        cls.__call__ = self.wrap("series.ComplexSeries.__call__", cls.__call__, "series")

    # -- results ------------------------------------------------------------
    def metrics(self, instances: int, timed_s: float) -> dict:
        out = {}
        for metric, (kind, names) in TIME_METRICS.items():
            ns = self.self_ns[names[0]] if kind == "self" else self.covered_ns[metric]
            out[metric] = {"value": ns / 1e9 / instances, "unit": "s/instance"}
        for metric in COUNT_METRICS:
            out[metric] = {"value": self.counts[metric] / instances, "unit": "count/instance"}
        out["bench.traced_instances_per_s"] = {"value": instances / timed_s, "unit": "1/s"}
        return out

    def report(self, instances: int, timed_s: float) -> dict:
        """Per-function and per-module self time, for the trace file."""
        per_module = defaultdict(int)
        for name, ns in self.self_ns.items():
            per_module[name.split(".", 1)[0]] += ns
        return {
            "instances": instances,
            "timed_s": timed_s,
            "self_s_total": sum(self.self_ns.values()) / 1e9,
            "self_s_by_module": {k: v / 1e9 for k, v in sorted(per_module.items())},
            "functions": {name: {"calls": self.calls[name], "self_s": self.self_ns[name] / 1e9}
                          for name in sorted(self.calls)},
            "counts": dict(sorted(self.counts.items())),
            "first_round_spans": [
                {"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
                for i, p, n, s, e in self.spans],
        }
