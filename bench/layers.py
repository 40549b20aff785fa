"""Per-layer tracing of dualcut from outside the package.

`Tracer` substitutes timing wrappers for dualcut functions and methods in
every dualcut module (or class) where callers look them up, e.g.
`dualcut.ssc.contract_perfect` and `LiveInstance.stars_with_arc`, and puts
the originals back on exit. A target that no longer exists is skipped and
listed in `missing`, so a refactor of dualcut cannot break a traced run; its
metrics then read 0. Each span is timed with `perf_counter`; a span's
self time is its duration minus the durations of the traced spans it
encloses. Spans are aggregated per name (calls, total, self) in memory.
Nothing under `src/` changes, and the wrapped calls return exactly what the
originals return.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute); the prefix before the first dot is the
# module (layer) that defines the function.
FUNCTIONS = {
    "io.parse_instance": ("dualcut.io", "parse_instance"),
    "io.parse_advice": ("dualcut.io", "parse_advice"),
    "io.instance_digest": ("dualcut.io", "instance_digest"),
    "instances.check_feasible": ("dualcut.instances", "check_feasible"),
    "instances.dpa_to_ssc": ("dualcut.instances", "dpa_to_ssc"),
    "graphs.is_strongly_connected": ("dualcut.graphs", "is_strongly_connected"),
    "graphs.contract_multigraph": ("dualcut.graphs", "contract_multigraph"),
    "perfect.contract_perfect": ("dualcut.perfect", "contract_perfect"),
    "perfect.is_perfect": ("dualcut.perfect", "is_perfect"),
    "perfect.is_internal_cut": ("dualcut.perfect", "is_internal_cut"),
    "perfect.augment_to_perfect": ("dualcut.perfect", "augment_to_perfect"),
    "ssc.approx_ssc": ("dualcut.ssc", "approx_ssc"),
    "ssc.find_perfect_set": ("dualcut.ssc", "find_perfect_set"),
    "ssc.build_simple_cycle": ("dualcut.ssc", "build_simple_cycle"),
    "dpa.approx_dpa": ("dualcut.dpa", "approx_dpa"),
    "dpa.find_perfect_two_cuts": ("dualcut.dpa", "find_perfect_two_cuts"),
    "dpa.build_rotation_cycle": ("dualcut.dpa", "build_rotation_cycle"),
    "twoecs.approx_2ecs": ("dualcut.twoecs", "approx_2ecs"),
    "twoecs.find_cycle": ("dualcut.twoecs", "find_cycle_with_internal_cut"),
    "certificates.verify_certificate": ("dualcut.certificates", "verify_certificate"),
    "certificates.crossing_stars": ("dualcut.certificates", "crossing_stars"),
    "certificates.crossing_edges": ("dualcut.certificates", "crossing_edges"),
    "certificates.lower_bounds": ("dualcut.certificates", "lower_bounds"),
    "report.build_report": ("dualcut.report", "build_report"),
    "report.encode": ("dualcut.report", "report_to_json"),
    "report.decode": ("dualcut.report", "report_from_json"),
    "report.verify_run": ("dualcut.report", "verify_run"),
}

# Span name -> (module, class, method).
METHODS = {
    "graphs.digraph_build": ("dualcut.graphs", "Digraph", "__init__"),
    "graphs.partition_compose": ("dualcut.graphs", "VertexPartition", "compose"),
    "graphs.partition_lift": ("dualcut.graphs", "VertexPartition", "lift"),
    "perfect.live_contract": ("dualcut.perfect", "LiveInstance", "contract"),
    "perfect.stars_with_arc": ("dualcut.perfect", "LiveInstance", "stars_with_arc"),
}


def _cut_vertices(instance, cert) -> int:
    return sum(len(cut.side) for cut in cert.cuts)


def _is_choice(advisor, label, candidates, partition=None) -> int:
    return int(len(candidates) >= 2)


# Counters taken without timing: span name -> (counter, amount per call) for
# functions above, and counter -> (module, class, method, amount per call)
# for methods. The advisor is called inside every round step, so it is
# counted but not timed.
FUNCTION_COUNTERS = {
    "certificates.verify_certificate": ("certificates.cut_vertices_checked", _cut_vertices),
}
METHOD_COUNTERS = {
    "advisor.choices": ("dualcut.advisor", "Advisor", "choose", _is_choice),
}

# Per-layer metric -> (statistic, span names summed). Times are self times.
METRICS = {
    "io.parse_instance_s": ("self", ("io.parse_instance",)),
    "io.instance_digest_s": ("self", ("io.instance_digest",)),
    "io.instance_digest_calls": ("calls", ("io.instance_digest",)),
    "instances.check_feasible_s": ("self", ("instances.check_feasible",)),
    "instances.check_feasible_calls": ("calls", ("instances.check_feasible",)),
    "instances.dpa_to_ssc_calls": ("calls", ("instances.dpa_to_ssc",)),
    "graphs.digraph_builds": ("calls", ("graphs.digraph_build",)),
    "graphs.digraph_build_s": ("self", ("graphs.digraph_build",)),
    "graphs.is_strongly_connected_s": ("self", ("graphs.is_strongly_connected",)),
    "graphs.partition_compose_s": ("self", ("graphs.partition_compose",)),
    "graphs.partition_lift_s": ("self", ("graphs.partition_lift",)),
    "graphs.contract_multigraph_calls": ("calls", ("graphs.contract_multigraph",)),
    "perfect.contract_perfect_s": ("self", ("perfect.contract_perfect",)),
    "perfect.live_contract_s": ("self", ("perfect.live_contract",)),
    "perfect.is_perfect_s": ("self", ("perfect.is_perfect",)),
    "perfect.is_internal_cut_s": ("self", ("perfect.is_internal_cut",)),
    "perfect.augment_to_perfect_s": ("self", ("perfect.augment_to_perfect",)),
    "perfect.stars_with_arc_calls": ("calls", ("perfect.stars_with_arc",)),
    "perfect.stars_with_arc_s": ("self", ("perfect.stars_with_arc",)),
    "ssc.rounds": ("calls", ("ssc.find_perfect_set",)),
    "ssc.find_perfect_set_s": ("self", ("ssc.find_perfect_set",)),
    "ssc.build_simple_cycle_s": ("self", ("ssc.build_simple_cycle",)),
    "dpa.rounds": ("calls", ("dpa.find_perfect_two_cuts",)),
    "dpa.find_perfect_two_cuts_s": ("self", ("dpa.find_perfect_two_cuts",)),
    "dpa.build_rotation_cycle_s": ("self", ("dpa.build_rotation_cycle",)),
    "twoecs.rounds": ("calls", ("twoecs.find_cycle",)),
    "certificates.verify_certificate_calls": ("calls", ("certificates.verify_certificate",)),
    "certificates.verify_certificate_s": ("self", ("certificates.verify_certificate",)),
    "certificates.crossing_s": (
        "self",
        ("certificates.crossing_stars", "certificates.crossing_edges"),
    ),
    "certificates.lower_bounds_s": ("self", ("certificates.lower_bounds",)),
    "report.build_report_s": ("self", ("report.build_report",)),
    "report.encode_s": ("self", ("report.encode",)),
    "report.decode_s": ("self", ("report.decode",)),
    "report.verify_run_s": ("self", ("report.verify_run",)),
}


class Tracer:
    """Context manager that traces dualcut while it is active."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # per open span: time of its traced children
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()

    def __enter__(self) -> "Tracer":
        self.missing.clear()
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            inner = original
            if name in FUNCTION_COUNTERS:
                inner = self._count(*FUNCTION_COUNTERS[name], inner)
            wrapped = self._span(name, inner)
            for mod in _dualcut_modules():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapped)
        for name, (module, cls_name, attr) in METHODS.items():
            self._patch_method(name, module, cls_name, attr, functools.partial(self._span, name))
        for name, (module, cls_name, attr, amount) in METHOD_COUNTERS.items():
            self._patch_method(
                name, module, cls_name, attr, functools.partial(self._count, name, amount)
            )
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch_method(self, name, module, cls_name, attr, wrap) -> None:
        cls = getattr(importlib.import_module(module), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            self.missing.append(name)
        else:
            self._patch(cls, attr, wrap(original))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, name: str, fn):
        open_spans, perf = self._open, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf() - start
                children = open_spans.pop()
                calls[name] += 1
                total[name] += span
                self_time[name] += span - children
                if open_spans:
                    open_spans[-1] += span

        return traced

    def _count(self, name: str, amount, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return counting

    def metrics(self, reports: int) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset;
        `reports` is the number of runs that were solved and verified."""
        out: dict[str, float] = {}
        for metric, (stat, spans) in METRICS.items():
            table = self.self_time if stat == "self" else self.calls
            out[metric] = sum(table[s] for s in spans)
        for counter, _amount in FUNCTION_COUNTERS.values():
            out[counter] = self.counts[counter]
        for counter in METHOD_COUNTERS:
            out[counter] = self.counts[counter]
        out["certificates.checks_per_report"] = (
            self.calls["certificates.verify_certificate"] / max(reports, 1)
        )
        return out

    def spans(self) -> dict[str, dict[str, float]]:
        """Every span traced since the last reset: calls, total and self time."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in sorted(self.calls)
        }


def _dualcut_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "dualcut" or name.startswith("dualcut."))
    ]
