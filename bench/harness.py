"""The benchmark loop: set-up, timed passes, output checks and metrics.

One closed-loop process with no threads. Set-up builds the workload's
instance text from the seed several times and reports the median. Then
passes over all cases repeat until the time budget is spent; a pass runs,
per case, what `dualcut solve --out` runs (parse_instance, the
approximation, report_to_json) and then what `dualcut verify` runs
(parse_instance, report_from_json, verify_run) on the text alone.

A case's latency is its fastest time over passes. On a shared host the
machine's speed drifts in phases of seconds, and the passes are seconds
apart, so a case's fastest sample is the one least touched by that drift.
Totals and percentiles are taken over those per-case times.
The 99th percentiles go to the info line only: on `large` they are the
slowest of a few instances, with fewer than ten cases beyond them.

With tracing on, untraced and traced passes alternate: per-layer numbers
come only from the traced passes, and the untraced ones give the tracing
overhead and the digests that the traced reports must equal.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

import layers
import workloads
from dualcut import dpa, io, report, ssc, twoecs
from dualcut.advisor import ScriptedAdvisor

# Set-up runs at least SETUP_MIN_REPEATS times, and more (up to
# SETUP_MAX_REPEATS) while the repeats total under SETUP_MIN_SECONDS, so
# that cheap set-ups still get a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 20
SETUP_MIN_SECONDS = 2.0
# In small-batch, every TAMPER_EVERY-th report is verified again after one
# of the tamperings below, taken in turn; the copy must be rejected with
# findings.
TAMPER_EVERY = 20
MAX_LOGGED_FAILURES = 5


@dataclass
class Pass:
    solve_ms: dict[str, float] = field(default_factory=dict)
    verify_ms: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    report_bytes: int = 0
    cost: int = 0
    best_bound: int = 0
    fallbacks: int = 0
    attempted: int = 0
    failed: int = 0
    tampered: int = 0
    layers: dict[str, float] | None = None
    spans: dict | None = None
    seconds: float = 0.0  # wall time of the whole pass


class Failures:
    """Counts failed operations and logs the first few to stderr."""

    def __init__(self):
        self.logged = 0

    def record(self, p: Pass, case, what: str, detail: str) -> None:
        p.failed += 1
        if self.logged < MAX_LOGGED_FAILURES:
            self.logged += 1
            print(f"FAILED {what} {case.name}: {detail}", file=sys.stderr)


def _solve(problem: str, instance, advisor):
    # Looked up on the modules at call time, so tracing wrappers apply.
    if problem == "2ecs":
        return twoecs.approx_2ecs(instance, advisor)
    if problem == "dpa":
        return dpa.approx_dpa(instance, advisor)
    return ssc.approx_ssc(instance, advisor)


def _run_case(case, p: Pass, failures: Failures) -> str | None:
    """Solve and verify one case; returns the report JSON if solve succeeded."""
    p.attempted += 1
    start = time.perf_counter()
    try:
        _kind, instance = io.parse_instance(case.text)
        advisor = ScriptedAdvisor(io.parse_advice(case.advice))
        run = _solve(case.problem, instance, advisor)
        text = report.report_to_json(run)
    except Exception:
        failures.record(p, case, "solve", traceback.format_exc())
        return None
    p.solve_ms[case.name] = (time.perf_counter() - start) * 1000
    if case.expected_cost is not None and run.cost != case.expected_cost:
        failures.record(p, case, "solve", f"cost {run.cost} != {case.expected_cost}")

    p.attempted += 1
    start = time.perf_counter()
    try:
        kind, instance = io.parse_instance(case.text)
        findings = report.verify_run(kind, instance, report.report_from_json(text))
    except Exception:
        findings = [traceback.format_exc()]
    p.verify_ms[case.name] = (time.perf_counter() - start) * 1000
    if findings:
        failures.record(p, case, "verify", "; ".join(findings))

    p.digests[case.name] = hashlib.sha256(text.encode()).hexdigest()
    p.report_bytes += len(text.encode())
    p.cost += run.cost
    p.best_bound += run.bounds.best
    p.fallbacks += run.advisor_fallbacks
    return text


def _drop_selected(data: dict) -> bool:
    if not data["selected"]:
        return False
    data["selected"].pop()
    return True


def _move_cut_vertex(data: dict) -> bool:
    """Move one vertex from a certificate cut to another, keeping both
    cuts nonempty proper subsets."""
    cuts, n = data["certificate"]["cuts"], data["n"]
    for i, src in enumerate(cuts):
        for j, dst in enumerate(cuts):
            if i == j or len(src) < 2 or len(dst) + 1 >= n:
                continue
            movable = [v for v in src if v not in dst]
            if movable:
                src.remove(movable[0])
                dst.append(movable[0])
                dst.sort()
                return True
    return False


def _change_cost(data: dict) -> bool:
    data["cost"] += 1
    return True


TAMPERINGS = (_drop_selected, _move_cut_vertex, _change_cost)


def _check_tampered(case, text: str, mutate, p: Pass, failures: Failures) -> None:
    data = json.loads(text)
    if not mutate(data):
        return
    p.attempted += 1
    p.tampered += 1
    try:
        kind, instance = io.parse_instance(case.text)
        findings = report.verify_run(
            kind, instance, report.report_from_json(json.dumps(data))
        )
    except Exception:
        failures.record(p, case, mutate.__name__, traceback.format_exc())
        return
    if not findings:
        failures.record(p, case, mutate.__name__, "tampered report accepted")


def _run_pass(cases, tracer, tamper: bool, failures: Failures) -> Pass:
    p = Pass()
    kept = []
    gc.collect()
    start = time.perf_counter()
    with tracer if tracer is not None else nullcontext():
        for i, case in enumerate(cases):
            text = _run_case(case, p, failures)
            if tamper and text is not None and i % TAMPER_EVERY == 0:
                kept.append((case, text))
    if tracer is not None:
        p.layers = tracer.metrics(reports=len(p.digests))
        p.spans = tracer.spans()
        tracer.reset()
    for i, (case, text) in enumerate(kept):
        _check_tampered(case, text, TAMPERINGS[i % len(TAMPERINGS)], p, failures)
    p.seconds = time.perf_counter() - start
    return p


def _per_case_best(passes: list[Pass], attr: str) -> dict[str, float]:
    """Each case's fastest time over passes, in ms, for `solve_ms` or `verify_ms`."""
    samples = defaultdict(list)
    for p in passes:
        for name, ms in getattr(p, attr).items():
            samples[name].append(ms)
    return {name: min(v) for name, v in samples.items()}


def _percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _tail(op: str, latency_ms: dict[str, float]) -> dict:
    """99th percentile of per-case latency and how many cases lie beyond it."""
    p99 = _percentile(list(latency_ms.values()), 99)
    return {
        f"{op}_ms_p99": p99,
        f"cases_beyond_{op}_p99": sum(ms > p99 for ms in latency_ms.values()),
    }


def _scaling_slope(cases, solve_ms: dict[str, float]) -> float:
    """Log-log slope of solve time against n: one common slope with an
    intercept per family, fitted to each case's fastest solve time."""
    points = defaultdict(list)
    for case in cases:
        if case.name in solve_ms:
            points[case.family].append((math.log(case.n), math.log(solve_ms[case.name])))
    sxy = sxx = 0.0
    for pts in points.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx


def _fingerprint(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(repr(case).encode())
    return h.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Run one workload; returns (result, info, digests)."""
    load_at_start = os.getloadavg()
    setup_s, gen_s, fingerprints = [], [], set()
    while len(setup_s) < SETUP_MIN_REPEATS or (
        sum(setup_s) < SETUP_MIN_SECONDS and len(setup_s) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        cases, spent = workloads.build(workload, seed, scale)
        setup_s.append(time.perf_counter() - start)
        gen_s.append(spent)
        fingerprints.add(_fingerprint(cases))

    failures = Failures()
    tracer = layers.Tracer() if trace else None
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(
            _run_pass(
                cases, tracer if traced else None, workload == "small-batch", failures
            )
        )
        # Stop where the run ends closest to the deadline.
        ends = time.perf_counter() + passes[-1].seconds / 2
        if len(passes) >= (2 if trace else 1) and ends >= deadline:
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # A case's report must be byte-identical in every pass, traced or not.
    digests_match = all(p.digests == passes[0].digests for p in passes)
    plain = [p for p in passes if p.layers is None]
    traced_passes = [p for p in passes if p.layers is not None]
    solve_ms = _per_case_best(plain, "solve_ms")
    verify_ms = _per_case_best(plain, "verify_ms")

    if trace:
        untraced_solve = sum(solve_ms.values()) / 1000
        traced_solve = sum(_per_case_best(traced_passes, "solve_ms").values()) / 1000
        metrics = {
            name: statistics.median(p.layers[name] for p in traced_passes)
            for name in traced_passes[0].layers
        }
        metrics["advisor.fallbacks"] = statistics.median(p.fallbacks for p in traced_passes)
        metrics["generators.gen_s"] = statistics.median(gen_s)
        metrics["trace.overhead"] = traced_solve / untraced_solve
    else:
        metrics = {
            "solve_s": sum(solve_ms.values()) / 1000,
            "verify_s": sum(verify_ms.values()) / 1000,
            "solve_ms_p50": statistics.median(solve_ms.values()),
            "verify_ms_p50": statistics.median(verify_ms.values()),
            "report_bytes": passes[0].report_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_s),
            "solve_slope": _scaling_slope(cases, solve_ms),
            "cost_over_bound": passes[0].cost / passes[0].best_bound,
        }

    info = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": load_at_start,
        "cases": len(cases),
        "passes": len(plain),
        "traced_passes": len(traced_passes),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "ops_failed_share": failed / attempted,
        "tampered_reports_checked": sum(p.tampered for p in passes),
        "latency_cases": len(solve_ms),
        **_tail("solve", solve_ms),
        **_tail("verify", verify_ms),
        "pass_seconds": [p.seconds for p in passes],
        "setup_s_each": setup_s,
        "instances_reproducible": len(fingerprints) == 1,
        "digests_match_across_passes": digests_match,
    }
    if trace:
        info["trace_overhead"] = {
            "untraced_solve_s": untraced_solve,
            "traced_solve_s": traced_solve,
        }
        info["spans"] = traced_passes[-1].spans
        info["untraced_targets"] = tracer.missing
    result = {
        "correct": failed == 0 and digests_match and len(fingerprints) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info, passes[0].digests
