"""Run reports: everything one approximation run produced, JSON-serializable.

A report carries the selection, the per-iteration records, the dual
certificate with its lower bounds, and enough redundancy (histogram,
identities, instance digest) that `verify_run` can re-check a run from the
report plus the original instance text alone. `_derived` computes every
field that the iterations and the instance fix, and `build_report` builds
its report from it. `verify_run` compares each report field with its
derived value, then checks that what the iterations make is a proof: a
feasible selection and dual certificate, the counting identities and the
guarantee. `build_report` runs that same check on every report it
assembles, so `verify_run` is the one checker of a finished run. Ratios are
kept as exact fractions; no guarantee is ever checked in floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from operator import lt

from .certificates import (
    SSC,
    TWOECS,
    Cut,
    DualCertificate,
    lower_bounds,
    verify_certificate,
)
from .instances import DPAInstance, SSCInstance, TwoECSInstance, check_feasible
from .io import instance_digest, natural_kind


@dataclass(frozen=True)
class Bounds:
    """Lower bounds on the optimum plus their convex combination."""

    dual_objective: int
    n_bound: int
    best: int
    convex_bound: Fraction


@dataclass(frozen=True)
class IterationRecord:
    """One contraction step: what was selected and which cuts it certified.

    `selected` and cut sides use original ids. `kind` is "cycle" for edge
    runs, "perfect" for bidirected star runs, and "big-one-cut"/"two-cuts"
    for general star runs."""

    index: int
    kind: str
    selected: tuple[int, ...]
    cuts: tuple[Cut, ...]


@dataclass(frozen=True)
class RunReport:
    problem: str
    n: int
    k: int
    cost: int
    selection_kind: str
    selected: tuple[int, ...]
    histogram: dict[int, int]
    iterations: tuple[IterationRecord, ...]
    certificate: DualCertificate
    bounds: Bounds
    ratio_vs_best: Fraction
    advisor_fallbacks: int
    instance_digest: str
    selected_stars: tuple[int, ...] | None = None


BIG_ONE_CUT = "big-one-cut"
TWO_CUTS = "two-cuts"

# Report problem tag -> (its certificate's problem, its iteration kinds with
# the cuts each one adds, the instance types it runs on with the selection
# kind it reports on each).
RUNS = {
    "2ecs": (TWOECS, {"cycle": 1}, {TwoECSInstance: "edges"}),
    "dpa": (SSC, {"perfect": 2}, {SSCInstance: "stars", DPAInstance: "power"}),
    "ssc": (SSC, {BIG_ONE_CUT: 1, TWO_CUTS: 2}, {SSCInstance: "stars"}),
}
ITERATION_KINDS = frozenset(kind for _, kinds, _ in RUNS.values() for kind in kinds)
SELECTION_KINDS = frozenset(sel for *_, on in RUNS.values() for sel in on.values())


def convex_bound_for(problem: str, n: int, dual_objective: int) -> Fraction:
    """Blend of the two lower bounds matching each guarantee's tight mix:
    (2n + D)/3 for 2ecs and dpa, (3(n - 1) + D)/4 for ssc."""
    if problem in ("2ecs", "dpa"):
        return Fraction(2 * n + dual_objective, 3)
    return Fraction(3 * (n - 1) + dual_objective, 4)


class RunCheckError(Exception):
    """A finished run failed `verify_run`, the one check a solve makes;
    `problems` lists the findings. A few guards that stop a round from
    crashing or looping forever raise it too, with one finding: a sink with
    no directed path back to the sources, a 2ecs cycle end joined to its
    anchor by a bridge, candidate counts that do not add up to the
    sequence length, and a cycle enlargement that does not terminate.
    Generators raise it when a tight family misses a claim of its
    construction."""

    def __init__(self, problems: list[str]):
        super().__init__("run failed its check: " + "; ".join(problems))
        self.problems = tuple(problems)


def _histogram(iterations) -> dict[int, int]:
    """A_i: the number of iterations that selected i items."""
    hist: dict[int, int] = {}
    for rec in iterations:
        hist[len(rec.selected)] = hist.get(len(rec.selected), 0) + 1
    return hist


def _ratio(cost: int, best: int) -> Fraction:
    return Fraction(cost, best) if best > 0 else Fraction(1)


def _derived(problem: str, instance, iterations) -> dict:
    """Every report field that the iterations and the instance fix, by name.

    The selection is the union of the iterations' selections, and the
    certificate is their cuts in order. A power run ran on the instance's
    star form: its report selects vertices, keeps the stars in
    `selected_stars`, and counts the star form's vertices."""
    cert_problem, _, selection_kinds = RUNS[problem]
    picked = {i for rec in iterations for i in rec.selected}
    stars = tuple(sorted(picked))
    if isinstance(instance, DPAInstance):
        star_instance, star_of = instance.star_form()
        # A star id the star form lacks selects no vertex, so the histogram
        # cost identity fails.
        n, selected_stars = star_instance.vertex_count, stars
        selected = tuple(sorted(v for v, sid in star_of.items() if sid in picked))
    else:
        n, selected, selected_stars = instance.vertex_count, stars, None
    certificate = DualCertificate(
        cert_problem, tuple(cut for rec in iterations for cut in rec.cuts)
    )
    cost = len(selected)
    objective = certificate.objective
    n_bound, best = lower_bounds(n, objective)
    return {
        "n": n,
        "k": len(iterations),
        "cost": cost,
        "selection_kind": selection_kinds[type(instance)],
        "selected": selected,
        "selected_stars": selected_stars,
        "histogram": _histogram(iterations),
        "certificate": certificate,
        "bounds": Bounds(objective, n_bound, best, convex_bound_for(problem, n, objective)),
        "ratio_vs_best": _ratio(cost, best),
    }


def build_report(
    *,
    problem: str,
    instance,
    iterations: tuple[IterationRecord, ...],
    advisor_fallbacks: int,
) -> RunReport:
    """Assemble the report of a finished run, then check it with `verify_run`.

    `instance` is the instance the run was given (a power instance for power
    runs, not its star form); every other field comes from `_derived`.
    Raises RunCheckError listing every finding; the check does not rest on
    `assert`, so it also runs under `python -O`.
    """
    fields = _derived(problem, instance, iterations)
    digest = instance_digest(instance)
    report = RunReport(
        problem=problem,
        iterations=iterations,
        advisor_fallbacks=advisor_fallbacks,
        instance_digest=digest,
        **fields,
    )
    problems = _check_run(natural_kind(instance), instance, report, digest, fields)
    if problems:
        raise RunCheckError(problems)
    return report


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _fraction_from(s: str) -> Fraction:
    """The fraction `_fraction_str` writes as `s`; any other text, even an
    equal value such as "2/2" or "1.0", raises ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"a ratio must be a string 'p/q', not {s!r}")
    # Two `int`s read faster than `Fraction(s)`; the text they accept too
    # loosely (" 3", "0_3", non-ASCII digits) fails the comparison below.
    num, _, den = s.partition("/")
    try:
        f = Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError(f"ratio {s!r} has a zero denominator") from None
    except ValueError:
        f = None
    if f is None or _fraction_str(f) != s:
        raise ValueError(f"ratio {s!r} is not written 'p/q' in lowest terms")
    return f


def _histogram_key(key: str) -> int:
    """The int whose `str` is `key`; `int` alone would also read " 3 ",
    "0_3" and non-ASCII digits, which the encoder never writes."""
    value = int(key)
    if str(value) != key:
        raise ValueError(f"histogram key {key!r} is not an integer as str writes it")
    return value


def _int(value, field: str) -> int:
    # bool is an int subclass, but never a count or an id.
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, not {value!r}")
    return value


def _ascending(values: list) -> bool:
    """Whether `values` is strictly ascending; values that do not compare
    are not."""
    try:
        return len(values) < 2 or all(map(lt, values, islice(values, 1, None)))
    except TypeError:
        return False


def _ints(values, field: str) -> tuple[int, ...]:
    """An id list as the encoder writes it: integers, strictly ascending."""
    values = _list(values, field)
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{field} must hold integers only")
    if not _ascending(values):
        raise ValueError(f"{field} must be strictly ascending")
    return tuple(values)


def _list(value, field: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{field} must be a list, not {type(value).__name__}")
    return value


def _dict(value, field: str) -> dict:
    if type(value) is not dict:
        raise ValueError(f"{field} must be an object, not {type(value).__name__}")
    return value


def _string(value, field: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{field} must be a string, not {value!r}")
    return value


def _label(value, field: str, known) -> str:
    if type(value) is not str or value not in known:
        raise ValueError(f"{field} must be one of {sorted(known)}, not {value!r}")
    return value


def _cuts(sides, field: str) -> tuple[Cut, ...]:
    """Cuts as decoded: a list `[0, v1, v2, ...]` is every vertex but the
    ones after the 0, any other list the vertices it holds. Each list must
    be strictly ascending after its marker; which vertices it names is left
    to the certificate check."""
    if not set(map(type, _list(sides, field))) <= {list}:
        raise ValueError(f"{field} must be a list of lists")
    cuts = []
    try:
        for side in sides:
            # The marker is an int 0 in first place; False is no vertex id.
            complement = bool(side) and type(side[0]) is int and side[0] == 0
            if complement:
                side = side[1:]
            if not _ascending(side):
                raise ValueError(f"{field} must be strictly ascending")
            cuts.append(Cut(frozenset(side), complement))
    except TypeError:
        raise ValueError(f"{field} holds an unhashable vertex") from None
    return tuple(cuts)


def _cut_list(cut: Cut) -> list[int]:
    """The list `_cuts` decodes back to `cut`."""
    side = sorted(cut.side)
    return [0, *side] if cut.complement else side


def report_to_dict(report: RunReport) -> dict:
    return {
        "problem": report.problem,
        "n": report.n,
        "k": report.k,
        "cost": report.cost,
        "selection_kind": report.selection_kind,
        "selected": list(report.selected),
        "selected_stars": (
            list(report.selected_stars)
            if report.selected_stars is not None
            else None
        ),
        "histogram": {str(i): a for i, a in sorted(report.histogram.items())},
        "iterations": [
            {
                "index": rec.index,
                "kind": rec.kind,
                "selected": list(rec.selected),
                "cuts": [_cut_list(c) for c in rec.cuts],
            }
            for rec in report.iterations
        ],
        "certificate": {
            "problem": report.certificate.problem,
            "cuts": [_cut_list(c) for c in report.certificate.cuts],
        },
        "bounds": {
            "dual_objective": report.bounds.dual_objective,
            "n_bound": report.bounds.n_bound,
            "best": report.bounds.best,
            "convex_bound": _fraction_str(report.bounds.convex_bound),
        },
        "ratio_vs_best": _fraction_str(report.ratio_vs_best),
        "advisor_fallbacks": report.advisor_fallbacks,
        "instance_digest": report.instance_digest,
    }


def report_to_json(report: RunReport) -> str:
    """The report as one line of compact JSON; `report_from_json` reads it
    in any layout, so indented reports still decode."""
    return json.dumps(report_to_dict(report), separators=(",", ":")) + "\n"


def _iteration_from(rec) -> IterationRecord:
    rec = _dict(rec, "iteration")
    return IterationRecord(
        index=_int(rec["index"], "iteration index"),
        kind=_label(rec["kind"], "iteration kind", ITERATION_KINDS),
        selected=_ints(rec["selected"], "iteration selection"),
        cuts=_cuts(rec["cuts"], "iteration cuts"),
    )


def report_from_dict(data: dict) -> RunReport:
    """Decode a report; raises KeyError when a field is missing and
    ValueError when a field has the wrong shape: a container that is not a
    list or object, a non-integer in an integer field or id list, an id or
    cut list that is not strictly ascending, a label that is not a string
    the package emits, or a histogram key or ratio not written the way the
    encoder writes it. Cut vertices are left to the certificate check."""
    _dict(data, "report")
    records = _list(data["iterations"], "iterations")
    iterations = tuple(map(_iteration_from, records))
    c = _dict(data["certificate"], "certificate")
    # The encoder writes the iterations' cuts again as the certificate, so
    # equal lists reuse the iteration cuts. Lists also compare equal across
    # types (0 == False == 0.0), so reuse also needs the certificate's
    # entries to be ints; an iteration entry that is not one stays in the
    # reused cut, where the certificate check finds it.
    cert_lists = _list(c["cuts"], "certificate cuts")
    if cert_lists == [side for rec in records for side in rec["cuts"]] and set(
        map(type, chain.from_iterable(cert_lists))
    ) <= {int}:
        cert_cuts = tuple(cut for rec in iterations for cut in rec.cuts)
    else:
        cert_cuts = _cuts(cert_lists, "certificate cuts")
    cert = DualCertificate(
        _label(c["problem"], "certificate problem", (SSC, TWOECS)), cert_cuts
    )
    b = _dict(data["bounds"], "bounds")
    bounds = Bounds(
        dual_objective=_int(b["dual_objective"], "dual_objective"),
        n_bound=_int(b["n_bound"], "n_bound"),
        best=_int(b["best"], "best"),
        convex_bound=_fraction_from(b["convex_bound"]),
    )
    selected_stars = data.get("selected_stars")
    return RunReport(
        problem=_label(data["problem"], "problem", RUNS),
        n=_int(data["n"], "n"),
        k=_int(data["k"], "k"),
        cost=_int(data["cost"], "cost"),
        selection_kind=_label(data["selection_kind"], "selection_kind", SELECTION_KINDS),
        selected=_ints(data["selected"], "selected"),
        histogram={
            _histogram_key(i): _int(a, "histogram count")
            for i, a in _dict(data["histogram"], "histogram").items()
        },
        iterations=iterations,
        certificate=cert,
        bounds=bounds,
        ratio_vs_best=_fraction_from(data["ratio_vs_best"]),
        advisor_fallbacks=_int(data["advisor_fallbacks"], "advisor_fallbacks"),
        instance_digest=_string(data["instance_digest"], "instance_digest"),
        selected_stars=(
            _ints(selected_stars, "selected_stars")
            if selected_stars is not None
            else None
        ),
    )


def report_from_json(text: str) -> RunReport:
    """Decode report JSON text; raises what `report_from_dict` raises, and
    ValueError for text that is not JSON or nests too deeply to decode."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("report nests too deeply to decode") from None
    return report_from_dict(data)


def verify_run(kind: str, instance, report: RunReport) -> list[str]:
    """Re-check a report against its instance; returns found problems.
    The instance's type decides which runs the report can describe; `kind`,
    the instance file's kind, only words the findings."""
    return _check_run(kind, instance, report, instance_digest(instance))


def _check_run(
    kind: str, instance, report: RunReport, digest: str, derived=None
) -> list[str]:
    """`verify_run` given the instance's digest and, optionally, the
    report's `_derived` fields, which `build_report` already has."""
    # The labels are looked up in tables below; an in-process report may
    # carry anything in them, even an unhashable list, so they come first.
    problems = [
        f"{field} {value!r} is not one the package emits"
        for field, value, known in (
            ("problem", report.problem, RUNS),
            ("selection kind", report.selection_kind, SELECTION_KINDS),
            *(("iteration kind", rec.kind, ITERATION_KINDS) for rec in report.iterations),
        )
        if type(value) is not str or value not in known
    ]
    if problems:
        return problems

    def need(ok: bool, msg: str) -> None:
        if not ok:
            problems.append(msg)

    need(report.instance_digest == digest, "instance digest does not match the report")
    _, cuts_per_kind, selection_kinds = RUNS[report.problem]
    # Ids mean something else in an instance of another type: nothing more
    # is checked against it.
    if type(instance) not in selection_kinds:
        problems.append(f"a {report.problem} report cannot belong to a {kind} instance")
        return problems
    if derived is None:
        derived = _derived(report.problem, instance, report.iterations)
    # A finding names its field but never formats a value: one certificate
    # can be megabytes. Cuts compare as (side, complement) pairs, in order:
    # sorting would raise on a hostile side that mixes types.
    problems += [
        f"{field} differs from its derivation"
        for field, value in derived.items()
        if getattr(report, field) != value
    ]

    try:
        need(check_feasible(instance, report.selected), "selection is not feasible")
    except ValueError as exc:
        need(False, f"selection invalid: {exc}")
    need(len(report.selected) == report.cost, "cost differs from selection size")
    need(report.advisor_fallbacks >= 0, "advisor fallback count is negative")
    # A tampered report may carry cuts the instance cannot even express;
    # that must surface as a finding, not an exception. A power run's cuts
    # are over its star form.
    cut_instance = (
        instance.star_form()[0] if isinstance(instance, DPAInstance) else instance
    )
    try:
        feasible, _, violations = verify_certificate(cut_instance, derived["certificate"])
    except (TypeError, ValueError) as exc:
        need(False, f"certificate check failed: {exc}")
    else:
        if not feasible:
            problems.append(f"certificate infeasible: {violations[:3]}")

    n, k, cost, hist = derived["n"], derived["k"], derived["cost"], derived["histogram"]
    need(
        sum((i - 1) * a for i, a in hist.items()) == n - 1,
        "contraction identity sum (i-1)*A_i = n-1 fails",
    )
    need(sum(i * a for i, a in hist.items()) == cost, "histogram cost identity fails")
    need(cost == n + k - 1, "cost identity n+k-1 fails")

    for position, rec in enumerate(report.iterations):
        if rec.index != position:
            problems.append(f"iteration {position} is numbered {rec.index!r}")
        if rec.kind not in cuts_per_kind:
            problems.append(
                f"iteration {position}: no {report.problem} run has kind {rec.kind!r}"
            )
        elif len(rec.cuts) != cuts_per_kind[rec.kind]:
            problems.append(
                f"iteration {position}: {rec.kind} needs {cuts_per_kind[rec.kind]} cut(s)"
            )

    D = derived["bounds"].dual_objective
    if report.problem in ("2ecs", "dpa"):
        need(n <= 1 or 2 * cost < 3 * max(n, D), "guarantee 2*cost < 3*max(n, D) fails")
    else:
        need(5 * cost <= 6 * (n - 1) + 2 * D, "guarantee 5*cost <= 6(n-1)+2D fails")
    return problems
