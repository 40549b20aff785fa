"""Run reports: everything one approximation run produced, JSON-serializable.

A report carries the selection, the per-iteration records, the dual
certificate with its lower bounds, and enough redundancy (histogram,
identities, instance digest) that `verify_run` can re-check a run from the
report plus the original instance text alone. `build_report` runs that
same check on every report it assembles, so `verify_run` is the one checker
of a finished run. Ratios are kept as exact fractions; no guarantee is ever
checked in floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _ascii

from .certificates import (
    SSC,
    TWOECS,
    Cut,
    DualCertificate,
    lower_bounds,
    verify_certificate,
)
from .instances import (
    DPAInstance,
    SSCInstance,
    TwoECSInstance,
    check_feasible,
    dpa_to_ssc,
)
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

# Report problem tag -> its iteration kinds -> the cuts each iteration adds.
ITERATION_CUTS = {
    "2ecs": {"cycle": 1},
    "dpa": {"perfect": 2},
    "ssc": {BIG_ONE_CUT: 1, TWO_CUTS: 2},
}
ITERATION_KINDS = frozenset(k for kinds in ITERATION_CUTS.values() for k in kinds)
SELECTION_KINDS = frozenset(("edges", "stars", "power"))
# Report problem tag -> the instance kinds a report of it can belong to.
COMPATIBLE_KINDS = {
    "2ecs": frozenset(("2ecs",)),
    "ssc": frozenset(("ssc", "mscs")),
    "dpa": frozenset(("dpa", "ssc", "mscs")),
}


def convex_bound_for(problem: str, n: int, dual_objective: int) -> Fraction:
    """Blend of the two lower bounds matching each guarantee's tight mix:
    (2n + D)/3 for 2ecs and dpa, (3(n - 1) + D)/4 for ssc."""
    if problem in ("2ecs", "dpa"):
        return Fraction(2 * n + dual_objective, 3)
    return Fraction(3 * (n - 1) + dual_objective, 4)


class RunCheckError(Exception):
    """A round failed its round check, or a finished run failed
    `verify_run`; `problems` lists the findings."""

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


def build_report(
    *,
    problem: str,
    instance,
    n: int,
    iterations: tuple[IterationRecord, ...],
    advisor_fallbacks: int,
    star_form: tuple[SSCInstance, dict[int, int]] | None = None,
) -> RunReport:
    """Assemble the report of a finished run, then check it with `verify_run`.

    `instance` is the instance the run was given (a power instance for power
    runs, not its star form). The selection is the union of the iterations'
    selections, and the certificate is their cuts in order. A power run
    passes `star_form`, the `dpa_to_ssc` pair (star instance, vertex -> star
    id) it ran on: the report then selects vertices and keeps the stars in
    `selected_stars`, and the check reuses the pair instead of deriving it
    again. Raises RunCheckError listing every finding; the check does not
    rest on `assert`, so it also runs under `python -O`.
    """
    k = len(iterations)
    stars = tuple(sorted({i for rec in iterations for i in rec.selected}))
    if star_form is None:
        selected, selected_stars = stars, None
        selection_kind = "edges" if problem == "2ecs" else "stars"
    else:
        vertex_of_star = {sid: v for v, sid in star_form[1].items()}
        selected = tuple(sorted(vertex_of_star[sid] for sid in stars))
        selected_stars, selection_kind = stars, "power"
    certificate = DualCertificate(
        TWOECS if problem == "2ecs" else SSC,
        tuple(cut for rec in iterations for cut in rec.cuts),
    )
    cost = len(selected)
    objective = certificate.objective
    digest = instance_digest(instance)
    n_bound, best = lower_bounds(n, objective)
    report = RunReport(
        problem=problem,
        n=n,
        k=k,
        cost=cost,
        selection_kind=selection_kind,
        selected=selected,
        histogram=_histogram(iterations),
        iterations=iterations,
        certificate=certificate,
        bounds=Bounds(
            dual_objective=objective,
            n_bound=n_bound,
            best=best,
            convex_bound=convex_bound_for(problem, n, objective),
        ),
        ratio_vs_best=_ratio(cost, best),
        advisor_fallbacks=advisor_fallbacks,
        instance_digest=digest,
        selected_stars=selected_stars,
    )
    problems = _check_run(natural_kind(instance), instance, report, digest, star_form)
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
    try:
        f = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"ratio {s!r} has a zero denominator") from None
    if _fraction_str(f) != s:
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


def _ints(values, field: str) -> tuple[int, ...]:
    values = tuple(_list(values, field))
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{field} must hold integers only")
    return values


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
    """Cut sides as decoded; their vertices are left to the certificate check."""
    if not set(map(type, _list(sides, field))) <= {list}:
        raise ValueError(f"{field} must be a list of lists")
    try:
        return tuple(Cut(frozenset(side)) for side in sides)
    except TypeError:
        raise ValueError(f"{field} holds an unhashable vertex") from None


def report_to_dict(report: RunReport) -> dict:
    # Each cut side is sorted once: the certificate repeats the iterations'
    # cuts, and gets copies of their sorted sides.
    sorted_sides: dict[frozenset[int], list[int]] = {}
    for rec in report.iterations:
        for c in rec.cuts:
            if c.side not in sorted_sides:
                sorted_sides[c.side] = sorted(c.side)
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
                "cuts": [sorted_sides[c.side] for c in rec.cuts],
            }
            for rec in report.iterations
        ],
        "certificate": {
            "problem": report.certificate.problem,
            "cuts": [
                sorted_sides[c.side][:] if c.side in sorted_sides else sorted(c.side)
                for c in report.certificate.cuts
            ],
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
    return _indented(report_to_dict(report), "") + "\n"


def _indented(value, pad: str) -> str:
    """`json.dumps(value, indent=2)` for JSON data with string keys, nested
    `pad` deep, in one pass: with an indent, `json.dumps` never uses its C
    encoder, and report lists of ints are long. Ints, strings and None are
    written here; other scalars (bools, floats) go to `json.dumps`."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return _ascii(value)
    if value is None:
        return "null"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is list:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            body = sep.join(map(str, value))
        else:
            body = sep.join([_indented(item, inner) for item in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        body = sep.join(
            [_ascii(key) + ": " + _indented(item, inner) for key, item in value.items()]
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    return json.dumps(value)


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
    list or object, a non-integer in an integer field or id list, a label
    that is not a string the package emits, or a histogram key or ratio not
    written the way the encoder writes it. Cut vertices are left to the
    certificate check."""
    _dict(data, "report")
    iterations = tuple(
        map(_iteration_from, _list(data["iterations"], "iterations"))
    )
    c = _dict(data["certificate"], "certificate")
    cert = DualCertificate(
        _label(c["problem"], "certificate problem", (SSC, TWOECS)),
        _cuts(c["cuts"], "certificate cuts"),
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
        problem=_label(data["problem"], "problem", ITERATION_CUTS),
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
    """Re-check a report against its instance; returns found problems."""
    return _check_run(kind, instance, report, instance_digest(instance))


def _check_run(
    kind: str, instance, report: RunReport, digest: str, star_form=None
) -> list[str]:
    """`verify_run` given the instance's digest and, for a power instance,
    optionally its `dpa_to_ssc` star form, so that `build_report`, which
    already has both, need not derive them again."""
    # The labels are looked up in tables below; an in-process report may
    # carry anything in them, even an unhashable list, so they come first.
    problems = [
        f"{field} {value!r} is not one the package emits"
        for field, value, known in (
            ("problem", report.problem, ITERATION_CUTS),
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

    need(
        report.instance_digest == digest,
        "instance digest does not match the report",
    )
    # Findings that format values are built only when their check fails.
    if kind not in COMPATIBLE_KINDS[report.problem]:
        problems.append(f"a {report.problem} report cannot belong to a {kind} instance")

    # Check the selection only against an instance whose ids it can name,
    # and pick the instance the certificate refers to.
    cert_instance = instance
    paired = True
    if report.problem == "2ecs":
        paired = isinstance(instance, TwoECSInstance)
        need(paired, "edge report paired with a non-edge instance")
    elif report.problem == "dpa" and isinstance(instance, DPAInstance):
        cert_instance, vmap = star_form or dpa_to_ssc(instance)
        if report.selected_stars is None:
            need(False, "power report is missing its star selection")
        else:
            mapped = {vmap[v] for v in report.selected if v in vmap}
            need(
                len(mapped) == len(report.selected)
                and mapped == set(report.selected_stars),
                "power selection and star selection disagree",
            )
    else:
        paired = isinstance(instance, SSCInstance)
        need(paired, "star report paired with a non-star instance")

    if paired:
        try:
            need(check_feasible(instance, report.selected), "selection is not feasible")
        except ValueError as exc:
            need(False, f"selection invalid: {exc}")
    need(len(report.selected) == report.cost, "cost differs from selection size")
    need(report.advisor_fallbacks >= 0, "advisor fallback count is negative")
    if report.problem == "2ecs":
        selection_kind = "edges"
    elif report.problem == "dpa" and isinstance(instance, DPAInstance):
        selection_kind = "power"
    else:
        selection_kind = "stars"
    if report.selection_kind != selection_kind:
        problems.append(
            f"selection kind {report.selection_kind!r} does not fit "
            f"a {report.problem} run on a {kind} instance"
        )
    if selection_kind != "power":
        need(report.selected_stars is None, "only a power report carries a star selection")

    expected_problem = TWOECS if report.problem == "2ecs" else SSC
    if report.certificate.problem != expected_problem:
        need(False, "certificate problem tag mismatch")
    else:
        # A tampered report may carry cuts the instance cannot even express;
        # that must surface as a finding, not an exception.
        try:
            feasible, objective, violations = verify_certificate(
                cert_instance, report.certificate
            )
        except (TypeError, ValueError) as exc:
            need(False, f"certificate check failed: {exc}")
        else:
            if not feasible:
                problems.append(f"certificate infeasible: {violations[:3]}")
            need(
                objective == report.bounds.dual_objective,
                "dual objective differs from certificate",
            )

    n, k, cost = report.n, report.k, report.cost
    need(n == cert_instance.vertex_count, "vertex count differs from instance")
    need(k == len(report.iterations), "iteration count differs from k")

    hist = _histogram(report.iterations)
    need(hist == report.histogram, "histogram differs from iteration records")
    need(
        sum((i - 1) * a for i, a in hist.items()) == n - 1,
        "contraction identity sum (i-1)*A_i = n-1 fails",
    )
    need(sum(i * a for i, a in hist.items()) == cost, "histogram cost identity fails")
    need(cost == n + k - 1, "cost identity n+k-1 fails")

    picked: set[int] = set()
    kinds = ITERATION_CUTS[report.problem]
    for position, rec in enumerate(report.iterations):
        picked.update(rec.selected)
        if rec.index != position:
            problems.append(f"iteration {position} is numbered {rec.index!r}")
        if rec.kind not in kinds:
            problems.append(
                f"iteration {position}: no {report.problem} run has kind {rec.kind!r}"
            )
        elif len(rec.cuts) != kinds[rec.kind]:
            problems.append(
                f"iteration {position}: {rec.kind} needs {kinds[rec.kind]} cut(s)"
            )
    # Sides compare as frozensets, in order: sorting would raise on a
    # hostile side that mixes types.
    need(
        [c.side for rec in report.iterations for c in rec.cuts]
        == [c.side for c in report.certificate.cuts],
        "certificate cuts differ, in order, from iteration cuts",
    )
    expected_selected = (
        set(report.selected_stars or ())
        if report.selection_kind == "power"
        else set(report.selected)
    )
    need(picked == expected_selected, "iteration selections do not add up")

    D = report.bounds.dual_objective
    if report.problem in ("2ecs", "dpa"):
        need(n <= 1 or 2 * cost < 3 * max(n, D), "guarantee 2*cost < 3*max(n, D) fails")
    else:
        need(5 * cost <= 6 * (n - 1) + 2 * D, "guarantee 5*cost <= 6(n-1)+2D fails")

    n_bound, best = lower_bounds(n, D)
    need(report.bounds.n_bound == n_bound, "vertex-count bound is wrong")
    need(report.bounds.best == best, "best bound is not the max of the two")
    need(
        report.bounds.convex_bound
        == convex_bound_for(report.problem, n, D),
        "convex bound formula mismatch",
    )
    need(
        report.ratio_vs_best == _ratio(cost, report.bounds.best),
        "ratio differs from cost/best",
    )
    return problems
