"""Tests for run reports: serialization and independent re-verification."""

import ast
import dataclasses
import functools
import inspect
import json
import operator
import random
import re
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

from dualcut import (
    RunCheckError,
    ScriptedAdvisor,
    Star,
    approx_2ecs,
    approx_dpa,
    approx_ssc,
    gen_random_2ecs,
    gen_random_bidirected,
    gen_random_dpa,
    gen_random_ssc,
    gen_ssc_tight,
    mscs_to_ssc,
    parse_instance,
    report_from_json,
    report_to_json,
    verify_run,
    write_instance,
)
import dualcut.report as report_module
from dualcut.certificates import TWOECS, Cut, DualCertificate
from dualcut.instances import DPAInstance, SSCInstance, TwoECSInstance
from dualcut.io import instance_digest
from dualcut.report import (
    BIG_ONE_CUT,
    RUNS,
    SELECTION_KINDS,
    IterationRecord,
    RunReport,
    _derived,
    build_report,
    convex_bound_for,
    report_from_dict,
    report_to_dict,
)


@pytest.fixture(scope="module")
def runs():
    ssc_inst = gen_random_ssc(5, 1.0, 2, seed=3).instance
    dpa_inst = gen_random_dpa(5, 0.4, seed=3).instance
    ecs_inst = gen_random_2ecs(5, 0.7, seed=3).instance
    return [
        ("ssc", ssc_inst, approx_ssc(ssc_inst)),
        ("dpa", dpa_inst, approx_dpa(dpa_inst)),
        ("2ecs", ecs_inst, approx_2ecs(ecs_inst)),
    ]


def test_json_roundtrip_is_lossless(runs):
    for _kind, _inst, report in runs:
        text = report_to_json(report)
        assert report_from_json(text) == report
        # Must be plain JSON all the way down.
        assert json.loads(text) == report_to_dict(report)


def test_report_encoding_does_not_rest_on_shared_cut_objects(runs):
    # Cuts that are equal but not the same objects, and a certificate that
    # reorders or adds cuts, must encode as json.dumps writes their data.
    for _kind, _inst, report in runs:
        iterations = tuple(
            dataclasses.replace(rec, cuts=tuple(dataclasses.replace(c) for c in rec.cuts))
            for rec in report.iterations
        )
        ours = [c for rec in iterations for c in rec.cuts]
        assert all(a is not b for a, b in zip(ours, report.certificate.cuts))
        variants = [
            dataclasses.replace(report, iterations=iterations),
            dataclasses.replace(
                report,
                certificate=DualCertificate(
                    report.certificate.problem,
                    report.certificate.cuts[::-1] + (Cut(frozenset({2, 1})),),
                ),
            ),
        ]
        for r in variants:
            assert report_to_json(r) == json.dumps(report_to_dict(r), separators=(",", ":")) + "\n"
        assert report_to_json(variants[0]) == report_to_json(report)


def test_convex_bound_matches_the_two_product_formula():
    for problem in RUNS:
        for n in range(1, 61):
            for D in range(121):
                if problem in ("2ecs", "dpa"):
                    old = Fraction(2, 3) * n + Fraction(1, 3) * D
                else:
                    old = Fraction(3, 4) * (n - 1) + Fraction(1, 4) * D
                assert convex_bound_for(problem, n, D) == old


def test_fractions_serialize_as_ratio_strings(runs):
    for _kind, _inst, report in runs:
        data = report_to_dict(report)
        num, den = data["ratio_vs_best"].split("/")
        assert Fraction(int(num), int(den)) == report.ratio_vs_best
        assert "/" in data["bounds"]["convex_bound"]


def test_fresh_runs_verify_clean(runs):
    for kind, inst, report in runs:
        assert verify_run(kind, inst, report) == []


def test_verify_catches_flipped_cost(runs):
    kind, inst, report = runs[0]
    bad = dataclasses.replace(report, cost=report.cost + 1)
    problems = verify_run(kind, inst, bad)
    assert any("cost" in p for p in problems)


def test_verify_catches_dropped_cut(runs):
    kind, inst, report = runs[0]
    cert = DualCertificate(report.certificate.problem, report.certificate.cuts[1:])
    bad = dataclasses.replace(report, certificate=cert)
    problems = verify_run(kind, inst, bad)
    assert "certificate differs from its derivation" in problems


def test_verify_catches_digest_change(runs):
    kind, inst, report = runs[0]
    bad = dataclasses.replace(report, instance_digest="0" * 64)
    assert any("digest" in p for p in verify_run(kind, inst, bad))


def test_verify_catches_selection_tampering(runs):
    kind, inst, report = runs[0]
    smaller = report.selected[:-1]
    bad = dataclasses.replace(report, selected=smaller)
    problems = verify_run(kind, inst, bad)
    assert problems  # cost mismatch, identity failures, or infeasibility


# Star and power runs like the benchmark's: (tag, file kind, solver,
# generator, leading generator arguments).
STAR_AND_POWER_TAGS = (
    ("ssc", "ssc", approx_ssc, gen_random_ssc, (1.0, 3)),
    ("mscs", "mscs", approx_ssc, gen_random_ssc, (1.0, 1)),
    ("dpa", "dpa", approx_dpa, gen_random_dpa, (0.4,)),
    ("bidirected-as-dpa", "ssc", approx_dpa, gen_random_bidirected, (0.8, 3)),
)


def _drop_selected(data):
    if not data["selected"]:
        return False
    data["selected"].pop()
    return True


def _move_cut_vertex(data):
    """Move one vertex from a certificate cut to another, keeping both
    cuts nonempty proper subsets; a complemented cut's leading 0 is a
    marker, not a vertex, and stays."""
    cuts, n = data["certificate"]["cuts"], data["n"]
    vertices = [[v for v in cut if v != 0] for cut in cuts]
    for src, listed in zip(cuts, vertices):
        for dst, taken in zip(cuts, vertices):
            if dst is src or len(listed) < 2 or len(taken) + 1 >= n:
                continue
            movable = [v for v in listed if v not in taken]
            if movable:
                src.remove(movable[0])
                dst.append(movable[0])
                dst.sort()
                return True
    return False


def _change_cost(data):
    data["cost"] += 1
    return True


@pytest.fixture(scope="module")
def star_and_power_pool():
    """(tag, kind, instance, report JSON) for 400 seeded runs, half of them
    with a random advice script, as the benchmark's small batch makes them."""
    rng = random.Random(2024)
    pool = []
    for i in range(400):
        tag, kind, solve, gen, extra = STAR_AND_POWER_TAGS[i % len(STAR_AND_POWER_TAGS)]
        gi = gen(rng.randint(6, 30), *extra, rng.randrange(2**31))
        kind, instance = parse_instance(write_instance(gi.instance, kind))
        script = [rng.randrange(8) for _ in range(16)] if i % 8 < 4 else []
        pool.append((tag, kind, instance, report_to_json(solve(instance, ScriptedAdvisor(script)))))
    return pool


@pytest.mark.parametrize("tamper", [_drop_selected, _move_cut_vertex, _change_cost])
def test_tampered_star_and_power_reports_give_findings(star_and_power_pool, tamper):
    # The benchmark's three tamperings, on the report kinds its tamper
    # check never reaches.
    tampered = set()
    for i, (tag, kind, instance, text) in enumerate(star_and_power_pool):
        data = json.loads(text)
        if not tamper(data):
            continue
        tampered.add(tag)
        findings = verify_run(kind, instance, report_from_json(json.dumps(data)))
        assert findings, f"{tag} report {i} accepted after {tamper.__name__}"
    if tamper is _move_cut_vertex:
        # Nearly every power and bidirected run certifies with singletons
        # and their complements, which no move keeps proper.
        assert {"ssc", "mscs"} <= tampered
    else:
        assert tampered == {tag for tag, *_ in STAR_AND_POWER_TAGS}


def _decoded_run(kind, generated, solve):
    """(file kind, instance, decoded report) of `solve` on `generated`'s
    instance read back from its file text, with its advice if it has one."""
    kind, inst = parse_instance(write_instance(generated.instance, kind))
    report = solve(inst, ScriptedAdvisor(generated.advice or []))
    return kind, inst, report_from_json(report_to_json(report))


# One decoded report of each run kind `_derived` covers.
DERIVED_RUNS = {
    "2ecs": lambda: _decoded_run("2ecs", gen_random_2ecs(9, 0.7, seed=3), approx_2ecs),
    "mscs": lambda: _decoded_run("mscs", gen_ssc_tight(2), approx_ssc),
    "ssc-complemented-cut": lambda: _decoded_run(
        "ssc", gen_random_ssc(12, 1.0, 3, seed=8), approx_ssc
    ),
    "power": lambda: _decoded_run("dpa", gen_random_dpa(12, 0.4, seed=3), approx_dpa),
    "dpa-on-star-file": lambda: _decoded_run(
        "ssc", gen_random_bidirected(10, 0.8, 3, seed=3), approx_dpa
    ),
}


def _other_selection_kind(r):
    return min(SELECTION_KINDS - {r.selection_kind})


# One change of each field `_derived` fixes, to a value of the same shape.
FIELD_CHANGES = {
    "n": lambda r: r.n + 1,
    "k": lambda r: r.k + 1,
    "cost": lambda r: r.cost + 1,
    "selection_kind": _other_selection_kind,
    "selected": lambda r: r.selected[:-1],
    "selected_stars": lambda r: None if r.selected_stars else r.selected,
    "histogram": lambda r: {**r.histogram, 99: 1},
    "certificate": lambda r: DualCertificate(r.certificate.problem, r.certificate.cuts[::-1]),
    "bounds": lambda r: dataclasses.replace(r.bounds, best=r.bounds.best + 1),
    "ratio_vs_best": lambda r: r.ratio_vs_best + Fraction(1, 7),
}


# The runs whose selection is still feasible without its last id.
REDUNDANT_LAST_ID = {"2ecs", "mscs"}


@pytest.mark.parametrize("field", FIELD_CHANGES)
@pytest.mark.parametrize("run_kind", DERIVED_RUNS)
def test_verify_names_each_derived_field_that_differs(run_kind, field):
    kind, inst, report = DERIVED_RUNS[run_kind]()
    assert verify_run(kind, inst, report) == []
    if run_kind == "ssc-complemented-cut":
        assert any(c.complement for c in report.certificate.cuts)
    changed = dataclasses.replace(report, **{field: FIELD_CHANGES[field](report)})
    assert getattr(changed, field) != getattr(report, field)
    findings = [f"{field} differs from its derivation"]
    if field == "selected" and run_kind not in REDUNDANT_LAST_ID:
        findings.append("selection is not feasible")
    assert verify_findings(kind, inst, changed) == findings
    assert verify_findings(kind, inst, report_to_json(changed)) == findings


# A report of each problem, and an instance of each type.
PAIRING_REPORTS = {
    "2ecs": lambda: approx_2ecs(gen_random_2ecs(6, 0.7, seed=3).instance),
    "ssc": lambda: approx_ssc(gen_random_ssc(6, 1.0, 2, seed=3).instance),
    "dpa": lambda: approx_dpa(gen_random_dpa(6, 0.4, seed=3).instance),
}
PAIRING_INSTANCES = {
    TwoECSInstance: ("2ecs", lambda: gen_random_2ecs(7, 0.7, seed=4).instance),
    SSCInstance: ("ssc", lambda: gen_random_bidirected(7, 0.8, 2, seed=4).instance),
    DPAInstance: ("dpa", lambda: gen_random_dpa(7, 0.4, seed=4).instance),
}


@pytest.mark.parametrize("same_digest", [False, True], ids=["own-digest", "instance-digest"])
@pytest.mark.parametrize(
    "problem, instance_type",
    [(p, t) for p in PAIRING_REPORTS for t in PAIRING_INSTANCES if t not in RUNS[p][2]],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_a_report_on_an_instance_of_another_type_stops_at_the_pairing(
    problem, instance_type, same_digest
):
    kind, make = PAIRING_INSTANCES[instance_type]
    inst, report = make(), PAIRING_REPORTS[problem]()
    if same_digest:
        report = dataclasses.replace(report, instance_digest=instance_digest(inst))
    pairing = f"a {problem} report cannot belong to a {kind} instance"
    digest = [] if same_digest else ["instance digest does not match the report"]
    assert verify_run(kind, inst, report) == digest + [pairing]


def test_verify_catches_kind_incompatibility(runs):
    _, ssc_inst, ssc_report = runs[0]
    _, ecs_inst, ecs_report = runs[2]
    # Crossed pairings must come back as findings, never as exceptions.
    assert any(
        "cannot belong" in p for p in verify_run("2ecs", ecs_inst, ssc_report)
    )
    assert any(
        "cannot belong" in p for p in verify_run("ssc", ssc_inst, ecs_report)
    )


def _foreign_iteration_kind(report):
    first = dataclasses.replace(report.iterations[0], kind=["big-one-cut"])
    return dataclasses.replace(report, iterations=(first,) + report.iterations[1:])


@pytest.mark.parametrize(
    "tamper, finding",
    [
        (lambda r: dataclasses.replace(r, problem=["ssc"]), "problem ['ssc']"),
        (lambda r: dataclasses.replace(r, problem="mscs"), "problem 'mscs'"),
        (lambda r: dataclasses.replace(r, selection_kind=["stars"]), "selection kind ['stars']"),
        (lambda r: dataclasses.replace(r, selection_kind=None), "selection kind None"),
        (_foreign_iteration_kind, "iteration kind ['big-one-cut']"),
    ],
    ids=["list-problem", "unknown-problem", "list-selection-kind", "none-selection-kind", "list-kind"],
)
def test_verify_run_reports_foreign_labels_instead_of_raising(runs, tamper, finding):
    kind, inst, report = runs[0]
    problems = verify_run(kind, inst, tamper(report))
    assert problems == [f"{finding} is not one the package emits"]


# Edits to the JSON of an ssc run's report that the encoder never writes,
# each with exactly the findings it draws; test_cli runs the same edits
# through `dualcut verify`.
UNEMITTED_EDITS = {
    "renumbered-iterations": (
        lambda d: [rec.__setitem__("index", 7) for rec in d["iterations"]],
        ["iteration 0 is numbered 7", "iteration 1 is numbered 7"],
    ),
    "reversed-iterations": (
        lambda d: d["iterations"].reverse(),
        [
            "certificate differs from its derivation",
            "iteration 0 is numbered 1",
            "iteration 1 is numbered 0",
        ],
    ),
    "reversed-certificate-cuts": (
        lambda d: d["certificate"]["cuts"].reverse(),
        ["certificate differs from its derivation"],
    ),
    "star-selection-on-ssc": (
        lambda d: d.__setitem__("selected_stars", [999]),
        ["selected_stars differs from its derivation"],
    ),
    "negative-fallbacks": (
        lambda d: d.__setitem__("advisor_fallbacks", -5),
        ["advisor fallback count is negative"],
    ),
}


@functools.cache
def _ssc_report_to_edit():
    """The ssc run whose report UNEMITTED_EDITS and UNSORTED_EDITS edit."""
    inst = gen_random_ssc(12, 1.0, 2, seed=5).instance
    return inst, report_to_json(approx_ssc(inst))


@pytest.mark.parametrize("edit", UNEMITTED_EDITS)
def test_verify_rejects_report_forms_the_encoder_never_writes(edit):
    mutate, findings = UNEMITTED_EDITS[edit]
    inst, text = _ssc_report_to_edit()
    data = json.loads(text)
    mutate(data)
    assert verify_findings("ssc", inst, json.dumps(data)) == findings


def _every_cut_list(data):
    return [
        *(side for rec in data["iterations"] for side in rec["cuts"]),
        *data["certificate"]["cuts"],
    ]


def _with_first_cut(data, side):
    """Put `side` in place of the first cut of the first iteration and of
    the certificate, so that the two still agree."""
    data["iterations"][0]["cuts"][0] = list(side)
    data["certificate"]["cuts"][0] = list(side)


# Id and cut lists in an order the encoder never writes: it writes each one
# strictly ascending (a cut list after its leading 0, if any). The decoder
# rejects each as malformed, naming the list; test_cli runs the same edits
# through `dualcut verify`.
UNSORTED_EDITS = {
    "reversed-selection": (lambda d: d["selected"].reverse(), "selected"),
    "reversed-iteration-selection": (
        lambda d: next(
            rec["selected"] for rec in d["iterations"] if len(rec["selected"]) > 1
        ).reverse(),
        "iteration selection",
    ),
    "reversed-cut-lists": (
        lambda d: [side.reverse() for side in _every_cut_list(d)],
        "iteration cuts",
    ),
    "repeated-cut-vertex": (
        lambda d: [side.append(side[-1]) for side in _every_cut_list(d)],
        "iteration cuts",
    ),
    "mixed-type-cut-list": (
        lambda d: _with_first_cut(d, [2, "3"]),
        "iteration cuts",
    ),
    "mixed-type-complemented-cut-list": (
        lambda d: d["certificate"]["cuts"].__setitem__(0, [0, 2, "3"]),
        "certificate cuts",
    ),
}


@pytest.mark.parametrize("edit", UNSORTED_EDITS)
def test_decoder_rejects_lists_out_of_order(edit):
    mutate, field = UNSORTED_EDITS[edit]
    _, text = _ssc_report_to_edit()
    data = json.loads(text)
    mutate(data)
    assert json.dumps(data) != json.dumps(json.loads(text))
    with pytest.raises(ValueError) as raised:
        report_from_json(json.dumps(data))
    assert str(raised.value) == f"{field} must be strictly ascending"


# Cut lists that decode but stand for no nonempty proper subset of the
# vertices (n = 12), put in place of the first iteration and certificate
# cut. Each must surface from the certificate check as a finding; test_cli
# runs the same edits through `dualcut verify`.
HOSTILE_CUT_LISTS = {
    "marker-only": [0],
    "marker-twice": [0, 0],
    "beyond-n": [0, 13],
    "string-vertex": [0, "3"],
    "float-vertex": [0, 1.5],
    "false-marker": [False, 3],
    "true-vertex": [0, True],
    "complement-of-every-vertex": [0, *range(1, 13)],
}


@pytest.mark.parametrize("name", HOSTILE_CUT_LISTS)
def test_verify_finds_hostile_cut_lists(name):
    inst = gen_random_ssc(12, 1.0, 2, seed=5).instance
    data = json.loads(report_to_json(approx_ssc(inst)))
    _with_first_cut(data, HOSTILE_CUT_LISTS[name])
    problems = verify_run("ssc", inst, report_from_json(json.dumps(data)))
    assert any(p.startswith("certificate check failed") for p in problems), problems


def _unreached_ssc_guarantee():
    """A 2-vertex ssc run of one big-one-cut iteration that selects both
    stars, every other field derived. Nothing else checks that a
    big-one-cut iteration selects four stars or more, so only the ssc
    guarantee catches it."""
    inst = SSCInstance(2, [Star(0, 1, {2}), Star(1, 2, {1})])
    iterations = (IterationRecord(0, BIG_ONE_CUT, (0, 1), (Cut(frozenset({2})),)),)
    report = RunReport(
        problem="ssc",
        iterations=iterations,
        advisor_fallbacks=0,
        instance_digest=instance_digest(inst),
        **_derived("ssc", inst, iterations),
    )
    return inst, report


@functools.cache
def _ssc_run():
    """The honest ssc run most hostile reports edit: one big-one-cut
    iteration, so its certificate is one cut."""
    inst = gen_random_ssc(5, 1.0, 2, seed=3).instance
    return inst, approx_ssc(inst)


@functools.cache
def _dpa_run():
    """An honest power run: one iteration selecting four stars."""
    inst = gen_random_dpa(8, 0.4, seed=5).instance
    return inst, approx_dpa(inst)


@functools.cache
def _2ecs_run():
    inst = gen_random_2ecs(5, 0.7, seed=3).instance
    return inst, approx_2ecs(inst)


def _changed(run, **changes):
    """`run`'s report with `changes(report)` in place of its fields."""

    def make():
        inst, report = run()
        return inst, dataclasses.replace(
            report, **{field: change(report) for field, change in changes.items()}
        )

    return make


def _rederived(run, edit):
    """`run`'s report with its first iteration replaced by
    `edit(iteration)`, and every field the iterations fix derived again."""

    def make():
        inst, report = run()
        first, *rest = report.iterations
        iterations = (edit(first), *rest)
        return inst, dataclasses.replace(
            report, iterations=iterations, **_derived(report.problem, inst, iterations)
        )

    return make


def _edited(edit):
    """The JSON data of the ssc run's report, changed in place by `edit`."""

    def make():
        inst, report = _ssc_run()
        data = report_to_dict(report)
        edit(data)
        return inst, data

    return make


def _duplicated_cut():
    # Duplicating a cut keeps iterations and certificate in sync but makes
    # every crosser of that cut a star-disjointness violation.
    inst, report = _ssc_run()
    (first,) = report.iterations
    cuts = first.cuts + report.certificate.cuts[:1]
    return inst, dataclasses.replace(
        report,
        iterations=(dataclasses.replace(first, cuts=cuts),),
        certificate=DualCertificate(report.certificate.problem, cuts),
    )


class Hostile(NamedTuple):
    """A hostile report. `make()` gives (instance, report), the report being
    a RunReport, its JSON data or its JSON text; `kind` is the instance's
    file kind. `findings` is exactly what `verify_findings` returns for the
    report, and `decoded` what it returns after a JSON round trip when that
    differs: the decoder rejects labels the package does not emit."""

    kind: str
    make: Callable
    findings: list
    decoded: list | None = None

    @property
    def decoded_findings(self) -> list:
        return self.findings if self.decoded is None else self.decoded


def verify_findings(kind, inst, report) -> list[str]:
    """What `dualcut verify` prints after each `FAIL: ` for `report`, a
    RunReport, its JSON data or its JSON text: one `malformed report`
    finding when it does not decode, `verify_run`'s findings otherwise."""
    try:
        if isinstance(report, str):
            report = report_from_json(report)
        elif isinstance(report, dict):
            report = report_from_dict(report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc}"]
    return verify_run(kind, inst, report)


def json_text(report) -> str:
    """`report`, in any of `Hostile.make`'s forms, as a report file holds it."""
    if isinstance(report, RunReport):
        return report_to_json(report)
    return report if isinstance(report, str) else json.dumps(report)


# Named hostile reports with exactly the findings each draws, in process
# and after a JSON round trip; test_cli runs them through `dualcut verify`.
# Together they make every finding `_check_run` and the decoder can return
# fire, except the ones IMPLIED lists.
HOSTILE_REPORTS = {
    "unreached-ssc-guarantee": Hostile(
        "ssc", _unreached_ssc_guarantee, ["guarantee 5*cost <= 6(n-1)+2D fails"]
    ),
    "duplicated-cut": Hostile(
        "ssc",
        _duplicated_cut,
        [
            "bounds differs from its derivation",
            "certificate infeasible: [(1, (0, 1)), (2, (0, 1))]",
            "iteration 0: big-one-cut needs 1 cut(s)",
        ],
    ),
    # A star id the star form lacks selects no vertex of the power instance.
    "unknown-star-added": Hostile(
        "dpa",
        _rederived(_dpa_run, lambda rec: dataclasses.replace(rec, selected=(*rec.selected, 999))),
        ["contraction identity sum (i-1)*A_i = n-1 fails"],
    ),
    "star-replaced-by-an-unknown-one": Hostile(
        "dpa",
        _rederived(_dpa_run, lambda rec: dataclasses.replace(rec, selected=(*rec.selected[1:], 999))),
        ["selection is not feasible", "cost identity n+k-1 fails"],
    ),
    "empty-cut": Hostile(
        "ssc",
        _edited(lambda d: _with_first_cut(d, [])),
        ["certificate check failed: cut side must be a nonempty proper subset of the vertices"],
    ),
    "renumbered-iteration": Hostile(
        "ssc",
        _rederived(_ssc_run, lambda rec: dataclasses.replace(rec, index=7)),
        ["iteration 0 is numbered 7"],
    ),
    "kind-of-another-problem": Hostile(
        "ssc",
        _rederived(_ssc_run, lambda rec: dataclasses.replace(rec, kind="cycle")),
        ["iteration 0: no ssc run has kind 'cycle'"],
    ),
    "report-of-another-instance-type": Hostile(
        "ssc",
        lambda: (_ssc_run()[0], _2ecs_run()[1]),
        [
            "instance digest does not match the report",
            "a 2ecs report cannot belong to a ssc instance",
        ],
    ),
    "negative-fallbacks": Hostile(
        "ssc",
        _changed(_ssc_run, advisor_fallbacks=lambda r: -1),
        ["advisor fallback count is negative"],
    ),
    "unknown-problem": Hostile(
        "ssc",
        _changed(_ssc_run, problem=lambda r: "mscs"),
        ["problem 'mscs' is not one the package emits"],
        ["malformed report: problem must be one of ['2ecs', 'dpa', 'ssc'], not 'mscs'"],
    ),
    # Each field the iterations fix, changed on its own.
    "changed-n": Hostile(
        "ssc", _changed(_ssc_run, n=lambda r: r.n + 1), ["n differs from its derivation"]
    ),
    "changed-k": Hostile(
        "ssc", _changed(_ssc_run, k=lambda r: r.k + 1), ["k differs from its derivation"]
    ),
    "changed-cost": Hostile(
        "ssc", _changed(_ssc_run, cost=lambda r: r.cost + 1), ["cost differs from its derivation"]
    ),
    "changed-selection-kind": Hostile(
        "ssc",
        _changed(_ssc_run, selection_kind=lambda r: "power"),
        ["selection_kind differs from its derivation"],
    ),
    "changed-selection": Hostile(
        "ssc",
        _changed(_ssc_run, selected=lambda r: (*r.selected, 999)),
        ["selected differs from its derivation", "selection invalid: unknown star id 999"],
    ),
    "changed-star-selection": Hostile(
        "ssc",
        _changed(_ssc_run, selected_stars=lambda r: (999,)),
        ["selected_stars differs from its derivation"],
    ),
    "changed-histogram": Hostile(
        "ssc",
        _changed(_ssc_run, histogram=lambda r: {1: 99}),
        ["histogram differs from its derivation"],
    ),
    "changed-certificate": Hostile(
        "ssc",
        _changed(_ssc_run, certificate=lambda r: DualCertificate(TWOECS, r.certificate.cuts)),
        ["certificate differs from its derivation"],
    ),
    "changed-bounds": Hostile(
        "ssc",
        _changed(_ssc_run, bounds=lambda r: dataclasses.replace(r.bounds, best=r.bounds.best + 1)),
        ["bounds differs from its derivation"],
    ),
    "changed-ratio": Hostile(
        "ssc",
        _changed(_ssc_run, ratio_vs_best=lambda r: Fraction(99)),
        ["ratio_vs_best differs from its derivation"],
    ),
    # Report data the decoder rejects, one field each.
    "ratio-not-a-string": Hostile(
        "ssc",
        _edited(lambda d: d.__setitem__("ratio_vs_best", 1)),
        ["malformed report: a ratio must be a string 'p/q', not 1"],
    ),
    "ratio-over-zero": Hostile(
        "ssc",
        _edited(lambda d: d["bounds"].__setitem__("convex_bound", "1/0")),
        ["malformed report: ratio '1/0' has a zero denominator"],
    ),
    "ratio-not-in-lowest-terms": Hostile(
        "ssc",
        _edited(lambda d: d.__setitem__("ratio_vs_best", "2/2")),
        ["malformed report: ratio '2/2' is not written 'p/q' in lowest terms"],
    ),
    "padded-histogram-key": Hostile(
        "ssc",
        _edited(lambda d: d.__setitem__("histogram", {" 5": 1})),
        ["malformed report: histogram key ' 5' is not an integer as str writes it"],
    ),
    "boolean-cost": Hostile(
        "ssc",
        _edited(lambda d: d.__setitem__("cost", True)),
        ["malformed report: cost must be an integer, not True"],
    ),
    "string-in-selection": Hostile(
        "ssc",
        _edited(lambda d: d.__setitem__("selected", [0, "1"])),
        ["malformed report: selected must hold integers only"],
    ),
    "selection-out-of-order": Hostile(
        "ssc",
        _edited(lambda d: d["selected"].reverse()),
        ["malformed report: selected must be strictly ascending"],
    ),
    "iterations-not-a-list": Hostile(
        "ssc",
        _edited(lambda d: d.__setitem__("iterations", {})),
        ["malformed report: iterations must be a list, not dict"],
    ),
    "bounds-not-an-object": Hostile(
        "ssc",
        _edited(lambda d: d.__setitem__("bounds", [])),
        ["malformed report: bounds must be an object, not list"],
    ),
    "numeric-digest": Hostile(
        "ssc",
        _edited(lambda d: d.__setitem__("instance_digest", 5)),
        ["malformed report: instance_digest must be a string, not 5"],
    ),
    "unknown-certificate-problem": Hostile(
        "ssc",
        _edited(lambda d: d["certificate"].__setitem__("problem", "nope")),
        ["malformed report: certificate problem must be one of ['2ecs', 'ssc'], not 'nope'"],
    ),
    "cut-not-a-list": Hostile(
        "ssc",
        _edited(lambda d: d["iterations"][0].__setitem__("cuts", [2])),
        ["malformed report: iteration cuts must be a list of lists"],
    ),
    "unhashable-cut-vertex": Hostile(
        "ssc",
        _edited(lambda d: _with_first_cut(d, [[2]])),
        ["malformed report: iteration cuts holds an unhashable vertex"],
    ),
    "nested-too-deeply": Hostile(
        "ssc",
        lambda: (_ssc_run()[0], "[" * 100_000 + "]" * 100_000),
        ["malformed report: report nests too deeply to decode"],
    ),
}

# Findings no hostile report can draw, each with the checks that imply it.
IMPLIED = {
    "guarantee 2*cost < 3*max(n, D) fails": (
        "the cost identity gives cost = n+k-1 and the per-kind cut counts D = 2k, "
        "so 2*cost = 2n+2k-2 < 3*max(n, 2k); kept so that every run checks its guarantee"
    ),
}


@pytest.mark.parametrize("name", HOSTILE_REPORTS)
def test_verify_finds_exactly_what_is_wrong_with_hostile_reports(name):
    entry = HOSTILE_REPORTS[name]
    inst, report = entry.make()
    assert verify_findings(entry.kind, inst, report) == entry.findings
    assert verify_findings(entry.kind, inst, json_text(report)) == entry.decoded_findings


def _template(node) -> str:
    """A finding template as a regular expression: its literal text, with
    each formatted value matching any nonempty text."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.escape(node.value)
    if not isinstance(node, ast.JoinedStr):
        raise AssertionError(f"finding {ast.unparse(node)} is not a string literal")
    return "".join(
        re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
        for part in node.values
    )


def finding_templates() -> set[str]:
    """Every finding `verify_findings` can return, as regular expressions:
    each message `_check_run` passes to `need`, appends to `problems` or
    builds `problems` from, and each decoder `ValueError` in `report.py`
    after `malformed report: `."""
    tree = ast.parse(inspect.getsource(report_module))
    check_run = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_run"
    )
    messages = []
    # `need` itself appends the message it is given.
    for statement in (s for s in check_run.body if not isinstance(s, ast.FunctionDef)):
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "need":
                messages.append(node.args[1])
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "problems.append":
                messages.append(node.args[0])
            elif isinstance(node, ast.Assign | ast.AugAssign) and isinstance(node.value, ast.ListComp):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if [ast.unparse(t) for t in targets] == ["problems"]:
                    messages.append(node.value.elt)
    decoder = [
        node.exc.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and ast.unparse(node.exc.func) == "ValueError"
    ]
    return {
        *map(_template, messages),
        *(re.escape("malformed report: ") + _template(m) for m in decoder),
    }


def test_every_finding_comes_from_a_hostile_report_or_is_implied():
    # The findings stated in the table; the test above proves each is drawn.
    templates = finding_templates()

    def template_of(finding):
        matching = [t for t in templates if re.fullmatch(t, finding)]
        assert len(matching) == 1, (finding, matching)
        return matching[0]

    stated = [
        finding
        for entry in HOSTILE_REPORTS.values()
        for finding in (*entry.findings, *entry.decoded_findings)
    ]
    fired = set(map(template_of, stated))
    implied = set(map(template_of, IMPLIED))
    assert not fired & implied
    assert templates - fired == implied
    inst, report = _ssc_run()
    differ = {m[1] for f in stated if (m := re.fullmatch("(.+) differs from its derivation", f))}
    assert set(_derived(report.problem, inst, report.iterations)) <= differ


def test_decoding_reuses_the_iteration_cuts(runs):
    for _kind, _inst, report in runs:
        decoded = report_from_json(report_to_json(report))
        iteration_cuts = [c for rec in decoded.iterations for c in rec.cuts]
        assert all(map(operator.is_, decoded.certificate.cuts, iteration_cuts))


def test_verify_catches_missing_star_selection(runs):
    kind, inst, report = runs[1]
    assert report.selection_kind == "power"
    bad = dataclasses.replace(report, selected_stars=None)
    assert "selected_stars differs from its derivation" in verify_run(kind, inst, bad)


def test_verify_catches_unexpressible_cut_side(runs):
    kind, inst, report = runs[0]
    alien = Cut(frozenset((99,)))
    bad_iters = list(report.iterations)
    first = bad_iters[0]
    bad_iters[0] = dataclasses.replace(first, cuts=(alien,) + first.cuts[1:])
    bad = dataclasses.replace(
        report,
        certificate=DualCertificate(
            report.certificate.problem,
            (alien,) + report.certificate.cuts[1:],
        ),
        iterations=tuple(bad_iters),
    )
    assert any("certificate check failed" in p for p in verify_run(kind, inst, bad))


def test_build_report_digests_the_instance_once(monkeypatch):
    # build_report hands its digest to the run check instead of recomputing
    # it; verify_run on its own still digests the instance itself.
    import dualcut.report as report_module

    calls = []
    real = report_module.instance_digest
    monkeypatch.setattr(
        report_module, "instance_digest", lambda inst: calls.append(inst) or real(inst)
    )
    inst = gen_random_ssc(6, 1.0, 2, seed=4).instance
    report = approx_ssc(inst)
    assert len(calls) == 1
    assert verify_run("ssc", inst, report) == []
    assert len(calls) == 2


def _three_cycle_report_args(breakage):
    """build_report arguments for a 3-cycle run, broken by `breakage`."""
    inst = mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1)])
    good = approx_ssc(inst)
    args = dict(
        problem="ssc",
        instance=inst,
        iterations=good.iterations,
        advisor_fallbacks=0,
    )
    args.update(breakage(good))
    return args


def _changed_last_iteration(good, **changes):
    *rest, last = good.iterations
    return {"iterations": (*rest, dataclasses.replace(last, **changes))}


def _dropped_star(good):
    # identities break, infeasible
    return _changed_last_iteration(good, selected=good.iterations[-1].selected[:-1])


def _doubled_certificate(good):
    return _changed_last_iteration(good, cuts=good.iterations[-1].cuts * 2)


def test_build_report_rejects_broken_identities():
    with pytest.raises(RunCheckError) as info:
        build_report(**_three_cycle_report_args(_dropped_star))
    assert "cost identity n+k-1 fails" in info.value.problems
    assert "selection is not feasible" in info.value.problems


def test_build_report_rejects_infeasible_certificate():
    with pytest.raises(RunCheckError, match="certificate infeasible"):
        build_report(**_three_cycle_report_args(_doubled_certificate))
