"""Tests for run reports: serialization and independent re-verification."""

import dataclasses
import json
import operator
from fractions import Fraction

import random

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
from dualcut.certificates import Cut, DualCertificate
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


@pytest.mark.parametrize("field", FIELD_CHANGES)
@pytest.mark.parametrize("run_kind", DERIVED_RUNS)
def test_verify_names_each_derived_field_that_differs(run_kind, field):
    kind, inst, report = DERIVED_RUNS[run_kind]()
    assert verify_run(kind, inst, report) == []
    if run_kind == "ssc-complemented-cut":
        assert any(c.complement for c in report.certificate.cuts)
    changed = dataclasses.replace(report, **{field: FIELD_CHANGES[field](report)})
    assert getattr(changed, field) != getattr(report, field)
    assert f"{field} differs from its derivation" in verify_run(kind, inst, changed)


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


# Edits to a report's JSON that the encoder never writes, each with the
# finding it must draw; test_cli runs the same edits through `dualcut verify`.
UNEMITTED_EDITS = {
    "renumbered-iterations": (
        lambda d: [rec.__setitem__("index", 7) for rec in d["iterations"]],
        "iteration 0 is numbered 7",
    ),
    "reversed-iterations": (
        lambda d: d["iterations"].reverse(),
        "iteration 0 is numbered",
    ),
    "reversed-certificate-cuts": (
        lambda d: d["certificate"]["cuts"].reverse(),
        "certificate differs from its derivation",
    ),
    "star-selection-on-ssc": (
        lambda d: d.__setitem__("selected_stars", [999]),
        "selected_stars differs from its derivation",
    ),
    "negative-fallbacks": (
        lambda d: d.__setitem__("advisor_fallbacks", -5),
        "advisor fallback count is negative",
    ),
}


@pytest.mark.parametrize("edit", UNEMITTED_EDITS)
def test_verify_rejects_report_forms_the_encoder_never_writes(edit):
    mutate, finding = UNEMITTED_EDITS[edit]
    inst = gen_random_ssc(12, 1.0, 2, seed=5).instance
    data = json.loads(report_to_json(approx_ssc(inst)))
    mutate(data)
    problems = verify_run("ssc", inst, report_from_json(json.dumps(data)))
    assert any(p.startswith(finding) for p in problems), problems


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
    inst = gen_random_ssc(12, 1.0, 2, seed=5).instance
    text = report_to_json(approx_ssc(inst))
    data = json.loads(text)
    mutate(data)
    assert json.dumps(data) != json.dumps(json.loads(text))
    with pytest.raises(ValueError, match=f"^{field} must be strictly ascending"):
        report_from_json(json.dumps(data))


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


# Whole hand-built reports, each with its file kind and the findings
# `verify_run` must return, no more; test_cli runs them through
# `dualcut verify`.
HOSTILE_REPORTS = {
    "unreached-ssc-guarantee": (
        "ssc",
        _unreached_ssc_guarantee,
        ["guarantee 5*cost <= 6(n-1)+2D fails"],
    ),
}


@pytest.mark.parametrize("name", HOSTILE_REPORTS)
def test_verify_finds_exactly_what_is_wrong_with_hostile_reports(name):
    kind, make, findings = HOSTILE_REPORTS[name]
    inst, report = make()
    assert verify_run(kind, inst, report) == findings
    assert verify_run(kind, inst, report_from_json(report_to_json(report))) == findings


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


def test_verify_catches_duplicated_cut(runs):
    kind, inst, report = runs[0]
    # Duplicating a cut keeps iterations and certificate in sync but makes
    # every crosser of that cut a star-disjointness violation.
    dup = report.certificate.cuts[0]
    bad_iters = list(report.iterations)
    first = bad_iters[0]
    bad_iters[0] = dataclasses.replace(first, cuts=first.cuts + (dup,))
    bad = dataclasses.replace(
        report,
        certificate=DualCertificate(
            report.certificate.problem, report.certificate.cuts + (dup,)
        ),
        iterations=tuple(bad_iters),
    )
    problems = verify_run(kind, inst, bad)
    assert any("certificate infeasible" in p or "dual objective" in p for p in problems)


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
