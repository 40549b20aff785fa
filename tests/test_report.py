"""Tests for run reports: serialization and independent re-verification."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualcut
from dualcut import (
    RunCheckError,
    approx_2ecs,
    approx_dpa,
    approx_ssc,
    gen_random_2ecs,
    gen_random_dpa,
    gen_random_ssc,
    mscs_to_ssc,
    report_from_json,
    report_to_json,
    verify_run,
)
from dualcut.certificates import Cut, DualCertificate
from dualcut.report import (
    ITERATION_CUTS,
    _indented,
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
        json.loads(text)


# JSON data as reports hold it, plus the other scalars json.dumps accepts;
# lists of ints alone come often, as in reports.
_json_data = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (
        st.lists(st.integers())
        | st.lists(inner, max_size=5)
        | st.dictionaries(st.text(), inner, max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_data)
def test_report_encoder_matches_json_dumps(value):
    assert _indented(value, "") == json.dumps(value, indent=2)


def test_report_encoder_matches_json_dumps_on_edge_shapes():
    for value in ([], {}, [[]], {"": {}}, [True, 1], ["é", "\u2603", None], {"é": [1, -2]}):
        assert _indented(value, "") == json.dumps(value, indent=2)


def test_report_encoding_does_not_rest_on_shared_cut_objects(runs):
    # The encoder sorts each side once for the iteration and certificate
    # entries; cuts that are equal but not the same objects, and a
    # certificate that reorders or adds cuts, must encode the same way.
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
            assert report_to_json(r) == json.dumps(report_to_dict(r), indent=2) + "\n"
        assert report_to_json(variants[0]) == report_to_json(report)


def test_convex_bound_matches_the_two_product_formula():
    for problem in ITERATION_CUTS:
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
    assert any("cuts differ" in p or "dual objective" in p for p in problems)


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
        "certificate cuts differ, in order, from iteration cuts",
    ),
    "star-selection-on-ssc": (
        lambda d: d.__setitem__("selected_stars", [999]),
        "only a power report carries a star selection",
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


def test_verify_catches_missing_star_selection(runs):
    kind, inst, report = runs[1]
    assert report.selection_kind == "power"
    bad = dataclasses.replace(report, selected_stars=None)
    assert any("star selection" in p for p in verify_run(kind, inst, bad))


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
        n=inst.vertex_count,
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


@pytest.mark.parametrize("breakage", ["_dropped_star", "_doubled_certificate"])
def test_build_report_check_survives_python_O(breakage):
    # `python -O` strips assert statements; the report check must not be one.
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from test_report import _three_cycle_report_args, {breakage}
        from dualcut.report import RunCheckError, build_report
        assert False, "assert statements must be stripped here"
        try:
            build_report(**_three_cycle_report_args({breakage}))
        except RunCheckError as exc:
            print("rejected:", len(exc.problems))
        else:
            print("accepted")
    """)
    assert _run_optimized(script).startswith("rejected:")


def test_instance_checks_survive_python_O():
    # Instances and check_feasible decide connectivity with explicit checks,
    # so `python -O` keeps every rejection.
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from test_report import _three_cycle_report_args, _dropped_star
        from dualcut import (
            DPAInstance, InfeasibleInstanceError, RunCheckError,
            SSCInstance, Star, check_feasible,
        )
        from dualcut.report import build_report
        assert False, "assert statements must be stripped here"
        for build in (
            lambda: SSCInstance(3, [Star(0, 1, {{2}}), Star(1, 2, {{1}})]),
            lambda: DPAInstance(3, [(1, 2, 1)]),
        ):
            try:
                build()
            except InfeasibleInstanceError:
                print("infeasible")
            else:
                print("accepted")
        cycle = SSCInstance(3, [Star(0, 1, {{2}}), Star(1, 2, {{3}}), Star(2, 3, {{1}})])
        print(check_feasible(cycle, frozenset({{0, 1}})))
        path = DPAInstance(3, [(1, 2, 1), (2, 3, 1)])
        print(check_feasible(path, frozenset({{1, 3}})))
        try:
            build_report(**_three_cycle_report_args(_dropped_star))
        except RunCheckError as exc:
            print("selection is not feasible" in exc.problems)
        else:
            print("accepted")
    """)
    assert _run_optimized(script).split() == [
        "infeasible", "infeasible", "False", "False", "True",
    ]


def _run_optimized(script: str) -> str:
    """Stdout of `script` run by `python -O` against this package."""
    src = Path(dualcut.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout
