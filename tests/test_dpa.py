"""Tests for the bidirected (power assignment) approximation algorithm."""

import random

import pytest

from dualcut import (
    Advisor,
    DPAInstance,
    SSCInstance,
    ScriptedAdvisor,
    Star,
    approx_dpa,
    check_feasible,
    dpa_to_ssc,
    exact_dpa,
    gen_random_bidirected,
    gen_random_dpa,
    mscs_to_ssc,
    verify_run,
)
import dualcut.dpa as dpa_module
import dualcut.report as report_module
from dualcut.dpa import build_rotation_cycle, find_perfect_two_cuts
from dualcut.perfect import LiveInstance, contract_perfect
from reference import check_dpa_round, check_rotation_cycle, cut_vertices, ssc_to_dpa


def S(i, src, *sinks):
    return Star(i, src, frozenset(sinks))


def sides(report):
    return [
        tuple(sorted(sorted(cut_vertices(c, report.n)) for c in it.cuts))
        for it in report.iterations
    ]


def test_rotation_cycle_requires_three_vertices():
    li = LiveInstance.from_instance(mscs_to_ssc(2, [(1, 2), (2, 1)]))
    with pytest.raises(ValueError):
        build_rotation_cycle(li, Advisor())


def test_rotation_cycle_invariants_on_random_instances():
    rng = random.Random(11)
    for trial in range(120):
        inst = gen_random_bidirected(3 + trial % 5, 0.8, 1 + trial % 3, seed=trial).instance
        li = LiveInstance.from_instance(inst)
        advisor = ScriptedAdvisor([rng.randrange(0, 6) for _ in range(8)])
        rc = build_rotation_cycle(li, advisor)
        check_rotation_cycle(li, rc)
        assert rc.leaves == {v for v in li.vertices() if len(li.neighbors(v)) == 1}
        cyc = rc.cycle_vertices
        assert all(li.has_arc(b, a) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def test_two_vertex_degenerate_pair():
    inst = mscs_to_ssc(2, [(1, 2), (2, 1)])
    report = approx_dpa(inst)
    assert report.cost == 2
    assert sides(report) == [([1], [2])]


def test_hub_star_with_two_leaf_sinks():
    inst = SSCInstance(4, [S(0, 1, 2, 3, 4), S(1, 2, 1), S(2, 3, 1), S(3, 4, 1)])
    report = approx_dpa(inst)
    assert report.cost == 4
    # One round: the two smallest leaf sinks become singleton cuts.
    assert sides(report) == [([2], [3])]


def test_two_cycle_center_with_matching_star():
    inst = SSCInstance(3, [S(0, 1, 2), S(1, 1, 3), S(2, 2, 1), S(3, 3, 1)])
    report = approx_dpa(inst)
    assert report.cost == 4
    assert [sorted(it.selected) for it in report.iterations] == [[0, 2], [1, 3]]
    assert sides(report) == [([1, 3], [2]), ([1, 2], [3])]


def test_center_star_reaching_leaf_and_cycle():
    # Triangle 1-2-3 with pendant 4 at 3; the star at 3 spans both kinds of sink.
    inst = SSCInstance(4, [
        S(0, 3, 1, 4), S(1, 3, 2), S(2, 1, 2), S(3, 1, 3),
        S(4, 2, 1), S(5, 2, 3), S(6, 4, 3),
    ])
    report = approx_dpa(inst)
    assert report.cost == 4
    assert [sorted(it.selected) for it in report.iterations] == [[0, 2, 5, 6]]
    assert sides(report) == [([1, 2, 3], [4])]


def test_cycle_stars_fallback():
    # Pendant at 1 instead: no center star qualifies, so the round uses the
    # rotation cycle's own arcs.
    inst = SSCInstance(4, [
        S(0, 1, 2, 4), S(1, 1, 3), S(2, 2, 1), S(3, 2, 3),
        S(4, 3, 1), S(5, 3, 2), S(6, 4, 1),
    ])
    report = approx_dpa(inst)
    assert report.cost == 4
    assert [sorted(it.selected) for it in report.iterations] == [[0, 3, 4, 6]]
    assert sides(report) == [([2], [3])]


def test_power_instance_run_is_consistent():
    for seed in range(40):
        d = gen_random_dpa(2 + seed % 6, 0.4, seed=seed).instance
        report = approx_dpa(d)
        assert report.problem == "dpa" and report.selection_kind == "power"
        power = frozenset(report.selected)
        assert check_feasible(d, power)
        assert len(power) == report.cost
        derived, mapping = dpa_to_ssc(d)
        assert report.selected_stars is not None
        assert check_feasible(derived, frozenset(report.selected_stars))
        assert {mapping[v] for v in report.selected} == set(report.selected_stars)
        assert report.cost <= 2 * exact_dpa(d).optimum  # sanity, not the bound


def test_rejects_unusable_inputs():
    with pytest.raises(ValueError):
        approx_dpa(mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1)]))
    with pytest.raises(TypeError):
        approx_dpa(42)


def test_a_caller_given_star_instance_must_be_bidirected(monkeypatch):
    with pytest.raises(ValueError) as excinfo:
        approx_dpa(SSCInstance(3, [S(0, 1, 2), S(1, 2, 3), S(2, 3, 1)]))
    assert excinfo.value.args == ("this algorithm requires a bidirected star instance",)
    # A power instance's star form is bidirected by construction, so its
    # run never asks.
    d = ssc_to_dpa(gen_random_bidirected(12, 0.5, 2, seed=5).instance)

    def unasked(self):
        raise AssertionError("is_bidirected called on a star form")
    monkeypatch.setattr(SSCInstance, "is_bidirected", unasked)
    assert verify_run("dpa", d, approx_dpa(d)) == []


def test_power_solve_and_verify_each_derive_the_star_form_once(monkeypatch):
    # `approx_dpa` hands its star form to `build_report`'s check;
    # `verify_run` derives its own.
    calls = []
    counting = lambda d: calls.append(d) or dpa_to_ssc(d)
    monkeypatch.setattr(dpa_module, "dpa_to_ssc", counting)
    monkeypatch.setattr(report_module, "dpa_to_ssc", counting)
    d = ssc_to_dpa(gen_random_bidirected(12, 0.5, 2, seed=5).instance)
    report = approx_dpa(d)
    assert report.k > 1 and len(calls) == 1
    assert verify_run("dpa", d, report) == [] and len(calls) == 2


def test_round_outputs_satisfy_contracts():
    rng = random.Random(12)
    for trial in range(80):
        inst = gen_random_bidirected(2 + trial % 6, 0.8, 1 + trial % 3, seed=500 + trial).instance
        li = LiveInstance.from_instance(inst)
        advisor = ScriptedAdvisor([rng.randrange(0, 6) for _ in range(12)])
        while li.current_count > 1:
            q, sides, kind = find_perfect_two_cuts(li, advisor)
            check_dpa_round(li, q, sides, kind)
            li = contract_perfect(li, q)
