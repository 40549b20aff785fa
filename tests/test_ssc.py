"""Tests for the general star-cover approximation algorithm."""

import random
from pathlib import Path

import pytest

from dualcut import (
    SSCInstance,
    ScriptedAdvisor,
    Star,
    approx_ssc,
    check_feasible,
    exact_ssc,
    gen_random_ssc,
    mscs_to_ssc,
    parse_instance,
    verify_certificate,
    verify_run,
)
from dualcut.graphs import Digraph
from dualcut.perfect import (
    LiveInstance,
    are_star_disjoint,
    contract_perfect,
    is_internal_cut,
    is_perfect,
)
from dualcut.io import parse_advice
from dualcut.report import TWO_CUTS
from dualcut.ssc import build_simple_cycle, find_perfect_set

FIXTURES = Path(__file__).parent / "fixtures"


def S(i, src, *sinks):
    return Star(i, src, frozenset(sinks))


def cycle_instance(n):
    return mscs_to_ssc(n, [(i, i % n + 1) for i in range(1, n + 1)])


def sides(report):
    return [
        tuple(sorted(sorted(c.side) for c in it.cuts)) for it in report.iterations
    ]


def test_simple_cycle_invariants():
    rng = random.Random(21)
    for trial in range(150):
        inst = gen_random_ssc(2 + trial % 6, 1.0, 1 + trial % 3, seed=trial).instance
        li = LiveInstance.from_instance(inst)
        advisor = ScriptedAdvisor([rng.randrange(0, 6) for _ in range(10)])
        sc = build_simple_cycle(li, advisor)
        cyc = sc.cycle_vertices
        assert len(cyc) == len(set(cyc)) >= 2
        assert sc.closing_end == cyc[-1]
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            assert li.has_arc(a, b)
        # The defining property: the closing end cannot leave the cycle.
        assert set(li.out_neighbors(sc.closing_end)) <= set(cyc)


def test_two_cycle_gives_two_singleton_cuts():
    report = approx_ssc(cycle_instance(2))
    assert report.cost == 2
    assert [it.kind for it in report.iterations] == ["two-cuts"]
    assert sides(report) == [([1], [2])]


def test_directed_triangle():
    report = approx_ssc(cycle_instance(3))
    assert report.cost == 3
    assert [it.kind for it in report.iterations] == ["two-cuts"]
    assert sides(report) == [([2], [3])]
    assert report.selected == (0, 1, 2)


def test_five_cycle_uses_one_big_cut():
    report = approx_ssc(cycle_instance(5))
    assert report.cost == 5
    assert [it.kind for it in report.iterations] == ["big-one-cut"]
    assert len(report.iterations[0].selected) == 5


def test_big_rounds_have_at_least_four_stars():
    for trial in range(120):
        inst = gen_random_ssc(2 + trial % 6, 1.0, 1 + trial % 3, seed=900 + trial).instance
        report = approx_ssc(inst, ScriptedAdvisor([trial % 4, trial % 3, trial % 5]))
        for it in report.iterations:
            if it.kind == "big-one-cut":
                assert len(it.selected) >= 4 and len(it.cuts) == 1
            else:
                assert it.kind == "two-cuts" and len(it.cuts) == 2
        feasible, objective, violations = verify_certificate(
            inst, report.certificate
        )
        assert feasible and not violations
        assert objective == len([c for it in report.iterations for c in it.cuts])


def test_round_outputs_satisfy_contracts():
    rng = random.Random(22)
    for trial in range(100):
        inst = gen_random_ssc(2 + trial % 6, 1.2, 1 + trial % 3, seed=300 + trial).instance
        li = LiveInstance.from_instance(inst)
        advisor = ScriptedAdvisor([rng.randrange(0, 6) for _ in range(14)])
        while li.current_count > 1:
            q, cut_sides, kind = find_perfect_set(li, advisor)
            assert is_perfect(li, q)
            for side in cut_sides:
                assert is_internal_cut(li, q, side)
            if kind == "two-cuts":
                assert are_star_disjoint(li, *cut_sides)
            else:
                assert len(cut_sides) == 1
            li = contract_perfect(li, q)


def test_accounting_and_ratio_against_exact():
    for trial in range(60):
        inst = gen_random_ssc(2 + trial % 5, 1.0, 1 + trial % 3, seed=700 + trial).instance
        report = approx_ssc(inst)
        n = inst.vertex_count
        k = len(report.iterations)
        assert report.cost == n + k - 1
        assert sum(len(it.selected) - 1 for it in report.iterations) == n - 1
        cuts = sum(len(it.cuts) for it in report.iterations)
        assert 5 * report.cost <= 6 * (n - 1) + 2 * cuts
        assert check_feasible(inst, frozenset(report.selected))
        opt = exact_ssc(inst).optimum
        assert report.cost <= 8 * opt / 5


def test_single_vertex_instance():
    report = approx_ssc(SSCInstance(1, []))
    assert report.cost == 0 and not report.iterations


def test_rejects_non_star_input():
    with pytest.raises(TypeError):
        approx_ssc(Digraph(2, [(1, 2), (2, 1)]))


class _LabelRecorder(ScriptedAdvisor):
    """Records the label of every choice, single-candidate ones included,
    one list per round: each ssc round opens with `initial-arc`."""

    def __init__(self, script):
        super().__init__(script)
        self.rounds = []

    def choose(self, label, candidates, partition=None):
        if label == "initial-arc":
            self.rounds.append([])
        self.rounds[-1].append(label)
        return super().choose(label, candidates, partition)


# Each fixture's branch, told from the labels of one round and its kind.
BRANCH_FIRED = {
    "reversed-outward-star": lambda labels, kind: "reversed-outward-star" in labels,
    "f2-star": lambda labels, kind: "f2-star" in labels,
    # The f1-star branch that finds no detour and returns two cuts.
    "f1-two-cuts": lambda labels, kind: (
        kind == TWO_CUTS and "f1-sink" in labels and "f2-star" not in labels
    ),
}


@pytest.mark.parametrize("branch", BRANCH_FIRED)
def test_multi_sink_branches_fire_on_their_fixtures(branch):
    path = FIXTURES / f"ssc_{branch}.txt"
    _, inst = parse_instance(path.read_text())
    advisor = _LabelRecorder(parse_advice(Path(f"{path}.advice").read_text()))
    report = approx_ssc(inst, advisor)
    assert len(advisor.rounds) == report.k
    assert any(
        BRANCH_FIRED[branch](labels, rec.kind) for labels, rec in zip(advisor.rounds, report.iterations)
    )
    assert verify_run("ssc", inst, report) == []
    assert 5 * report.cost <= 6 * (report.n - 1) + 2 * report.bounds.dual_objective
