"""Tests for the 2-edge-connected subgraph approximation."""

import random
import sys

import pytest

from dualcut import (
    EdgeSolution,
    LiveInstance,
    Multigraph,
    PlannedAdvisor,
    ScriptedAdvisor,
    TwoECSInstance,
    approx_2ecs,
    check_feasible,
    crossing_edges,
    exact_2ecs,
    find_cycle_with_internal_cut,
    gen_random_2ecs,
    verify_certificate,
)
from dualcut import graphs


def k4():
    return TwoECSInstance(
        Multigraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    )


def test_cycle_witness_structure_on_k4():
    w = find_cycle_with_internal_cut(LiveInstance.from_multigraph(k4().graph))
    verts = w.cycle_vertices
    assert len(verts) == len(set(verts)) >= 2
    assert len(w.cycle_edges) == len(verts)
    assert w.internal_cut_vertex == verts[-1]
    g = k4().graph
    # Consecutive cycle edges really connect the listed vertices.
    for i, eid in enumerate(w.cycle_edges[:-1]):
        assert set(g.edges[eid]) == {verts[i], verts[i + 1]}
    assert set(g.edges[w.cycle_edges[-1]]) == {verts[-1], verts[0]}


def test_cycle_closing_edge_differs_from_entry_on_parallel_pair():
    g = Multigraph(2, [(1, 2), (1, 2)])
    w = find_cycle_with_internal_cut(LiveInstance.from_multigraph(g))
    assert sorted(w.cycle_edges) == [0, 1]


def test_single_vertex_is_rejected_by_cycle_finder():
    with pytest.raises(ValueError):
        find_cycle_with_internal_cut(LiveInstance.from_multigraph(Multigraph(1, [])))


def test_k4_run():
    report = approx_2ecs(k4())
    assert report.cost == 4
    assert report.n == 4
    assert check_feasible(k4(), EdgeSolution(report.selected))
    feasible, objective, _ = verify_certificate(k4(), report.certificate)
    assert feasible and objective == report.bounds.dual_objective


def test_one_vertex_instance():
    report = approx_2ecs(TwoECSInstance(Multigraph(1, [])))
    assert report.cost == 0 and report.k == 0


def test_cuts_are_pairwise_edge_disjoint():
    rng = random.Random(5)
    for trial in range(150):
        inst = gen_random_2ecs(2 + trial % 6, 0.7, seed=trial).instance
        advisor = ScriptedAdvisor([rng.randrange(0, 6) for _ in range(10)])
        report = approx_2ecs(inst, advisor)
        crossers = [crossing_edges(inst, cut) for cut in report.certificate.cuts]
        for i in range(len(crossers)):
            for j in range(i + 1, len(crossers)):
                assert not (crossers[i] & crossers[j])


def test_cost_identity_and_strict_ratio():
    rng = random.Random(6)
    for trial in range(80):
        inst = gen_random_2ecs(2 + trial % 6, 0.8, seed=1000 + trial).instance
        opt = exact_2ecs(inst).optimum
        for attempt in range(3):
            advisor = ScriptedAdvisor(
                [] if attempt == 0 else [rng.randrange(0, 6) for _ in range(10)]
            )
            report = approx_2ecs(inst, advisor)
            n = inst.graph.vertex_count
            assert report.cost == n + report.k - 1
            assert 2 * report.cost < 3 * opt
            assert check_feasible(inst, EdgeSolution(report.selected))


def test_run_contracts_in_place_without_rebuilding_the_graph(monkeypatch):
    # The rounds contract one live edge instance; the only Multigraph a run
    # builds is the selection that `check_feasible` tests.
    inst = gen_random_2ecs(200, seed=3).instance
    calls = {"contract_multigraph": 0, "Multigraph": 0}
    contract, init = graphs.contract_multigraph, Multigraph.__init__

    def counting_contract(*args, **kwargs):
        calls["contract_multigraph"] += 1
        return contract(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["Multigraph"] += 1
        init(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dualcut" and getattr(module, "contract_multigraph", None) is contract:
            monkeypatch.setattr(module, "contract_multigraph", counting_contract)
    monkeypatch.setattr(Multigraph, "__init__", counting_init)
    report = approx_2ecs(inst)
    assert report.k > 1
    assert calls["contract_multigraph"] == 0
    assert calls["Multigraph"] <= 1


def test_planned_vertex_choices_translate_through_the_partition():
    # Round 2's `extend` offers labels [2, 4]; original vertex 8 was merged
    # into label 2 in round 1, so naming it must pick label 2.
    inst = gen_random_2ecs(8, 0.7, seed=0).instance
    advisor = PlannedAdvisor([
        ("initial-edge", "raw", (1, 3, 3)),
        ("extend", "vertex", 4),
        ("extend", "vertex", 6),
        ("initial-edge", "raw", (1, 3, 3)),
        ("extend", "vertex", 8),
    ])
    report = approx_2ecs(inst, advisor)
    assert advisor.recorded == [0, 0, 0, 0, 0]
    assert report == approx_2ecs(inst)
