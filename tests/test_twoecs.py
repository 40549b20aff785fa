"""Tests for the 2-edge-connected subgraph approximation."""

import random
import sys
from collections import Counter

import pytest

from dualcut import (
    Advisor,
    Multigraph,
    RunCheckError,
    ScriptedAdvisor,
    TwoECSInstance,
    approx_2ecs,
    check_feasible,
    exact_2ecs,
    gen_random_2ecs,
    verify_certificate,
)
from dualcut import graphs
import dualcut.twoecs as twoecs_module
from dualcut.certificates import crossing_edges
from dualcut.perfect import LiveInstance, contract_rounds
from dualcut.twoecs import find_cycle_with_internal_cut
from reference import CheckingAdvisor, PlannedAdvisor, follow_labels, sorted_oriented_edges


def k4():
    return TwoECSInstance(
        Multigraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    )


def test_cycle_witness_structure_on_k4():
    li = LiveInstance.from_multigraph(k4().graph)
    eids, sides, kind = find_cycle_with_internal_cut(li, Advisor())
    assert kind == "cycle"
    ((end,),) = sides
    g = k4().graph
    # Distinct edges in which every endpoint has degree 2: in the simple
    # graph K4, one cycle. The cut vertex and its neighbours lie on it.
    assert len(eids) == len(set(eids)) >= 2
    degree = Counter(v for eid in eids for v in g.edges[eid])
    assert set(degree.values()) == {2} and len(degree) == len(eids)
    assert {end, *li.neighbors(end)} <= set(degree)


def test_cycle_closing_edge_differs_from_entry_on_parallel_pair():
    g = Multigraph(2, [(1, 2), (1, 2)])
    eids, _, _ = find_cycle_with_internal_cut(LiveInstance.from_multigraph(g), Advisor())
    assert sorted(eids) == [0, 1]


def test_single_vertex_is_rejected_by_cycle_finder():
    with pytest.raises(ValueError):
        find_cycle_with_internal_cut(LiveInstance.from_multigraph(Multigraph(1, [])), Advisor())


@pytest.mark.parametrize(
    "n, edges",
    [(2, [(1, 2)]), (4, [(1, 2), (2, 3), (3, 1), (3, 4)])],
    ids=["single-edge", "triangle-with-pendant"],
)
def test_a_bridge_stops_the_cycle_finder(n, edges):
    # The path ends at a vertex whose only edge is the one that entered it.
    li = LiveInstance.from_multigraph(Multigraph(n, edges))
    with pytest.raises(RunCheckError, match="the graph has a bridge"):
        find_cycle_with_internal_cut(li, Advisor())


def test_k4_run():
    report = approx_2ecs(k4())
    assert report.cost == 4
    assert report.n == 4
    assert check_feasible(k4(), frozenset(report.selected))
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
            assert check_feasible(inst, frozenset(report.selected))


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


def test_planned_vertex_choices_translate_through_the_partition(monkeypatch):
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
    follow_labels(monkeypatch, advisor)
    report = approx_2ecs(inst, advisor)
    assert advisor.recorded == [0, 0, 0, 0, 0]
    assert report == approx_2ecs(inst)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 30])
def test_initial_edge_sequence_equals_the_sorted_list_every_round(n):
    rng = random.Random(n)
    for seed in range(6):
        graph = gen_random_2ecs(n, 0.7 if seed % 2 else 1.5, seed=seed).instance.graph
        if n == 2:  # the spanning cycle is a parallel pair
            assert len(graph.edges) > len({frozenset(e) for e in graph.edges})
        li = LiveInstance.from_multigraph(graph)
        script = [] if seed < 2 else [rng.randrange(0, 8) for _ in range(3 * n)]
        advisor = CheckingAdvisor(script, rng, lambda: sorted_oriented_edges(li))
        contract_rounds(li, find_cycle_with_internal_cut, advisor)
        assert advisor.checked["initial-edge"] > 0


def test_out_of_range_advice_replays_as_with_the_sorted_list(monkeypatch):
    def runs():
        rng = random.Random(7)
        out = []
        for seed in range(30):
            inst = gen_random_2ecs(2 + seed % 9, 1.0, seed=seed).instance
            advisor = ScriptedAdvisor([rng.choice([0, 1, 3, 40, -1]) for _ in range(12)])
            out.append((approx_2ecs(inst, advisor), advisor.fallbacks))
        return out

    lazy = runs()
    with monkeypatch.context() as patch:
        patch.setattr(twoecs_module, "oriented_edges", sorted_oriented_edges)
        eager = runs()
    assert lazy == eager
    assert sum(fallbacks for _, fallbacks in lazy) > 0
