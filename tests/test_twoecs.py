"""Tests for the 2-edge-connected subgraph approximation."""

import random
import sys
from collections.abc import Sequence

import pytest

from dualcut import (
    Advisor,
    Multigraph,
    PlannedAdvisor,
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
from dualcut.perfect import LiveInstance
from dualcut.twoecs import find_cycle_with_internal_cut


def k4():
    return TwoECSInstance(
        Multigraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    )


def test_cycle_witness_structure_on_k4():
    w = find_cycle_with_internal_cut(LiveInstance.from_multigraph(k4().graph), Advisor())
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
    w = find_cycle_with_internal_cut(LiveInstance.from_multigraph(g), Advisor())
    assert sorted(w.cycle_edges) == [0, 1]


def test_single_vertex_is_rejected_by_cycle_finder():
    with pytest.raises(ValueError):
        find_cycle_with_internal_cut(LiveInstance.from_multigraph(Multigraph(1, [])), Advisor())


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


def sorted_oriented_edges(li):
    """The `initial-edge` candidates as a sorted list of every live edge in
    both directions: the reference the lazy sequence must equal."""
    edges = [(eid, u, v) for eid, (u, (v,)) in li.live.items()]
    return sorted([(u, v, eid) for eid, u, v in edges] + [(v, u, eid) for eid, u, v in edges])


class CheckingAdvisor(ScriptedAdvisor):
    """Compares every `initial-edge` candidate sequence with the sorted
    reference of the live instance it was read from."""

    def __init__(self, script, li, rng):
        super().__init__(script)
        self.li, self.rng, self.rounds = li, rng, 0

    def choose(self, label, candidates, partition=None):
        if label == "initial-edge":
            self.rounds += 1
            want = sorted_oriented_edges(self.li)
            assert isinstance(candidates, Sequence) and not isinstance(candidates, list)
            assert len(candidates) == len(want)
            assert list(candidates) == want
            for i in (0, len(want) - 1, self.rng.randrange(len(want))):
                assert candidates[i] == want[i]
            for i in (len(want), -1):
                with pytest.raises(IndexError):
                    candidates[i]
        return super().choose(label, candidates, partition)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 30])
def test_initial_edge_sequence_equals_the_sorted_list_every_round(n):
    rng = random.Random(n)
    for seed in range(6):
        graph = gen_random_2ecs(n, 0.7 if seed % 2 else 1.5, seed=seed).instance.graph
        if n == 2:  # the spanning cycle is a parallel pair
            assert len(graph.edges) > len({frozenset(e) for e in graph.edges})
        li = LiveInstance.from_multigraph(graph)
        script = [] if seed < 2 else [rng.randrange(0, 8) for _ in range(3 * n)]
        advisor = CheckingAdvisor(script, li, rng)
        while li.current_count > 1:
            li.contract(find_cycle_with_internal_cut(li, advisor).cycle_vertices)
        assert advisor.rounds > 0


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
        patch.setattr(twoecs_module, "OrientedEdges", sorted_oriented_edges)
        eager = runs()
    assert lazy == eager
    assert sum(fallbacks for _, fallbacks in lazy) > 0
