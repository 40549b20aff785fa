"""Tests for live instances, perfect star sets, internal cuts, augmentation,
and the round loop.

A solve checks no round as it is found; its one check is `verify_run` on the
finished report. The tests below break a round from outside and show that
check still rejects the run. The round checks themselves live in
`tests/reference.py` (see `test_round_references.py`)."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualcut
import dualcut.dpa as dpa_module
import dualcut.perfect as perfect_module
import dualcut.ssc as ssc_module
from dualcut import (
    Advisor,
    InfeasibleInstanceError,
    RunCheckError,
    SSCInstance,
    Star,
    approx_dpa,
    approx_ssc,
    gen_random_bidirected,
    gen_random_ssc,
    mscs_to_ssc,
)
from dualcut.graphs import Digraph, is_strongly_connected
from dualcut.perfect import (
    LiveInstance,
    augment_to_perfect,
    contract_perfect,
    grow_path,
    is_internal_cut,
    is_perfect,
    is_quasiperfect,
    live_crossing_stars,
)
from reference import are_star_disjoint


def live_cycle(n):
    """Directed n-cycle with one singleton star per arc."""
    return LiveInstance.from_instance(
        mscs_to_ssc(n, [(v, v % n + 1) for v in range(1, n + 1)])
    )


def fat_instance():
    """3 vertices; star 0 covers both others, plus singleton returns."""
    return LiveInstance.from_instance(SSCInstance(3, [
        Star(0, 1, frozenset({2, 3})),
        Star(1, 2, frozenset({1})),
        Star(2, 3, frozenset({1})),
        Star(3, 2, frozenset({3})),
    ]))


def test_live_instance_accessors():
    li = fat_instance()
    assert li.current_count == 3
    assert sorted(li.live) == [0, 1, 2, 3]
    assert li.source_of(0) == 1 and li.sinks_of(0) == frozenset({2, 3})
    assert li.stars_at(2) == (1, 3)
    assert li.stars_with_arc(2, 1) == (1,)
    assert li.sources({0, 3}) == frozenset({1, 2})
    assert li.has_arc(1, 2) and li.has_arc(1, 3) and not li.has_arc(3, 2)


def test_dead_star_lookup_raises():
    li = fat_instance().contract({1, 2})
    with pytest.raises(ValueError):
        li.source_of(1)  # internal 2->1 star died in the contraction
    with pytest.raises(ValueError, match="not live"):
        li.sinks_of(1)


def test_contract_rejects_an_empty_block_and_a_vertex_that_is_not_current():
    li = live_cycle(4).contract({1, 2})
    with pytest.raises(ValueError, match="nonempty"):
        li.contract(set())
    with pytest.raises(ValueError, match="not a current vertex"):
        li.contract({1, 2})  # 2 was merged into 1
    assert li.vertices() == (1, 3, 4)


@pytest.mark.parametrize("find", [
    ssc_module.build_simple_cycle,
    ssc_module.find_perfect_set,
    dpa_module.find_perfect_two_cuts,
])
def test_round_functions_need_two_vertices(find):
    # test_twoecs.py checks the same guard of the 2ecs cycle finder.
    with pytest.raises(ValueError, match="at least two"):
        find(LiveInstance(1, []), Advisor())


class RecordingAdvisor(Advisor):
    """Picks at random and records every choice offered to it."""

    def __init__(self, rng):
        self.rng, self.offered = rng, []

    def choose(self, label, candidates):
        self.offered.append((label, list(candidates)))
        return super().choose(label, candidates)

    def pick(self, label, candidates):
        return self.rng.randrange(len(candidates))


def test_grow_path_extends_until_the_end_offers_only_path_vertices():
    rng = random.Random(22)
    for trial in range(300):
        n = 2 + trial % 9
        vertices = range(1, n + 1)
        step = {v: sorted(rng.sample(vertices, rng.randrange(n + 1))) for v in vertices}
        start = rng.sample(vertices, 1 + trial % 2)
        path, advisor = list(start), RecordingAdvisor(rng)
        position = grow_path(path, step.__getitem__, advisor)
        assert position == {v: i for i, v in enumerate(path)}
        assert path[: len(start)] == start
        # Each step offered exactly the end's step vertices off the path,
        # and the path went on by the one chosen.
        assert len(advisor.offered) == len(path) - len(start)
        for i, (label, offered) in enumerate(advisor.offered, start=len(start)):
            assert label == "extend"
            assert offered == [w for w in step[path[i - 1]] if w not in path[:i]]
            assert path[i] in offered
        # It stopped because the end's step offers only path vertices.
        assert set(step[path[-1]]) <= set(path)


def test_contract_remaps_and_drops_empty_stars():
    li = fat_instance()
    shrunk = li.contract({1, 2})
    assert shrunk.current_count == 2
    # Star 0 now goes from merged vertex 1 to vertex 3, which keeps its label.
    assert shrunk.vertices() == (1, 3)
    assert shrunk.source_of(0) == 1 and shrunk.sinks_of(0) == frozenset({3})
    assert shrunk.partition.lift({1}) == frozenset({1, 2})
    # Stars fully inside the block are gone.
    assert 1 not in shrunk.live


def test_quasiperfect_and_perfect():
    li = live_cycle(3)
    assert not is_quasiperfect(li, set())  # empty set never qualifies
    assert is_quasiperfect(li, {0})  # singletons always qualify
    assert not is_perfect(li, {0})  # sink 2 is not a source
    # Two stars making a directed 2-path do not close a cycle on sources.
    assert not is_quasiperfect(li, {0, 1})
    # All three stars: sources {1,2,3}, induced union strongly connected.
    assert is_perfect(li, {0, 1, 2})
    # Duplicate sources are rejected.
    fat = fat_instance()
    assert not is_quasiperfect(fat, {1, 3})


def quasiperfect_by_digraph(li, star_ids):
    """The definition on a dense Digraph over the chosen stars' sources."""
    ids = sorted(set(star_ids))
    if not ids:
        return False
    sources = [li.source_of(sid) for sid in ids]
    if len(set(sources)) != len(ids):
        return False
    index = {v: i + 1 for i, v in enumerate(sorted(sources))}
    arcs = [
        (index[li.source_of(sid)], index[t])
        for sid in ids
        for t in sorted(li.sinks_of(sid))
        if t in index
    ]
    return is_strongly_connected(Digraph(len(index), arcs))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), fan=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_quasiperfect_matches_the_digraph_definition(n, fan, seed):
    li = LiveInstance.from_instance(gen_random_ssc(n, 1.5, fan, seed).instance)
    rng = random.Random(seed)
    while True:
        ids = tuple(sorted(li.live))
        for _ in range(20):
            chosen = rng.sample(ids, rng.randint(0, min(len(ids), 5)))
            assert is_quasiperfect(li, chosen) == quasiperfect_by_digraph(li, chosen)
        if li.current_count == 2:
            break
        li.contract(rng.sample(li.vertices(), 2))


def test_live_crossing_stars_and_internal_cuts():
    li = live_cycle(4)
    assert live_crossing_stars(li, {1}) == frozenset({0})
    assert live_crossing_stars(li, {1, 2}) == frozenset({1})
    q = frozenset({0, 1, 2, 3})
    assert is_internal_cut(li, q, {1})
    assert is_internal_cut(li, q, {1, 2})
    # A crossing star with a sink outside source(q) breaks internality.
    assert not is_internal_cut(li, {0, 1}, {2})
    with pytest.raises(ValueError):
        is_internal_cut(li, q, set())
    with pytest.raises(ValueError):
        is_internal_cut(li, q, {1, 2, 3, 4})
    with pytest.raises(ValueError):
        is_internal_cut(li, q, {7})


def test_are_star_disjoint():
    li = live_cycle(4)
    assert are_star_disjoint(li, {1}, {3})
    # {1} and {1,2}: crossers {0} vs {1} -> disjoint.
    assert are_star_disjoint(li, {1}, {1, 2})
    # {1,2} and {2}: star 1 (arc 2->3) crosses both.
    assert not are_star_disjoint(li, {1, 2}, {2})


def test_augment_pulls_every_external_sink_in():
    li = fat_instance()
    q = augment_to_perfect(li, {0}, Advisor())
    assert is_perfect(li, q)
    assert 0 in q and li.sources(q) == frozenset({1, 2, 3})


def test_augment_walks_long_detours():
    # External sink 4 can only reach a source via 4 -> 5 -> 1.
    li = LiveInstance.from_instance(SSCInstance(5, [
        Star(0, 1, frozenset({2})),
        Star(1, 2, frozenset({1, 4})),
        Star(2, 4, frozenset({5})),
        Star(3, 5, frozenset({1})),
        Star(4, 1, frozenset({3})),
        Star(5, 3, frozenset({1})),
    ]))
    q = augment_to_perfect(li, {0, 1}, Advisor())
    assert is_perfect(li, q)
    assert {0, 1, 2, 3} <= set(q)


def test_contract_perfect_shrinks_and_rejects_imperfect_sets():
    li = live_cycle(4)
    shrunk = contract_perfect(li, frozenset({0, 1, 2, 3}))
    assert shrunk.current_count == 1
    with pytest.raises(ValueError):
        contract_perfect(live_cycle(3), frozenset({0}))


def test_algorithm_modules_hold_no_assert_statements():
    # `python -O` strips assert statements, so no check or guard may be one.
    package = Path(dualcut.__file__).parent
    for name in ("ssc.py", "dpa.py", "perfect.py", "twoecs.py", "generators.py"):
        tree = ast.parse((package / name).read_text())
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], name


def _not_perfect(monkeypatch):
    # A faulty augmentation hands the round a set that is not perfect:
    # contracting its ends merges fewer vertices than it selects stars.
    monkeypatch.setattr(
        ssc_module, "augment_to_perfect", lambda li, ids, advisor: frozenset(ids)
    )


def _cut_twice(monkeypatch):
    # A round that records its cut twice: one star crosses the same cut
    # twice, and the round has the wrong number of cuts for its kind.
    real = ssc_module.find_perfect_set

    def doubled(li, advisor):
        q, sides, kind = real(li, advisor)
        return q, sides + sides[:1], kind

    monkeypatch.setattr(ssc_module, "find_perfect_set", doubled)


@pytest.mark.parametrize(
    "breakage, findings",
    [
        (
            _not_perfect,
            ["contraction identity sum (i-1)*A_i = n-1 fails", "cost identity n+k-1 fails"],
        ),
        (
            _cut_twice,
            ["certificate infeasible: [(6, (0, 1))]", "iteration 0: big-one-cut needs 1 cut(s)"],
        ),
    ],
    ids=["not-perfect", "cut-twice"],
)
def test_round_check_survives_python_O(monkeypatch, breakage, findings):
    # The round's fault surfaces in the run's one check. That check is
    # explicit code, never an `assert` (`test_no_check_depends_on_assert`),
    # so it runs the same under `python -O`.
    breakage(monkeypatch)
    with pytest.raises(RunCheckError) as info:
        approx_ssc(gen_random_ssc(8, 1.0, 2, seed=0).instance)
    assert list(info.value.problems) == findings


def test_no_star_solve_checks_a_set_for_perfection(monkeypatch):
    calls = []
    real = perfect_module.is_perfect
    monkeypatch.setattr(
        perfect_module, "is_perfect", lambda li, ids: calls.append(ids) or real(li, ids)
    )
    for solve, inst in (
        (approx_ssc, gen_random_ssc(12, 1.0, 2, seed=5).instance),
        (approx_dpa, gen_random_bidirected(12, 0.5, 2, seed=5).instance),
    ):
        report = solve(inst)
        assert report.k > 1
    assert calls == []


def test_star_runs_start_only_from_proven_instances_under_python_O():
    # No run re-checks strong connectivity: `SSCInstance` proves it with
    # explicit code, never an `assert` (`test_no_check_depends_on_assert`),
    # and both star solvers take nothing else.
    one_way = [Star(0, 1, {2}), Star(1, 2, {3}), Star(2, 3, {2})]
    with pytest.raises(InfeasibleInstanceError, match="not strongly connected"):
        SSCInstance(3, one_way)

    class Unchecked:
        vertex_count, stars = 3, one_way

    for solve in (approx_ssc, approx_dpa):
        with pytest.raises(TypeError):
            solve(Unchecked())


def test_each_dpa_round_finds_its_leaves_once(monkeypatch):
    # `build_rotation_cycle` hands its leaves to the round's branches.
    leaf_calls, rounds = [], []
    real_leaves, real_round = dpa_module._leaves_of, dpa_module.find_perfect_two_cuts

    def counting_round(li, advisor):
        before, count = len(leaf_calls), li.current_count
        outcome = real_round(li, advisor)
        rounds.append((count, len(leaf_calls) - before))
        return outcome

    monkeypatch.setattr(dpa_module, "_leaves_of", lambda g: leaf_calls.append(g) or real_leaves(g))
    monkeypatch.setattr(dpa_module, "find_perfect_two_cuts", counting_round)
    for seed in range(4):
        approx_dpa(gen_random_bidirected(12, 0.5, 2, seed=seed).instance)
    assert any(count >= 3 for count, _ in rounds)
    assert all(calls == (1 if count >= 3 else 0) for count, calls in rounds)


def test_augmentation_without_a_path_back_is_a_run_check_failure():
    # Star 1 leaves for vertex 3, which has no way back to the sources.
    li = LiveInstance(3, [(0, 1, frozenset({2})), (1, 2, frozenset({1, 3}))])
    with pytest.raises(RunCheckError, match="no directed path leads from 3"):
        augment_to_perfect(li, {0, 1}, Advisor())
