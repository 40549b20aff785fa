"""The lazy candidate sequence of every initial choice against eager lists.

`initial-arc` (ssc's simple cycle, dpa's rotation cycle without arcs into
leaves) and `initial-edge` (2ecs) offer a `perfect.Candidates` read off the
live instance. Each must equal the sorted list `tests/reference.py` builds
from the live records: the same length, order and elements, at every round
of every run, whatever the advice.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import dualcut.twoecs as twoecs_module
from dualcut import (
    Multigraph,
    RunCheckError,
    ScriptedAdvisor,
    approx_2ecs,
    approx_dpa,
    approx_ssc,
    gen_dpa_tight,
    gen_random_2ecs,
    gen_random_bidirected,
    gen_random_dpa,
    gen_random_ssc,
    gen_ssc_tight,
)
from dualcut.perfect import Candidates, LiveInstance
from dualcut.twoecs import oriented_edges
from reference import (
    CheckingAdvisor,
    check_candidates,
    check_initial_candidates,
    live_leaves,
    sorted_arcs,
    sorted_oriented_edges,
)

# Advice values that include indices past every candidate list and a
# negative one, so the runs also take the fallback to index 0.
ADVICE_VALUES = [0, 1, 2, 3, 7, 40, -1]


def _checked_run(monkeypatch, solve, instance, script, rng):
    """Solve with a `CheckingAdvisor`, and again with a plain one: the
    checks must not change the run, the advice consumed or the fallbacks."""
    plain = ScriptedAdvisor(script)
    expected = solve(instance, plain)
    with monkeypatch.context() as patch:
        advisor = CheckingAdvisor(script, rng)
        check_initial_candidates(patch, advisor)
        assert solve(instance, advisor) == expected
    assert (advisor.position, advisor.fallbacks) == (plain.position, plain.fallbacks)
    return advisor.checked


def _random_pool(seed):
    """(solver, instance) pairs of every tag, n 3-30."""
    pool = []
    for i in range(12):
        n = 3 + (7 * i + seed) % 28
        s = 100 * seed + i
        pool += [
            (approx_ssc, gen_random_ssc(n, 1.0, 1 + i % 3, seed=s).instance),
            (approx_dpa, gen_random_bidirected(n, 0.8, 1 + i % 3, seed=s).instance),
            (approx_dpa, gen_random_dpa(n, seed=s).instance),
            (approx_2ecs, gen_random_2ecs(n, 0.7, seed=s).instance),
        ]
    return pool


def test_tight_families_offer_the_sorted_lists(monkeypatch):
    rng = random.Random(1)
    checked = {"initial-arc": 0}
    for k in range(1, 11):
        gi = gen_ssc_tight(k)
        checked["initial-arc"] += _checked_run(monkeypatch, approx_ssc, gi.instance, gi.advice, rng)["initial-arc"]
    for k in range(1, 21):
        gi = gen_dpa_tight(k)
        for solve in (approx_dpa, approx_ssc):
            checked["initial-arc"] += _checked_run(monkeypatch, solve, gi.instance, gi.advice, rng)["initial-arc"]
    assert checked["initial-arc"] > 100


@pytest.mark.parametrize("seed", range(3))
def test_seeded_pools_offer_the_sorted_lists(monkeypatch, seed):
    rng = random.Random(seed)
    checked = {"initial-arc": 0, "initial-edge": 0}
    for solve, instance in _random_pool(seed):
        script = [] if rng.random() < 0.2 else [rng.choice(ADVICE_VALUES) for _ in range(30)]
        for label, count in _checked_run(monkeypatch, solve, instance, script, rng).items():
            checked[label] += count
    assert min(checked.values()) > 20


def test_lazy_and_eager_arcs_replay_the_same_runs(monkeypatch):
    def runs():
        rng = random.Random(9)
        out = []
        for solve, instance in _random_pool(5):
            advisor = ScriptedAdvisor([rng.choice(ADVICE_VALUES) for _ in range(30)])
            out.append((solve(instance, advisor), advisor.position, advisor.fallbacks))
        return out

    lazy = runs()
    with monkeypatch.context() as patch:
        patch.setattr(LiveInstance, "arc_candidates", sorted_arcs)
        patch.setattr(twoecs_module, "oriented_edges", sorted_oriented_edges)
        eager = runs()
    assert lazy == eager
    assert sum(fallbacks for _, _, fallbacks in lazy) > 0


@given(
    n=st.integers(2, 12), fan=st.integers(1, 3), seed=st.integers(0, 10_000),
    bidirected=st.booleans(), data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_arc_candidates_equal_the_sorted_arcs_after_contractions(n, fan, seed, bidirected, data):
    gen = gen_random_bidirected if bidirected else gen_random_ssc
    li = LiveInstance.from_instance(gen(n, 0.8, fan, seed=seed).instance)
    rng = random.Random(seed)
    while li.current_count > 1:
        check_candidates(li.arc_candidates(), sorted_arcs(li), rng)
        if li.current_count >= 3:
            # dpa's filter: a leaf of a strongly connected instance is the
            # head of exactly one arc.
            leaves = live_leaves(li)
            check_candidates(li.arc_candidates(leaves), sorted_arcs(li, leaves), rng)
        heads = data.draw(st.frozensets(st.sampled_from(li.vertices())))
        check_candidates(li.arc_candidates(heads), sorted_arcs(li, heads), rng)
        block = data.draw(st.sets(
            st.sampled_from(li.vertices()), min_size=2, max_size=li.current_count,
        ))
        li.contract(block)


@given(
    n=st.integers(2, 12),
    pairs=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=40),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_oriented_edges_equal_the_sorted_edges_after_contractions(n, pairs, data):
    # Any multigraph, parallel edges included; it need not be connected.
    edges = [(u, v) for u, v in pairs if u != v and u <= n and v <= n]
    li = LiveInstance.from_multigraph(Multigraph(n, edges))
    rng = random.Random(len(edges))
    while li.current_count > 1:
        check_candidates(oriented_edges(li), sorted_oriented_edges(li), rng)
        block = data.draw(st.sets(
            st.sampled_from(li.vertices()), min_size=2, max_size=li.current_count,
        ))
        li.contract(block)


def test_counts_that_do_not_add_up_are_a_run_check_error():
    # Two vertices with one candidate each, but a total of three.
    seq = Candidates((1, 2), lambda: (1, 1), lambda v: iter([(v,)]), 3)
    assert (seq[0], seq[1]) == ((1,), (2,))
    with pytest.raises(RunCheckError, match="do not add up"):
        seq[2]
