"""Every solver round keeps the lemma-level properties the paper's proofs use.

A solve checks only its finished report (`verify_run`). These tests patch
the reference round checks of `tests/reference.py` into the solvers
(`check_every_round`) and run them over the shipped fixtures, the tight
families with their shipped advice, seeded random pools, and, under
hypothesis, small multi-sink instances with hypothesis-drawn advice.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcut import (
    Advisor,
    Multigraph,
    SSCInstance,
    ScriptedAdvisor,
    Star,
    TwoECSInstance,
    approx_2ecs,
    approx_dpa,
    approx_ssc,
    gen_dpa_tight,
    gen_random_2ecs,
    gen_random_bidirected,
    gen_random_ssc,
    gen_ssc_tight,
    mscs_to_ssc,
    parse_instance,
    verify_run,
)
import dualcut.dpa as dpa_module
import dualcut.ssc as ssc_module
from dualcut.dpa import RotationCycle
from dualcut.io import parse_advice
from dualcut.perfect import LiveInstance
from reference import (
    check_2ecs_round,
    check_every_round,
    check_rotation_cycle,
    check_round,
    check_ssc_round,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _solve_checked(solve, problem, instance, advice=()):
    report = solve(instance, ScriptedAdvisor(advice))
    assert verify_run(problem, instance, report) == []
    return report


def test_every_round_passes_the_reference_checks(monkeypatch):
    runs = []  # (solver, problem tag, instance, advice)
    for path in sorted(FIXTURES.glob("ssc_*.txt")):
        _, inst = parse_instance(path.read_text())
        runs.append((approx_ssc, "ssc", inst, parse_advice(Path(f"{path}.advice").read_text())))
    for k in range(1, 7):
        tk, gk = gen_ssc_tight(k), gen_dpa_tight(k)
        runs.append((approx_ssc, "ssc", tk.instance, tk.advice))
        runs.append((approx_dpa, "dpa", gk.instance, gk.advice))
        runs.append((approx_ssc, "ssc", gk.instance, gk.advice))
    rng = random.Random(18)
    for seed in range(40):
        n, fan = 2 + seed % 11, 1 + seed % 3
        advice = [rng.randrange(0, 6) for _ in range(20)] if seed % 2 else []
        runs.append((approx_ssc, "ssc", gen_random_ssc(n, 1.2, fan, seed).instance, advice))
        runs.append(
            (approx_dpa, "dpa", gen_random_bidirected(n, 0.8, fan, seed).instance, advice)
        )
        runs.append((approx_2ecs, "2ecs", gen_random_2ecs(n, 0.7, seed).instance, advice))

    checked = check_every_round(monkeypatch)
    rounds = {"ssc": 0, "dpa": 0, "2ecs": 0}
    for solve, problem, inst, advice in runs:
        rounds[problem] += _solve_checked(solve, problem, inst, advice).k
    assert checked["ssc"] == rounds["ssc"] > 0
    assert checked["dpa"] == rounds["dpa"] > 0
    assert checked["2ecs"] == rounds["2ecs"] > 0
    assert checked["rotation-cycle"] > 0
    assert checked["augment"] > 0


def test_the_augmentation_reference_requires_a_quasiperfect_set(monkeypatch):
    # Two stars making a directed 2-path do not close a cycle on their
    # sources, and an empty set has no sources at all.
    li = LiveInstance.from_instance(mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1)]))
    checked = check_every_round(monkeypatch)
    for module in (ssc_module, dpa_module):
        assert module.augment_to_perfect(li, {0}, Advisor()) == frozenset(range(3))
        for stars in ({0, 1}, set()):
            with pytest.raises(AssertionError, match="is not quasiperfect"):
                module.augment_to_perfect(li, stars, Advisor())
    assert checked["augment"] == 2


def test_the_reference_checks_reject_broken_rounds():
    li = LiveInstance.from_instance(mscs_to_ssc(4, [(v, v % 4 + 1) for v in range(1, 5)]))
    everything = frozenset(range(4))
    check_round(li, everything, ({1}, {3}))
    check_ssc_round(li, everything, ({1},), "big-one-cut")
    with pytest.raises(AssertionError, match="is not perfect"):
        check_round(li, frozenset({0, 1}), ({1},))
    with pytest.raises(AssertionError, match="share a star"):
        check_round(li, everything, ({1}, {1, 2}, {2}))
    with pytest.raises(AssertionError, match="fewer than four stars"):
        check_ssc_round(li, frozenset({0, 1, 2}), ({1},), "big-one-cut")
    with pytest.raises(AssertionError, match="misses a cycle arc"):
        check_rotation_cycle(li, RotationCycle((1, 3, 2), 1, 2, frozenset()))

    edges = LiveInstance.from_multigraph(Multigraph(3, [(1, 2), (2, 3), (3, 1), (1, 2)]))
    check_2ecs_round(edges, [0, 1, 2], ({3},), "cycle")
    with pytest.raises(AssertionError, match="misses a neighbour of its cut vertex 2"):
        check_2ecs_round(edges, [0, 3], ({2},), "cycle")
    with pytest.raises(AssertionError, match="misses its cut vertex 3"):
        check_2ecs_round(edges, [0, 3], ({3},), "cycle")
    with pytest.raises(AssertionError, match="degree is not 2"):
        check_2ecs_round(edges, [0, 1], ({2},), "cycle")
    with pytest.raises(AssertionError, match="does not carry one single-vertex cut"):
        check_2ecs_round(edges, [0, 1, 2], ({3}, {1}), "cycle")
    with pytest.raises(AssertionError, match="repeat an edge"):
        check_2ecs_round(edges, [0, 0, 1, 2], ({3},), "cycle")
    pairs = LiveInstance.from_multigraph(Multigraph(4, [(1, 2), (1, 2), (3, 4), (3, 4)]))
    with pytest.raises(AssertionError, match="is not connected"):
        check_2ecs_round(pairs, [0, 1, 2, 3], ({1},), "cycle")


# Small multi-sink instances: a spanning cycle or tree in a drawn vertex
# order, plus drawn stars or edges. Hypothesis also draws the advice, so
# every choice sequence the advisor protocol allows can come up.
SIZES = st.integers(3, 8)
ADVICE = st.lists(st.integers(0, 7), max_size=40)


def _cycle(order):
    return list(zip(order, order[1:] + order[:1]))


@st.composite
def ssc_instances(draw):
    n = draw(SIZES)
    fan = draw(st.integers(1, 3))
    order = draw(st.permutations(range(1, n + 1)))
    vertex = st.integers(1, n)
    extra = draw(st.lists(
        st.tuples(vertex, st.frozensets(vertex, min_size=1, max_size=fan)),
        max_size=3 * n,
    ))
    stars = [(u, frozenset((v,))) for u, v in _cycle(order)]
    stars += [(u, sinks - {u}) for u, sinks in extra if sinks - {u}]
    return SSCInstance(n, [Star(i, u, sinks) for i, (u, sinks) in enumerate(stars)])


@st.composite
def bidirected_instances(draw):
    # A drawn spanning tree, not a cycle, so that leaves, which the
    # bidirected rounds branch on, are common.
    n = draw(SIZES)
    fan = draw(st.integers(1, 3))
    order = draw(st.permutations(range(1, n + 1)))
    tree = [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)]
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in tree + pairs:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    stars = []
    for u in range(1, n + 1):
        ahead = sorted(nbrs[u])
        stars += [(u, frozenset(ahead[i : i + fan])) for i in range(0, len(ahead), fan)]
    # Overlapping stars over the same arcs keep the instance bidirected.
    for u, picks in draw(st.lists(
        st.tuples(vertex, st.lists(st.integers(0, 7), min_size=1, max_size=fan)),
        max_size=n,
    )):
        ahead = sorted(nbrs[u])
        stars.append((u, frozenset(ahead[i % len(ahead)] for i in picks)))
    return SSCInstance(n, [Star(i, u, sinks) for i, (u, sinks) in enumerate(stars)])


@st.composite
def twoecs_instances(draw):
    n = draw(SIZES)
    order = draw(st.permutations(range(1, n + 1)))
    vertex = st.integers(1, n)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges = _cycle(order) + [(u, v) for u, v in extra if u != v]
    return TwoECSInstance(Multigraph(n, edges))


@pytest.mark.parametrize(
    "problem, solve, instances",
    [
        ("ssc", approx_ssc, ssc_instances()),
        ("dpa", approx_dpa, bidirected_instances()),
        ("2ecs", approx_2ecs, twoecs_instances()),
    ],
    ids=["ssc", "bidirected-as-dpa", "2ecs"],
)
def test_guarantee_holds_under_every_advisor(problem, solve, instances):
    @settings(max_examples=250, deadline=None)
    @given(inst=instances, advice=ADVICE)
    def run(inst, advice):
        with pytest.MonkeyPatch.context() as mp:
            checked = check_every_round(mp)
            report = _solve_checked(solve, problem, inst, advice)
        assert checked[problem] == report.k == len(report.iterations)

    run()
