"""Instance and selection checks against the Digraph and networkx definitions.

Instances and `check_feasible` decide strong connectivity by reachability
over adjacency lists read from the stars or edges. The reference here is the
plain definition: build a `Digraph` of the same arcs and run
`is_strongly_connected` on it, with networkx as a second, independent opinion.
"""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from dualcut import (
    DPAInstance,
    InfeasibleInstanceError,
    SSCInstance,
    Star,
    check_feasible,
    gen_random_bidirected,
    gen_random_dpa,
    gen_random_ssc,
)
from dualcut.graphs import Digraph, is_strongly_connected, spans_strongly
from reference import dpa_induced_graph


def strongly_connected(n, arcs):
    """The Digraph definition, checked against networkx."""
    expected = is_strongly_connected(Digraph(n, arcs))
    g = nx.DiGraph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(arcs)
    assert nx.is_strongly_connected(g) == expected
    return expected


def star_arcs(stars):
    return [a for s in stars for a in s.arcs()]


@st.composite
def star_lists(draw):
    """(n, stars): random stars over 1..n, some repeated, and on a coin
    flip a reverse singleton star for every arc (a bidirected union)."""
    n = draw(st.integers(1, 9))
    raw = []
    if n > 1:
        for _ in range(draw(st.integers(0, 2 * n))):
            src = draw(st.integers(1, n))
            others = [v for v in range(1, n + 1) if v != src]
            sinks = draw(st.sets(st.sampled_from(others), min_size=1, max_size=3))
            raw.append((src, frozenset(sinks)))
        raw += draw(st.lists(st.sampled_from(raw), max_size=3)) if raw else []
        if draw(st.booleans()):
            raw += [(t, frozenset({s})) for s, sinks in list(raw) for t in sinks]
    return n, [Star(i, s, sinks) for i, (s, sinks) in enumerate(raw)]


def check_construction(n, stars) -> bool:
    """SSCInstance accepts exactly the strongly connected unions, and its
    `is_bidirected` matches a Digraph of the same arcs. Returns feasibility."""
    arcs = star_arcs(stars)
    expected = strongly_connected(n, arcs)
    try:
        inst = SSCInstance(n, stars)
    except InfeasibleInstanceError:
        assert not expected
        return False
    assert expected
    assert inst.is_bidirected() == Digraph(n, arcs).is_bidirected()
    return True


@settings(max_examples=150, deadline=None)
@given(star_lists())
def test_ssc_construction_matches_the_digraph_definition(drawn):
    check_construction(*drawn)


def test_ssc_construction_reaches_both_outcomes():
    rng = random.Random(7)
    outcomes = set()
    bidirected = set()
    for _ in range(200):
        n = rng.randint(2, 8)
        stars = []
        for i in range(rng.randint(1, 2 * n)):
            src = rng.randint(1, n)
            sinks = rng.sample([v for v in range(1, n + 1) if v != src], rng.randint(1, min(3, n - 1)))
            stars.append(Star(i, src, frozenset(sinks)))
        outcomes.add(check_construction(n, stars))
    for seed in range(10):
        inst = gen_random_bidirected(12, 0.8, 3, seed).instance
        assert check_construction(inst.vertex_count, list(inst.stars))
        bidirected.add(inst.is_bidirected())
        inst = gen_random_ssc(12, 1.0, 3, seed).instance
        assert check_construction(inst.vertex_count, list(inst.stars))
        bidirected.add(inst.is_bidirected())
    assert check_construction(1, [])
    assert outcomes == {True, False} and bidirected == {True, False}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    fan=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_star_selections_match_the_digraph_definition(n, fan, seed, data):
    inst = gen_random_ssc(n, 1.5, fan, seed).instance
    ids = range(len(inst.stars))
    for _ in range(4):
        chosen = data.draw(st.sets(st.sampled_from(ids)))
        expected = strongly_connected(n, star_arcs(inst.stars[i] for i in chosen))
        assert check_feasible(inst, frozenset(chosen)) == expected


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    zero=st.floats(0.0, 0.8),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_power_selections_match_the_digraph_definition(n, zero, seed, data):
    d = gen_random_dpa(n, zero, seed).instance
    for _ in range(4):
        high = data.draw(st.sets(st.integers(1, n)))
        expected = strongly_connected(n, dpa_induced_graph(d, high).arcs)
        assert check_feasible(d, frozenset(high)) == expected


def test_random_selections_reach_both_outcomes():
    rng = random.Random(11)
    star_outcomes, power_outcomes = set(), set()
    for seed in range(40):
        inst = gen_random_ssc(15, 1.5, 3, seed).instance
        keep = rng.choice((0.6, 0.85, 0.95, 1.0))
        chosen = {i for i in range(len(inst.stars)) if rng.random() < keep}
        expected = strongly_connected(15, star_arcs(inst.stars[i] for i in chosen))
        assert check_feasible(inst, frozenset(chosen)) == expected
        star_outcomes.add(expected)
        d = gen_random_dpa(15, 0.4, seed).instance
        high = {v for v in range(1, 16) if rng.random() < keep}
        expected = strongly_connected(15, dpa_induced_graph(d, high).arcs)
        assert check_feasible(d, frozenset(high)) == expected
        power_outcomes.add(expected)
    assert star_outcomes == {True, False} and power_outcomes == {True, False}


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    data=st.data(),
)
def test_dpa_construction_matches_the_digraph_definition(n, data):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(u, v, data.draw(st.integers(0, 1))) for u, v in chosen]
    expected = strongly_connected(n, [a for u, v, _ in edges for a in ((u, v), (v, u))])
    try:
        DPAInstance(n, edges)
    except InfeasibleInstanceError:
        assert not expected
    else:
        assert expected


def test_spans_strongly_on_adjacency_lists():
    # n = 1 needs no arcs; repeated entries do not count twice.
    assert spans_strongly(1, [[], []], [[], []])
    assert spans_strongly(2, [[], [2, 2], [1]], [[], [2], [1, 1]])
    assert not spans_strongly(2, [[], [2], []], [[], [], [1]])
    assert not spans_strongly(3, [[], [2], [1], []], [[], [2], [1], []])
