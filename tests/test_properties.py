"""Property-based tests tying the algorithms to their declared contracts."""

import itertools

from hypothesis import given, settings, strategies as st

from dualcut import (
    Advisor,
    SSCInstance,
    ScriptedAdvisor,
    Star,
    approx_dpa,
    approx_ssc,
    check_feasible,
    mscs_to_ssc,
    verify_run,
)
from dualcut.graphs import Digraph
from dualcut.perfect import LiveInstance, augment_to_perfect, is_perfect
from reference import check_cut_feasible, ssc_to_dpa


@st.composite
def sc_digraphs(draw):
    n = draw(st.integers(2, 6))
    order = draw(st.permutations(range(1, n + 1)))
    arcs = set(zip(order, tuple(order[1:]) + (order[0],)))
    extras = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                lambda a: a[0] != a[1]
            ),
            max_size=6,
        )
    )
    arcs.update(extras)
    return Digraph(n, sorted(arcs))


@st.composite
def star_instances(draw):
    g = draw(sc_digraphs())
    fan = draw(st.integers(1, 3))
    by_source: dict[int, list[int]] = {}
    for u, v in g.arcs:
        by_source.setdefault(u, []).append(v)
    stars = []
    for u in sorted(by_source):
        sinks = by_source[u]
        for i in range(0, len(sinks), fan):
            stars.append(Star(len(stars), u, frozenset(sinks[i : i + fan])))
    return SSCInstance(g.vertex_count, tuple(stars))


@st.composite
def bidirected_instances(draw):
    n = draw(st.integers(2, 6))
    order = draw(st.permutations(range(1, n + 1)))
    edges = {frozenset(p) for p in zip(order, tuple(order[1:]) + (order[0],))}
    if n > 2:
        extras = draw(
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                    lambda a: a[0] != a[1]
                ),
                max_size=4,
            )
        )
        edges.update(frozenset(p) for p in extras)
    arcs = sorted(
        a for e in edges for a in (tuple(sorted(e)), tuple(sorted(e, reverse=True)))
    )
    return mscs_to_ssc(n, arcs)


scripts = st.lists(st.integers(0, 8), max_size=20)


@settings(max_examples=80, deadline=None)
@given(star_instances(), scripts)
def test_general_runs_verify_whatever_the_advice(inst, script):
    report = approx_ssc(inst, ScriptedAdvisor(script))
    assert verify_run("ssc", inst, report) == []


@settings(max_examples=80, deadline=None)
@given(bidirected_instances(), scripts)
def test_bidirected_runs_verify_whatever_the_advice(inst, script):
    report = approx_dpa(inst, ScriptedAdvisor(script))
    assert verify_run("ssc", inst, report) == []


@settings(max_examples=60, deadline=None)
@given(star_instances(), scripts)
def test_runs_are_reproducible(inst, script):
    first = approx_ssc(inst, ScriptedAdvisor(script))
    second = approx_ssc(inst, ScriptedAdvisor(script))
    assert first == second


@settings(max_examples=80, deadline=None)
@given(star_instances(), st.data())
def test_augmenting_a_singleton_yields_a_perfect_superset(inst, data):
    li = LiveInstance.from_instance(inst)
    sid = data.draw(st.sampled_from(sorted(li.live)))
    q = augment_to_perfect(li, frozenset((sid,)), Advisor())
    assert sid in q
    assert is_perfect(li, q)


@settings(max_examples=40, deadline=None)
@given(star_instances())
def test_cut_based_feasibility_matches_connectivity(inst):
    ids = [s.id for s in inst.stars]
    if len(ids) > 9:
        ids = ids[:9]
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            sol = frozenset(combo)
            assert check_cut_feasible(inst, sol) == check_feasible(inst, sol)


@settings(max_examples=60, deadline=None)
@given(bidirected_instances())
def test_conversion_preserves_feasibility_and_cost(inst):
    dpa_inst = ssc_to_dpa(inst)  # star id s becomes power vertex s + 1
    report = approx_ssc(inst)
    stars = frozenset(report.selected)
    assert check_feasible(inst, stars)
    power = frozenset(s + 1 for s in report.selected)
    assert len(power) == len(stars)
    assert check_feasible(dpa_inst, power)
