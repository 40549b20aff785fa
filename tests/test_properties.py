"""Property-based tests tying the algorithms to their declared contracts."""

import itertools
from collections import Counter

import networkx as nx
from hypothesis import given, settings, strategies as st

from dualcut import (
    Advisor,
    Multigraph,
    SSCInstance,
    ScriptedAdvisor,
    Star,
    TwoECSInstance,
    approx_dpa,
    approx_ssc,
    check_feasible,
    gen_random_2ecs,
    mscs_to_ssc,
    verify_certificate,
    verify_run,
)
from dualcut.certificates import SSC, TWOECS, Cut, DualCertificate
from dualcut.graphs import Digraph
from dualcut.perfect import LiveInstance, augment_to_perfect, is_perfect
from reference import certificate_by_definition, check_cut_feasible, ssc_to_dpa


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


@st.composite
def edge_instances(draw):
    """A random-2ecs instance, with parallel copies of a few of its edges
    added at times."""
    n = draw(st.integers(2, 12))
    factor = draw(st.sampled_from((0.0, 0.4, 1.0)))
    g = gen_random_2ecs(n, factor, seed=draw(st.integers(0, 999))).instance.graph
    copies = draw(st.lists(st.sampled_from(g.edges), max_size=4))
    return TwoECSInstance(Multigraph(n, g.edges + tuple(copies)))


@st.composite
def edge_selections(draw):
    """An edge instance and a list of its edge ids: none, all, all but a
    few (listed once or twice), or any, repeats allowed. A repeated id is
    still one edge, so it never doubles a bridge."""
    inst = draw(edge_instances())
    m = len(inst.graph.edges)
    few = st.lists(st.integers(0, m - 1), max_size=3)
    ids = draw(
        st.one_of(
            st.just([]),
            st.just(list(range(m))),
            st.tuples(few, st.integers(1, 2)).map(
                lambda d: [i for i in range(m) if i not in d[0]] * d[1]
            ),
            st.lists(st.integers(0, m - 1), max_size=2 * m),
        )
    )
    return inst, ids


def _nx_two_edge_connected(n: int, edges) -> bool:
    """Connected on all n vertices, and every bridge of the simple graph
    has a parallel copy among `edges`."""
    simple = nx.Graph()
    simple.add_nodes_from(range(1, n + 1))
    simple.add_edges_from(edges)
    copies = Counter(frozenset(e) for e in edges)
    return nx.is_connected(simple) and all(copies[frozenset(e)] > 1 for e in nx.bridges(simple))


@settings(max_examples=200, deadline=None)
@given(edge_selections())
def test_edge_selection_feasibility_matches_networkx(drawn):
    inst, ids = drawn
    g = inst.graph
    picked = [g.edges[i] for i in set(ids)]
    assert check_feasible(inst, ids) == _nx_two_edge_connected(g.vertex_count, picked)


@st.composite
def certified_instances(draw):
    """A star or edge instance with a family of up to six random cuts, any
    of them complemented; most families with two cuts or more are
    infeasible."""
    if draw(st.booleans()):
        inst, problem = draw(star_instances()), SSC
    else:
        inst, problem = draw(edge_instances()), TWOECS
    n = inst.vertex_count
    side = st.frozensets(st.integers(1, n), min_size=1, max_size=n - 1)
    cuts = draw(st.lists(st.builds(Cut, side, st.booleans()), max_size=6))
    return inst, DualCertificate(problem, cuts)


@settings(max_examples=300, deadline=None)
@given(certified_instances())
def test_certificate_check_matches_the_crossings_by_definition(drawn):
    inst, cert = drawn
    assert verify_certificate(inst, cert) == certificate_by_definition(inst, cert)


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
