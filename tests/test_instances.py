"""Tests for instance types, transformations, and feasibility checks."""

import pytest

import networkx as nx

from dualcut import (
    DPAInstance,
    InfeasibleInstanceError,
    Multigraph,
    SSCInstance,
    Star,
    TwoECSInstance,
    check_feasible,
    dpa_to_ssc,
    gen_random_dpa,
    mscs_to_ssc,
)
from dualcut.graphs import Digraph, RecordError
from reference import check_cut_feasible, dpa_induced_graph, ssc_to_dpa


def star(i, src, *sinks):
    return Star(i, src, frozenset(sinks))


def test_star_validation():
    # A star checks nothing itself; the instance it is given to rejects it,
    # naming its position.
    back = star(1, 2, 1)
    for bad, message in [
        (star(0, 1), "star 0: empty sink set"),
        (star(0, 1, 1), "star 0: source 1 among sinks"),
        (star(0, 1, 1, 3), "star 0: source 1 among sinks"),
    ]:
        with pytest.raises(RecordError, match=f"^{message}$") as info:
            SSCInstance(2, [bad, back])
        assert info.value.index == 0
    fan = star(0, 1, 3, 2)
    assert tuple((fan.source, t) for t in sorted(fan.sinks)) == ((1, 2), (1, 3))
    assert fan == Star(0, 1, [2, 3]) and hash(fan) == hash(star(0, 1, 2, 3))
    assert fan != star(1, 1, 2, 3) and fan != (0, 1, frozenset({2, 3}))
    assert repr(fan) == "Star(id=0, source=1, sinks=frozenset({2, 3}))"


def test_first_bad_star_in_input_order_is_named():
    # Star 0's sink is out of range and star 1 lists its source among its
    # sinks: star 0 is named, whichever check would find star 1.
    with pytest.raises(RecordError) as info:
        SSCInstance(3, [star(0, 1, 5), star(1, 2, 2)])
    assert (str(info.value), info.value.index) == ("star 0: sink 5 out of range", 0)
    with pytest.raises(RecordError) as info:
        SSCInstance(3, [star(0, 1, 2), star(1, 4, 1), star(2, 3, 3)])
    assert (str(info.value), info.value.index) == ("star 1: source 4 out of range", 1)
    with pytest.raises(RecordError) as info:
        SSCInstance(3, [star(0, 1, 2), star(2, 2, 3)])
    assert str(info.value) == "star at position 1 has id 2"


def test_ssc_instance_checks_ids_and_feasibility():
    with pytest.raises(ValueError):
        SSCInstance(2, [star(1, 1, 2)])  # id must equal position
    with pytest.raises(ValueError):
        SSCInstance(2, [star(0, 1, 3)])  # sink out of range
    with pytest.raises(InfeasibleInstanceError):
        SSCInstance(3, [star(0, 1, 2), star(1, 2, 1)])  # vertex 3 unreachable
    inst = SSCInstance(2, [star(0, 1, 2), star(1, 2, 1)])
    assert Digraph(2, [(st.source, t) for st in inst.stars for t in sorted(st.sinks)]).has_arc(1, 2)


def test_dpa_instance_validation():
    with pytest.raises(ValueError):
        DPAInstance(2, [(1, 2, 2)])  # cost not 0/1
    with pytest.raises(ValueError):
        DPAInstance(2, [(1, 2, 0), (2, 1, 1)])  # duplicate pair
    with pytest.raises(InfeasibleInstanceError):
        DPAInstance(3, [(1, 2, 1)])  # disconnected even at full power
    d = DPAInstance(2, [(1, 2, 1)])
    assert d.edges == ((1, 2, 1),)


def test_twoecs_instance_rejects_bridges():
    with pytest.raises(InfeasibleInstanceError):
        TwoECSInstance(Multigraph(3, [(1, 2), (2, 3)]))
    TwoECSInstance(Multigraph(3, [(1, 2), (2, 3), (3, 1)]))


def test_dpa_induced_graph():
    d = DPAInstance(3, [(1, 2, 0), (2, 3, 1), (3, 1, 1)])
    g0 = dpa_induced_graph(d, set())
    assert g0.has_arc(1, 2) and g0.has_arc(2, 1)
    assert not g0.has_arc(2, 3)
    g3 = dpa_induced_graph(d, {3})
    assert g3.has_arc(3, 1) and g3.has_arc(3, 2) and not g3.has_arc(2, 3)


def test_dpa_to_ssc_collapses_free_components():
    # 1-2 free, so they form one component; unit edges cross components.
    d = DPAInstance(3, [(1, 2, 0), (2, 3, 1), (3, 1, 1)])
    s, mapping = dpa_to_ssc(d)
    assert s.vertex_count == 2
    # All three original vertices touch a unit edge, so each gets a star.
    assert set(mapping) == {1, 2, 3}
    for v, sid in mapping.items():
        assert s.stars[sid].source == (1 if v in (1, 2) else 2)
    power = frozenset({3, 1})
    assert check_feasible(d, power)
    stars = frozenset(mapping[v] for v in power)
    assert check_feasible(s, stars) and len(stars) == len(power)


def _dpa_to_ssc_stars_by_scanning(d, comp):
    """The stars dpa_to_ssc derives, by scanning every edge for every vertex."""
    stars = []
    for v in range(1, d.vertex_count + 1):
        targets = set()
        for a, b, _c in d.edges:
            if a == v and comp[b] != comp[v]:
                targets.add(comp[b])
            elif b == v and comp[a] != comp[v]:
                targets.add(comp[a])
        if targets:
            stars.append((v, comp[v], frozenset(targets)))
    return stars


def _free_components(d):
    """Component of each vertex over the zero-cost edges, numbered 1.. in
    order of smallest member, by networkx."""
    g = nx.Graph()
    g.add_nodes_from(range(1, d.vertex_count + 1))
    g.add_edges_from((u, v) for u, v, c in d.edges if c == 0)
    comp = {}
    for label, members in enumerate(
        sorted(nx.connected_components(g), key=min), start=1
    ):
        for v in members:
            comp[v] = label
    return comp


def test_dpa_to_ssc_matches_the_per_vertex_scan():
    for seed in range(60):
        d = gen_random_dpa(3 + seed % 40, 0.2 + 0.1 * (seed % 6), seed=seed).instance
        s, mapping = dpa_to_ssc(d)
        comp = _free_components(d)
        expected = _dpa_to_ssc_stars_by_scanning(d, comp)
        assert [(st.source, st.sinks) for st in s.stars] == [(c, t) for _v, c, t in expected]
        assert mapping == {v: i for i, (v, _c, _t) in enumerate(expected)}


def test_mscs_to_ssc_orders_stars_by_arc():
    s = mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1)])
    assert [(st.source, tuple(st.sinks)) for st in s.stars] == [
        (1, (2,)), (2, (3,)), (3, (1,)),
    ]


def test_mscs_to_ssc_keeps_repeated_arcs_apart():
    s = mscs_to_ssc(2, [(1, 2), (2, 1), (1, 2)])
    assert [(st.id, st.source, st.sinks) for st in s.stars] == [
        (0, 1, {2}), (1, 2, {1}), (2, 1, {2}),
    ]


def test_ssc_to_dpa_round_trip_preserves_solutions():
    arcs = [(1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (1, 3)]
    s = mscs_to_ssc(3, arcs)
    d = ssc_to_dpa(s)
    assert d.vertex_count == len(s.stars)
    sol = frozenset({0, 2, 4})  # directed triangle
    assert check_feasible(s, sol)
    powered = frozenset(sid + 1 for sid in sol)
    assert check_feasible(d, powered) and len(powered) == len(sol)


def test_ssc_to_dpa_requires_bidirected():
    s = mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        ssc_to_dpa(s)


def test_check_feasible_validates_ids():
    s = SSCInstance(2, [star(0, 1, 2), star(1, 2, 1)])
    with pytest.raises(ValueError):
        check_feasible(s, frozenset({5}))
    t = TwoECSInstance(Multigraph(2, [(1, 2), (1, 2)]))
    with pytest.raises(ValueError):
        check_feasible(t, frozenset({9}))
    d = DPAInstance(2, [(1, 2, 1)])
    with pytest.raises(ValueError):
        check_feasible(d, frozenset({3}))
    with pytest.raises(TypeError):
        check_feasible(Digraph(2, [(1, 2), (2, 1)]), frozenset())


def test_check_feasible_examples():
    s = SSCInstance(3, [star(0, 1, 2, 3), star(1, 2, 1), star(2, 3, 1)])
    assert check_feasible(s, frozenset({0, 1, 2}))
    assert not check_feasible(s, frozenset({0, 1}))
    t = TwoECSInstance(Multigraph(3, [(1, 2), (2, 3), (3, 1), (1, 2)]))
    assert check_feasible(t, frozenset({0, 1, 2}))
    assert not check_feasible(t, frozenset({0, 1, 3}))


def test_cut_semantics_equals_connectivity_semantics():
    s = SSCInstance(3, [star(0, 1, 2, 3), star(1, 2, 1), star(2, 3, 1)])
    for bits in range(1 << len(s.stars)):
        sol = frozenset(i for i in range(len(s.stars)) if bits >> i & 1)
        assert check_cut_feasible(s, sol) == check_feasible(s, sol)


def test_check_cut_feasible_limit():
    s = SSCInstance(2, [star(0, 1, 2), star(1, 2, 1)])
    with pytest.raises(ValueError):
        check_cut_feasible(s, frozenset(), exhaustive_limit=1)
