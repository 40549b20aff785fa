"""Tests for instance types, transformations, and feasibility checks."""

import pytest

import networkx as nx
from hypothesis import example, given, settings, strategies as st

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
from dualcut.io import ParseError, parse_instance
from reference import check_cut_feasible, dpa_induced_graph, first_bad_star, ssc_to_dpa


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


DEFECTS = ("id", "empty", "loop", "source", "sink")


@st.composite
def stars_with_defects(draw):
    """(n, stars): up to 8 stars over 1..n, n in 1..8, with 0-3 defects of
    the five kinds a star can have injected at drawn positions."""
    n = draw(st.integers(1, 8))
    vertices = st.integers(1, n)
    out_of_range = st.one_of(st.sampled_from([0, -1, n + 1]), st.integers(-3, n + 3))
    records = []
    for _ in range(draw(st.integers(0, 8))):
        src = draw(vertices)
        others = [v for v in range(1, n + 1) if v != src]
        # With one vertex no star is good: its sink set is empty.
        sinks = draw(st.sets(st.sampled_from(others), min_size=1, max_size=3)) if others else set()
        records.append([len(records), src, sinks])
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        record = records[draw(st.integers(0, len(records) - 1))]
        defect = draw(st.sampled_from(DEFECTS))
        if defect == "id":
            record[0] = draw(st.integers(-2, 10).filter(lambda i: i != record[0]))
        elif defect == "empty":
            record[2] = set()
        elif defect == "loop":
            record[2] = record[2] | {record[1]}
        elif defect == "source":
            record[1] = draw(out_of_range.filter(lambda v: not 1 <= v <= n))
        else:
            record[2] = record[2] | {draw(out_of_range.filter(lambda v: not 1 <= v <= n))}
    return n, [Star(i, src, sinks) for i, src, sinks in records]


@settings(max_examples=400, deadline=None)
@given(stars_with_defects())
# One star with two defects for each two checks that run one after the
# other, which the drawn lists seldom hold at their first bad star.
@example((3, [Star(1, 1, [])]))
@example((3, [Star(0, 4, [])]))
@example((3, [Star(0, 4, [4])]))
@example((3, [Star(0, 4, [1, 5])]))
def test_the_first_bad_star_is_named_as_the_reference_names_it(drawn):
    n, stars = drawn
    want = first_bad_star(n, stars)
    try:
        SSCInstance(n, stars)
    except RecordError as exc:
        assert want is not None and (str(exc), exc.index) == (str(want), want.index)
    except InfeasibleInstanceError:
        assert want is None
    else:
        assert want is None
    # A file gives each star its position as id and a nonempty sink list.
    if all(s.id == i and s.sinks for i, s in enumerate(stars)):
        text = f"p ssc {n} {len(stars)}\n" + "".join(
            f"s {s.source} {len(s.sinks)} {' '.join(map(str, s.sinks))}\n" for s in stars
        )
        # The parser builds each sink set from the listed order, as these do.
        want = first_bad_star(n, [Star(s.id, s.source, list(s.sinks)) for s in stars])
        try:
            parse_instance(text)
        except ParseError as exc:
            assert want is not None and exc.line == want.index + 2
            assert str(exc) == f"line {want.index + 2}: {want}"
        except InfeasibleInstanceError:
            assert want is None
        else:
            assert want is None


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


@st.composite
def dpa_instances(draw):
    """A valid `DPAInstance` on 1..9 vertices: a spanning tree plus extra
    edges, with costs all 0 (one free component), all 1, or mixed."""
    n = draw(st.integers(1, 9))
    pairs = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    if n >= 2:
        pairs |= draw(st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1]),
            max_size=n,
        ))
    cost = draw(st.sampled_from([st.just(0), st.just(1), st.integers(0, 1)]))
    return DPAInstance(n, [(u, v, draw(cost)) for u, v in sorted(pairs)])


@settings(max_examples=200, deadline=None)
@given(dpa_instances())
@example(DPAInstance(1, []))
@example(DPAInstance(3, [(1, 2, 0), (2, 3, 0)]))
def test_the_star_form_of_a_valid_power_instance_is_always_feasible(d):
    # Contracting the free components of a digraph that is strongly
    # connected at full power leaves a strongly connected, bidirected star
    # form over the components: `dpa_to_ssc` never meets an infeasible one.
    s, mapping = dpa_to_ssc(d)
    count = len(set(_free_components(d).values()))
    assert s.vertex_count == count and s.is_bidirected()
    for record in s.stars:
        assert 1 <= record.source <= count and record.sinks
        assert all(1 <= t <= count for t in record.sinks)
    assert sorted(mapping.values()) == list(range(len(s.stars)))


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
    with pytest.raises(ValueError, match="^unknown edge id 9$"):
        check_feasible(t, frozenset({9}))
    with pytest.raises(ValueError, match="^unknown edge id -1$"):
        check_feasible(t, [0, 1, -1])
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
