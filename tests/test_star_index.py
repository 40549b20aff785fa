"""Indexed star and edge lookups against brute-force scans.

The certificate check and the live contracted view answer "which stars leave
this vertex" and "which stars or edges cross this cut" from per-source
indexes and incidence lists. The scans below are the plain definitions; the
indexed answers must equal them, in the same ascending order where the
answer is a candidate list offered to an advisor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dualcut import (
    approx_2ecs,
    approx_ssc,
    dpa_to_ssc,
    gen_random_2ecs,
    gen_random_dpa,
    gen_random_ssc,
)
from dualcut.certificates import (
    SSC,
    TWOECS,
    Cut,
    DualCertificate,
    crossing_edges,
    crossing_stars,
    verify_certificate,
)
from dualcut.perfect import LiveInstance, live_crossing_stars
from reference import cut_vertices, label_of


def brute_crossing_stars(s, cut):
    side = cut.side
    return frozenset(
        st.id
        for st in s.stars
        if st.source in side and any(t not in side for t in st.sinks)
    )


def brute_crossing_edges(t, cut):
    side = cut.side
    return frozenset(
        eid
        for eid, (u, v) in enumerate(t.graph.edges)
        if (u in side) != (v in side)
    )


def brute_stars_at(li, v):
    return tuple(sid for sid in sorted(li.live) if li.live[sid][0] == v)


def brute_stars_with_arc(li, u, v):
    return tuple(
        sid
        for sid in sorted(li.live)
        if li.live[sid][0] == u and v in li.live[sid][1]
    )


def proper_sides(n):
    """Strategy: a nonempty proper subset of 1..n."""
    return st.sets(st.integers(1, n), min_size=1, max_size=n - 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    fan=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_crossing_stars_matches_brute_force(n, fan, seed, data):
    s = gen_random_ssc(n, 1.5, fan, seed).instance
    for _ in range(5):
        cut = Cut(frozenset(data.draw(proper_sides(n))))
        assert crossing_stars(s, cut) == brute_crossing_stars(s, cut)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 10_000), data=st.data())
def test_crossing_edges_matches_brute_force(n, seed, data):
    t = gen_random_2ecs(n, 1.0, seed).instance
    for _ in range(5):
        cut = Cut(frozenset(data.draw(proper_sides(n))))
        assert crossing_edges(t, cut) == brute_crossing_edges(t, cut)


def brute_groups(s, key):
    """Vertex -> the stars whose `key(star)` holds it, in id order, for
    the vertices that some star's key holds."""
    groups = {
        v: tuple(st for st in s.stars if v in key(st))
        for v in range(1, s.vertex_count + 1)
    }
    return {v: group for v, group in groups.items() if group}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    fan=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_star_indexes_and_crossings_match_brute_force(n, fan, seed, data):
    # Random star instances, and the star forms of random power instances
    # (several stars per source, sinks that are free components).
    forms = [
        gen_random_ssc(n, 1.5, fan, seed).instance,
        dpa_to_ssc(gen_random_dpa(n, 0.4, seed).instance)[0],
    ]
    for s in forms:
        assert s.stars_by_source() == brute_groups(s, lambda st: {st.source})
        assert s.stars_by_sink() == brute_groups(s, lambda st: st.sinks)
        for group in (*s.stars_by_source().values(), *s.stars_by_sink().values()):
            assert type(group) is tuple
        m = s.vertex_count
        if m < 2:
            continue
        for _ in range(4):
            cut = Cut(frozenset(data.draw(proper_sides(m))), data.draw(st.booleans()))
            whole = Cut(cut_vertices(cut, m))
            assert crossing_stars(s, cut) == brute_crossing_stars(s, whole)


def complemented(cut, n):
    """The same cut written the other way: its other half, flagged."""
    other = frozenset(range(1, n + 1)) - cut.side
    return Cut(other, complement=not cut.complement)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    fan=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_a_cut_crosses_the_same_items_from_either_half(n, fan, seed, data):
    s = gen_random_ssc(n, 1.5, fan, seed).instance
    t = gen_random_2ecs(n, 1.0, seed).instance
    for _ in range(5):
        cut = Cut(frozenset(data.draw(proper_sides(n))))
        other = complemented(cut, n)
        assert crossing_stars(s, other) == crossing_stars(s, cut)
        assert crossing_edges(t, other) == crossing_edges(t, cut)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 30),
    fan=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_a_certificate_checks_the_same_from_either_half(n, fan, seed, data):
    s = gen_random_ssc(n, 1.5, fan, seed).instance
    t = gen_random_2ecs(n, 1.0, seed).instance
    drawn = tuple(
        Cut(frozenset(side)) for side in data.draw(st.lists(proper_sides(n), max_size=5))
    )
    # Run certificates are feasible; random families mostly are not.
    families = [
        (s, approx_ssc(s).certificate.cuts, SSC),
        (t, approx_2ecs(t).certificate.cuts, TWOECS),
        (s, drawn, SSC),
        (t, drawn, TWOECS),
    ]
    for instance, cuts, problem in families:
        flips = data.draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
        rewritten = tuple(
            complemented(c, n) if flip else c for c, flip in zip(cuts, flips)
        )
        expected = verify_certificate(instance, DualCertificate(problem, cuts))
        assert verify_certificate(instance, DualCertificate(problem, rewritten)) == expected
    assert verify_certificate(s, DualCertificate(SSC, families[0][1]))[0]


def brute_live(records, group_of):
    """Live records rebuilt from the base (id, source, sinks) records: each
    mapped through the current grouping, dropped when no sink survives."""
    live = {}
    for rid, source, base_sinks in records:
        src = group_of[source]
        sinks = frozenset(group_of[t] for t in base_sinks) - {src}
        if sinks:
            live[rid] = (src, sinks)
    return live


def star_records(base):
    return [(star.id, star.source, star.sinks) for star in base.stars]


def base_records(kind, n, fan, seed):
    """The records of a random star instance, or of a random edge instance
    (one-sink records, with parallel edges), and its live instance."""
    if kind == "stars":
        base = gen_random_ssc(n, 1.5, fan, seed).instance
        return star_records(base), LiveInstance.from_instance(base)
    g = gen_random_2ecs(n, 1.0, seed).instance.graph
    records = [(eid, u, frozenset((v,))) for eid, (u, v) in enumerate(g.edges)]
    return records, LiveInstance.from_multigraph(g)


def brute_neighbors(arcs, v, incoming=False):
    return tuple(sorted(a if incoming else b for a, b in arcs if (b if incoming else a) == v))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 25),
    fan=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_live_lookups_match_scans_after_contractions(n, fan, seed, data):
    # Star records, and edge records (one sink each, with parallel edges).
    for kind in ("stars", "edges"):
        records, li = base_records(kind, n, fan, seed)
        # Original vertex -> its current label, kept here independently.
        group_of = {v: v for v in range(1, n + 1)}
        while True:
            labels = sorted(set(group_of.values()))
            assert li.vertices() == tuple(labels) and li.current_count == len(labels)
            assert li.live == brute_live(records, group_of)
            for o in range(1, n + 1):
                assert label_of(li.partition, o) == group_of[o]
            for c in labels:
                assert li.partition.lift({c}) == {o for o, g in group_of.items() if g == c}
            arcs = {(src, t) for src, sinks in li.live.values() for t in sinks}
            assert tuple(li.arc_candidates()) == tuple(sorted(arcs))
            for u in labels:
                assert li.stars_at(u) == brute_stars_at(li, u)
                if kind == "edges":
                    # Each edge record carries one arc, so `degree` counts records.
                    assert li.degree(u) == sum(
                        1 for src, sinks in li.live.values() if src == u or u in sinks
                    )
                assert li.out_neighbors(u) == brute_neighbors(arcs, u)
                assert tuple(sorted(li._in[u])) == brute_neighbors(arcs, u, incoming=True)
                assert li.neighbors(u) == tuple(sorted(set(li.out_neighbors(u)) | set(li._in[u])))
                for v in labels:
                    assert li.stars_with_arc(u, v) == brute_stars_with_arc(li, u, v)
                    assert li.has_arc(u, v) == ((u, v) in arcs)
            if len(labels) == 1:
                break
            block = data.draw(st.sets(st.sampled_from(labels), min_size=2, max_size=len(labels)))
            assert li.contract(block) is li
            merged = min(block)
            group_of = {o: merged if g in block else g for o, g in group_of.items()}
        assert li.live == {}


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 25),
    fan=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_contracting_every_current_vertex_leaves_one_bare_vertex(n, fan, seed, data):
    # A run's last round contracts every current vertex at once: every
    # record dies, and no index entry or cached neighbour tuple survives.
    for kind in ("stars", "edges"):
        _records, li = base_records(kind, n, fan, seed)
        while li.current_count > 2 and data.draw(st.booleans()):
            labels = li.vertices()
            li.contract(
                data.draw(st.sets(st.sampled_from(labels), min_size=2, max_size=len(labels) - 1))
            )
        for u in li.vertices():
            li.out_neighbors(u), li.neighbors(u)
        assert li.contract(li.vertices()) is li
        assert li.current_count == 1 and li.vertices() == (1,)
        assert li.live == {}
        assert li.out_neighbors(1) == () and li._in[1] == {}
        assert li.neighbors(1) == () and li.stars_at(1) == ()
        assert li.degree(1) == 0
        assert all(label_of(li.partition, v) == 1 for v in range(1, n + 1))
        assert li.partition.lift({1}) == frozenset(range(1, n + 1))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 25),
    fan=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_live_crossing_stars_match_the_definition_after_contractions(n, fan, seed, data):
    # Sides with more than half the current vertices are answered from the
    # vertices outside them; each side is also tried as its complement.
    base = gen_random_ssc(n, 1.5, fan, seed).instance
    li = LiveInstance.from_instance(base)
    group_of = {v: v for v in range(1, n + 1)}
    while li.current_count > 1:
        labels = sorted(set(group_of.values()))
        live = brute_live(star_records(base), group_of)
        for _ in range(3):
            side = frozenset(
                data.draw(st.sets(st.sampled_from(labels), min_size=1, max_size=len(labels) - 1))
            )
            for s in (side, frozenset(labels) - side):
                assert live_crossing_stars(li, s) == frozenset(
                    sid
                    for sid, (src, sinks) in live.items()
                    if src in s and not sinks <= s
                )
        block = data.draw(st.sets(st.sampled_from(labels), min_size=2, max_size=len(labels)))
        li.contract(block)
        merged = min(block)
        group_of = {o: merged if g in block else g for o, g in group_of.items()}


@pytest.mark.parametrize(
    "bad, named",
    [(True, "True"), (1.5, "1.5"), (0, "0"), (5, "5")],
    ids=["bool", "float", "zero", "n-plus-one"],
)
def test_check_cut_rejects_and_names_the_vertex(bad, named):
    s = gen_random_ssc(4, 1.0, 2, seed=1).instance
    t = gen_random_2ecs(4, 1.0, seed=1).instance
    cut = Cut(frozenset({2, bad}))
    for check, instance in ((crossing_stars, s), (crossing_edges, t)):
        with pytest.raises(ValueError, match=f"cut vertex {named} is not"):
            check(instance, cut)


def test_check_cut_rejects_a_full_side():
    s = gen_random_ssc(4, 1.0, 2, seed=1).instance
    t = gen_random_2ecs(4, 1.0, seed=1).instance
    cut = Cut(frozenset({1, 2, 3, 4}))
    for check, instance in ((crossing_stars, s), (crossing_edges, t)):
        with pytest.raises(ValueError, match="proper subset"):
            check(instance, cut)
