"""Tests for the graph containers, contraction, and traversal helpers."""

import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcut import gen_random_bidirected, mscs_to_ssc
from dualcut.graphs import (
    Digraph,
    Multigraph,
    VertexPartition,
    contract_multigraph,
    contraction_mapping,
    find_nontrivial_path,
    find_path_internally_avoiding,
    is_strongly_connected,
    is_two_edge_connected,
    reachable_avoiding,
)
from dualcut.perfect import LiveInstance


def test_digraph_merges_duplicates_and_sorts():
    g = Digraph(3, [(1, 2), (2, 3), (1, 2), (3, 1), (1, 3)])
    assert g.out_neighbors(1) == (2, 3)
    assert g.in_neighbors(3) == (1, 2)
    assert g.neighbors(1) == (2, 3)
    assert g.has_arc(1, 2) and not g.has_arc(2, 1)
    assert set(g.arcs) == {(1, 2), (2, 3), (3, 1), (1, 3)}


def test_digraph_rejects_self_loops():
    with pytest.raises(ValueError):
        Digraph(2, [(1, 1)])


def test_multigraph_keeps_parallel_edges():
    g = Multigraph(2, [(1, 2), (2, 1), (1, 2)])
    assert len(g.edges) == 3
    assert g.incident(1) == ((0, 2), (1, 2), (2, 2))
    assert g.incident(2) == ((0, 1), (1, 1), (2, 1))


def test_partition_compose_and_lift():
    p = VertexPartition.identity(5)
    assert p.current_count == 5
    p2 = p.compose(contraction_mapping(5, {2, 4}))
    # Block collapses onto its smallest member; ids stay dense.
    assert p2.current_count == 4
    assert p2.current_of(2) == p2.current_of(4) == 2
    assert p2.lift({2}) == frozenset({2, 4})
    assert p2.lift({1, 2}) == frozenset({1, 2, 4})
    p3 = p2.compose(contraction_mapping(4, {1, 2}))
    assert p3.current_count == 3
    assert p3.lift({1}) == frozenset({1, 2, 4})


def test_contract_digraph_drops_internal_arcs():
    li = LiveInstance.from_instance(
        mscs_to_ssc(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1)])
    ).contract({1, 2})
    # The merged vertex is labelled 1; the others keep their labels.
    assert li.current_count == 3 and li.vertices() == (1, 3, 4)
    assert li.partition.current_of(1) == li.partition.current_of(2) == 1
    assert li.arcs == ((1, 3), (3, 4), (4, 1))


def test_contract_multigraph_keeps_parallels_and_origins():
    g = Multigraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)])
    shrunk, mapping, origin = contract_multigraph(g, {1, 2})
    assert shrunk.vertex_count == 3
    # Internal edge (1,2) disappears; the rest survive with origins intact.
    assert len(shrunk.edges) == 4
    assert sorted(origin) == [1, 2, 3, 4]
    # (2,3) and (2,4) now leave the merged vertex 1 as parallel-free edges.
    assert any(w == 2 for _, w in shrunk.incident(1))


def _random_digraph(rng: random.Random, n: int) -> Digraph:
    arcs = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and rng.random() < 0.35:
                arcs.append((u, v))
    return Digraph(n, arcs) if arcs else Digraph(n, [])


def _sc_brute(g: Digraph) -> bool:
    # Reachability closure from scratch, independent of the library BFS.
    n = g.vertex_count
    for s in range(1, n + 1):
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.out_neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(seen) != n:
            return False
    return True


def test_strong_connectivity_matches_brute_force():
    rng = random.Random(1)
    for _ in range(300):
        g = _random_digraph(rng, rng.randint(1, 7))
        assert is_strongly_connected(g) == _sc_brute(g)


def _nx_digraph(vertices, arcs):
    g = nx.DiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from(arcs)
    return g


class _Spread:
    """A Digraph with every vertex v renamed 3v - 1: same order, not dense,
    like the labels of a live instance."""

    def __init__(self, g: Digraph):
        self.g, self.vertex_count = g, g.vertex_count

    def vertices(self):
        return [3 * v - 1 for v in self.g.vertices()]

    def out_neighbors(self, v):
        return [3 * w - 1 for w in self.g.out_neighbors((v + 1) // 3)]

    def in_neighbors(self, v):
        return [3 * w - 1 for w in self.g.in_neighbors((v + 1) // 3)]


def test_strong_connectivity_matches_networkx_on_large_graphs():
    # Sparse enough that about half of the graphs are strongly connected.
    rng = random.Random(4)
    outcomes = set()
    for trial in range(40):
        n = rng.randint(150, 400)
        arcs = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(2 * n)}
        if trial % 2:
            arcs |= {(v, v % n + 1) for v in range(1, n + 1) if rng.random() < 0.995}
        g = Digraph(n, sorted((u, v) for u, v in arcs if u != v))
        expected = nx.is_strongly_connected(_nx_digraph(g.vertices(), g.arcs))
        assert is_strongly_connected(g) == expected
        assert is_strongly_connected(_Spread(g)) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_live_strong_connectivity_matches_networkx_after_contractions():
    # No round re-checks strong connectivity: contraction must keep a
    # feasible instance strongly connected, on labels that are not dense.
    rng = random.Random(5)
    for _trial in range(6):
        n = rng.randint(150, 300)
        arcs = {(v, v % n + 1) for v in range(1, n + 1)}
        arcs |= {(rng.randint(1, n), rng.randint(1, n)) for _ in range(n)}
        li = LiveInstance.from_instance(
            mscs_to_ssc(n, sorted((u, v) for u, v in arcs if u != v))
        )
        while li.current_count > 1:
            assert nx.is_strongly_connected(_nx_digraph(li.vertices(), li.arcs))
            size = min(li.current_count, rng.randint(2, 12))
            li.contract(rng.sample(li.vertices(), size))


def test_two_edge_connectivity_matches_networkx_on_large_multigraphs():
    # networkx finds bridges in simple graphs; an edge with a parallel copy
    # is never a bridge, so only single edges can be.
    rng = random.Random(6)
    outcomes = set()
    for trial in range(40):
        n = rng.randint(150, 300)
        edges = [(v, v % n + 1) for v in range(1, n + 1) if trial % 4 or rng.random() < 0.995]
        edges += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(n // (1 + trial % 3))]
        edges += rng.sample(edges, n // 20)
        g = Multigraph(n, edges)
        simple = nx.Graph()
        simple.add_nodes_from(g.vertices())
        simple.add_edges_from(g.edges)
        multiplicity = Counter(frozenset(e) for e in g.edges)
        expected = nx.is_connected(simple) and not any(
            multiplicity[frozenset(e)] == 1 for e in nx.bridges(simple)
        )
        assert is_two_edge_connected(g) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def _connected(n: int, edges) -> bool:
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(1, n + 1))
    graph.add_edges_from(edges)
    return nx.is_connected(graph)


def _two_edge_connected_brute(g: Multigraph) -> bool:
    if g.vertex_count == 1:
        return True
    if not _connected(g.vertex_count, g.edges):
        return False
    for drop in range(len(g.edges)):
        rest = [e for i, e in enumerate(g.edges) if i != drop]
        if not _connected(g.vertex_count, rest):
            return False
    return True


def test_two_edge_connectivity_matches_edge_deletion():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 6)
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                for _copy in range(rng.choice((0, 0, 1, 1, 2))):
                    edges.append((u, v))
        g = Multigraph(n, edges)
        assert is_two_edge_connected(g) == _two_edge_connected_brute(g)


def test_reachable_avoiding_no_filter_is_plain_reachability():
    rng = random.Random(3)
    for _ in range(100):
        g = _random_digraph(rng, rng.randint(1, 7))
        for s in g.vertices():
            plain = reachable_avoiding(g, s, lambda u, v: False)
            brute = {s}
            changed = True
            while changed:
                changed = False
                for u, v in g.arcs:
                    if u in brute and v not in brute:
                        brute.add(v)
                        changed = True
            assert plain == frozenset(brute)


def test_reachable_avoiding_respects_forbidden_arcs():
    g = Digraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    # Block the shortcut: 4 is still reachable through the long way.
    assert reachable_avoiding(g, 1, lambda u, v: (u, v) == (1, 4)) == frozenset(
        {1, 2, 3, 4}
    )
    # Block both entries into 4.
    blocked = reachable_avoiding(
        g, 1, lambda u, v: v == 4
    )
    assert blocked == frozenset({1, 2, 3})


def test_find_path_internally_avoiding():
    g = Digraph(5, [(1, 2), (2, 3), (3, 4), (1, 5), (5, 4)])
    path = find_path_internally_avoiding(g, 1, 4, avoid={2})
    assert path == [1, 5, 4]
    # Direct arcs are allowed even when the endpoints appear in avoid.
    assert find_path_internally_avoiding(g, 1, 2, avoid={2}) == [1, 2]
    assert find_path_internally_avoiding(g, 2, 1, avoid=set()) is None
    assert find_path_internally_avoiding(g, 3, 3, avoid=set()) == [3]


def test_find_nontrivial_path_needs_two_arcs():
    g = Digraph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    # 1 -> 3 exists directly, but the nontrivial route must detour.
    assert find_nontrivial_path(g, 1, 3, avoid=set()) == [1, 2, 3]
    assert find_nontrivial_path(g, 1, 4, avoid={2}) == [1, 3, 4]
    assert find_nontrivial_path(g, 2, 4, avoid=set()) == [2, 3, 4]
    assert find_nontrivial_path(g, 1, 2, avoid=set()) is None


@st.composite
def _sc_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    perm = draw(st.permutations(list(range(1, n + 1))))
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=1, max_value=n),
            ),
            max_size=10,
        )
    )
    arcs |= {(u, v) for u, v in extra if u != v}
    return Digraph(n, sorted(arcs))


@given(_sc_digraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_contraction_preserves_strong_connectivity(g, data):
    assert is_strongly_connected(g)
    li = LiveInstance.from_instance(mscs_to_ssc(g.vertex_count, g.arcs))
    while li.current_count > 1:
        block = data.draw(st.sets(
            st.sampled_from(li.vertices()), min_size=2, max_size=li.current_count,
        ))
        li.contract(block)
        assert nx.is_strongly_connected(_nx_digraph(li.vertices(), li.arcs))


@given(
    n=st.integers(2, 15), fan=st.integers(1, 3), seed=st.integers(0, 10_000),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_contraction_preserves_bidirectedness(n, fan, seed, data):
    # Multi-sink stars included: a star may lose some sinks and keep others.
    li = LiveInstance.from_instance(gen_random_bidirected(n, 0.8, fan, seed).instance)
    while li.current_count > 1:
        block = data.draw(st.sets(
            st.sampled_from(li.vertices()), min_size=2, max_size=li.current_count,
        ))
        arcs = set(li.contract(block).arcs)
        assert all((v, u) in arcs for u, v in arcs)


@st.composite
def _multigraphs_with_blocks(draw):
    """A multigraph on 2..12 vertices with parallel edges, not necessarily
    connected."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(st.lists(
        st.integers(1, n).flatmap(
            lambda u: st.tuples(st.just(u), st.integers(1, n - 1).map(lambda v: v + (v >= u)))
        ),
        max_size=3 * n,
    ))
    edges = pairs + draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    return Multigraph(n, edges)


def _reference_view(g, partition, origin):
    """The vertex classes, each live edge id with its end classes, and each
    class's neighbor classes, from a rebuilt graph mapped back to original
    ids."""
    cls = {c: partition.lift({c}) for c in g.vertices()}
    ends = {origin[j]: (cls[u], cls[v]) for j, (u, v) in enumerate(g.edges)}
    nbrs = {cls[c]: {cls[w] for _, w in g.incident(c)} for c in g.vertices()}
    return set(cls.values()), ends, nbrs


def _live_view(li):
    cls = {c: li.partition.lift({c}) for c in li.vertices()}
    ends = {eid: (cls[u], cls[v]) for eid, (u, (v,)) in li.live.items()}
    nbrs = {cls[c]: {cls[w] for w in li.neighbors(c)} for c in li.vertices()}
    return set(cls.values()), ends, nbrs


@given(_multigraphs_with_blocks(), st.data())
@settings(max_examples=150, deadline=None)
def test_live_edge_contraction_matches_the_rebuild_reference(g, data):
    # The rebuild path: a fresh Multigraph per contraction, edge ids mapped
    # back through `origin`, vertex ids through a composed VertexPartition.
    ref, partition, origin = g, VertexPartition.identity(g.vertex_count), list(range(len(g.edges)))
    li = LiveInstance.from_multigraph(g)
    assert _live_view(li) == _reference_view(ref, partition, origin)
    while li.current_count > 1:
        block = data.draw(st.sets(
            st.sampled_from(li.vertices()), min_size=2, max_size=li.current_count,
        ))
        li.contract(block)
        ref, mapping, edge_origin = contract_multigraph(
            ref, {partition.current_of(label) for label in block}
        )
        partition = partition.compose(mapping)
        origin = [origin[j] for j in edge_origin]
        assert li.current_count == ref.vertex_count
        assert _live_view(li) == _reference_view(ref, partition, origin)
