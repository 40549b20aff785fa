"""Live (contracted) instances, perfect sets, internal cuts, and the round
loop that all algorithms share (`contract_rounds`).

No round is checked as it is found. A run is checked once, when it is done,
by `build_report` running `verify_run` on its report: the certificate's
feasibility against the input instance, the contraction and cost identities
and the guarantee catch every round fault that could spoil the result. What
stays here are guards that stop a crash or an endless loop (a sink with no
path back to the sources, candidate counts that do not add up to the
sequence length) and `augment_to_perfect`'s precondition.

A LiveInstance is the current contracted view of an instance; its records
are stars, or edges as one-sink records. Each current vertex is labelled by
its smallest original vertex, so labels sort as the dense ids of a fresh
renumbering would, and every candidate list an advisor sees keeps its order.
The initial choices of all three algorithms read their candidates lazily,
vertex by vertex, as one `Candidates` sequence; `grow_path` grows the path.
`contract` updates the view in place: it touches only the records with a
source or sink among the merged vertices other than the block's smallest,
and keeps its one index, arc -> ids of the live records carrying it, up to
date, so no round rebuilds the instance or a digraph. Records keep their
original ids, so selections and certificates always refer to the input
instance.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import chain, islice, repeat
from operator import sub
from typing import Iterable

from .advisor import Advisor
from .certificates import Cut
from .graphs import Multigraph, _reach_count
from .instances import SSCInstance
from .report import IterationRecord, RunCheckError


class Labels:
    """Which original vertices each current vertex holds.

    A current vertex is labelled by its smallest original member, and each
    label keeps the list of its original members, so `lift` costs the size
    of its output.
    """

    __slots__ = ("vertex_count", "members")

    def __init__(self, n: int):
        self.vertex_count = n
        self.members: dict[int, list[int]] = {v: [v] for v in range(1, n + 1)}

    def lift(self, current_vertices) -> frozenset[int]:
        """Original vertices behind a set of current vertices."""
        members = self.members
        return frozenset(chain.from_iterable(members[c] for c in current_vertices))

    def cut(self, side) -> Cut:
        """The cut over original vertices behind a side of current vertices,
        stored by whichever half holds at most half the original vertices;
        the other half is never lifted."""
        members = self.members
        if 2 * sum([len(members[c]) for c in side]) <= self.vertex_count:
            return Cut(self.lift(side))
        return Cut(self.lift([c for c in members if c not in side]), complement=True)

    def merge(self, block: set[int], anchor: int) -> None:
        """Merge the current vertices of `block` into one labelled `anchor`,
        the block's smallest label. The longest member list takes in the
        others, so a merge moves only the shorter lists."""
        members = self.members
        big = max(block, key=lambda v: len(members[v]))
        merged = members.pop(big)
        for v in block:
            if v != big:
                merged += members.pop(v)
        members[anchor] = merged


class LiveInstance:
    """Current contracted state of an instance: vertex labels, live records
    with their current source and sinks, and one index over them.

    The index maps each arc u->v between current vertices to the ids of the
    live records carrying it. The instance answers from it the digraph
    queries that the `graphs` searches make (`vertices`, `out_neighbors`,
    `neighbors`, ...). Vertices are labels, not dense ids. Sorted out- and
    undirected neighbour tuples are built on demand and kept until a
    contraction changes that vertex's arcs.
    """

    __slots__ = (
        "partition", "live", "_out", "_in",
        "_out_sorted", "_nbrs_sorted",
    )

    def __init__(self, n: int, records: Iterable[tuple[int, int, frozenset[int]]]):
        """`records` are (id, source, sinks) triples in ascending id order."""
        self.partition = Labels(n)
        self.live: dict[int, tuple[int, frozenset[int]]] = {}
        # Tail -> head -> ids of the live records carrying that arc, and head
        # -> tail -> the same set object. Keys are every current vertex, in
        # ascending order: the dicts are built in order and contraction only
        # deletes keys.
        self._out: dict[int, dict[int, set[int]]] = {v: {} for v in range(1, n + 1)}
        self._in: dict[int, dict[int, set[int]]] = {v: {} for v in range(1, n + 1)}
        self._out_sorted: dict[int, tuple[int, ...]] = {}
        self._nbrs_sorted: dict[int, tuple[int, ...]] = {}
        live, link = self.live, self._link
        for rid, src, sinks in records:
            live[rid] = (src, sinks)
            link(rid, src, sinks)

    @staticmethod
    def from_instance(base: SSCInstance) -> "LiveInstance":
        """The live view a star run starts from. It needs no check: every
        caller passes an `SSCInstance`, whose constructor proved its stars
        strongly connected, and a quotient of a strongly connected digraph is
        strongly connected, so no round checks it again."""
        stars = ((st.id, st.source, st.sinks) for st in base.stars)
        return LiveInstance(base.vertex_count, stars)

    @staticmethod
    def from_multigraph(g: Multigraph) -> "LiveInstance":
        """Each edge {u, v} becomes the record (id, u, {v})."""
        edges = [(eid, u, frozenset((v,))) for eid, (u, v) in enumerate(g.edges)]
        return LiveInstance(g.vertex_count, edges)

    @property
    def current_count(self) -> int:
        return len(self._out)

    def vertices(self) -> tuple[int, ...]:
        """Current vertex labels, ascending."""
        return tuple(self._out)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        found = self._out_sorted.get(v)
        if found is None:
            found = self._out_sorted[v] = tuple(sorted(self._out[v]))
        return found

    def in_neighbors(self, v: int):
        """Tails of the arcs into v, in no particular order."""
        return self._in[v].keys()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Undirected neighbor set (union of in- and out-neighbors), sorted."""
        found = self._nbrs_sorted.get(v)
        if found is None:
            found = self._nbrs_sorted[v] = tuple(
                sorted(self._out[v].keys() | self._in[v].keys())
            )
        return found

    def has_arc(self, u: int, v: int) -> bool:
        heads = self._out.get(u)
        return heads is not None and v in heads

    def arc_candidates(self, excluded_heads=frozenset()) -> "Candidates":
        """Every arc once whose head is not excluded, ascending by (tail,
        head): the `initial-arc` candidates."""
        out, heads = self._out, self.out_neighbors
        skipped = Counter(tail for h in excluded_heads for tail in self._in[h])
        return Candidates(
            self.vertices(),
            # `out` is keyed by every current vertex, ascending.
            lambda: map(sub, map(len, out.values()), map(skipped.get, out, repeat(0))),
            lambda v: ((v, w) for w in heads(v) if w not in excluded_heads),
            sum(map(len, out.values())) - sum(skipped.values()),
        )

    def source_of(self, star_id: int) -> int:
        try:
            return self.live[star_id][0]
        except KeyError:
            raise ValueError(f"star {star_id} is not live") from None

    def sinks_of(self, star_id: int) -> frozenset[int]:
        try:
            return self.live[star_id][1]
        except KeyError:
            raise ValueError(f"star {star_id} is not live") from None

    def stars_at(self, v: int) -> tuple[int, ...]:
        """Live star ids with current source v, ascending."""
        return tuple(sorted(set().union(*self._out.get(v, {}).values())))

    def degree(self, v: int) -> int:
        """Live record arcs at v, out and in; in a live edge instance, the
        number of live edges at v."""
        return sum(map(len, self._out[v].values())) + sum(map(len, self._in[v].values()))

    def stars_with_arc(self, u: int, v: int) -> tuple[int, ...]:
        """Live record ids whose current arcs include u->v, ascending."""
        return tuple(sorted(self._out.get(u, {}).get(v, ())))

    def sources(self, star_ids) -> frozenset[int]:
        return frozenset(self.source_of(sid) for sid in star_ids)

    def contract(self, block) -> "LiveInstance":
        """Merge a block of current vertices, in place, into its smallest
        label; records shrink, and those with every end in the block die.
        Returns this instance.

        Only arcs at the other block members change: each goes from the
        index, and the records carrying them are linked at their new ends.
        A block of every current vertex, as in a run's last round, kills
        every record, so the index is dropped whole."""
        block = set(block)
        if not block:
            raise ValueError("block must be nonempty")
        members = self.partition.members
        for v in block:
            if v not in members:
                raise ValueError(f"block vertex {v} is not a current vertex")
        anchor = min(block)
        if len(block) == len(members):
            self.live.clear()
            self._out, self._in = {anchor: {}}, {anchor: {}}
            self._out_sorted.clear()
            self._nbrs_sorted.clear()
            self.partition.merge(block, anchor)
            return self
        gone = block - {anchor}
        live, out, inc = self.live, self._out, self._in
        touched: set[int] = set()
        # Vertices whose sorted neighbour tuples may change: the block and
        # every vertex with an arc to or from a member that goes.
        stale = set(block)
        for v in gone:
            for ends, back in ((out.pop(v), inc), (inc.pop(v), out)):
                for w, ids in ends.items():
                    touched.update(ids)
                    if w not in gone:
                        del back[w][v]
                        stale.add(w)
        for rid in touched:
            src, sinks = live[rid]
            if src in block:
                if sinks <= block:
                    del live[rid]
                    continue
                src = anchor
            # Some end lies outside the block, so the record keeps a sink.
            sinks = frozenset([anchor if t in gone else t for t in sinks]) - {src}
            live[rid] = (src, sinks)
            self._link(rid, src, sinks)
        for cache in (self._out_sorted, self._nbrs_sorted):
            for v in stale:
                cache.pop(v, None)
        self.partition.merge(block, anchor)
        return self

    def _link(self, rid: int, src: int, sinks) -> None:
        heads, inc = self._out[src], self._in
        for t in sinks:
            ids = heads.get(t)
            if ids is None:
                heads[t] = inc[t][src] = {rid}
            else:
                ids.add(rid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiveInstance(current={self.current_count}, "
            f"live_stars={len(self.live)})"
        )


class Candidates(Sequence):
    """The candidates of one choice, read lazily off a live instance vertex
    by vertex in ascending label order: `items(v)` yields vertex v's
    candidates in order, `counts()` iterates over how many each vertex of
    `vertices` yields, in the same order, and `total` is their sum.

    Element i equals element i of the concatenated lists, but only the
    vertices before it are counted and only its own vertex's items are
    generated, so `[0]` costs the smallest vertex's candidates. Valid until
    the instance is next contracted.
    """

    __slots__ = ("_vertices", "_counts", "_items", "_total")

    def __init__(self, vertices, counts, items, total: int):
        self._vertices, self._counts, self._items, self._total = vertices, counts, items, total

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, i: int):
        if not 0 <= i < self._total:
            raise IndexError(f"candidate index {i} out of range")
        for v, c in zip(self._vertices, self._counts()):
            if i < c:
                return next(islice(self._items(v), i, None))
            i -= c
        raise RunCheckError(["candidate counts do not add up to the sequence length"])

    def __iter__(self):
        # One walk over the vertices, not one `[i]` walk per element.
        return chain.from_iterable(map(self._items, self._vertices))


def is_quasiperfect(li: LiveInstance, star_ids) -> bool:
    """Distinct sources whose induced subgraph (arcs of the chosen stars with
    both endpoints among the sources) is strongly connected."""
    ids = set(star_ids)
    if not ids:
        return False
    sinks_at = {li.source_of(sid): li.sinks_of(sid) for sid in ids}
    if len(sinks_at) != len(ids):
        return False
    # The chosen arcs between sources, forward and backward.
    heads_at: dict[int, list[int]] = {v: [] for v in sinks_at}
    tails_at: dict[int, list[int]] = {v: [] for v in sinks_at}
    for v, sinks in sinks_at.items():
        for t in sinks:
            if t in tails_at:
                heads_at[v].append(t)
                tails_at[t].append(v)
    start, largest, k = next(iter(sinks_at)), max(sinks_at), len(sinks_at)
    return (
        _reach_count(heads_at.__getitem__, start, largest) == k
        and _reach_count(tails_at.__getitem__, start, largest) == k
    )


def is_perfect(li: LiveInstance, star_ids) -> bool:
    """Quasiperfect with every sink among the chosen sources."""
    if not is_quasiperfect(li, star_ids):
        return False
    srcs = li.sources(star_ids)
    return all(li.sinks_of(sid) <= srcs for sid in star_ids)


def live_crossing_stars(li: LiveInstance, side) -> frozenset[int]:
    """Live stars with source inside `side` and some sink outside."""
    side_set = frozenset(side)
    out = li._out
    return frozenset(chain.from_iterable(
        ids
        for v in side_set
        for head, ids in out.get(v, {}).items()
        if head not in side_set
    ))


def is_internal_cut(li: LiveInstance, star_ids, side) -> bool:
    """A cut is internal to a star set when every live star crossing it has
    its source and ALL its sinks among the set's sources (so contracting the
    set kills every crosser)."""
    side_set = frozenset(side)
    n = li.current_count
    if not side_set or len(side_set) >= n:
        raise ValueError("cut side must be a nonempty proper subset")
    members = li.partition.members
    for v in side_set:
        if v not in members:
            raise ValueError(f"cut vertex {v} is not a current vertex")
    srcs = li.sources(star_ids)
    return all(
        li.source_of(sid) in srcs and li.sinks_of(sid) <= srcs
        for sid in live_crossing_stars(li, side_set)
    )


def augment_to_perfect(li: LiveInstance, star_ids, advisor: Advisor) -> frozenset[int]:
    """Grow a quasiperfect set into a perfect one.

    While some chosen star has a sink u outside the current source set, walk
    a directed path from u to the sources (depth-first, advisor-ordered,
    internal vertices staying off the sources) and add one advisor-chosen
    star per path arc. Each added star is sourced at a path vertex, so the
    set grows strictly and the loop terminates.
    """
    result = set(star_ids)
    if not is_quasiperfect(li, result):
        raise ValueError("augment_to_perfect requires a quasiperfect star set")
    # Sources and sinks outside them, kept up to date as stars are added.
    srcs = {li.source_of(sid) for sid in result}
    external = {t for sid in result for t in li.sinks_of(sid)} - srcs
    while external:
        u = min(external)
        path = _dfs_path_to(li, u, srcs, advisor)
        added = [
            advisor.choose("aug-star", li.stars_with_arc(a, b))
            for a, b in zip(path, path[1:])
        ]
        result.update(added)
        # `external` never holds an earlier source: only the new ones leave.
        new_srcs = li.sources(added)
        srcs |= new_srcs
        external -= new_srcs
        for sid in added:
            external |= li.sinks_of(sid) - srcs
    return frozenset(result)


def stars_along(li: LiveInstance, advisor: Advisor, arcs) -> set[int]:
    """One advisor-chosen live star per arc, chosen in arc order."""
    return {
        advisor.choose("arc-star", li.stars_with_arc(a, b))
        for a, b in arcs
    }


def _dfs_path_to(li: LiveInstance, start: int, targets: set[int], advisor: Advisor) -> list[int]:
    """Depth-first path from start to any target, internal vertices avoiding
    targets; the final hop prefers the smallest reachable target."""
    visited = {start}
    path = [start]
    while True:
        nbrs = li.out_neighbors(path[-1])  # ascending
        finish = next((t for t in nbrs if t in targets), None)
        if finish is not None:
            path.append(finish)
            return path
        candidates = [t for t in nbrs if t not in visited]
        if not candidates:
            path.pop()
            if not path:
                raise RunCheckError(
                    [f"no directed path leads from {start} back to the sources"]
                )
            continue
        nxt = advisor.choose("aug-step", candidates)
        visited.add(nxt)
        path.append(nxt)


def grow_path(path: list[int], step, advisor: Advisor) -> dict[int, int]:
    """Extend `path` in place by the advisor's `extend` choice among the
    vertices of `step(path[-1])` not yet on it, until there are none.
    Returns each path vertex's position."""
    position = {v: i for i, v in enumerate(path)}
    while True:
        fresh = [w for w in step(path[-1]) if w not in position]
        if not fresh:
            return position
        nxt = advisor.choose("extend", fresh)
        position[nxt] = len(path)
        path.append(nxt)


def contract_perfect(li: LiveInstance, star_ids) -> LiveInstance:
    """Contract the sources of a perfect set into one supervertex."""
    # Runs contract through `contract_rounds`. The benchmark traces this by
    # name, so it stays until ROADMAP item 1 lands; tests drive round loops
    # by hand with it.
    if not is_perfect(li, star_ids):
        raise ValueError("contract_perfect requires a perfect star set")
    return li.contract(li.sources(star_ids))


def contract_rounds(li: LiveInstance, find_round, advisor: Advisor) -> tuple[IterationRecord, ...]:
    """The round loop of every algorithm: until one vertex is left, take
    `find_round(li, advisor)`'s (record ids, cut sides, kind), lift the
    sides to cuts over original vertices (each by its smaller half), and
    contract the ends of the records (their sources and sinks) into one
    vertex."""
    iterations: list[IterationRecord] = []
    while li.current_count > 1:
        q, sides, kind = find_round(li, advisor)
        cuts = tuple(map(li.partition.cut, sides))
        ends = li.sources(q).union(*(li.sinks_of(rid) for rid in q))
        li.contract(ends)
        iterations.append(IterationRecord(len(iterations), kind, tuple(sorted(q)), cuts))
    return tuple(iterations)
