"""Live (contracted) instances, perfect sets, internal cuts, and the round
loop that all algorithms share (`contract_rounds`) with the round check of
the star algorithms (`check_round`).

A LiveInstance is the current contracted view of an instance; its records
are stars, or edges as one-sink records. Each current vertex is labelled by
its smallest original vertex, so labels sort as the dense ids of a fresh
renumbering would, and every candidate list an advisor sees keeps its order.
`contract` updates the view in place: it touches only the records with a
source or sink among the merged vertices other than the block's smallest,
and keeps its one index, arc -> ids of the live records carrying it, up to
date, so no round rebuilds the instance or a digraph. Records keep their
original ids, so selections and certificates always refer to the input
instance.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable

from .advisor import Advisor
from .certificates import Cut
from .graphs import Multigraph
from .instances import SSCInstance
from .report import IterationRecord, RunCheckError


class Labels:
    """Which current vertex each original vertex belongs to.

    A current vertex is labelled by its smallest original member. Lookups go
    through a union-find over original vertices; each label also keeps the
    list of its original members, so `lift` costs the size of its output.
    """

    __slots__ = ("_parent", "_label", "members")

    def __init__(self, n: int):
        self._parent = list(range(n + 1))
        self._label = list(range(n + 1))  # union-find root -> label
        self.members: dict[int, list[int]] = {v: [v] for v in range(1, n + 1)}

    def _root(self, v: int) -> int:
        parent = self._parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def current_of(self, original: int) -> int:
        return self._label[self._root(original)]

    def lift(self, current_vertices) -> frozenset[int]:
        """Original vertices behind a set of current vertices."""
        members = self.members
        return frozenset(chain.from_iterable(members[c] for c in current_vertices))

    def merge(self, block: set[int], anchor: int) -> None:
        """Merge the current vertices of `block` into one labelled `anchor`,
        the block's smallest label; the largest class absorbs the others."""
        members = self.members
        big = max(block, key=lambda v: len(members[v]))
        root = self._root(big)
        merged = members.pop(big)
        for v in block:
            if v != big:
                self._parent[self._root(v)] = root
                merged += members.pop(v)
        self._label[root] = anchor
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
        "_out_sorted", "_nbrs_sorted", "_vertices",
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
        self._vertices: tuple[int, ...] | None = None
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
        if self._vertices is None:
            self._vertices = tuple(self._out)
        return self._vertices

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        found = self._out_sorted.get(v)
        if found is None:
            found = self._out_sorted[v] = tuple(sorted(self._out[v]))
        return found

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

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every arc once, ascending by (tail, head)."""
        heads = self.out_neighbors
        return tuple([(u, v) for u in self.vertices() for v in heads(u)])

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
            self._vertices = None
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
        self._vertices = None
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


def is_quasiperfect(li: LiveInstance, star_ids) -> bool:
    """Distinct sources whose induced subgraph (arcs of the chosen stars with
    both endpoints among the sources) is strongly connected."""
    ids = set(star_ids)
    if not ids:
        return False
    sinks_at = {li.source_of(sid): li.sinks_of(sid) for sid in ids}
    if len(sinks_at) != len(ids):
        return False
    tails_at: dict[int, list[int]] = {v: [] for v in sinks_at}
    for v, sinks in sinks_at.items():
        for t in sinks:
            if t in tails_at:
                tails_at[t].append(v)
    start = next(iter(sinks_at))
    return _reaches_all(sinks_at, start) and _reaches_all(tails_at, start)


def _reaches_all(step, start: int) -> bool:
    """True when `start` reaches every key of `step` along `step`'s lists,
    ignoring entries that are not keys."""
    seen = {start}
    stack = [start]
    while stack:
        for w in step[stack.pop()]:
            if w in step and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(step)


def is_perfect(li: LiveInstance, star_ids) -> bool:
    """Quasiperfect with every sink among the chosen sources."""
    if not is_quasiperfect(li, star_ids):
        return False
    srcs = li.sources(star_ids)
    return all(li.sinks_of(sid) <= srcs for sid in star_ids)


def live_crossing_stars(li: LiveInstance, side) -> frozenset[int]:
    """Live stars with source inside `side` and some sink outside.

    A side holding more than half the current vertices is answered from the
    arcs into the vertices outside it."""
    side_set = frozenset(side)
    vertices = li.vertices()
    if 2 * len(side_set) > len(vertices):
        inc = li._in
        return frozenset(chain.from_iterable(
            ids
            for t in vertices
            if t not in side_set
            for tail, ids in inc[t].items()
            if tail in side_set
        ))
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


def are_star_disjoint(li: LiveInstance, side1, side2) -> bool:
    """True when no live star crosses both cuts."""
    return not (
        live_crossing_stars(li, side1) & live_crossing_stars(li, side2)
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
            advisor.choose("aug-star", li.stars_with_arc(a, b), li.partition)
            for a, b in zip(path, path[1:])
        ]
        result.update(added)
        srcs.update(li.source_of(sid) for sid in added)
        external -= srcs
        for sid in added:
            external |= li.sinks_of(sid) - srcs
    return frozenset(result)


def stars_along(li: LiveInstance, advisor: Advisor, arcs) -> set[int]:
    """One advisor-chosen live star per arc, chosen in arc order."""
    return {
        advisor.choose("arc-star", li.stars_with_arc(a, b), li.partition)
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
        nxt = advisor.choose("aug-step", candidates, li.partition)
        visited.add(nxt)
        path.append(nxt)


def contract_perfect(li: LiveInstance, star_ids) -> LiveInstance:
    """Contract the sources of a perfect set into one supervertex."""
    # Runs contract through `contract_rounds`. The benchmark traces this by
    # name, so it stays until ROADMAP item 1 lands; tests drive round loops
    # by hand with it.
    if not is_perfect(li, star_ids):
        raise ValueError("contract_perfect requires a perfect star set")
    return li.contract(li.sources(star_ids))


def check_round(li: LiveInstance, star_ids, sides) -> None:
    """Check one round of a star algorithm: the set is perfect, every cut
    side is internal to it, and no live star crosses two of the sides.

    Raises RunCheckError naming the first finding; the check is explicit
    code, so it also runs under `python -O`."""
    if not is_perfect(li, star_ids):
        raise RunCheckError([f"round star set {sorted(star_ids)} is not perfect"])
    for side in sides:
        if not is_internal_cut(li, star_ids, side):
            raise RunCheckError(
                [f"round cut {sorted(side)} is not internal to star set {sorted(star_ids)}"]
            )
    for side1, side2 in combinations(sides, 2):
        if not are_star_disjoint(li, side1, side2):
            raise RunCheckError(
                [f"round cuts {sorted(side1)} and {sorted(side2)} share a star"]
            )


def contract_rounds(li: LiveInstance, find_round, advisor: Advisor) -> tuple[IterationRecord, ...]:
    """The round loop of every algorithm: until one vertex is left, take
    `find_round(li, advisor)`'s (record ids, cut sides, kind), lift the
    sides to cuts over original vertices, and contract the ends of the
    records (their sources and sinks) into one vertex."""
    iterations: list[IterationRecord] = []
    while li.current_count > 1:
        q, sides, kind = find_round(li, advisor)
        cuts = tuple(Cut(li.partition.lift(side)) for side in sides)
        ends = li.sources(q).union(*(li.sinks_of(rid) for rid in q))
        li.contract(ends)
        iterations.append(IterationRecord(len(iterations), kind, tuple(sorted(q)), cuts))
    return tuple(iterations)
