"""Live (contracted) instances, perfect sets, internal cuts, and the round
loop that all algorithms share (`contract_rounds`) with the round check of
the star algorithms (`check_round`).

A LiveInstance is the current contracted view of an instance; its records
are stars, or edges as one-sink records. Each current vertex is labelled by
its smallest original vertex, so labels sort as the dense ids of a fresh
renumbering would, and every candidate list an advisor sees keeps its order.
`contract` updates the view in place: it touches only the records with a
source or sink among the merged vertices other than the block's smallest,
and keeps the record indexes and the arc multiplicities up to date, so no
round rebuilds the instance or its digraph. Records keep their original ids,
so selections and certificates always refer to the input instance.
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


class LiveDigraph:
    """Read-only digraph over the current vertices of a LiveInstance,
    spanned by its live stars' arcs.

    It answers the queries of `graphs.Digraph` from arc multiplicities that
    `LiveInstance.contract` keeps up to date. Vertices are labels, not dense
    ids. Sorted neighbour tuples are built on demand and kept until a
    contraction changes that vertex's arcs.
    """

    __slots__ = ("_out", "_in", "_out_sorted", "_in_sorted", "_nbrs_sorted", "_vertices", "_arcs")

    def __init__(self, n: int):
        # Vertex -> neighbour -> number of live stars carrying that arc. Keys
        # are every current vertex, in ascending order: the dicts are built
        # in order and contraction only deletes keys.
        self._out: dict[int, dict[int, int]] = {v: {} for v in range(1, n + 1)}
        self._in: dict[int, dict[int, int]] = {v: {} for v in range(1, n + 1)}
        self._out_sorted: dict[int, tuple[int, ...]] = {}
        self._in_sorted: dict[int, tuple[int, ...]] = {}
        self._nbrs_sorted: dict[int, tuple[int, ...]] = {}
        self._vertices: tuple[int, ...] | None = None
        self._arcs: tuple[tuple[int, int], ...] | None = None

    @property
    def vertex_count(self) -> int:
        return len(self._out)

    def vertices(self) -> tuple[int, ...]:
        """Current vertices, ascending."""
        if self._vertices is None:
            self._vertices = tuple(self._out)
        return self._vertices

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        found = self._out_sorted.get(v)
        if found is None:
            found = self._out_sorted[v] = tuple(sorted(self._out[v]))
        return found

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        found = self._in_sorted.get(v)
        if found is None:
            found = self._in_sorted[v] = tuple(sorted(self._in[v]))
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
        if self._arcs is None:
            heads = self.out_neighbors
            self._arcs = tuple([(u, v) for u in self.vertices() for v in heads(u)])
        return self._arcs

    def is_bidirected(self) -> bool:
        inc = self._in
        return all(heads.keys() == inc[v].keys() for v, heads in self._out.items())

    def _add(self, u: int, heads) -> None:
        out_u, inc = self._out[u], self._in
        for v in heads:
            out_u[v] = out_u.get(v, 0) + 1
            tails = inc[v]
            tails[u] = tails.get(u, 0) + 1

    def _remove(self, u: int, heads) -> None:
        out_u, inc = self._out[u], self._in
        for v in heads:
            for counts, key in ((out_u, v), (inc[v], u)):
                if counts[key] == 1:
                    del counts[key]
                else:
                    counts[key] -= 1

    def _changed(self, tails, heads, gone) -> None:
        """Forget what contraction made stale: the sorted out- and
        in-neighbours of `tails` and `heads`, and the `gone` vertices."""
        self._vertices = self._arcs = None
        for v in gone:
            del self._out[v], self._in[v]
        for cache, vertices in (
            (self._out_sorted, chain(tails, gone)),
            (self._in_sorted, chain(heads, gone)),
            (self._nbrs_sorted, chain(tails, heads, gone)),
        ):
            for v in vertices:
                cache.pop(v, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LiveDigraph(n={self.vertex_count})"


class LiveInstance:
    """Current contracted state of an instance: vertex labels, live records
    with their current source and sinks, and indexes over them."""

    __slots__ = ("partition", "live", "_by_source", "_by_sink", "_graph")

    def __init__(self, n: int, records: Iterable[tuple[int, int, frozenset[int]]]):
        """`records` are (id, source, sinks) triples in ascending id order."""
        self.partition = Labels(n)
        self.live: dict[int, tuple[int, frozenset[int]]] = {}
        # Source -> its live record ids, ascending; sink -> its live record ids.
        by_source: dict[int, list[int]] = {}
        self._by_sink: dict[int, set[int]] = {}
        self._graph = LiveDigraph(n)
        for rid, src, sinks in records:
            self.live[rid] = (src, sinks)
            by_source.setdefault(src, []).append(rid)
            for t in sinks:
                self._by_sink.setdefault(t, set()).add(rid)
            self._graph._add(src, sinks)
        self._by_source = {v: tuple(ids) for v, ids in by_source.items()}

    @staticmethod
    def from_instance(base: SSCInstance) -> "LiveInstance":
        stars = [(st.id, st.source, st.sinks) for st in base.stars]
        return LiveInstance(base.vertex_count, stars)

    @staticmethod
    def from_multigraph(g: Multigraph) -> "LiveInstance":
        """Each edge {u, v} becomes the record (id, u, {v})."""
        edges = [(eid, u, frozenset((v,))) for eid, (u, v) in enumerate(g.edges)]
        return LiveInstance(g.vertex_count, edges)

    @property
    def current_count(self) -> int:
        return self._graph.vertex_count

    def vertices(self) -> tuple[int, ...]:
        """Current vertex labels, ascending."""
        return self._graph.vertices()

    def digraph(self) -> LiveDigraph:
        """Digraph over current vertices spanned by all live stars' arcs."""
        return self._graph

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
        return self._by_source.get(v, ())

    def degree(self, v: int) -> int:
        """Live records with v as their source or among their sinks; in a
        live edge instance, the degree of v."""
        return len(self._by_source.get(v, ())) + len(self._by_sink.get(v, ()))

    def stars_with_arc(self, u: int, v: int) -> tuple[int, ...]:
        """Live record ids whose current arcs include u->v, ascending.

        Scans the smaller of u's records and v's, so a lookup at a
        supervertex does not visit every record merged into it."""
        live = self.live
        out = self._by_source.get(u, ())
        into = self._by_sink.get(v, ())
        if len(into) < len(out):
            return tuple(sorted([sid for sid in into if live[sid][0] == u]))
        return tuple(sid for sid in out if v in live[sid][1])

    def sources(self, star_ids) -> frozenset[int]:
        return frozenset(self.source_of(sid) for sid in star_ids)

    def lift(self, current_vertices) -> frozenset[int]:
        """Original vertices behind a set of current vertices."""
        return self.partition.lift(current_vertices)

    def contract(self, block) -> "LiveInstance":
        """Merge a block of current vertices, in place, into its smallest
        label; records shrink, and those with every end in the block die.
        Returns this instance.

        Only records with a source or a sink among the other block members
        change; only records sourced inside the block can die."""
        block = set(block)
        if not block:
            raise ValueError("block must be nonempty")
        members = self.partition.members
        for v in block:
            if v not in members:
                raise ValueError(f"block vertex {v} is not a current vertex")
        anchor = min(block)
        gone = block - {anchor}
        live, by_source, by_sink, g = self.live, self._by_source, self._by_sink, self._graph
        touched: set[int] = set()
        for v in gone:
            touched.update(by_source.pop(v, ()))
            touched.update(by_sink.pop(v, ()))
        tails: set[int] = set()
        heads: set[int] = set()
        moved: list[int] = []
        dead: set[int] = set()
        for sid in touched:
            src, sinks = live[sid]
            if src in block and sinks <= block:
                g._remove(src, sinks)
                tails.add(src)
                heads.update(sinks)
                if anchor in sinks:
                    by_sink[anchor].discard(sid)
                del live[sid]
                dead.add(sid)
                continue
            new_src = anchor if src in block else src
            new_sinks = frozenset(
                [anchor if t in gone else t for t in sinks]
            ) - {new_src}
            if new_src == src:
                g._remove(src, sinks - new_sinks)
                g._add(src, new_sinks - sinks)
                heads.update(sinks ^ new_sinks)
            else:
                g._remove(src, sinks)
                g._add(new_src, new_sinks)
                heads.update(sinks | new_sinks)
            tails.update((src, new_src))
            for t in sinks - new_sinks:
                if t not in gone:
                    by_sink[t].discard(sid)
            for t in new_sinks - sinks:
                by_sink.setdefault(t, set()).add(sid)
            live[sid] = (new_src, new_sinks)
            if new_src != src:
                moved.append(sid)
        if moved or dead:
            kept = [sid for sid in by_source.get(anchor, ()) if sid not in dead]
            ids = tuple(sorted(kept + moved))
            if ids:
                by_source[anchor] = ids
            else:
                by_source.pop(anchor, None)
        g._changed(tails - gone, heads - gone, gone)
        self.partition.merge(block, anchor)
        return self

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
    vertices outside it, through the sink index."""
    side_set = frozenset(side)
    live = li.live
    vertices = li.vertices()
    if 2 * len(side_set) > len(vertices):
        by_sink = li._by_sink
        return frozenset(
            sid
            for t in vertices
            if t not in side_set
            for sid in by_sink.get(t, ())
            if live[sid][0] in side_set
        )
    by_source = li._by_source
    return frozenset(
        sid
        for v in side_set
        for sid in by_source.get(v, ())
        if not live[sid][1] <= side_set
    )


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


def augment_to_perfect(li: LiveInstance, star_ids, advisor: Advisor | None = None) -> frozenset[int]:
    """Grow a quasiperfect set into a perfect one.

    While some chosen star has a sink u outside the current source set, walk
    a directed path from u to the sources (depth-first, advisor-ordered,
    internal vertices staying off the sources) and add one advisor-chosen
    star per path arc. Each added star is sourced at a path vertex, so the
    set grows strictly and the loop terminates.
    """
    advisor = advisor or Advisor()
    result = set(star_ids)
    if not is_quasiperfect(li, result):
        raise ValueError("augment_to_perfect requires a quasiperfect star set")
    g = li.digraph()
    # Sources and sinks outside them, kept up to date as stars are added.
    srcs = {li.source_of(sid) for sid in result}
    external = {t for sid in result for t in li.sinks_of(sid)} - srcs
    while external:
        u = min(external)
        path = _dfs_path_to(g, u, srcs, advisor, li.partition)
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


def _dfs_path_to(g: LiveDigraph, start: int, targets: set[int], advisor: Advisor, partition) -> list[int]:
    """Depth-first path from start to any target, internal vertices avoiding
    targets; the final hop prefers the smallest reachable target."""
    visited = {start}
    path = [start]
    while True:
        nbrs = g.out_neighbors(path[-1])  # ascending
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
        nxt = advisor.choose("aug-step", candidates, partition)
        visited.add(nxt)
        path.append(nxt)


def contract_perfect(li: LiveInstance, star_ids) -> LiveInstance:
    """Contract the sources of a perfect set into one supervertex."""
    # Runs contract through `contract_rounds`; this stays for hand-driven
    # round loops in tests and for the benchmark's per-layer trace.
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
        cuts = tuple(Cut(li.lift(side)) for side in sides)
        ends = li.sources(q).union(*(li.sinks_of(rid) for rid in q))
        li.contract(ends)
        iterations.append(IterationRecord(len(iterations), kind, tuple(sorted(q)), cuts))
    return tuple(iterations)
