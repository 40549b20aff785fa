"""Live (contracted) star instances, perfect sets, internal cuts.

A LiveInstance tracks the current contracted view of a base instance: a
vertex partition plus the surviving stars with their shrunk sink sets. Stars
keep their original ids throughout, so selections and certificates recorded
during a run always refer to the input instance.
"""

from __future__ import annotations

from .advisor import Advisor
from .graphs import (
    Digraph,
    VertexPartition,
    contraction_mapping,
    is_strongly_connected,
)
from .instances import SSCInstance


class LiveInstance:
    """Current contracted state: base instance + partition + live stars."""

    __slots__ = ("base", "partition", "live", "_digraph", "_by_source")

    def __init__(
        self,
        base: SSCInstance,
        partition: VertexPartition,
        live: dict[int, tuple[int, frozenset[int]]],
    ):
        self.base = base
        self.partition = partition
        self.live = dict(live)
        self._digraph: Digraph | None = None
        self._by_source: dict[int, tuple[int, ...]] | None = None

    @staticmethod
    def from_instance(base: SSCInstance) -> "LiveInstance":
        part = VertexPartition.identity(base.vertex_count)
        live = {st.id: (st.source, st.sinks) for st in base.stars}
        return LiveInstance(base, part, live)

    @property
    def current_count(self) -> int:
        return self.partition.current_count

    def digraph(self) -> Digraph:
        """Digraph over current vertices spanned by all live stars' arcs."""
        if self._digraph is None:
            arcs = [
                (src, t)
                for sid in sorted(self.live)
                for src, sinks in (self.live[sid],)
                for t in sorted(sinks)
            ]
            self._digraph = Digraph(self.current_count, arcs)
        return self._digraph

    def _stars_by_source(self) -> dict[int, tuple[int, ...]]:
        """Current source -> its live star ids, ascending (built once)."""
        if self._by_source is None:
            index: dict[int, list[int]] = {}
            for sid in sorted(self.live):
                index.setdefault(self.live[sid][0], []).append(sid)
            self._by_source = {v: tuple(ids) for v, ids in index.items()}
        return self._by_source

    def live_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.live))

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
        return self._stars_by_source().get(v, ())

    def stars_with_arc(self, u: int, v: int) -> tuple[int, ...]:
        """Live star ids whose current arcs include u->v, ascending."""
        live = self.live
        return tuple(
            sid for sid in self._stars_by_source().get(u, ()) if v in live[sid][1]
        )

    def sources(self, star_ids) -> frozenset[int]:
        return frozenset(self.source_of(sid) for sid in star_ids)

    def lift(self, current_vertices) -> frozenset[int]:
        """Original vertices behind a set of current vertices."""
        return self.partition.lift(current_vertices)

    def contract(self, block) -> "LiveInstance":
        """Merge a block of current vertices; stars shrink, empty ones die."""
        mapping = contraction_mapping(self.current_count, block)
        new_part = self.partition.compose(mapping)
        new_live: dict[int, tuple[int, frozenset[int]]] = {}
        for sid in sorted(self.live):
            src, sinks = self.live[sid]
            new_src = mapping[src]
            new_sinks = frozenset(mapping[t] for t in sinks) - {new_src}
            if new_sinks:
                new_live[sid] = (new_src, new_sinks)
        return LiveInstance(self.base, new_part, new_live)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiveInstance(current={self.current_count}, "
            f"live_stars={len(self.live)})"
        )


def is_quasiperfect(li: LiveInstance, star_ids) -> bool:
    """Distinct sources whose induced subgraph (arcs of the chosen stars with
    both endpoints among the sources) is strongly connected."""
    ids = sorted(set(star_ids))
    if not ids:
        return False
    sources = [li.source_of(sid) for sid in ids]
    if len(set(sources)) != len(ids):
        return False
    srcs = set(sources)
    index = {v: i + 1 for i, v in enumerate(sorted(srcs))}
    arcs = [
        (index[li.source_of(sid)], index[t])
        for sid in ids
        for t in sorted(li.sinks_of(sid))
        if t in srcs
    ]
    return is_strongly_connected(Digraph(len(srcs), arcs))


def is_perfect(li: LiveInstance, star_ids) -> bool:
    """Quasiperfect with every sink among the chosen sources."""
    if not is_quasiperfect(li, star_ids):
        return False
    srcs = li.sources(star_ids)
    return all(li.sinks_of(sid) <= srcs for sid in star_ids)


def live_crossing_stars(li: LiveInstance, side) -> frozenset[int]:
    """Live stars with source inside `side` and some sink outside."""
    side_set = frozenset(side)
    by_source = li._stars_by_source()
    return frozenset(
        sid
        for v in side_set
        for sid in by_source.get(v, ())
        if not li.live[sid][1] <= side_set
    )


def is_internal_cut(li: LiveInstance, star_ids, side) -> bool:
    """A cut is internal to a star set when every live star crossing it has
    its source and ALL its sinks among the set's sources (so contracting the
    set kills every crosser)."""
    side_set = frozenset(side)
    n = li.current_count
    if not side_set or len(side_set) >= n:
        raise ValueError("cut side must be a nonempty proper subset")
    for v in side_set:
        if not (1 <= v <= n):
            raise ValueError(f"cut vertex {v} out of range 1..{n}")
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
    assert is_perfect(li, result)
    return frozenset(result)


def _dfs_path_to(g: Digraph, start: int, targets: set[int], advisor: Advisor, partition) -> list[int]:
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
                raise AssertionError(
                    "strongly connected digraph must reach the sources"
                )
            continue
        nxt = advisor.choose("aug-step", candidates, partition)
        visited.add(nxt)
        path.append(nxt)


def contract_perfect(li: LiveInstance, star_ids) -> LiveInstance:
    """Contract the sources of a perfect set into one supervertex.

    Every chosen star dies (its sinks all lie inside the merged block), live
    stars shrink, and strong connectivity is preserved."""
    if not is_perfect(li, star_ids):
        raise ValueError("contract_perfect requires a perfect star set")
    chosen = frozenset(star_ids)
    srcs = li.sources(chosen)
    shrunk = li.contract(srcs)
    assert all(sid not in shrunk.live for sid in chosen)
    assert is_strongly_connected(shrunk.digraph())
    return shrunk
