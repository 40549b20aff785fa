"""Problem instances (SSC, MSCS, DPA, 2ECS), transformations, feasibility checks.

Star ids and edge ids are 0-based list positions; vertex ids are 1-based.
Instances validate their records and their own feasibility on construction
(strong connectivity or 2-edge-connectivity of the underlying graph), so
algorithms may assume both. A `Star` is a plain value record that checks
nothing itself: `SSCInstance` checks every star it is given, in one pass
over the stars that also builds its by-source and by-sink indexes, which
its strong-connectivity proof reads as adjacency lists. Strong connectivity,
of an instance and of a selection alike, is decided by reachability over
adjacency lists read straight from the stars or edges; no graph object is
built on the way. An invalid star or edge raises a `RecordError` (a
ValueError) that names its position, the first invalid one in input order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import (
    Multigraph,
    RecordError,
    _reach_count,
    is_two_edge_connected,
    spans_strongly,
)


class InfeasibleInstanceError(Exception):
    """The instance admits no feasible solution (connectivity fails)."""


# Not frozen: a frozen dataclass sets each field through
# `object.__setattr__`, which cost more than the rest of reading a star
# file. `unsafe_hash` keeps the hash a frozen star had; no code changes a
# star once made.
@dataclass(slots=True, unsafe_hash=True, init=False)
class Star:
    """A set of arcs sharing a source vertex, stored as source + sink set.

    A value record that checks nothing itself; the `SSCInstance` it is
    given to checks it (a nonempty sink set that does not hold the source,
    vertices in range, the id its position)."""

    id: int
    source: int
    sinks: frozenset[int]

    def __init__(self, id: int, source: int, sinks: Iterable[int]):
        self.id = id
        self.source = source
        self.sinks = frozenset(sinks)


class SSCInstance:
    """Star strong connectivity: pick fewest stars whose arcs span strong
    connectivity over all vertices."""

    __slots__ = ("vertex_count", "stars", "_by_source", "_by_sink")

    def __init__(self, vertex_count: int, stars: Sequence[Star]):
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        n = vertex_count
        stars = tuple(stars)
        by_source: defaultdict[int, list[Star]] = defaultdict(list)
        by_sink: defaultdict[int, list[Star]] = defaultdict(list)
        # One pass checks, names and indexes the stars, so the first bad
        # star in input order is the one named; the indexes are also the
        # adjacency lists the strong-connectivity proof reads.
        for i, st in enumerate(stars):
            src, sinks = st.source, st.sinks
            if st.id != i:
                raise RecordError(f"star at position {i} has id {st.id}", i)
            if not sinks:
                raise RecordError(f"star {i}: empty sink set", i)
            if src in sinks:
                raise RecordError(f"star {i}: source {src} among sinks", i)
            if not 1 <= src <= n:
                raise RecordError(f"star {i}: source {src} out of range", i)
            by_source[src].append(st)
            for t in sinks:
                if not 1 <= t <= n:
                    raise RecordError(f"star {i}: sink {t} out of range", i)
                by_sink[t].append(st)
        self.vertex_count = n
        self.stars: tuple[Star, ...] = stars
        if not _stars_span(n, by_source, by_sink):
            raise InfeasibleInstanceError(
                "union of all stars is not strongly connected"
            )
        self._by_source = {v: tuple(group) for v, group in by_source.items()}
        self._by_sink = {v: tuple(group) for v, group in by_sink.items()}

    def is_bidirected(self) -> bool:
        """Every star arc u->v has its reverse v->u in some star."""
        arcs = {(st.source, t) for st in self.stars for t in st.sinks}
        return all((v, u) in arcs for u, v in arcs)

    def stars_by_source(self) -> dict[int, tuple[Star, ...]]:
        """Source vertex -> the stars it sources, in id order. Only vertices
        that source a star are keys. Built with the instance."""
        return self._by_source

    def stars_by_sink(self) -> dict[int, tuple[Star, ...]]:
        """Sink vertex -> the stars with it among their sinks, in id order.
        Only vertices that are some star's sink are keys. Built with the
        instance."""
        return self._by_sink

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SSCInstance(n={self.vertex_count}, stars={len(self.stars)})"


class DPAInstance:
    """Dual power assignment: undirected edges with cost in {0,1}; choose the
    fewest high-power vertices so the induced digraph is strongly connected."""

    __slots__ = ("vertex_count", "edges", "_star_form")

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int, int]]):
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        n = vertex_count
        # One pass checks each edge and collects its two arcs at full power,
        # where every edge gives both, so one list per vertex serves as both
        # its heads and its tails.
        seen: set[tuple[int, int]] = set()
        ends: defaultdict[int, list[int]] = defaultdict(list)
        for i, (u, v, c) in enumerate(edges):
            if not (1 <= u <= n and 1 <= v <= n):
                raise RecordError(f"edge ({u},{v}) out of range", i)
            if u == v:
                raise RecordError(f"self-loop edge at vertex {u}", i)
            if c not in (0, 1):
                raise RecordError(
                    f"edge ({u},{v}): cost must be 0 or 1, got {c}", i
                )
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise RecordError(f"duplicate edge ({u},{v})", i)
            seen.add(key)
            ends[u].append(v)
            ends[v].append(u)
        self.vertex_count = n
        self.edges: tuple[tuple[int, int, int], ...] = tuple(
            (u, v, c) for u, v, c in edges
        )
        self._star_form: tuple[SSCInstance, dict[int, int]] | None = None
        # Two or more vertices need an edge at each; the lists are keyed by
        # the vertices the edges name, so too few fail before the search.
        # Every arc has its reverse, so one search from vertex 1 that
        # reaches every vertex proves strong connectivity.
        if n >= 2 and (len(ends) < n or _reach_count(ends.__getitem__, 1, n) < n):
            raise InfeasibleInstanceError(
                "even with every vertex at high power the graph is not "
                "strongly connected"
            )

    def star_form(self) -> tuple[SSCInstance, dict[int, int]]:
        """`dpa_to_ssc(self)`: the star instance the bidirected algorithm
        runs on and each vertex's star id. Built on the first call and kept;
        it depends on the instance alone, and no run writes to it."""
        if self._star_form is None:
            self._star_form = dpa_to_ssc(self)
        return self._star_form

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DPAInstance(n={self.vertex_count}, m={len(self.edges)})"


class TwoECSInstance:
    """Minimum 2-edge-connected spanning subgraph over a multigraph."""

    __slots__ = ("graph", "vertex_count")

    def __init__(self, graph: Multigraph):
        if not is_two_edge_connected(graph):
            raise InfeasibleInstanceError("input multigraph is not 2-edge-connected")
        self.graph = graph
        self.vertex_count = graph.vertex_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TwoECSInstance(n={self.vertex_count}, m={len(self.graph.edges)})"


def _stars_span(n: int, by_source, by_sink) -> bool:
    """The arcs of the stars grouped by source and by sink make vertices
    1..n strongly connected: searches from vertex 1, out along the stars'
    arcs and back against them, each reach every vertex.

    `by_source[v]` and `by_sink[v]` are the stars sourced at v and those
    with v among their sinks: lists indexed by vertex, or dicts keyed by
    the vertices in 1..n that have such stars. Two or more vertices need a
    star sourced at each and a star into each, so dicts that miss a vertex
    fail before the searches allocate anything per vertex. The searches
    read the stars in place: `graphs._reach_count` would need a list of
    heads and of tails per vertex first, which read 1.6-1.8x slower per
    pass over the benchmark's `large` star instances."""
    if n == 1:
        return True
    if len(by_source) < n or len(by_sink) < n:
        return False
    seen = bytearray(n + 1)
    seen[1] = 1
    stack = [1]
    count = 1
    while stack:
        for st in by_source[stack.pop()]:
            for w in st.sinks:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
    if count < n:
        return False
    seen = bytearray(n + 1)
    seen[1] = 1
    stack = [1]
    count = 1
    while stack:
        for st in by_sink[stack.pop()]:
            w = st.source
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count == n


def _power_spans(d: DPAInstance, high) -> bool:
    """The digraph that the vertices in `high` (a container) at high power
    induce is strongly connected: an edge gives the arc u->v when it is free
    or u is at high power. Two or more vertices need a connected graph, so fewer than n - 1 edges fail
    before any per-vertex list is allocated."""
    n = d.vertex_count
    if n >= 2 and len(d.edges) < n - 1:
        return False
    out: list[list[int]] = [[] for _ in range(n + 1)]
    inc: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v, c in d.edges:
        if c == 0 or u in high:
            out[u].append(v)
            inc[v].append(u)
        if c == 0 or v in high:
            out[v].append(u)
            inc[u].append(v)
    return spans_strongly(n, out, inc)


def dpa_to_ssc(d: DPAInstance) -> tuple[SSCInstance, dict[int, int]]:
    """Reduce DPA to SSC: one SSC vertex per zero-cost component, one star per
    original vertex with component-crossing edges.

    Returns (instance, mapping) where mapping sends each original vertex that
    received a star to that star's id. Selections convert through the mapping
    with cost preserved exactly.
    """
    n = d.vertex_count
    # Free edges are undirected, so the zero-cost components are connected
    # components: one union-find pass in which the smaller root wins, so
    # each root is its component's smallest vertex.
    parent = list(range(n + 1))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v, c in d.edges:
        if c == 0:
            ru, rv = root(u), root(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    # Components are numbered 1.. in order of their smallest vertex.
    comp = [0] * (n + 1)
    comp_count = 0
    for v in range(1, n + 1):
        r = root(v)
        if r == v:
            comp_count += 1
            comp[v] = comp_count
        else:
            comp[v] = comp[r]
    # Each vertex's component-crossing targets, in one pass over the edges.
    crossing: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for a, b, _c in d.edges:
        if comp[a] != comp[b]:
            crossing[a].add(comp[b])
            crossing[b].add(comp[a])
    stars: list[Star] = []
    mapping: dict[int, int] = {}
    for v in range(1, n + 1):
        targets = crossing[v]
        if targets:
            mapping[v] = len(stars)
            stars.append(Star(len(stars), comp[v], frozenset(targets)))
    # Never infeasible: it is a quotient of the proven full-power digraph.
    return SSCInstance(comp_count, stars), mapping


def mscs_to_ssc(n: int, arcs: Iterable[tuple[int, int]]) -> SSCInstance:
    """View the arcs (u, v) of a digraph on vertices 1..n as SSC with one
    singleton star per arc, in arc order; a repeated arc stays its own star,
    as in the `mscs` file format."""
    stars = [Star(i, u, frozenset({v})) for i, (u, v) in enumerate(arcs)]
    return SSCInstance(n, stars)


def check_feasible(instance, selected: Iterable[int]) -> bool:
    """Direct connectivity test of a selection against its instance.

    `selected` is any iterable of ids; repeats count once. The instance type
    says what the ids mean: star ids (0-based) for an `SSCInstance`, edge
    ids (0-based) for a `TwoECSInstance`, and the vertices at high power
    (1-based) for a `DPAInstance`. An id the instance does not have raises
    ValueError; any other instance type raises TypeError.
    """
    ids = frozenset(selected)
    if isinstance(instance, SSCInstance):
        stars = instance.stars
        n = instance.vertex_count
        # The set-level test decides; the generator only names the id.
        if ids and not (0 <= min(ids) and max(ids) < len(stars)):
            bad = next(sid for sid in ids if not 0 <= sid < len(stars))
            raise ValueError(f"unknown star id {bad}")
        if n >= 2 and len(ids) < n:
            return False
        by_source: list[list[Star]] = [[] for _ in range(n + 1)]
        by_sink: list[list[Star]] = [[] for _ in range(n + 1)]
        for sid in ids:
            st = stars[sid]
            by_source[st.source].append(st)
            for t in st.sinks:
                by_sink[t].append(st)
        return _stars_span(n, by_source, by_sink)
    if isinstance(instance, TwoECSInstance):
        g = instance.graph
        for eid in ids:
            if not (0 <= eid < len(g.edges)):
                raise ValueError(f"unknown edge id {eid}")
        sub = Multigraph(g.vertex_count, [g.edges[eid] for eid in sorted(ids)])
        return is_two_edge_connected(sub)
    if isinstance(instance, DPAInstance):
        for v in ids:
            if not (1 <= v <= instance.vertex_count):
                raise ValueError(f"unknown vertex id {v}")
        return _power_spans(instance, ids)
    raise TypeError(f"unsupported instance type {type(instance).__name__}")
