"""Problem instances (SSC, MSCS, DPA, 2ECS), transformations, feasibility checks.

Star ids and edge ids are 0-based list positions; vertex ids are 1-based.
Instances validate their own feasibility on construction (strong connectivity
or 2-edge-connectivity of the underlying graph), so algorithms may assume it.
Strong connectivity, of an instance and of a selection alike, is decided by
reachability over adjacency lists read straight from the stars or edges; no
graph object is built on the way. An invalid star or edge raises a `RecordError`
(a ValueError) that names its position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Multigraph, RecordError, is_two_edge_connected, spans_strongly


class InfeasibleInstanceError(Exception):
    """The instance admits no feasible solution (connectivity fails)."""


@dataclass(frozen=True)
class Star:
    """A set of arcs sharing a source vertex, stored as source + sink set."""

    id: int
    source: int
    sinks: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sinks", frozenset(self.sinks))
        if not self.sinks:
            raise RecordError(f"star {self.id}: empty sink set", self.id)
        if self.source in self.sinks:
            raise RecordError(
                f"star {self.id}: source {self.source} among sinks", self.id
            )

    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.source, t) for t in sorted(self.sinks))


class SSCInstance:
    """Star strong connectivity: pick fewest stars whose arcs span strong
    connectivity over all vertices."""

    __slots__ = ("vertex_count", "stars", "_by_source")

    def __init__(self, vertex_count: int, stars: Sequence[Star]):
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        for i, st in enumerate(stars):
            if st.id != i:
                raise RecordError(f"star at position {i} has id {st.id}", i)
            if not (1 <= st.source <= vertex_count):
                raise RecordError(f"star {i}: source {st.source} out of range", i)
            sinks = st.sinks
            if min(sinks) < 1 or max(sinks) > vertex_count:
                for t in sinks:
                    if not (1 <= t <= vertex_count):
                        raise RecordError(f"star {i}: sink {t} out of range", i)
        self.vertex_count = vertex_count
        self.stars: tuple[Star, ...] = tuple(stars)
        if not _stars_span(vertex_count, self.stars):
            raise InfeasibleInstanceError(
                "union of all stars is not strongly connected"
            )
        self._by_source: dict[int, tuple[Star, ...]] | None = None

    def is_bidirected(self) -> bool:
        """Every star arc u->v has its reverse v->u in some star."""
        arcs = {(st.source, t) for st in self.stars for t in st.sinks}
        return all((v, u) in arcs for u, v in arcs)

    def stars_by_source(self) -> dict[int, tuple[Star, ...]]:
        """Source vertex -> the stars it sources, in id order (built once)."""
        if self._by_source is None:
            index: dict[int, list[Star]] = {}
            for st in self.stars:
                index.setdefault(st.source, []).append(st)
            self._by_source = {v: tuple(group) for v, group in index.items()}
        return self._by_source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SSCInstance(n={self.vertex_count}, stars={len(self.stars)})"


class DPAInstance:
    """Dual power assignment: undirected edges with cost in {0,1}; choose the
    fewest high-power vertices so the induced digraph is strongly connected."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int, int]]):
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        seen: set[frozenset[int]] = set()
        for i, (u, v, c) in enumerate(edges):
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise RecordError(f"edge ({u},{v}) out of range", i)
            if u == v:
                raise RecordError(f"self-loop edge at vertex {u}", i)
            if c not in (0, 1):
                raise RecordError(
                    f"edge ({u},{v}): cost must be 0 or 1, got {c}", i
                )
            key = frozenset((u, v))
            if key in seen:
                raise RecordError(f"duplicate edge ({u},{v})", i)
            seen.add(key)
        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int, int], ...] = tuple(
            (u, v, c) for u, v, c in edges
        )
        if not _power_spans(self, range(1, vertex_count + 1)):
            raise InfeasibleInstanceError(
                "even with every vertex at high power the graph is not "
                "strongly connected"
            )

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


def _stars_span(n: int, stars: Sequence[Star]) -> bool:
    """The stars' arcs make vertices 1..n strongly connected. Two or more
    vertices need a star sourced at each, so fewer than n stars fail before
    any per-vertex list is allocated."""
    if n >= 2 and len(stars) < n:
        return False
    out: list[list[int]] = [[] for _ in range(n + 1)]
    inc: list[list[int]] = [[] for _ in range(n + 1)]
    for st in stars:
        src, sinks = st.source, st.sinks
        out[src].extend(sinks)
        for t in sinks:
            inc[t].append(src)
    return spans_strongly(n, out, inc)


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
    try:
        inst = SSCInstance(comp_count, stars)
    except InfeasibleInstanceError:
        raise InfeasibleInstanceError(
            "power assignment instance is infeasible: component graph is not "
            "strongly connected"
        ) from None
    return inst, mapping


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
        for sid in ids:
            if not (0 <= sid < len(stars)):
                raise ValueError(f"unknown star id {sid}")
        return _stars_span(instance.vertex_count, [stars[sid] for sid in ids])
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
