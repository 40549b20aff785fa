"""Undirected multigraphs, reachability and graph search.

`Digraph` and `Multigraph` number their vertices 1..vertex_count and their
edges by 0-based position in the construction order. The searches run on a
`perfect.LiveInstance`, or on any view with the same queries; the
algorithms contract in place through it, so the vertices a search meets are
its current labels, which need not be dense.

`Digraph`, `VertexPartition`, `contract_multigraph` (with its
`contraction_mapping`) and `is_strongly_connected` serve no solver: the
benchmark traces them by name (`bench/layers.py`, `bench/test_smoke.py`),
so they stay until its revision (ROADMAP item 1) lands.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .perfect import LiveInstance


class RecordError(ValueError):
    """An input record (a star, arc or edge) is invalid.

    `index` is the record's 0-based position in the constructor's input, so
    a parser can point at the line it came from."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class Digraph:
    """Simple digraph: no self-loops, duplicate arcs merged. Pinned by the
    benchmark until ROADMAP item 1 lands; tests use it as the reference."""

    __slots__ = ("vertex_count", "arcs", "_out", "_in")

    def __init__(self, vertex_count: int, arcs: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        self.vertex_count = vertex_count
        out: dict[int, set[int]] = {v: set() for v in range(1, vertex_count + 1)}
        inc: dict[int, set[int]] = {v: set() for v in range(1, vertex_count + 1)}
        seen: set[tuple[int, int]] = set()
        ordered: list[tuple[int, int]] = []
        for u, v in arcs:
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValueError(f"arc ({u},{v}) out of range 1..{vertex_count}")
            if u == v:
                raise ValueError(f"self-loop arc at vertex {u}")
            if (u, v) in seen:
                continue
            seen.add((u, v))
            ordered.append((u, v))
            out[u].add(v)
            inc[v].add(u)
        self.arcs: tuple[tuple[int, int], ...] = tuple(ordered)
        self._out = {v: tuple(sorted(s)) for v, s in out.items()}
        self._in = {v: tuple(sorted(s)) for v, s in inc.items()}

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Undirected neighbor set (union of in- and out-neighbors), sorted."""
        return tuple(sorted(set(self._out[v]) | set(self._in[v])))

    def has_arc(self, u: int, v: int) -> bool:
        return v in self._out[u] if 1 <= u <= self.vertex_count else False

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def is_bidirected(self) -> bool:
        return all(self.has_arc(v, u) for u, v in self.arcs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Digraph(n={self.vertex_count}, m={len(self.arcs)})"


class Multigraph:
    """Undirected multigraph: parallel edges are distinct, no self-loops."""

    __slots__ = ("vertex_count", "edges", "_adj")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        self.vertex_count = vertex_count
        edge_list: list[tuple[int, int]] = []
        # Only vertices with edges get an entry, so memory follows the edges,
        # not the declared vertex count.
        adj: dict[int, list[tuple[int, int]]] = {}
        for eid, (u, v) in enumerate(edges):
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise RecordError(f"edge {{{u},{v}}} out of range 1..{vertex_count}", eid)
            if u == v:
                raise RecordError(f"self-loop edge at vertex {u}", eid)
            edge_list.append((u, v))
            adj.setdefault(u, []).append((eid, v))
            adj.setdefault(v, []).append((eid, u))
        self.edges: tuple[tuple[int, int], ...] = tuple(edge_list)
        self._adj = {v: tuple(pairs) for v, pairs in adj.items()}

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """(edge id, other endpoint) pairs at v, in edge-id order of insertion."""
        return self._adj.get(v, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Multigraph(n={self.vertex_count}, m={len(self.edges)})"


# Pinned by the benchmark until ROADMAP item 1 lands; no solver calls these.
@dataclass(frozen=True)
class VertexPartition:
    """Maps original vertex ids to current (contracted) vertex ids.

    assignment[i] is the current id of original vertex i+1. Current ids are
    dense in 1..current_count.
    """

    original_count: int
    assignment: tuple[int, ...]

    @staticmethod
    def identity(n: int) -> "VertexPartition":
        return VertexPartition(n, tuple(range(1, n + 1)))

    @property
    def current_count(self) -> int:
        return max(self.assignment)

    def compose(self, mapping: dict[int, int]) -> "VertexPartition":
        """Apply a further current->new mapping (e.g. from a contraction)."""
        return VertexPartition(
            self.original_count, tuple(mapping[c] for c in self.assignment)
        )

    def lift(self, current_set: Iterable[int]) -> frozenset[int]:
        """Preimage of a set of current ids as original ids."""
        wanted = set(current_set)
        return frozenset(
            i + 1 for i, c in enumerate(self.assignment) if c in wanted
        )


def contraction_mapping(vertex_count: int, block: Iterable[int]) -> dict[int, int]:
    """Dense renumbering that merges `block` into one vertex.

    The supervertex takes the slot of the smallest block member; all other
    vertices keep their relative order.
    """
    block_set = set(block)
    if not block_set:
        raise ValueError("block must be nonempty")
    for v in block_set:
        if not (1 <= v <= vertex_count):
            raise ValueError(f"block vertex {v} out of range 1..{vertex_count}")
    anchor = min(block_set)
    mapping: dict[int, int] = {}
    next_id = 0
    for v in range(1, vertex_count + 1):
        if v in block_set and v != anchor:
            continue
        next_id += 1
        mapping[v] = next_id
    for v in block_set:
        mapping[v] = mapping[anchor]
    return mapping


def contract_multigraph(
    g: Multigraph, block: Iterable[int]
) -> tuple[Multigraph, dict[int, int], tuple[int, ...]]:
    """Merge `block`; self-loops dropped, parallel edges kept.

    Returns (new graph, vertex mapping, edge_origin) where edge_origin[j] is
    the old edge id of the new graph's edge j.
    """
    mapping = contraction_mapping(g.vertex_count, block)
    new_n = g.vertex_count - len(set(block)) + 1
    edges: list[tuple[int, int]] = []
    origin: list[int] = []
    for eid, (u, v) in enumerate(g.edges):
        nu, nv = mapping[u], mapping[v]
        if nu == nv:
            continue
        edges.append((nu, nv))
        origin.append(eid)
    return Multigraph(new_n, edges), mapping, tuple(origin)


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered vertex pair has a directed path.

    Works on any view with a `Digraph`'s `vertices()`, `out_neighbors` and
    `in_neighbors` whose `vertices()` ascend; vertices need not be dense,
    and neighbour queries may return any iterable, in any order."""
    vertices = g.vertices()
    n = len(vertices)
    if n == 1:
        return True
    start, largest = vertices[0], vertices[-1]
    if _reach_count(g.out_neighbors, start, largest) != n:
        return False
    return _reach_count(g.in_neighbors, start, largest) == n


def spans_strongly(
    n: int, out_lists: Sequence[Sequence[int]], in_lists: Sequence[Sequence[int]]
) -> bool:
    """True iff the arcs given as adjacency lists over vertices 1..n join
    every ordered vertex pair by a directed path.

    `out_lists[v]` holds the heads of v's arcs and `in_lists[v]` their
    tails (index 0 unused; repeats are harmless), so callers can decide
    strong connectivity straight from their records without a graph object."""
    if n == 1:
        return True
    if _reach_count(out_lists.__getitem__, 1, n) != n:
        return False
    return _reach_count(in_lists.__getitem__, 1, n) == n


def _reach_count(step: Callable[[int], Sequence[int]], start: int, largest: int) -> int:
    seen = bytearray(largest + 1)
    seen[start] = 1
    stack = [start]
    count = 1
    while stack:
        v = stack.pop()
        for w in step(v):
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count


def is_two_edge_connected(g: Multigraph) -> bool:
    """Connected and bridgeless; a parallel pair counts, a single vertex too.
    Then every degree is two or more, so fewer edges than vertices fail
    before any per-vertex array is allocated. One depth-first search from
    vertex 1 decides both: it must meet no bridge and reach every vertex."""
    n = g.vertex_count
    if n == 1:
        return True
    if len(g.edges) < n:
        return False
    return _reached_without_bridge(g) == n


def _reached_without_bridge(g: Multigraph) -> int:
    """Vertices a depth-first search from vertex 1 reaches, or 0 once a tree
    edge turns out to be a bridge. Iterative lowpoint computation; parallel
    edges enter by edge id, so a doubled edge to the parent is correctly
    not a bridge."""
    disc = [0] * (g.vertex_count + 1)
    low = [0] * (g.vertex_count + 1)
    disc[1] = low[1] = timer = 1
    # stack holds (vertex, entering edge id, iterator over incident pairs)
    stack: list[tuple[int, int, Iterator[tuple[int, int]]]] = [
        (1, -1, iter(g.incident(1)))
    ]
    while stack:
        v, in_eid, it = stack[-1]
        advanced = False
        for eid, w in it:
            if eid == in_eid:
                continue
            if disc[w]:
                low[v] = min(low[v], disc[w])
                continue
            timer += 1
            disc[w] = low[w] = timer
            stack.append((w, eid, iter(g.incident(w))))
            advanced = True
            break
        if advanced:
            continue
        stack.pop()
        if stack:
            parent = stack[-1][0]
            low[parent] = min(low[parent], low[v])
            if low[v] > disc[parent]:
                return 0
    return timer


def reachable_avoiding(
    g: LiveInstance, start: int, forbidden: Callable[[int, int], bool]
) -> frozenset[int]:
    """Vertices reachable from start (inclusive) skipping forbidden arcs."""
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.out_neighbors(v):
            if forbidden(v, w):
                continue
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def find_nontrivial_path(
    g: LiveInstance, src: int, dst: int, avoid: Iterable[int]
) -> list[int] | None:
    """A src->dst path with >= 2 arcs, internal vertices avoiding `avoid`.

    The direct arc src->dst does not count; a longer route may coexist with
    it. One breadth-first search back from dst, off `avoid` and src, counts
    each vertex's arcs to dst. The path takes the smallest first hop with a
    count, then from each vertex its smallest out-neighbour one arc nearer:
    the lexicographically smallest shortest route on from that hop. Returns
    the vertex list or None.
    """
    banned = set(avoid) | {src}
    arcs_to_dst = {dst: 0}
    queue = deque([dst])
    while queue:
        v = queue.popleft()
        for w in g.in_neighbors(v):
            if w not in arcs_to_dst and w not in banned:
                arcs_to_dst[w] = arcs_to_dst[v] + 1
                queue.append(w)
    hop = next((z for z in g.out_neighbors(src) if z != dst and z in arcs_to_dst), None)
    if hop is None:
        return None
    path = [src, hop]
    for left in range(arcs_to_dst[hop] - 1, -1, -1):
        path.append(next(w for w in g.out_neighbors(path[-1]) if arcs_to_dst.get(w) == left))
    return path
