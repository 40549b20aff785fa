"""Approximation for smallest 2-edge-connected spanning subgraphs.

Repeatedly grows a path until it closes into a cycle whose closing end has
all neighbors on the cycle, takes the cycle's edges, records the one-vertex
cut at the closing end, and contracts the cycle. The recorded cuts are
pairwise edge-disjoint, so doubling each gives an integer dual solution
certifying a lower bound of twice the cut count.

The graph is contracted in place as a `LiveInstance` of edge records, so
edge ids stay those of the input.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

from .advisor import Advisor
from .instances import TwoECSInstance
from .perfect import LiveInstance, contract_rounds
from .report import RunCheckError, RunReport, build_report


@dataclass(frozen=True)
class CycleWitness:
    """A cycle in the current graph whose last path vertex has every
    neighbor on the cycle, making that vertex a one-vertex cut crossed only
    by cycle edges."""

    cycle_vertices: tuple[int, ...]
    cycle_edges: tuple[int, ...]
    internal_cut_vertex: int


def _edges_between(li: LiveInstance, u: int, v: int) -> tuple[int, ...]:
    """Live edge ids joining u and v, whichever end each is recorded from."""
    return li.stars_with_arc(u, v) + li.stars_with_arc(v, u)


class OrientedEdges(Sequence):
    """Every live edge once per direction as (tail, head, edge id), ascending:
    the `initial-edge` candidates, read lazily off a live edge instance.

    Element i equals element i of the sorted list of all such triples, but
    only the vertices before it are counted and only its own vertex's
    adjacency is listed, so `[0]` costs the smallest vertex's edges. Valid
    until the instance is next contracted.
    """

    __slots__ = ("_li",)

    def __init__(self, li: LiveInstance):
        self._li = li

    def __len__(self) -> int:
        # Contraction drops every record whose ends merge, so each live
        # record joins two distinct current vertices.
        return 2 * len(self._li.live)

    def __getitem__(self, i: int) -> tuple[int, int, int]:
        if not 0 <= i < len(self):
            raise IndexError(f"oriented edge index {i} out of range")
        li = self._li
        for v in li.vertices():
            degree = li.degree(v)
            if i < degree:
                return next(islice(self._at(v), i, None))
            i -= degree
        raise RunCheckError(["live edge degrees do not add up to twice the edge count"])

    def __iter__(self):
        # One walk over the vertices, not one `[i]` walk per element.
        for v in self._li.vertices():
            yield from self._at(v)

    def _at(self, v: int):
        """The triples with tail v, ascending."""
        li = self._li
        for w in li.neighbors(v):
            for eid in sorted(_edges_between(li, v, w)):
                yield (v, w, eid)


def find_cycle_with_internal_cut(li: LiveInstance, advisor: Advisor) -> CycleWitness:
    """Grow a path greedily; when stuck, close it into a cycle.

    Requires a live edge instance (`LiveInstance.from_multigraph`) whose
    current graph is 2-edge-connected on at least 2 vertices. The closing
    edge is the smallest-id edge to the earliest path neighbor, never the
    edge that entered the endpoint, so two parallel edges close a legal
    2-cycle.
    """
    if li.current_count < 2:
        raise ValueError("need at least two vertices to find a cycle")
    tail, head, first_eid = advisor.choose("initial-edge", OrientedEdges(li), li.partition)
    path = [tail, head]
    position = {tail: 0, head: 1}
    while True:
        fresh = [w for w in li.neighbors(path[-1]) if w not in position]
        if not fresh:
            break
        nxt = advisor.choose("extend", fresh, li.partition)
        position[nxt] = len(path)
        path.append(nxt)

    end = path[-1]
    anchor = min(position[u] for u in li.neighbors(end))
    cycle_vertices = tuple(path[anchor:])
    # Each step after the first takes its smallest-id edge; only cycle steps are looked up.
    cycle_edges = [
        first_eid if i == 0 else min(_edges_between(li, path[i], path[i + 1]))
        for i in range(anchor, len(path) - 1)
    ]
    closing_options = [
        eid for eid in _edges_between(li, end, path[anchor]) if eid != cycle_edges[-1]
    ]
    if not closing_options:
        raise RunCheckError(
            [f"no second edge joins {end} and {path[anchor]}: the graph has a bridge"]
        )
    cycle_edges.append(min(closing_options))
    if not set(li.neighbors(end)) <= set(cycle_vertices):
        raise RunCheckError([f"cycle {list(cycle_vertices)} misses a neighbour of its end {end}"])
    return CycleWitness(cycle_vertices, tuple(cycle_edges), end)


def _cycle_round(li: LiveInstance, advisor: Advisor):
    witness = find_cycle_with_internal_cut(li, advisor)
    return witness.cycle_edges, ({witness.internal_cut_vertex},), "cycle"


def approx_2ecs(instance: TwoECSInstance, advisor: Advisor | None = None) -> RunReport:
    """Cycle-and-contract approximation with a dual certificate.

    Returns a report whose cost n+k-1 is strictly below 3/2 of the larger of
    the vertex-count bound and the certificate objective. The recorded cuts
    must be pairwise edge-disjoint for the doubled dual to be feasible;
    `build_report` checks that, and the selection, through `verify_run`.
    """
    advisor = Advisor() if advisor is None else advisor
    return build_report(
        problem="2ecs",
        instance=instance,
        n=instance.vertex_count,
        iterations=contract_rounds(
            LiveInstance.from_multigraph(instance.graph), _cycle_round, advisor
        ),
        advisor_fallbacks=advisor.fallbacks,
    )
