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

from dataclasses import dataclass

from .advisor import Advisor
from .certificates import TWOECS, Cut, DualCertificate
from .instances import TwoECSInstance
from .perfect import LiveInstance
from .report import IterationRecord, RunReport, build_report


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


def find_cycle_with_internal_cut(li: LiveInstance, advisor: Advisor | None = None) -> CycleWitness:
    """Grow a path greedily; when stuck, close it into a cycle.

    Requires a live edge instance (`LiveInstance.from_multigraph`) whose
    current graph is 2-edge-connected on at least 2 vertices. The closing
    edge is the smallest-id edge to the earliest path neighbor, never the
    edge that entered the endpoint, so two parallel edges close a legal
    2-cycle.
    """
    advisor = advisor or Advisor()
    if li.current_count < 2:
        raise ValueError("need at least two vertices to find a cycle")
    g = li.digraph()
    edges = [(eid, u, v) for eid, (u, (v,)) in li.live.items()]
    oriented = sorted(
        [(u, v, eid) for eid, u, v in edges] + [(v, u, eid) for eid, u, v in edges]
    )
    tail, head, first_eid = advisor.choose("initial-edge", oriented)
    path = [tail, head]
    position = {tail: 0, head: 1}
    while True:
        fresh = [w for w in g.neighbors(path[-1]) if w not in position]
        if not fresh:
            break
        nxt = advisor.choose("extend", fresh)
        position[nxt] = len(path)
        path.append(nxt)

    end = path[-1]
    anchor = min(position[u] for u in g.neighbors(end))
    cycle_vertices = tuple(path[anchor:])
    # Each step after the first takes its smallest-id edge; only cycle steps are looked up.
    cycle_edges = [
        first_eid if i == 0 else min(_edges_between(li, path[i], path[i + 1]))
        for i in range(anchor, len(path) - 1)
    ]
    closing_options = [
        eid for eid in _edges_between(li, end, path[anchor]) if eid != cycle_edges[-1]
    ]
    assert closing_options, "a bridgeless graph always offers a closing edge"
    cycle_edges.append(min(closing_options))
    assert set(g.neighbors(end)) <= set(cycle_vertices)
    return CycleWitness(cycle_vertices, tuple(cycle_edges), end)


def approx_2ecs(instance: TwoECSInstance, advisor: Advisor | None = None) -> RunReport:
    """Cycle-and-contract approximation with a dual certificate.

    Returns a report whose cost n+k-1 is strictly below 3/2 of the larger of
    the vertex-count bound and the certificate objective.
    """
    advisor = advisor or Advisor()
    n0 = instance.graph.vertex_count
    li = LiveInstance.from_multigraph(instance.graph)
    selected: list[int] = []
    iterations: list[IterationRecord] = []
    cuts: list[Cut] = []
    index = 0
    while li.current_count > 1:
        witness = find_cycle_with_internal_cut(li, advisor)
        cycle_edges = tuple(sorted(witness.cycle_edges))
        cut = Cut(li.lift({witness.internal_cut_vertex}))
        cuts.append(cut)
        selected.extend(cycle_edges)
        iterations.append(IterationRecord(index, "cycle", cycle_edges, (cut,)))
        li.contract(witness.cycle_vertices)
        index += 1

    # The recorded cuts must be pairwise edge-disjoint for the doubled dual
    # to be feasible; build_report checks that, and the selection, through
    # verify_run.
    return build_report(
        problem="2ecs",
        instance=instance,
        n=n0,
        iterations=tuple(iterations),
        selected=tuple(sorted(selected)),
        selection_kind="edges",
        certificate=DualCertificate(TWOECS, tuple(cuts)),
        advisor_fallbacks=advisor.fallbacks,
    )
