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

from .advisor import Advisor
from .instances import TwoECSInstance
from .perfect import Candidates, LiveInstance, contract_rounds, grow_path
from .report import RunCheckError, RunReport, build_report


def _edges_between(li: LiveInstance, u: int, v: int) -> tuple[int, ...]:
    """Live edge ids joining u and v, whichever end each is recorded from."""
    return li.stars_with_arc(u, v) + li.stars_with_arc(v, u)


def oriented_edges(li: LiveInstance) -> Candidates:
    """Every live edge once per direction as (tail, head, edge id),
    ascending: the `initial-edge` candidates."""

    def at(v: int):
        for w in li.neighbors(v):
            for eid in sorted(_edges_between(li, v, w)):
                yield (v, w, eid)

    # Contraction drops every record whose ends merge, so each live record
    # joins two distinct current vertices.
    vertices = li.vertices()
    return Candidates(vertices, lambda: map(li.degree, vertices), at, 2 * len(li.live))


def find_cycle_with_internal_cut(li: LiveInstance, advisor: Advisor):
    """Grow a path greedily; when stuck, close it into a cycle and return
    (cycle edge ids, ({end},), "cycle"): the end has every neighbor on the
    cycle, so only cycle edges cross its cut.

    Requires a live edge instance (`LiveInstance.from_multigraph`) whose
    current graph is 2-edge-connected on at least 2 vertices. The closing
    edge is the smallest-id edge to the earliest path neighbor, never the
    edge that entered the endpoint, so two parallel edges close a legal
    2-cycle.
    """
    if li.current_count < 2:
        raise ValueError("need at least two vertices to find a cycle")
    tail, head, first_eid = advisor.choose("initial-edge", oriented_edges(li))
    path = [tail, head]
    position = grow_path(path, li.neighbors, advisor)
    end = path[-1]
    anchor = min(position[u] for u in li.neighbors(end))
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
    return cycle_edges, ({end},), "cycle"


def approx_2ecs(instance: TwoECSInstance, advisor: Advisor | None = None) -> RunReport:
    """Cycle-and-contract approximation with a dual certificate.

    Returns a report whose cost n+k-1 is strictly below 3/2 of the larger of
    the vertex-count bound and the certificate objective. The recorded cuts
    must be pairwise edge-disjoint for the doubled dual to be feasible;
    `build_report` checks that, and the selection, through `verify_run`.
    """
    if not isinstance(instance, TwoECSInstance):
        raise TypeError("approx_2ecs needs a TwoECSInstance")
    advisor = Advisor() if advisor is None else advisor
    return build_report(
        problem="2ecs",
        instance=instance,
        iterations=contract_rounds(
            LiveInstance.from_multigraph(instance.graph), find_cycle_with_internal_cut, advisor
        ),
        advisor_fallbacks=advisor.fallbacks,
    )
