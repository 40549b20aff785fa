"""Approximation for smallest 2-edge-connected spanning subgraphs.

Repeatedly grows a path until it closes into a cycle whose closing end has
all neighbors on the cycle, takes the cycle's edges, records the one-vertex
cut at the closing end, and contracts the cycle. The recorded cuts are
pairwise edge-disjoint, so doubling each gives an integer dual solution
certifying a lower bound of twice the cut count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .advisor import Advisor
from .certificates import TWOECS, Cut, DualCertificate
from .graphs import Multigraph, VertexPartition, contract_multigraph
from .instances import TwoECSInstance
from .report import IterationRecord, RunReport, build_report


@dataclass(frozen=True)
class CycleWitness:
    """A cycle in the current graph whose last path vertex has every
    neighbor on the cycle, making that vertex a one-vertex cut crossed only
    by cycle edges."""

    cycle_vertices: tuple[int, ...]
    cycle_edges: tuple[int, ...]
    internal_cut_vertex: int


def find_cycle_with_internal_cut(g: Multigraph, advisor: Advisor | None = None) -> CycleWitness:
    """Grow a path greedily; when stuck, close it into a cycle.

    Requires a 2-edge-connected graph on at least 2 vertices. The closing
    edge is the smallest-id edge to the earliest path neighbor, never the
    edge that entered the endpoint, so two parallel edges close a legal
    2-cycle.
    """
    advisor = advisor or Advisor()
    if g.vertex_count < 2:
        raise ValueError("need at least two vertices to find a cycle")
    oriented = sorted(
        [(u, v, eid) for eid, (u, v) in enumerate(g.edges)]
        + [(v, u, eid) for eid, (u, v) in enumerate(g.edges)]
    )
    tail, head, first_eid = advisor.choose("initial-edge", oriented)
    path = [tail, head]
    path_edges = [first_eid]
    visited = {tail, head}
    while True:
        end = path[-1]
        fresh = sorted(set(g.neighbors(end)) - visited)
        if not fresh:
            break
        nxt = advisor.choose("extend", fresh)
        path.append(nxt)
        path_edges.append(min(g.edge_ids_between(end, nxt)))
        visited.add(nxt)

    end = path[-1]
    positions = [path.index(u) for u in set(g.neighbors(end))]
    anchor = min(positions)
    entry = path_edges[-1]
    closing_options = [
        eid for eid in g.edge_ids_between(end, path[anchor]) if eid != entry
    ]
    assert closing_options, "a bridgeless graph always offers a closing edge"
    cycle_vertices = tuple(path[anchor:])
    cycle_edges = tuple(path_edges[anchor:]) + (min(closing_options),)
    assert set(g.neighbors(end)) <= set(cycle_vertices)
    return CycleWitness(cycle_vertices, cycle_edges, end)


def approx_2ecs(instance: TwoECSInstance, advisor: Advisor | None = None) -> RunReport:
    """Cycle-and-contract approximation with a dual certificate.

    Returns a report whose cost n+k-1 is strictly below 3/2 of the larger of
    the vertex-count bound and the certificate objective.
    """
    advisor = advisor or Advisor()
    g = instance.graph
    n0 = g.vertex_count
    partition = VertexPartition.identity(n0)
    origin = list(range(len(g.edges)))
    selected: list[int] = []
    iterations: list[IterationRecord] = []
    cuts: list[Cut] = []
    index = 0
    while g.vertex_count > 1:
        witness = find_cycle_with_internal_cut(g, advisor)
        original_edges = tuple(sorted(origin[e] for e in witness.cycle_edges))
        cut = Cut(partition.lift({witness.internal_cut_vertex}))
        cuts.append(cut)
        selected.extend(original_edges)
        iterations.append(IterationRecord(index, "cycle", original_edges, (cut,)))
        g, mapping, edge_origin = contract_multigraph(g, set(witness.cycle_vertices))
        partition = partition.compose(mapping)
        origin = [origin[e] for e in edge_origin]
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
