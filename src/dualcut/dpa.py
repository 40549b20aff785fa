"""Approximation for bidirected star covers (minimum power assignment).

Each round finds a perfect star set together with TWO star-disjoint internal
cuts, contracts it, and repeats. With k rounds on n vertices the cost is
n+k-1 while the certificate proves a lower bound of 2k, so the cost is
always strictly below 3/2 of max(n, 2k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .advisor import Advisor
from .certificates import SSC, Cut, DualCertificate
from .instances import (
    DPAInstance,
    SSCInstance,
    dpa_to_ssc,
)
from .perfect import (
    LiveInstance,
    are_star_disjoint,
    augment_to_perfect,
    contract_perfect,
    is_internal_cut,
    is_perfect,
)
from .report import IterationRecord, RunReport, build_report


@dataclass(frozen=True)
class RotationCycle:
    """Cycle produced by rotation-extended path growth.

    `path_end` is the final endpoint of the grown path; `pivot_end` is the
    path successor of the earliest path neighbor of that endpoint. Both are
    non-leaves, and every neighbor of either is on the cycle or is a leaf.
    The vertex list starts at `path_end`; consecutive entries (wrapping) are
    joined by arcs."""

    cycle_vertices: tuple[int, ...]
    path_end: int
    pivot_end: int


def _leaves_of(g) -> frozenset[int]:
    return frozenset(v for v in g.vertices() if len(g.neighbors(v)) == 1)


def build_rotation_cycle(li: LiveInstance, advisor: Advisor | None = None) -> RotationCycle:
    """Grow a path among non-leaves, rotating at dead ends, until both the
    endpoint and the pivot successor are stuck; then close the cycle."""
    advisor = advisor or Advisor()
    g = li.digraph()
    if not g.is_bidirected():
        raise ValueError("rotation cycles need a bidirected digraph")
    if g.vertex_count < 3:
        raise ValueError("rotation cycles need at least three vertices")
    leaves = _leaves_of(g)
    start_arcs = sorted(a for a in g.arcs if a[1] not in leaves)
    tail, head = advisor.choose("initial-arc", start_arcs, li.partition)
    path = [tail, head]
    visited = {tail, head}

    def fresh_non_leaf(v: int) -> list[int]:
        return sorted(
            u for u in g.neighbors(v) if u not in visited and u not in leaves
        )

    while True:
        end = path[-1]
        ext = fresh_non_leaf(end)
        if ext:
            nxt = advisor.choose("extend", ext, li.partition)
            path.append(nxt)
            visited.add(nxt)
            continue
        anchor_pos = min(path.index(u) for u in g.neighbors(end) if u in visited)
        pivot = path[anchor_pos + 1]
        ext = fresh_non_leaf(pivot)
        if ext:
            # Rotate: keep the prefix up to the anchor, reverse the rest so
            # the path now ends at the pivot, then extend from there.
            path = path[: anchor_pos + 1] + path[anchor_pos + 1 :][::-1]
            nxt = advisor.choose("rotate-extend", ext, li.partition)
            path.append(nxt)
            visited.add(nxt)
            continue
        x_pos = min(path.index(u) for u in g.neighbors(pivot) if u in visited)
        backward = path[x_pos : anchor_pos + 1][::-1]
        forward = path[anchor_pos + 1 : len(path) - 1]
        cycle = tuple([end] + backward + forward)
        rc = RotationCycle(cycle, end, pivot)
        _check_rotation_cycle(g, leaves, rc)
        return rc


def _check_rotation_cycle(g, leaves, rc: RotationCycle) -> None:
    cyc = rc.cycle_vertices
    assert len(cyc) == len(set(cyc)) >= 2
    assert cyc[0] == rc.path_end
    assert rc.pivot_end in cyc
    assert (rc.path_end == rc.pivot_end) == (len(cyc) == 2)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert g.has_arc(a, b), f"missing cycle arc {a}->{b}"
    for v in (rc.path_end, rc.pivot_end):
        assert v not in leaves
        assert all(u in leaves or u in set(cyc) for u in g.neighbors(v))


def _full_vertex_set(li: LiveInstance) -> frozenset[int]:
    return frozenset(li.vertices())


def _validated(li: LiveInstance, q, side1, side2):
    assert is_perfect(li, q)
    assert is_internal_cut(li, q, side1)
    assert is_internal_cut(li, q, side2)
    assert are_star_disjoint(li, side1, side2)
    return frozenset(q), (frozenset(side1), frozenset(side2))


def find_perfect_two_cuts(li: LiveInstance, advisor: Advisor | None = None):
    """One round of the bidirected algorithm.

    Returns (star ids, (cut side, cut side)) over current vertices: a
    perfect set plus two star-disjoint cuts internal to it.
    """
    advisor = advisor or Advisor()
    g = li.digraph()
    if not g.is_bidirected():
        raise ValueError("this dispatch requires a bidirected digraph")
    n = li.current_count
    if n < 2:
        raise ValueError("need at least two current vertices")
    if n == 2:
        u, v = li.vertices()
        q = {
            advisor.choose("arc-star", li.stars_with_arc(u, v), li.partition),
            advisor.choose("arc-star", li.stars_with_arc(v, u), li.partition),
        }
        return _validated(li, q, {u}, {v})

    leaves = _leaves_of(g)
    rc = build_rotation_cycle(li, advisor)
    centers = (
        (rc.path_end,)
        if rc.path_end == rc.pivot_end
        else (rc.path_end, rc.pivot_end)
    )

    # A star shooting two leaves from either cycle end gives two singleton
    # leaf cuts directly.
    for center in centers:
        cands = [
            sid
            for sid in li.stars_at(center)
            if len(li.sinks_of(sid) & leaves) >= 2
        ]
        if cands:
            star = advisor.choose("leaf-pair-star", cands, li.partition)
            q = augment_to_perfect(li, {star}, advisor)
            first, second = sorted(li.sinks_of(star) & leaves)[:2]
            return _validated(li, q, {first}, {second})

    if rc.path_end == rc.pivot_end:
        return _two_cycle_branch(li, advisor, rc, leaves)

    for center in centers:
        outcome = _leaf_and_cycle_branch(li, advisor, rc, leaves, center)
        if outcome is not None:
            return outcome
    return _cycle_stars_branch(li, advisor, rc, leaves)


def _two_cycle_branch(li: LiveInstance, advisor: Advisor, rc: RotationCycle, leaves):
    """Both ends coincide: the cycle is a 2-cycle. A leaf of the end yields
    a singleton cut paired with its complement."""
    center = rc.path_end
    other = rc.cycle_vertices[1]
    g = li.digraph()
    leaf_nbrs = sorted(set(g.neighbors(center)) & leaves)
    leaf = advisor.choose("leaf-select", leaf_nbrs, li.partition)
    target = frozenset((leaf, other))
    cands = [sid for sid in li.stars_at(center) if li.sinks_of(sid) == target]
    if cands:
        star = advisor.choose("case-b-star", cands, li.partition)
        q = augment_to_perfect(li, {star}, advisor)
    else:
        # Every remaining star through the leaf is a singleton both ways, so
        # the opposite pair is already perfect.
        q = {
            advisor.choose("arc-star", li.stars_with_arc(center, leaf), li.partition),
            advisor.choose("arc-star", li.stars_with_arc(leaf, center), li.partition),
        }
    side = frozenset((leaf,))
    return _validated(li, q, side, _full_vertex_set(li) - side)


def _leaf_and_cycle_branch(
    li: LiveInstance, advisor: Advisor, rc: RotationCycle, leaves, center: int
):
    """A star from a cycle end hitting both a leaf and the cycle: walk the
    cycle to its nearest qualifying sink, take stars along the rest of the
    cycle, and cut around the leaf."""
    cyc = rc.cycle_vertices
    cycle_others = set(cyc) - {center}
    qualifying = [
        sid
        for sid in li.stars_at(center)
        if li.sinks_of(sid) & leaves and li.sinks_of(sid) & cycle_others
    ]
    if not qualifying:
        return None
    direction = advisor.choose(
        "cycle-direction", ["forward", "backward"], li.partition
    )
    step = 1 if direction == "forward" else -1
    pos = cyc.index(center)
    walk = [cyc[(pos + step * i) % len(cyc)] for i in range(1, len(cyc))]
    hit_sinks = frozenset().union(
        *(li.sinks_of(sid) & cycle_others for sid in qualifying)
    )
    nearest = next(u for u in walk if u in hit_sinks)
    star = advisor.choose(
        "c1-star",
        [sid for sid in qualifying if nearest in li.sinks_of(sid)],
        li.partition,
    )
    leaf = min(li.sinks_of(star) & leaves)
    # Continue in the same direction from the nearest sink back to the
    # center; every later qualifying sink lies on this segment, which is why
    # the complement cut stays internal after augmentation.
    segment = walk[walk.index(nearest) :] + [center]
    q0 = {star}
    for a, b in zip(segment, segment[1:]):
        q0.add(advisor.choose("arc-star", li.stars_with_arc(a, b), li.partition))
    q = augment_to_perfect(li, q0, advisor)
    side = frozenset((leaf,))
    return _validated(li, q, side, _full_vertex_set(li) - side)


def _cycle_stars_branch(li: LiveInstance, advisor: Advisor, rc: RotationCycle, leaves):
    """No end star mixes leaves with the cycle: take one star per cycle arc
    and cut each end together with its private leaves."""
    cyc = rc.cycle_vertices
    q0 = set()
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        q0.add(advisor.choose("arc-star", li.stars_with_arc(a, b), li.partition))
    q = augment_to_perfect(li, q0, advisor)
    g = li.digraph()
    side1 = frozenset((rc.path_end,)) | (frozenset(g.neighbors(rc.path_end)) & leaves)
    side2 = frozenset((rc.pivot_end,)) | (frozenset(g.neighbors(rc.pivot_end)) & leaves)
    return _validated(li, q, side1, side2)


def approx_dpa(instance, advisor: Advisor | None = None) -> RunReport:
    """Run the bidirected two-cut algorithm.

    Accepts either a power-assignment instance (converted to its star form,
    with the selection mapped back to vertices) or a bidirected star
    instance used as-is.
    """
    advisor = advisor or Advisor()
    if isinstance(instance, DPAInstance):
        derived, vertex_to_star = dpa_to_ssc(instance)
        star_to_vertex = {sid: v for v, sid in vertex_to_star.items()}
    elif isinstance(instance, SSCInstance):
        if not instance.is_bidirected():
            raise ValueError("this algorithm requires a bidirected star instance")
        derived, star_to_vertex = instance, None
    else:
        raise TypeError(f"unsupported instance type {type(instance).__name__}")

    li = LiveInstance.from_instance(derived)
    iterations: list[IterationRecord] = []
    cuts: list[Cut] = []
    selected: set[int] = set()
    index = 0
    while li.current_count > 1:
        q, (side1, side2) = find_perfect_two_cuts(li, advisor)
        lifted = (Cut(li.lift(side1)), Cut(li.lift(side2)))
        li = contract_perfect(li, q)
        selected |= q
        cuts.extend(lifted)
        iterations.append(
            IterationRecord(index, "perfect", tuple(sorted(q)), lifted)
        )
        index += 1

    certificate = DualCertificate(SSC, tuple(cuts))
    star_selection = tuple(sorted(selected))
    if star_to_vertex is None:
        return build_report(
            problem="dpa",
            instance=derived,
            n=derived.vertex_count,
            iterations=tuple(iterations),
            selected=star_selection,
            selection_kind="stars",
            certificate=certificate,
            advisor_fallbacks=advisor.fallbacks,
        )
    return build_report(
        problem="dpa",
        instance=instance,
        n=derived.vertex_count,
        iterations=tuple(iterations),
        selected=tuple(sorted(star_to_vertex[sid] for sid in star_selection)),
        selection_kind="power",
        certificate=certificate,
        advisor_fallbacks=advisor.fallbacks,
        selected_stars=star_selection,
    )
