"""Approximation for bidirected star covers (minimum power assignment).

Each round finds a perfect star set together with TWO star-disjoint internal
cuts, contracts it, and repeats. With k rounds on n vertices the cost is
n+k-1 while the certificate proves a lower bound of 2k, so the cost is
always strictly below 3/2 of max(n, 2k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .advisor import Advisor
from .instances import (
    DPAInstance,
    SSCInstance,
    dpa_to_ssc,
)
from .perfect import (
    LiveInstance,
    augment_to_perfect,
    contract_rounds,
    grow_path,
    stars_along,
)
from .report import RunReport, build_report


@dataclass(frozen=True)
class RotationCycle:
    """Cycle produced by rotation-extended path growth.

    `path_end` is the final endpoint of the grown path; `pivot_end` is the
    path successor of the earliest path neighbor of that endpoint. Both are
    non-leaves, and every neighbor of either is on the cycle or is a leaf.
    The vertex list starts at `path_end`; consecutive entries (wrapping) are
    joined by arcs. `leaves` are the current vertices with one neighbor."""

    cycle_vertices: tuple[int, ...]
    path_end: int
    pivot_end: int
    leaves: frozenset[int]


def _leaves_of(g) -> frozenset[int]:
    return frozenset(v for v in g.vertices() if len(g.neighbors(v)) == 1)


def build_rotation_cycle(li: LiveInstance, advisor: Advisor) -> RotationCycle:
    """Grow a path among non-leaves, rotating at dead ends, until both the
    endpoint and the pivot successor are stuck; then close the cycle."""
    if li.current_count < 3:
        raise ValueError("rotation cycles need at least three vertices")
    leaves = _leaves_of(li)

    def non_leaves(v: int) -> list[int]:
        return [u for u in li.neighbors(v) if u not in leaves]

    path = list(advisor.choose("initial-arc", li.arc_candidates(leaves)))
    while True:
        position = grow_path(path, non_leaves, advisor)
        end = path[-1]
        anchor_pos = min(position[u] for u in li.neighbors(end) if u in position)
        pivot = path[anchor_pos + 1]
        ext = [u for u in non_leaves(pivot) if u not in position]
        if not ext:
            break
        # Rotate: keep the prefix up to the anchor, reverse the rest so the
        # path now ends at the pivot, then extend from there.
        path[anchor_pos + 1 :] = reversed(path[anchor_pos + 1 :])
        path.append(advisor.choose("rotate-extend", ext))
    x_pos = min(position[u] for u in li.neighbors(pivot) if u in position)
    backward = path[x_pos : anchor_pos + 1][::-1]
    forward = path[anchor_pos + 1 : len(path) - 1]
    cycle = tuple([end] + backward + forward)
    return RotationCycle(cycle, end, pivot, leaves)


def find_perfect_two_cuts(li: LiveInstance, advisor: Advisor):
    """One round of the bidirected algorithm.

    Returns (star ids, (cut side, cut side), "perfect") over current
    vertices: a perfect set plus two star-disjoint cuts internal to it.
    The round is not checked here: the finished run's `verify_run` checks
    the certificate, identities and guarantee that these properties yield.
    The live instance is strongly connected and bidirected: `SSCInstance`
    proves the first on construction, `approx_dpa` checks the second once
    per run, and contraction keeps both.
    """
    if li.current_count < 2:
        raise ValueError("need at least two current vertices")
    q, sides = _two_cuts(li, advisor)
    return q, sides, "perfect"


def _two_cuts(li: LiveInstance, advisor: Advisor):
    """Dispatch of one bidirected round: (star ids, (cut side, cut side))."""
    if li.current_count == 2:
        u, v = li.vertices()
        return stars_along(li, advisor, [(u, v), (v, u)]), ({u}, {v})

    rc = build_rotation_cycle(li, advisor)
    leaves = rc.leaves
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
            star = advisor.choose("leaf-pair-star", cands)
            q = augment_to_perfect(li, {star}, advisor)
            first, second = sorted(li.sinks_of(star) & leaves)[:2]
            return q, ({first}, {second})

    if rc.path_end == rc.pivot_end:
        return _two_cycle_branch(li, advisor, rc)

    for center in centers:
        outcome = _leaf_and_cycle_branch(li, advisor, rc, center)
        if outcome is not None:
            return outcome
    return _cycle_stars_branch(li, advisor, rc)


def _two_cycle_branch(li: LiveInstance, advisor: Advisor, rc: RotationCycle):
    """Both ends coincide: the cycle is a 2-cycle. A leaf of the end yields
    a singleton cut paired with its complement."""
    center = rc.path_end
    other = rc.cycle_vertices[1]
    leaf_nbrs = sorted(set(li.neighbors(center)) & rc.leaves)
    leaf = advisor.choose("leaf-select", leaf_nbrs)
    target = frozenset((leaf, other))
    cands = [sid for sid in li.stars_at(center) if li.sinks_of(sid) == target]
    if cands:
        star = advisor.choose("case-b-star", cands)
        q = augment_to_perfect(li, {star}, advisor)
    else:
        # Every remaining star through the leaf is a singleton both ways, so
        # the opposite pair is already perfect.
        q = stars_along(li, advisor, [(center, leaf), (leaf, center)])
    side = frozenset((leaf,))
    return q, (side, frozenset(li.vertices()) - side)


def _leaf_and_cycle_branch(
    li: LiveInstance, advisor: Advisor, rc: RotationCycle, center: int
):
    """A star from a cycle end hitting both a leaf and the cycle: walk the
    cycle to its nearest qualifying sink, take stars along the rest of the
    cycle, and cut around the leaf."""
    cyc, leaves = rc.cycle_vertices, rc.leaves
    cycle_others = set(cyc) - {center}
    qualifying = [
        sid
        for sid in li.stars_at(center)
        if li.sinks_of(sid) & leaves and li.sinks_of(sid) & cycle_others
    ]
    if not qualifying:
        return None
    direction = advisor.choose("cycle-direction", ["forward", "backward"])
    step = 1 if direction == "forward" else -1
    pos = cyc.index(center)
    walk = [cyc[(pos + step * i) % len(cyc)] for i in range(1, len(cyc))]
    hit_sinks = frozenset().union(
        *(li.sinks_of(sid) & cycle_others for sid in qualifying)
    )
    nearest = next(u for u in walk if u in hit_sinks)
    star = advisor.choose(
        "c1-star", [sid for sid in qualifying if nearest in li.sinks_of(sid)]
    )
    leaf = min(li.sinks_of(star) & leaves)
    # Continue in the same direction from the nearest sink back to the
    # center; every later qualifying sink lies on this segment, which is why
    # the complement cut stays internal after augmentation.
    segment = walk[walk.index(nearest) :] + [center]
    q0 = {star} | stars_along(li, advisor, zip(segment, segment[1:]))
    q = augment_to_perfect(li, q0, advisor)
    side = frozenset((leaf,))
    return q, (side, frozenset(li.vertices()) - side)


def _cycle_stars_branch(li: LiveInstance, advisor: Advisor, rc: RotationCycle):
    """No end star mixes leaves with the cycle: take one star per cycle arc
    and cut each end together with its private leaves."""
    cyc, leaves = rc.cycle_vertices, rc.leaves
    q0 = stars_along(li, advisor, zip(cyc, cyc[1:] + cyc[:1]))
    q = augment_to_perfect(li, q0, advisor)
    side1 = frozenset((rc.path_end,)) | (frozenset(li.neighbors(rc.path_end)) & leaves)
    side2 = frozenset((rc.pivot_end,)) | (frozenset(li.neighbors(rc.pivot_end)) & leaves)
    return q, (side1, side2)


def approx_dpa(instance, advisor: Advisor | None = None) -> RunReport:
    """Run the bidirected two-cut algorithm.

    Accepts either a power-assignment instance (converted to its star form,
    with the selection mapped back to vertices) or a bidirected star
    instance used as-is.
    """
    advisor = Advisor() if advisor is None else advisor
    if isinstance(instance, DPAInstance):
        star_form = dpa_to_ssc(instance)
        derived = star_form[0]
    elif isinstance(instance, SSCInstance):
        # A star form is bidirected by construction (a star at each end of
        # every crossing edge), so only a caller's stars are tested.
        if not instance.is_bidirected():
            raise ValueError("this algorithm requires a bidirected star instance")
        derived, star_form = instance, None
    else:
        raise TypeError(f"unsupported instance type {type(instance).__name__}")
    return build_report(
        problem="dpa",
        instance=instance,
        iterations=contract_rounds(
            LiveInstance.from_instance(derived), find_perfect_two_cuts, advisor
        ),
        advisor_fallbacks=advisor.fallbacks,
        star_form=star_form,
    )
