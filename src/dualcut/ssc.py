"""Approximation for general star covers.

Each round builds a simple cycle whose closing end has all out-neighbors on
the cycle, then turns it into a perfect star set carrying either one cut
(when the set has at least four stars) or two star-disjoint cuts (small
sets). Contracting and repeating yields cost n+k-1 with a dual certificate
large enough that 5*cost <= 6(n-1) + 2*(number of cuts).
"""

from __future__ import annotations

from dataclasses import dataclass

from .advisor import Advisor
from .certificates import SSC, Cut, DualCertificate
from .graphs import (
    find_nontrivial_path,
    find_path_internally_avoiding,
    reachable_avoiding,
)
from .instances import SSCInstance
from .perfect import (
    LiveInstance,
    are_star_disjoint,
    augment_to_perfect,
    contract_perfect,
    is_internal_cut,
    is_perfect,
)
from .report import BIG_ONE_CUT, TWO_CUTS, IterationRecord, RunReport, build_report


@dataclass(frozen=True)
class SimpleCycle:
    """Directed cycle listed in order; `closing_end` is the last vertex and
    every out-neighbor of it lies on the cycle."""

    cycle_vertices: tuple[int, ...]
    closing_end: int


def build_simple_cycle(li: LiveInstance, advisor: Advisor | None = None) -> SimpleCycle:
    """Grow a path along unvisited out-neighbors until stuck, then close it
    at the earliest path vertex the endpoint reaches."""
    advisor = advisor or Advisor()
    if li.current_count < 2:
        raise ValueError("need at least two current vertices")
    g = li.digraph()
    tail, head = advisor.choose("initial-arc", sorted(g.arcs), li.partition)
    path = [tail, head]
    visited = {tail, head}
    while True:
        end = path[-1]
        fresh = sorted(u for u in g.out_neighbors(end) if u not in visited)
        if not fresh:
            break
        nxt = advisor.choose("extend", fresh, li.partition)
        path.append(nxt)
        visited.add(nxt)
    end = path[-1]
    anchor = min(path.index(u) for u in g.out_neighbors(end))
    cycle = tuple(path[anchor:])
    assert set(g.out_neighbors(end)) <= set(cycle)
    assert g.has_arc(end, cycle[0])
    return SimpleCycle(cycle, end)


def _validated_big(li: LiveInstance, q, end: int):
    q = frozenset(q)
    assert len(q) >= 4
    assert is_perfect(li, q)
    side = frozenset((end,))
    assert is_internal_cut(li, q, side)
    return q, (side,), BIG_ONE_CUT


def _validated_two(li: LiveInstance, q, side1, side2):
    q = frozenset(q)
    side1, side2 = frozenset(side1), frozenset(side2)
    assert is_perfect(li, q)
    assert is_internal_cut(li, q, side1)
    assert is_internal_cut(li, q, side2)
    assert are_star_disjoint(li, side1, side2)
    return q, (side1, side2), TWO_CUTS


def _stars_along(li: LiveInstance, advisor: Advisor, arcs) -> set[int]:
    return {
        advisor.choose("arc-star", li.stars_with_arc(a, b), li.partition)
        for a, b in arcs
    }


def _blocked_reach(g, cycle_set, start: int) -> frozenset[int]:
    """Vertices reachable from start without using arcs internal to the
    cycle's vertex set."""
    return reachable_avoiding(
        g, start, lambda a, b: a in cycle_set and b in cycle_set
    )


def find_perfect_set(li: LiveInstance, advisor: Advisor | None = None):
    """One round of the general algorithm.

    Returns (star ids, cut sides, kind) over current vertices: kind
    "big-one-cut" carries one cut and at least four stars, kind "two-cuts"
    carries two star-disjoint cuts. The cycle is re-grown in place whenever
    a longer detour is found, so the loop runs at most n times.
    """
    advisor = advisor or Advisor()
    if li.current_count < 2:
        raise ValueError("need at least two current vertices")
    cycle = list(build_simple_cycle(li, advisor).cycle_vertices)
    for _ in range(li.current_count + 1):
        if len(cycle) >= 4:
            arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
            q = augment_to_perfect(li, _stars_along(li, advisor, arcs), advisor)
            return _validated_big(li, q, cycle[-1])
        outcome = (
            _triangle_case(li, advisor, cycle)
            if len(cycle) == 3
            else _two_cycle_case(li, advisor, cycle)
        )
        if isinstance(outcome, list):
            cycle = outcome
            continue
        return outcome
    raise AssertionError("cycle enlargement failed to terminate")


def _triangle_case(li: LiveInstance, advisor: Advisor, cycle: list[int]):
    """Dispatch for a 3-cycle; returns a result triple or an enlarged cycle."""
    g = li.digraph()
    first, second, end = cycle
    cycle_set = set(cycle)
    forward = [(first, second), (second, end), (end, first)]

    # A star through a forward arc that also leaves the cycle lets the
    # augmented set reach size four with the closing end as its cut.
    outward = sorted(
        {
            sid
            for a, b in forward
            for sid in li.stars_with_arc(a, b)
            if li.sinks_of(sid) - cycle_set
        }
    )
    if outward:
        star = advisor.choose("outward-star", outward, li.partition)
        rest = [(a, b) for a, b in forward if a != li.source_of(star)]
        q0 = {star} | _stars_along(li, advisor, rest)
        q = augment_to_perfect(li, q0, advisor)
        return _validated_big(li, q, end)

    grown = find_nontrivial_path(g, first, second, cycle_set)
    if grown is not None:
        return [first] + grown[1:-1] + [second, end]
    grown = find_nontrivial_path(g, second, end, cycle_set)
    if grown is not None:
        return [first, second] + grown[1:-1] + [end]

    back_to_first = find_path_internally_avoiding(g, second, first, cycle_set)
    first_to_end = find_path_internally_avoiding(g, first, end, cycle_set)
    closes_back = g.has_arc(end, second)
    if back_to_first is None:
        return _validated_two(
            li,
            _stars_along(li, advisor, forward),
            {end},
            _blocked_reach(g, cycle_set, second),
        )
    if first_to_end is None:
        return _validated_two(
            li,
            _stars_along(li, advisor, forward),
            {end},
            _blocked_reach(g, cycle_set, first),
        )
    if not closes_back:
        return _validated_two(
            li,
            _stars_along(li, advisor, forward),
            {end},
            frozenset((end,)) | _blocked_reach(g, cycle_set, first),
        )

    # The reverse triangle is within reach: if either reverse leg has a long
    # detour, stitch both legs into a bigger cycle closed by end->second.
    long_back = find_nontrivial_path(g, second, first, cycle_set)
    long_leg = find_nontrivial_path(g, first, end, cycle_set)
    if long_back is not None or long_leg is not None:
        mid_back = long_back[1:-1] if long_back is not None else []
        mid_leg = long_leg[1:-1] if long_leg is not None else []
        return [second] + mid_back + [first] + mid_leg + [end]

    # Reverse triangle arcs all exist and only trivially. A star escaping
    # the cycle through a reverse arc grows a big set; otherwise the forward
    # stars are perfect on their own.
    reverse = [(end, second), (second, first), (first, end)]
    rev_outward = sorted(
        {
            sid
            for a, b in reverse
            for sid in li.stars_with_arc(a, b)
            if li.sinks_of(sid) - cycle_set
        }
    )
    if rev_outward:
        star = advisor.choose("reversed-outward-star", rev_outward, li.partition)
        rest = [(a, b) for a, b in reverse if a != li.source_of(star)]
        q0 = {star} | _stars_along(li, advisor, rest)
        q = augment_to_perfect(li, q0, advisor)
        return _validated_big(li, q, end)
    return _validated_two(
        li,
        _stars_along(li, advisor, forward),
        {end},
        _blocked_reach(g, cycle_set, first),
    )


def _two_cycle_case(li: LiveInstance, advisor: Advisor, cycle: list[int]):
    """Dispatch for a 2-cycle; returns a result triple or an enlarged cycle."""
    g = li.digraph()
    first, end = cycle
    grown = find_nontrivial_path(g, first, end, set(cycle))
    if grown is not None:
        return [first] + grown[1:-1] + [end]
    # With no detour, `first` is both the only out-target and the only
    # in-neighbor of `end`.
    fat = [
        sid
        for sid in li.stars_with_arc(first, end)
        if len(li.sinks_of(sid)) >= 2
    ]
    if not fat:
        q = _stars_along(li, advisor, [(end, first), (first, end)])
        full = frozenset(li.vertices())
        return _validated_two(li, q, {end}, full - {end})
    wide = advisor.choose("f1-star", fat, li.partition)
    partner = advisor.choose(
        "f1-sink", sorted(li.sinks_of(wide) - {end}), li.partition
    )
    detour = find_nontrivial_path(g, partner, first, {end})
    if detour is not None:
        q0 = {wide} | _stars_along(
            li, advisor, [(end, first)] + list(zip(detour, detour[1:]))
        )
        q = augment_to_perfect(li, q0, advisor)
        return _validated_big(li, q, end)
    reach = reachable_avoiding(
        g, partner, lambda a, b: (a, b) == (partner, first)
    )
    fat_back = [
        sid
        for sid in li.stars_with_arc(partner, first)
        if len(li.sinks_of(sid)) >= 2
    ]
    if fat_back:
        back = advisor.choose("f2-star", fat_back, li.partition)
        q = augment_to_perfect(li, {wide, back}, advisor)
        return _validated_big(li, q, end)
    q = augment_to_perfect(li, {wide}, advisor)
    return _validated_two(li, q, {end}, reach)


def approx_ssc(instance: SSCInstance, advisor: Advisor | None = None) -> RunReport:
    """Run the general star-cover algorithm, producing a verified report."""
    if not isinstance(instance, SSCInstance):
        raise TypeError("approx_ssc needs a star instance")
    advisor = advisor or Advisor()
    li = LiveInstance.from_instance(instance)
    iterations: list[IterationRecord] = []
    cuts: list[Cut] = []
    selected: set[int] = set()
    index = 0
    while li.current_count > 1:
        q, sides, kind = find_perfect_set(li, advisor)
        lifted = tuple(Cut(li.lift(side)) for side in sides)
        li = contract_perfect(li, q)
        selected |= q
        cuts.extend(lifted)
        iterations.append(IterationRecord(index, kind, tuple(sorted(q)), lifted))
        index += 1
    return build_report(
        problem="ssc",
        instance=instance,
        n=instance.vertex_count,
        iterations=tuple(iterations),
        selected=tuple(sorted(selected)),
        selection_kind="stars",
        certificate=DualCertificate(SSC, tuple(cuts)),
        advisor_fallbacks=advisor.fallbacks,
    )
