"""Approximation for general star covers.

Each round builds a simple cycle whose closing end has all out-neighbors on
the cycle, then turns it into a perfect star set carrying either one cut
(when the set has at least four stars) or two star-disjoint cuts (small
sets). Contracting and repeating yields cost n+k-1 with a dual certificate
large enough that 5*cost <= 6(n-1) + 2*(number of cuts).
"""

from __future__ import annotations

from .advisor import Advisor
from .graphs import find_nontrivial_path, reachable_avoiding
from .instances import SSCInstance
from .perfect import (
    LiveInstance,
    augment_to_perfect,
    contract_rounds,
    grow_path,
    stars_along,
)
from .report import BIG_ONE_CUT, TWO_CUTS, RunCheckError, RunReport, build_report


def build_simple_cycle(li: LiveInstance, advisor: Advisor) -> tuple[int, ...]:
    """Grow a path from an initial arc along out-neighbors off it, then
    close it at the earliest path vertex its end reaches. Every
    out-neighbor of the cycle's last vertex lies on the cycle."""
    if li.current_count < 2:
        raise ValueError("need at least two current vertices")
    path = list(advisor.choose("initial-arc", li.arc_candidates()))
    position = grow_path(path, li.out_neighbors, advisor)
    anchor = min(position[u] for u in li.out_neighbors(path[-1]))
    return tuple(path[anchor:])


def _blocked_reach(g, cycle_set, start: int) -> frozenset[int]:
    """Vertices reachable from start without using arcs internal to the
    cycle's vertex set."""
    return reachable_avoiding(
        g, start, lambda a, b: a in cycle_set and b in cycle_set
    )


def find_perfect_set(li: LiveInstance, advisor: Advisor):
    """One round of the general algorithm.

    Returns (star ids, cut sides, kind) over current vertices: kind
    "big-one-cut" carries one cut and at least four stars, kind "two-cuts"
    carries two star-disjoint cuts. The cycle is re-grown in place whenever
    a longer detour is found, so the loop runs at most n times. The round
    is not checked here: the finished run's `verify_run` checks the
    certificate, identities and guarantee that these properties yield. The
    live instance is strongly connected: `SSCInstance` proves it on
    construction, and contraction keeps it.
    """
    if li.current_count < 2:
        raise ValueError("need at least two current vertices")
    cycle = list(build_simple_cycle(li, advisor))
    for _ in range(li.current_count + 1):
        if len(cycle) >= 4:
            arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
            q = augment_to_perfect(li, stars_along(li, advisor, arcs), advisor)
            outcome = q, ({cycle[-1]},)
        elif len(cycle) == 3:
            outcome = _triangle_case(li, advisor, cycle)
        else:
            outcome = _two_cycle_case(li, advisor, cycle)
        if isinstance(outcome, list):
            cycle = outcome
            continue
        q, sides = outcome
        return q, sides, BIG_ONE_CUT if len(sides) == 1 else TWO_CUTS
    raise RunCheckError(["cycle enlargement failed to terminate"])


def _escape_star(li: LiveInstance, advisor: Advisor, label: str, arcs, cycle_set, end: int):
    """A star through one of the triangle's `arcs` that also leaves the
    cycle lets the augmented set reach size four with the closing end as
    its cut; None when no star escapes."""
    escaping = sorted(
        {
            sid
            for a, b in arcs
            for sid in li.stars_with_arc(a, b)
            if li.sinks_of(sid) - cycle_set
        }
    )
    if not escaping:
        return None
    star = advisor.choose(label, escaping)
    rest = [(a, b) for a, b in arcs if a != li.source_of(star)]
    q0 = {star} | stars_along(li, advisor, rest)
    return augment_to_perfect(li, q0, advisor), ({end},)


def _triangle_case(li: LiveInstance, advisor: Advisor, cycle: list[int]):
    """Dispatch for a 3-cycle; returns (star ids, cut sides) or an enlarged
    cycle."""
    first, second, end = cycle
    cycle_set = set(cycle)
    forward = [(first, second), (second, end), (end, first)]
    outcome = _escape_star(li, advisor, "outward-star", forward, cycle_set, end)
    if outcome is not None:
        return outcome

    grown = find_nontrivial_path(li, first, second, cycle_set)
    if grown is not None:
        return [first] + grown[1:-1] + [second, end]
    grown = find_nontrivial_path(li, second, end, cycle_set)
    if grown is not None:
        return [first, second] + grown[1:-1] + [end]

    # A reverse leg has a path off the cycle when it has the direct arc or
    # a long detour.
    long_back = find_nontrivial_path(li, second, first, cycle_set)
    long_leg = find_nontrivial_path(li, first, end, cycle_set)
    if not (li.has_arc(second, first) or long_back is not None):
        return stars_along(li, advisor, forward), ({end}, _blocked_reach(li, cycle_set, second))
    if not (li.has_arc(first, end) or long_leg is not None):
        return stars_along(li, advisor, forward), ({end}, _blocked_reach(li, cycle_set, first))
    if not li.has_arc(end, second):
        return stars_along(li, advisor, forward), (
            {end},
            frozenset((end,)) | _blocked_reach(li, cycle_set, first),
        )

    # The reverse triangle is within reach: if either reverse leg has a long
    # detour, stitch both legs into a bigger cycle closed by end->second.
    if long_back is not None or long_leg is not None:
        mid_back = long_back[1:-1] if long_back is not None else []
        mid_leg = long_leg[1:-1] if long_leg is not None else []
        return [second] + mid_back + [first] + mid_leg + [end]

    # Reverse triangle arcs all exist and only trivially. A star escaping
    # the cycle through a reverse arc grows a big set; otherwise the forward
    # stars are perfect on their own.
    reverse = [(end, second), (second, first), (first, end)]
    outcome = _escape_star(li, advisor, "reversed-outward-star", reverse, cycle_set, end)
    if outcome is not None:
        return outcome
    return stars_along(li, advisor, forward), ({end}, _blocked_reach(li, cycle_set, first))


def _two_cycle_case(li: LiveInstance, advisor: Advisor, cycle: list[int]):
    """Dispatch for a 2-cycle; returns (star ids, cut sides) or an enlarged
    cycle."""
    first, end = cycle
    grown = find_nontrivial_path(li, first, end, set(cycle))
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
        q = stars_along(li, advisor, [(end, first), (first, end)])
        return q, ({end}, frozenset(li.vertices()) - {end})
    wide = advisor.choose("f1-star", fat)
    partner = advisor.choose("f1-sink", sorted(li.sinks_of(wide) - {end}))
    detour = find_nontrivial_path(li, partner, first, {end})
    if detour is not None:
        q0 = {wide} | stars_along(
            li, advisor, [(end, first)] + list(zip(detour, detour[1:]))
        )
        return augment_to_perfect(li, q0, advisor), ({end},)
    fat_back = [
        sid
        for sid in li.stars_with_arc(partner, first)
        if len(li.sinks_of(sid)) >= 2
    ]
    if fat_back:
        back = advisor.choose("f2-star", fat_back)
        return augment_to_perfect(li, {wide, back}, advisor), ({end},)
    reach = reachable_avoiding(li, partner, lambda a, b: (a, b) == (partner, first))
    return augment_to_perfect(li, {wide}, advisor), ({end}, reach)


def approx_ssc(instance: SSCInstance, advisor: Advisor | None = None) -> RunReport:
    """Run the general star-cover algorithm, producing a verified report."""
    if not isinstance(instance, SSCInstance):
        raise TypeError("approx_ssc needs a star instance")
    advisor = Advisor() if advisor is None else advisor
    return build_report(
        problem="ssc",
        instance=instance,
        iterations=contract_rounds(
            LiveInstance.from_instance(instance), find_perfect_set, advisor
        ),
        advisor_fallbacks=advisor.fallbacks,
    )
