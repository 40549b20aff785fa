"""Instance generators: tight families with written advice and optimum
witnesses, plus seeded random instances for stress testing.

Each tight family ships a fixed advice script, written in closed form for
its k: the candidate index of every choice along the route to the worst
case. The generator replays it with a ScriptedAdvisor and checks that the
run consumes the whole script and costs what the family promises.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .advisor import ScriptedAdvisor
from .dpa import approx_dpa
from .graphs import Multigraph
from .instances import (
    DPAInstance,
    SSCInstance,
    Star,
    TwoECSInstance,
    mscs_to_ssc,
)
from .oracles import certify_exact_by_bound
from .report import RunCheckError
from .ssc import approx_ssc


@dataclass(frozen=True)
class ExpectedCosts:
    alg_cost: int
    opt_cost: int


@dataclass(frozen=True)
class GeneratedInstance:
    instance: object
    advice: Optional[tuple[int, ...]] = None
    expected: Optional[ExpectedCosts] = None
    opt_witness: Optional[frozenset[int]] = None


def _check(family: str, claims) -> None:
    """Raise RunCheckError naming every (holds, finding) claim that fails;
    explicit code, so the claims are checked under `python -O` too."""
    problems = [f"{family}: {finding}" for holds, finding in claims if not holds]
    if problems:
        raise RunCheckError(problems)


def _replay_claims(advisor: ScriptedAdvisor, cost: int, expected_cost: int):
    return [
        (advisor.position == len(advisor.script), "advice not fully consumed"),
        (cost == expected_cost, f"run cost {cost}, expected {expected_cost}"),
    ]


def gen_dpa_tight(k: int) -> GeneratedInstance:
    """Bidirected family with approximation cost 3k+3 against optimum 2k+3.

    Two cycles sharing a vertex path plus two chords: n = 2k+3 vertices and
    3k+5 edges. Every edge becomes a pair of opposite singleton stars (edge i
    -> star ids 2i and 2i+1), so the same instance feeds both the power
    algorithm and the general star algorithm; one advice script drives both
    to the same worst-case run.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # Outer cycle 1 -> 3 -> 4 -> ... -> k+3 -> 2 -> 1, inner zig-zag cycle
    # through the l-vertices, and chords (1, k+3), (2, k+2).
    edges: list[tuple[int, int]] = [(1, 3)]
    edges += [(j, j + 1) for j in range(3, k + 3)]
    edges += [(k + 3, 2), (2, 1)]
    for i in range(1, k + 1):
        edges += [(2 + i, k + 3 + i), (k + 3 + i, 3 + i)]
    edges += [(1, k + 3), (2, k + 2)]
    n = 2 * k + 3
    _check("gen_dpa_tight", [(len(edges) == 3 * k + 5, "edge count is not 3k+5")])
    arcs = [a for u, v in edges for a in ((u, v), (v, u))]
    instance = mscs_to_ssc(n, arcs)

    # Route: the initial arc k+3 -> 2, index 4k+7 of the sorted arcs, then
    # the outer cycle down to 1. Its first step, to k+2, is the second
    # candidate; every later step, 1 last, is the first.
    advice = (4 * k + 7, 1) + (0,) * k
    advisor = ScriptedAdvisor(advice)
    report = approx_dpa(instance, advisor)
    _check("gen_dpa_tight", _replay_claims(advisor, report.cost, 3 * k + 3))

    # Spanning cycle 1 -> u_1 -> l_1 -> u_2 -> ... -> u_{k+1} -> 2 -> 1 as
    # forward stars: optimal because n vertices always need n stars.
    witness_ids = {0, 2 * (k + 1), 2 * (k + 2)}
    witness_ids |= {2 * i for i in range(k + 3, 3 * k + 3)}
    witness = frozenset(witness_ids)
    optimal = certify_exact_by_bound(instance, witness)
    _check("gen_dpa_tight", [(optimal, "witness is not optimal")])
    return GeneratedInstance(
        instance,
        advice,
        ExpectedCosts(3 * k + 3, 2 * k + 3),
        witness,
    )


def gen_ssc_tight(k: int) -> GeneratedInstance:
    """Nested-gadget family with approximation cost 8k+2 against optimum 5k+2.

    Level 1 is an 11-arc digraph on 7 vertices; each further level splices a
    5-vertex gadget into the previous level's designated 2-cycle (rewriting
    that pair of arcs in place and appending 9 new ones). n = 5k+2 and the
    arc count is 9k+2; every arc is its own singleton star.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    arcs: list[tuple[int, int]] = [
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1),
        (6, 5), (5, 3), (3, 1), (1, 6),
    ]
    n = 7
    # Each level is a gadget (a, b, c, d, x, y); level 1 is (1, ..., 6), and
    # the next level splices into the 2-cycle x <-> y.
    x, y = 5, 6
    for _ in range(2, k + 1):
        b2, c2, d2, x2, y2 = n + 1, n + 2, n + 3, n + 4, n + 5
        a2 = x
        arcs[arcs.index((x, y))] = (y2, y)
        arcs[arcs.index((y, x))] = (y, y2)
        arcs += [
            (a2, b2), (b2, c2), (c2, d2), (d2, x2), (x2, y2),
            (y2, x2), (x2, c2), (c2, a2), (a2, y2),
        ]
        x, y = x2, y2
        n += 5
    _check("gen_ssc_tight", [
        (len(arcs) == 9 * k + 2, "arc count is not 9k+2"),
        (n == 5 * k + 2, "vertex count is not 5k+2"),
    ])
    instance = mscs_to_ssc(n, arcs)

    # Route: each gadget in turn, innermost first, with five choices: the
    # arc c -> a, extend to y, extend to x, the arc c -> d and the arc
    # a -> b; then the base level's 2-cycle start 6 -> 7. The indices are
    # where those targets sit among the sorted candidates: the same shape
    # at every level j >= 3, their own at levels 2 and 1.
    script: list[int] = []
    for j in range(k, 2, -1):
        script += (9 * j - 5, 2, 1, 9 * j - 8, 9 * j - 9)
    if k >= 2:
        script += (13, 2, 1, 9, 8)
    advice = tuple(script) + (3, 1, 0, 1, 0, 0)
    advisor = ScriptedAdvisor(advice)
    report = approx_ssc(instance, advisor)
    _check("gen_ssc_tight", _replay_claims(advisor, report.cost, 8 * k + 2))

    # Spanning cycle: base 7-cycle arcs, detouring through each gadget via
    # its first five appended arcs (the level rewire keeps ids 0..6 valid).
    witness_ids = set(range(7))
    for j in range(2, k + 1):
        witness_ids |= set(range(9 * j - 7, 9 * j - 2))
    witness = frozenset(witness_ids)
    optimal = certify_exact_by_bound(instance, witness)
    _check("gen_ssc_tight", [(optimal, "witness is not optimal")])
    return GeneratedInstance(
        instance,
        advice,
        ExpectedCosts(8 * k + 2, 5 * k + 2),
        witness,
    )


# Parallel edges let random-2ecs add any number of extra edges, so its count
# is bounded here; the other families stop once no arc or pair is left.
MAX_EXTRA_EDGES = 1_000_000


def _extra_count(factor: float, n: int) -> int:
    """How many extra arcs or edges a random family adds: factor * n,
    rounded; the factor must be finite and nonnegative."""
    if not (math.isfinite(factor) and factor >= 0):
        raise ValueError(f"extra factor must be finite and >= 0, got {factor}")
    count = factor * n
    # A finite factor can still overflow the product; it is then a whole number.
    return int(round(count)) if math.isfinite(count) else int(factor) * n


def gen_random_ssc(
    n: int,
    extra_arc_factor: float = 1.0,
    max_star_fan: int = 3,
    seed: int = 0,
) -> GeneratedInstance:
    """Random strongly connected star instance: shuffled spanning cycle plus
    extra arcs, each vertex's out-arcs grouped into stars of bounded fan."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if max_star_fan < 1:
        raise ValueError("max_star_fan must be >= 1")
    rng = random.Random(seed)
    arc_list = _shuffled_cycle(n, rng)
    present = set(arc_list)
    for _ in range(_extra_count(extra_arc_factor, n)):
        if len(present) == n * (n - 1):
            break
        for _attempt in range(20):
            u = rng.randrange(1, n + 1)
            v = rng.randrange(1, n + 1)
            if u != v and (u, v) not in present:
                present.add((u, v))
                arc_list.append((u, v))
                break
    return GeneratedInstance(_group_into_stars(n, arc_list, max_star_fan, rng))


def gen_random_bidirected(
    n: int,
    extra_edge_factor: float = 0.8,
    max_star_fan: int = 3,
    seed: int = 0,
) -> GeneratedInstance:
    """Random bidirected star instance (every arc paired with its reverse)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if max_star_fan < 1:
        raise ValueError("max_star_fan must be >= 1")
    rng = random.Random(seed)
    edges = _random_edge_set(n, _extra_count(extra_edge_factor, n), rng)
    arc_list = [a for u, v in edges for a in ((u, v), (v, u))]
    return GeneratedInstance(_group_into_stars(n, arc_list, max_star_fan, rng))


def gen_random_2ecs(
    n: int, extra_edge_factor: float = 0.7, seed: int = 0
) -> GeneratedInstance:
    """Random 2-edge-connected multigraph: spanning cycle plus extra edges;
    parallel edges are allowed (for n = 2 the cycle itself is a parallel pair).
    At most `MAX_EXTRA_EDGES` extra edges are added; a larger count raises
    ValueError."""
    if n < 2:
        raise ValueError("n must be >= 2")
    extra = _extra_count(extra_edge_factor, n)
    if extra > MAX_EXTRA_EDGES:
        raise ValueError(
            f"random-2ecs adds at most {MAX_EXTRA_EDGES} extra edges, "
            f"but extra factor {extra_edge_factor} asks for {extra}"
        )
    rng = random.Random(seed)
    edges = _shuffled_cycle(n, rng)
    for _ in range(extra):
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        while v == u:
            v = rng.randrange(1, n + 1)
        edges.append((u, v))
    return GeneratedInstance(TwoECSInstance(Multigraph(n, edges)))


# random-dpa adds extra pairs only while it has fewer edges than this; the
# spanning cycle alone may have more.
RANDOM_DPA_MAX_EDGES = 12


def gen_random_dpa(n: int, zero_cost_prob: float = 0.4, seed: int = 0) -> GeneratedInstance:
    """Random connected power-assignment instance: spanning cycle (deduped,
    so n = 2 yields a single edge) plus random extra pairs up to
    `RANDOM_DPA_MAX_EDGES` edges, costs 0/1; each edge is free with
    probability `zero_cost_prob`, in [0, 1]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= zero_cost_prob <= 1:
        raise ValueError(f"zero-cost probability must be in [0, 1], got {zero_cost_prob}")
    rng = random.Random(seed)
    pairs: set[frozenset[int]] = set()
    edges: list[tuple[int, int, int]] = []

    def add(u: int, v: int) -> None:
        pairs.add(frozenset((u, v)))
        cost = 0 if rng.random() < zero_cost_prob else 1
        edges.append((u, v, cost))

    for u, v in _shuffled_cycle(n, rng):
        if frozenset((u, v)) not in pairs:
            add(u, v)
    for u, v in combinations(range(1, n + 1), 2):
        if len(edges) >= RANDOM_DPA_MAX_EDGES:
            break
        if frozenset((u, v)) not in pairs and rng.random() < 0.25:
            add(u, v)
    return GeneratedInstance(DPAInstance(n, edges))


def _shuffled_cycle(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The n pairs joining vertices 1..n, shuffled by one `rng.shuffle`,
    into a cycle: each to the next, the last to the first."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


def _random_edge_set(n: int, extra: int, rng: random.Random) -> list[tuple[int, int]]:
    """Spanning cycle plus `extra` distinct undirected edges (no parallels)."""
    pairs: set[frozenset[int]] = set()
    edges: list[tuple[int, int]] = []
    for u, v in _shuffled_cycle(n, rng):
        if frozenset((u, v)) not in pairs:
            pairs.add(frozenset((u, v)))
            edges.append((u, v))
    for _ in range(extra):
        if 2 * len(pairs) == n * (n - 1):
            break
        for _attempt in range(20):
            u = rng.randrange(1, n + 1)
            v = rng.randrange(1, n + 1)
            if u != v and frozenset((u, v)) not in pairs:
                pairs.add(frozenset((u, v)))
                edges.append((u, v))
                break
    return edges


def _group_into_stars(
    n: int, arc_list: list[tuple[int, int]], max_star_fan: int, rng: random.Random
) -> SSCInstance:
    """Chunk each vertex's out-arcs (shuffled) into stars of bounded fan."""
    by_source: dict[int, list[int]] = {}
    for u, v in arc_list:
        by_source.setdefault(u, []).append(v)
    stars: list[Star] = []
    for u in sorted(by_source):
        sinks = by_source[u]
        rng.shuffle(sinks)
        for i in range(0, len(sinks), max_star_fan):
            chunk = sinks[i : i + max_star_fan]
            stars.append(Star(len(stars), u, frozenset(chunk)))
    return SSCInstance(n, stars)
