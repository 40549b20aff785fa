"""Exact solvers and optimality certification for cross-checking.

These are deliberately independent of the approximation code paths: subsets
are enumerated smallest-first with cheap pruning, so the first feasible hit
is an optimum. Sizes are capped because everything here is exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .certificates import lower_bounds, verify_certificate
from .graphs import is_two_edge_connected
from .instances import DPAInstance, SSCInstance, TwoECSInstance, check_feasible

SEARCH = "search"


@dataclass(frozen=True)
class ExactResult:
    optimum: int
    witness: frozenset[int]
    method: str
    explored: int


def _bit_reach_all(n: int, adj: list[int]) -> bool:
    """True when vertex bit 0 reaches all n bits along the adjacency masks."""
    full = (1 << n) - 1
    seen = 1
    frontier = 1
    while frontier and seen != full:
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            nxt |= adj[low.bit_length() - 1]
            rest ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


def exact_ssc(instance: SSCInstance, limit: int = 22) -> ExactResult:
    """Optimal star cover by size-increasing exhaustive search.

    Prunes subsets that miss a source (a cover needs every vertex as some
    chosen star's source), so the search starts at size n.
    """
    if not isinstance(instance, SSCInstance):
        raise TypeError("exact_ssc needs an SSCInstance")
    stars = instance.stars
    if len(stars) > limit:
        raise ValueError(f"{len(stars)} stars exceeds the search limit {limit}")
    n = instance.vertex_count
    if n == 1:
        return ExactResult(0, frozenset(), SEARCH, 0)
    full = (1 << n) - 1
    source_bit = [1 << (st.source - 1) for st in stars]
    sink_mask = [
        sum(1 << (t - 1) for t in st.sinks) for st in stars
    ]
    explored = 0
    for size in range(n, len(stars) + 1):
        for combo in combinations(range(len(stars)), size):
            explored += 1
            cover = 0
            for sid in combo:
                cover |= source_bit[sid]
            if cover != full:
                continue
            adj = [0] * n
            radj = [0] * n
            for sid in combo:
                src = source_bit[sid].bit_length() - 1
                adj[src] |= sink_mask[sid]
                rest = sink_mask[sid]
                while rest:
                    low = rest & -rest
                    radj[low.bit_length() - 1] |= source_bit[sid]
                    rest ^= low
            if _bit_reach_all(n, adj) and _bit_reach_all(n, radj):
                return ExactResult(size, frozenset(combo), SEARCH, explored)
    raise AssertionError("a valid instance admits the full star set")


def exact_2ecs(instance: TwoECSInstance, limit: int = 22) -> ExactResult:
    """Optimal 2-edge-connected spanning subgraph by exhaustive search,
    pruning subsets leaving some vertex with degree below two."""
    if not isinstance(instance, TwoECSInstance):
        raise TypeError("exact_2ecs needs a TwoECSInstance")
    g = instance.graph
    if len(g.edges) > limit:
        raise ValueError(f"{len(g.edges)} edges exceeds the search limit {limit}")
    n = g.vertex_count
    if n == 1:
        return ExactResult(0, frozenset(), SEARCH, 0)
    explored = 0
    for size in range(n, len(g.edges) + 1):
        for combo in combinations(range(len(g.edges)), size):
            explored += 1
            degree = [0] * (n + 1)
            for eid in combo:
                u, v = g.edges[eid]
                degree[u] += 1
                degree[v] += 1
            if any(d < 2 for d in degree[1:]):
                continue
            if is_two_edge_connected(g.subgraph(combo)):
                return ExactResult(size, frozenset(combo), SEARCH, explored)
    raise AssertionError("a valid instance admits the full edge set")


def exact_dpa(instance: DPAInstance, limit: int = 22) -> ExactResult:
    """Optimal power assignment by enumerating high-power sets smallest
    first (zero-cost edges mean the empty set can already be feasible)."""
    if not isinstance(instance, DPAInstance):
        raise TypeError("exact_dpa needs a DPAInstance")
    n = instance.vertex_count
    if n > limit:
        raise ValueError(f"{n} vertices exceeds the search limit {limit}")
    explored = 0
    for size in range(0, n + 1):
        for combo in combinations(range(1, n + 1), size):
            explored += 1
            if check_feasible(instance, combo):
                return ExactResult(size, frozenset(combo), SEARCH, explored)
    raise AssertionError("a valid instance is feasible at full power")


def certify_exact_by_bound(instance, witness: frozenset[int], certificate=None) -> bool:
    """True when a feasible witness, a set of ids as `check_feasible` reads
    them, matches a proven lower bound exactly.

    The bound is the vertex count (for two or more vertices) maximized with
    a dual certificate's objective when one is supplied; power instances are
    measured through their derived star form.
    """
    if not check_feasible(instance, witness):
        raise ValueError("witness solution is not feasible")
    bound_instance = instance
    if isinstance(instance, DPAInstance):
        bound_instance = instance.star_form()[0]
    n = bound_instance.vertex_count
    objective = 0
    if certificate is not None:
        feasible, objective, _ = verify_certificate(bound_instance, certificate)
        if not feasible:
            raise ValueError("certificate is not feasible")
    return len(witness) == lower_bounds(n, objective)[1]
