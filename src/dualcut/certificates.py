"""Integer dual certificates: families of vertex cuts with unit multipliers.

A certificate is feasible when no star (resp. no edge) crosses two of its
cuts; its objective is then a lower bound on the optimum by weak duality.
Cuts are always expressed over ORIGINAL vertex ids and re-checked against the
original instance only — never against algorithm internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .instances import SSCInstance, TwoECSInstance

SSC = "ssc"
TWOECS = "2ecs"


# Slotted and not frozen, for the reason the comment above `instances.Star`
# gives; no code changes a cut or a certificate once made.
@dataclass(slots=True, unsafe_hash=True, init=False)
class Cut:
    """A nonempty proper subset of the vertices: `side` itself, or, when
    `complement` is set, every vertex outside `side`. Runs store the half
    with fewer original vertices, so a side near the whole vertex set costs
    what its complement does. Construction takes any side; the certificate
    check rejects one that stands for no vertex or for every vertex."""

    side: frozenset[int]
    complement: bool

    def __init__(self, side: Iterable[int], complement: bool = False):
        self.side = frozenset(side)
        self.complement = complement


@dataclass(slots=True, unsafe_hash=True, init=False)
class DualCertificate:
    problem: str  # SSC or TWOECS
    cuts: tuple[Cut, ...]

    def __init__(self, problem: str, cuts: Iterable[Cut]):
        self.problem = problem
        self.cuts = tuple(cuts)

    @property
    def objective(self) -> int:
        """Dual objective: one per cut for stars, two per cut for edges
        (a 2-edge-connected subgraph crosses every cut at least twice)."""
        return len(self.cuts) if self.problem == SSC else 2 * len(self.cuts)


def lower_bounds(n: int, dual_objective: int) -> tuple[int, int]:
    """The vertex-count bound on the optimum and the best lower bound.

    The vertex-count bound holds because (with >= 2 vertices) every vertex
    needs an out-arc from a selected star (star instances) or two incident
    edges (edge instances). A 1-vertex instance needs nothing, so its bound
    is 0. The best bound is the larger of it and the objective of a
    feasible certificate.
    """
    n_bound = n if n >= 2 else 0
    return n_bound, max(n_bound, dual_objective)


def _check_cut(side: frozenset[int], n: int) -> None:
    # bool is an int subclass; a float such as 1.5 would compare in range
    # yet name no vertex, so only exact ints are vertex ids. The set-level
    # test decides; the loop only names the offending vertex.
    if not set(map(type, side)) <= {int} or (
        side and not (1 <= min(side) and max(side) <= n)
    ):
        for v in side:
            if type(v) is not int or not 1 <= v <= n:
                raise ValueError(f"cut vertex {v!r} is not a vertex id in 1..{n}")
    # A side and its complement are both nonempty exactly when the stored
    # half is, so this test reads the same for either half.
    if not 0 < len(side) < n:
        raise ValueError("cut side must be a nonempty proper subset of the vertices")


def crossing_stars(s: SSCInstance, cut: Cut) -> frozenset[int]:
    """Stars with source inside the cut and at least one sink outside. For a
    complemented cut these are the stars with a sink in the stored side and
    their source outside it."""
    _check_cut(cut.side, s.vertex_count)
    side = cut.side
    if cut.complement:
        by_sink = s.stars_by_sink()
        return frozenset(
            st.id
            for t in side
            for st in by_sink.get(t, ())
            if st.source not in side
        )
    by_source = s.stars_by_source()
    return frozenset(
        st.id
        for v in side
        for st in by_source.get(v, ())
        if not st.sinks <= side
    )


def crossing_edges(t: TwoECSInstance, cut: Cut) -> frozenset[int]:
    """Edge ids with exactly one endpoint inside the cut (either half)."""
    g = t.graph
    _check_cut(cut.side, g.vertex_count)
    side = cut.side
    return frozenset(
        eid for v in side for eid, w in g.incident(v) if w not in side
    )


def verify_certificate(
    instance, cert: DualCertificate
) -> tuple[bool, int, list[tuple[int, tuple[int, ...]]]]:
    """Check dual feasibility against the original instance.

    Returns (feasible, objective, violations); each violation is
    (star id or edge id, indices of the cuts it crosses). Feasible means no
    item crosses more than one cut. The objective is `cert.objective`.
    """
    if isinstance(instance, SSCInstance):
        if cert.problem != SSC:
            raise ValueError(f"certificate kind {cert.problem!r} does not match instance")
        crossers = [crossing_stars(instance, cut) for cut in cert.cuts]
    elif isinstance(instance, TwoECSInstance):
        if cert.problem != TWOECS:
            raise ValueError(f"certificate kind {cert.problem!r} does not match instance")
        crossers = [crossing_edges(instance, cut) for cut in cert.cuts]
    else:
        raise TypeError(f"cannot verify certificate against {type(instance).__name__}")
    # One union decides: the crosser sets are disjoint exactly when
    # their sizes add up to the size of their union. Only an infeasible
    # family pays for the table that names each item's cuts.
    if sum(map(len, crossers)) == len(frozenset().union(*crossers)):
        return (True, cert.objective, [])
    hit: dict[int, list[int]] = {}
    for ci, ids in enumerate(crossers):
        for item in ids:
            hit.setdefault(item, []).append(ci)
    violations = [
        (item, tuple(cut_indices))
        for item, cut_indices in sorted(hit.items())
        if len(cut_indices) >= 2
    ]
    return (False, cert.objective, violations)
