"""Reference implementations that the tests compare the package against.

Nothing under `src/` calls these. Each restates a definition plainly, or
exhaustively, so a test can check the package's own code against it:
cut-covering feasibility over every vertex subset, the digraph a power
assignment induces, every internal cut of a star set, the reduction from
bidirected SSC to DPA that builds power instances from star ones, and a
report with every complemented cut written out as the side it stands for.
Tests import them with `from reference import ...`.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations
from typing import Iterable

from dualcut.certificates import Cut, DualCertificate
from dualcut.graphs import Digraph
from dualcut.instances import DPAInstance, SSCInstance, Star
from dualcut.perfect import LiveInstance, is_internal_cut
from dualcut.report import RunReport


def dpa_induced_graph(d: DPAInstance, high: Iterable[int]) -> Digraph:
    """Digraph a power assignment induces: arc u->v iff the edge exists and
    is free or u transmits at high power."""
    high_set = set(high)
    arcs: list[tuple[int, int]] = []
    for u, v, c in d.edges:
        if c == 0 or u in high_set:
            arcs.append((u, v))
        if c == 0 or v in high_set:
            arcs.append((v, u))
    return Digraph(d.vertex_count, arcs)


def ssc_to_dpa(s: SSCInstance) -> DPAInstance:
    """Reduce a bidirected SSC instance to DPA: one vertex per star, free
    cycle edges within same-source groups, unit edges per reverse arc pair."""
    if not s.is_bidirected():
        raise ValueError("ssc_to_dpa requires a bidirected instance")
    edges: list[tuple[int, int, int]] = []
    by_source: dict[int, list[Star]] = {}
    for st in s.stars:
        by_source.setdefault(st.source, []).append(st)
    for source in sorted(by_source):
        group = sorted(by_source[source], key=lambda st: st.id)
        if len(group) >= 2:
            # A 2-cycle over 2 vertices would need a parallel pair; one free
            # edge suffices for the same connectivity.
            for a, b in zip(group, group[1:]):
                edges.append((a.id + 1, b.id + 1, 0))
            if len(group) > 2:
                edges.append((group[-1].id + 1, group[0].id + 1, 0))
    for f1, f2 in combinations(s.stars, 2):
        if f1.source == f2.source:
            continue
        if f2.source in f1.sinks and f1.source in f2.sinks:
            edges.append((f1.id + 1, f2.id + 1, 1))
    return DPAInstance(len(s.stars), edges)


def check_cut_feasible(
    s: SSCInstance, selected: Iterable[int], exhaustive_limit: int = 12
) -> bool:
    """Cut-covering semantics: every nonempty proper vertex subset must have a
    selected star with source inside and a sink outside. Exhaustive over all
    2^n - 2 cuts, so only for small instances."""
    n = s.vertex_count
    if n > exhaustive_limit:
        raise ValueError(
            f"vertex count {n} exceeds exhaustive limit {exhaustive_limit}"
        )
    ids = frozenset(selected)
    for sid in ids:
        if not (0 <= sid < len(s.stars)):
            raise ValueError(f"unknown star id {sid}")
    chosen = [s.stars[sid] for sid in sorted(ids)]
    for bits in range(1, (1 << n) - 1):
        side = {v for v in range(1, n + 1) if bits >> (v - 1) & 1}
        if not any(
            st.source in side and any(t not in side for t in st.sinks)
            for st in chosen
        ):
            return False
    return True


def enumerate_internal_cuts(li: LiveInstance, star_ids, size_limit: int = 16) -> list[Cut]:
    """Every cut over current vertices that is internal to the star set."""
    vertices = li.vertices()
    n = len(vertices)
    if n > size_limit:
        raise ValueError(f"{n} current vertices exceeds the limit {size_limit}")
    found = []
    for mask in range(1, (1 << n) - 1):
        side = frozenset(v for i, v in enumerate(vertices) if mask >> i & 1)
        if is_internal_cut(li, star_ids, side):
            found.append(Cut(side))
    return found


def cut_vertices(cut: Cut, n: int) -> frozenset[int]:
    """The vertices of 1..n a cut stands for: its side, or every vertex
    outside it when the cut is complemented."""
    return frozenset(range(1, n + 1)) - cut.side if cut.complement else cut.side


def expanded_report(report: RunReport) -> RunReport:
    """The same report with each complemented cut written out as a plain
    one: the report as encoders without the complement form wrote it."""

    def expand(cuts):
        return tuple(Cut(cut_vertices(c, report.n)) for c in cuts)

    return dataclasses.replace(
        report,
        iterations=tuple(
            dataclasses.replace(rec, cuts=expand(rec.cuts)) for rec in report.iterations
        ),
        certificate=DualCertificate(
            report.certificate.problem, expand(report.certificate.cuts)
        ),
    )
