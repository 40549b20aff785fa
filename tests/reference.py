"""Reference implementations that the tests compare the package against.

Nothing under `src/` calls these. Each restates a definition plainly, or
exhaustively, so a test can check the package's own code against it: the
first bad star in a star list, cut-covering feasibility over every vertex
subset, the digraph a power assignment induces, every internal cut of a
star set, the reduction from bidirected SSC to DPA that builds power
instances from star ones, a report with every complemented cut written
out as the side it stands for, and which certificate cuts each star or
edge crosses.
Tests import them with `from reference import ...`.

The round checks state the lemma-level properties of one round: a star
round's set is perfect, its cuts are internal and star-disjoint, a one-cut
round has at least four stars, a rotation cycle has the shape its branches
rely on, a 2ecs round's edges form one cycle that holds its one cut vertex
and every neighbour of it, and every set a round augments to a perfect one
is quasiperfect. A solve does not run them; it checks only its finished
report (`verify_run`).
`check_every_round` patches them into the solvers for a test's duration.

`sorted_arcs` and `sorted_oriented_edges` list the `initial-arc` and
`initial-edge` candidates of a live instance eagerly, from its records;
`CheckingAdvisor` compares each lazy candidate sequence a run offers with
them, and `check_initial_candidates` hands it the live instance of every
round.

`find_path_internally_avoiding` is a forward breadth-first search for the
shortest path whose inner vertices avoid a set, ties to smaller ids: the
definition of the triangle case's "any path off the cycle" question.
`find_nontrivial_path_per_hop` runs it once per first hop, in ascending
order: the path `graphs.find_nontrivial_path` must return.

`PlannedAdvisor` drives a run along a route named in original vertex ids
and records the candidate index of each choice: the script that replays
the route. `follow_labels` hands it the labels of the run it drives by
wrapping each solver's round function, as `check_every_round` does.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, deque
from itertools import combinations
from typing import Iterable, Sequence

import dualcut.dpa as dpa_module
import dualcut.ssc as ssc_module
import dualcut.twoecs as twoecs_module
from dualcut.advisor import Advisor, ScriptedAdvisor
from dualcut.certificates import Cut, DualCertificate
from dualcut.graphs import Digraph, RecordError
from dualcut.instances import DPAInstance, SSCInstance, Star
from dualcut.perfect import (
    Labels,
    LiveInstance,
    is_internal_cut,
    is_perfect,
    is_quasiperfect,
    live_crossing_stars,
)
from dualcut.report import BIG_ONE_CUT, TWO_CUTS, RunReport


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


def first_bad_star(n: int, stars: Sequence[Star]) -> RecordError | None:
    """The error `SSCInstance(n, stars)` raises for its first bad star in
    input order, or None when every star passes. A star's checks run in
    this order: its id, an empty sink set, its source among its sinks, its
    source's range, then each sink's range in the sink set's order."""
    for i, st in enumerate(stars):
        src, sinks = st.source, st.sinks
        if st.id != i:
            return RecordError(f"star at position {i} has id {st.id}", i)
        if not sinks:
            return RecordError(f"star {i}: empty sink set", i)
        if src in sinks:
            return RecordError(f"star {i}: source {src} among sinks", i)
        if not 1 <= src <= n:
            return RecordError(f"star {i}: source {src} out of range", i)
        for t in sinks:
            if not 1 <= t <= n:
                return RecordError(f"star {i}: sink {t} out of range", i)
    return None


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


def certificate_by_definition(
    instance, cert: DualCertificate
) -> tuple[bool, int, list[tuple[int, tuple[int, ...]]]]:
    """`verify_certificate` restated by the set definition. Each cut stands
    for the vertices `cut_vertices` gives; a star crosses it when its source
    is inside and a sink outside, an edge when one end is inside and the
    other outside. Returns (feasible, objective, violations): the items
    that cross two or more cuts, in id order, each with those cuts'
    indices."""
    n = instance.vertex_count
    members = [cut_vertices(cut, n) for cut in cert.cuts]
    if isinstance(instance, SSCInstance):
        crossed = {
            st.id: [i for i, s in enumerate(members) if st.source in s and not st.sinks <= s]
            for st in instance.stars
        }
        objective = len(members)
    else:
        crossed = {
            eid: [i for i, s in enumerate(members) if (u in s) != (v in s)]
            for eid, (u, v) in enumerate(instance.graph.edges)
        }
        objective = 2 * len(members)
    violations = [(item, tuple(cuts)) for item, cuts in crossed.items() if len(cuts) >= 2]
    return (not violations, objective, violations)


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


def are_star_disjoint(li: LiveInstance, side1, side2) -> bool:
    """True when no live star crosses both cuts."""
    return not (live_crossing_stars(li, side1) & live_crossing_stars(li, side2))


def _fail(findings: list[str]) -> None:
    if findings:
        raise AssertionError("; ".join(findings))


def check_round(li: LiveInstance, star_ids, sides) -> None:
    """One star round: the set is perfect, every cut side is internal to
    it, and no live star crosses two of the sides. Raises AssertionError
    naming the first finding."""
    if not is_perfect(li, star_ids):
        raise AssertionError(f"round star set {sorted(star_ids)} is not perfect")
    for side in sides:
        if not is_internal_cut(li, star_ids, side):
            raise AssertionError(
                f"round cut {sorted(side)} is not internal to star set {sorted(star_ids)}"
            )
    for side1, side2 in combinations(sides, 2):
        if not are_star_disjoint(li, side1, side2):
            raise AssertionError(f"round cuts {sorted(side1)} and {sorted(side2)} share a star")


def check_ssc_round(li: LiveInstance, star_ids, sides, kind: str) -> None:
    """An ssc round: `check_round`, with one cut and at least four stars
    for a big-one-cut round and two cuts for a two-cuts round."""
    if kind == BIG_ONE_CUT and (len(sides) != 1 or len(star_ids) < 4):
        raise AssertionError(
            f"round star set {sorted(star_ids)} carries one cut with fewer than four stars"
        )
    if kind not in (BIG_ONE_CUT, TWO_CUTS) or (kind == TWO_CUTS and len(sides) != 2):
        raise AssertionError(f"round of kind {kind!r} carries {len(sides)} cuts")
    check_round(li, star_ids, sides)


def check_dpa_round(li: LiveInstance, star_ids, sides, kind: str) -> None:
    """A bidirected round: `check_round` with exactly two cuts."""
    if kind != "perfect" or len(sides) != 2:
        raise AssertionError(f"round of kind {kind!r} carries {len(sides)} cuts")
    check_round(li, star_ids, sides)


def check_rotation_cycle(li: LiveInstance, rc) -> None:
    """A rotation cycle: distinct vertices joined by arcs, starting at its
    path end, holding its pivot end, with ends that are not leaves and whose
    every neighbour is on the cycle or is a leaf."""
    cyc, leaves = rc.cycle_vertices, rc.leaves
    on_cycle = set(cyc)
    ends = (rc.path_end, rc.pivot_end)
    _fail([
        f"rotation cycle {list(cyc)} {finding}"
        for holds, finding in (
            (len(cyc) == len(on_cycle) >= 2, "repeats a vertex or is too short"),
            (cyc[0] == rc.path_end, "does not start at its path end"),
            (rc.pivot_end in on_cycle, "misses its pivot end"),
            (
                (rc.path_end == rc.pivot_end) == (len(cyc) == 2),
                "has ends that do not fit its length",
            ),
            (
                all(li.has_arc(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])),
                "misses a cycle arc",
            ),
            (not leaves.intersection(ends), "ends at a leaf"),
            (
                all(u in leaves or u in on_cycle for v in ends for u in li.neighbors(v)),
                "has an end with a neighbour off the cycle that is not a leaf",
            ),
        )
        if not holds
    ])


def check_2ecs_round(li: LiveInstance, edge_ids, sides, kind: str) -> None:
    """A 2ecs round: distinct live edges forming one cycle (every endpoint
    has degree 2 among them, and the edges are connected), and one
    single-vertex cut side on that cycle whose every neighbour is on it
    too, so only cycle edges cross the cut."""
    if kind != "cycle" or len(sides) != 1 or len(sides[0]) != 1:
        raise AssertionError(f"round of kind {kind!r} does not carry one single-vertex cut")
    ids = list(edge_ids)
    if not len(ids) == len(set(ids)) >= 2 or not all(eid in li.live for eid in ids):
        raise AssertionError(
            f"round edges {ids} repeat an edge, are fewer than two or are not live"
        )
    (end,) = sides[0]
    nbrs: dict[int, list[int]] = {}
    for eid in ids:
        u, (v,) = li.live[eid]
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    reached, stack = set(), [next(iter(nbrs))]
    while stack:
        v = stack.pop()
        if v not in reached:
            reached.add(v)
            stack.extend(nbrs[v])
    _fail([
        f"cycle of edges {ids} {finding}"
        for holds, finding in (
            (all(len(ws) == 2 for ws in nbrs.values()), "has an end whose degree is not 2"),
            (reached == nbrs.keys(), "is not connected"),
            (end in nbrs, f"misses its cut vertex {end}"),
            (set(li.neighbors(end)) <= nbrs.keys(), f"misses a neighbour of its cut vertex {end}"),
        )
        if not holds
    ])


def check_every_round(monkeypatch) -> Counter:
    """Patch the reference round checks into every solver round for the
    rest of the test; the returned counter tells how many rounds of each
    solver ("ssc", "dpa", "rotation-cycle", "2ecs") and how many
    augmentations ("augment") were checked."""
    checked: Counter = Counter()

    def wrap(module, name, tag, check):
        real = getattr(module, name)

        def checked_call(li, advisor):
            found = real(li, advisor)
            check(li, found)
            checked[tag] += 1
            return found

        monkeypatch.setattr(module, name, checked_call)

    wrap(ssc_module, "find_perfect_set", "ssc", lambda li, found: check_ssc_round(li, *found))
    wrap(dpa_module, "find_perfect_two_cuts", "dpa", lambda li, found: check_dpa_round(li, *found))
    wrap(dpa_module, "build_rotation_cycle", "rotation-cycle", check_rotation_cycle)
    wrap(
        twoecs_module, "find_cycle_with_internal_cut", "2ecs",
        lambda li, found: check_2ecs_round(li, *found),
    )
    for module in (ssc_module, dpa_module):
        augment = module.augment_to_perfect

        def checked_augment(li, star_ids, advisor, augment=augment):
            star_ids = frozenset(star_ids)
            if not is_quasiperfect(li, star_ids):
                raise AssertionError(f"augmented star set {sorted(star_ids)} is not quasiperfect")
            checked["augment"] += 1
            return augment(li, star_ids, advisor)

        monkeypatch.setattr(module, "augment_to_perfect", checked_augment)
    return checked


def label_of(labels: Labels, original: int) -> int:
    """The current vertex that holds original vertex `original`: a scan of
    `labels.members`."""
    return next(c for c, group in labels.members.items() if original in group)


class PlannedAdvisor(Advisor):
    """Drives a run along a predetermined route, recording the index taken at
    every multi-candidate choice so the route can be replayed from a script.

    Plan entries are (label, kind, payload) with payload expressed over
    ORIGINAL ids: kind 'vertex' and 'arc' payloads are translated through
    `labels`, the run's current labels, at choice time; kind 'raw' payloads
    (star ids, direction strings, oriented edges), and every payload while
    `labels` is None, are matched as-is. Once the plan is exhausted,
    remaining choices silently take index 0, exactly like an exhausted
    script.
    """

    def __init__(self, plan: Sequence[tuple[str, str, object]]):
        self.plan = list(plan)
        self.position = 0
        self.recorded: list[int] = []
        self.labels: Labels | None = None

    def pick(self, label: str, candidates: Sequence) -> int:
        if self.position >= len(self.plan):
            return 0
        want_label, kind, payload = self.plan[self.position]
        if want_label != label:
            raise AssertionError(
                f"plan expected choice '{want_label}' but algorithm asked "
                f"'{label}' (candidates {list(candidates)})"
            )
        self.position += 1
        target = self._translate(kind, payload)
        try:
            index = list(candidates).index(target)
        except ValueError:
            raise AssertionError(
                f"plan target {target!r} for '{label}' not among "
                f"candidates {list(candidates)}"
            ) from None
        self.recorded.append(index)
        return index

    def _translate(self, kind: str, payload):
        labels = self.labels
        if kind == "raw" or labels is None:
            return payload
        if kind == "vertex":
            return label_of(labels, payload)
        if kind == "arc":
            u, v = payload
            return (label_of(labels, u), label_of(labels, v))
        raise ValueError(f"unknown plan payload kind {kind!r}")


def follow_labels(monkeypatch, advisor: PlannedAdvisor) -> None:
    """Wrap every solver's round function for the rest of the test, so that
    each round `advisor` drives reads its run's labels first."""

    def wrap(module, name):
        real = getattr(module, name)

        def following(li, round_advisor):
            if round_advisor is advisor:
                advisor.labels = li.partition
            return real(li, round_advisor)

        monkeypatch.setattr(module, name, following)

    wrap(ssc_module, "find_perfect_set")
    wrap(dpa_module, "find_perfect_two_cuts")
    wrap(twoecs_module, "find_cycle_with_internal_cut")


def sorted_arcs(li: LiveInstance, excluded_heads=()) -> list[tuple[int, int]]:
    """The `initial-arc` candidates as a sorted list: every arc of a live
    record once, leaving out arcs into `excluded_heads`."""
    return sorted({
        (src, t) for src, sinks in li.live.values() for t in sinks if t not in excluded_heads
    })


def sorted_oriented_edges(li: LiveInstance) -> list[tuple[int, int, int]]:
    """The `initial-edge` candidates as a sorted list of every live edge in
    both directions, as (tail, head, edge id)."""
    edges = [(eid, u, v) for eid, (u, (v,)) in li.live.items()]
    return sorted([(u, v, eid) for eid, u, v in edges] + [(v, u, eid) for eid, u, v in edges])


def find_path_internally_avoiding(g, src: int, dst: int, avoid: Iterable[int]) -> list[int] | None:
    """Shortest src->dst path whose internal vertices avoid `avoid`.

    Endpoints may belong to `avoid`. Ties break toward smaller vertex ids
    (BFS expands neighbors in sorted order). Returns the vertex list or None.
    """
    if src == dst:
        return [src]
    banned = set(avoid) - {dst}
    parent: dict[int, int] = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in g.out_neighbors(v):
            if w in parent:
                continue
            if w == dst:
                path = [dst, v]
                while parent[path[-1]]:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if w in banned:
                continue
            parent[w] = v
            queue.append(w)
    return None


def find_nontrivial_path_per_hop(g, src: int, dst: int, avoid: Iterable[int]) -> list[int] | None:
    """A src->dst path with >= 2 arcs whose internal vertices avoid
    `avoid`: the first first hop, in sorted order, with a shortest
    internally avoiding path on to dst."""
    banned = set(avoid) | {src}
    for z in g.out_neighbors(src):
        if z == dst or z in banned:
            continue
        tail = find_path_internally_avoiding(g, z, dst, banned)
        if tail is not None:
            return [src] + tail
    return None


def live_leaves(li: LiveInstance) -> frozenset[int]:
    """Current vertices that live records join to exactly one other vertex."""
    nbrs: dict[int, set[int]] = {}
    for src, sinks in li.live.values():
        for t in sinks:
            nbrs.setdefault(src, set()).add(t)
            nbrs.setdefault(t, set()).add(src)
    return frozenset(v for v, ws in nbrs.items() if len(ws) == 1)


def check_candidates(candidates, want: list, rng) -> None:
    """A lazy candidate sequence equals the list `want`: its length, full
    iteration, the first, last and a random element, and `IndexError` at
    `len` and -1."""
    assert isinstance(candidates, Sequence) and not isinstance(candidates, list)
    assert len(candidates) == len(want)
    assert list(candidates) == want
    if want:
        for i in (0, len(want) - 1, rng.randrange(len(want))):
            assert candidates[i] == want[i]
    for i in (len(want), -1):
        try:
            candidates[i]
        except IndexError:
            continue
        raise AssertionError(f"candidate index {i} did not raise IndexError")


class CheckingAdvisor(ScriptedAdvisor):
    """A scripted advisor that checks every `initial-arc` and `initial-edge`
    candidate sequence against `reference()`, the eager list of the live
    instance the sequence was read from, before choosing as the script
    says. `checked` counts the sequences checked per label."""

    def __init__(self, script, rng, reference=None):
        super().__init__(script)
        self.rng, self.reference = rng, reference
        self.checked: Counter = Counter()

    def choose(self, label, candidates):
        if label in ("initial-arc", "initial-edge"):
            check_candidates(candidates, self.reference(), self.rng)
            self.checked[label] += 1
        return super().choose(label, candidates)


def check_initial_candidates(monkeypatch, advisor: CheckingAdvisor) -> None:
    """Wrap the three functions that make the initial choice of a round for
    the rest of the test, so that `advisor` compares it with the eager list:
    `sorted_arcs` for ssc's simple cycle, `sorted_arcs` without arcs into
    leaves for dpa's rotation cycle, `sorted_oriented_edges` for 2ecs."""

    def wrap(module, name, reference):
        real = getattr(module, name)

        def checked_call(li, round_advisor):
            if round_advisor is advisor:
                advisor.reference = lambda: reference(li)
            return real(li, round_advisor)

        monkeypatch.setattr(module, name, checked_call)

    wrap(ssc_module, "build_simple_cycle", sorted_arcs)
    wrap(dpa_module, "build_rotation_cycle", lambda li: sorted_arcs(li, live_leaves(li)))
    wrap(twoecs_module, "find_cycle_with_internal_cut", sorted_oriented_edges)
