"""Choice advisors: pluggable tie-breaking for every algorithm choice point.

The algorithms are deterministic given an advisor. Each genuine choice
(two or more candidates) is labeled and offered to the advisor in a canonical
order: vertices ascending by id, arcs by (tail, head), stars by id, oriented
edges by (tail, head, edge id). Single candidates are taken silently.

ScriptedAdvisor replays a list of integer indices (the CLI advice-file
payload); an empty script always picks index 0 and is the default behavior.
"""

from __future__ import annotations

from typing import Sequence

# Every choice the algorithms offer; README lists the same labels.
CHOICE_LABELS = frozenset(
    (
        "initial-arc", "initial-edge", "extend", "rotate-extend", "arc-star",
        "aug-star", "aug-step", "leaf-select", "leaf-pair-star",
        "cycle-direction", "c1-star", "outward-star", "reversed-outward-star",
        "case-b-star", "f1-star", "f1-sink", "f2-star",
    )
)


class Advisor:
    """Base advisor: always picks the first candidate."""

    fallbacks = 0  # choices that fell back to index 0; see ScriptedAdvisor

    def choose(self, label: str, candidates: Sequence, partition=None):
        if label not in CHOICE_LABELS:
            raise ValueError(f"unknown choice label {label!r}")
        if not candidates:
            raise ValueError(f"choice '{label}' offered no candidates")
        if len(candidates) == 1:
            return candidates[0]
        return candidates[self.pick(label, candidates, partition)]

    def pick(self, label: str, candidates: Sequence, partition) -> int:
        return 0


class ScriptedAdvisor(Advisor):
    """Consumes one integer per multi-candidate choice; out-of-range or
    exhausted entries fall back to index 0 (counted in `fallbacks`)."""

    def __init__(self, script: Sequence[int] = ()):  # empty = default choices
        self.script = list(script)
        self.position = 0
        self.fallbacks = 0

    def pick(self, label: str, candidates: Sequence, partition) -> int:
        if self.position >= len(self.script):
            if self.script:
                self.fallbacks += 1
            return 0
        value = self.script[self.position]
        self.position += 1
        if 0 <= value < len(candidates):
            return value
        self.fallbacks += 1
        return 0


class PlannedAdvisor(Advisor):
    """Drives a run along a predetermined route, recording the index taken at
    every multi-candidate choice so the route can be replayed from a script.

    Plan entries are (label, kind, payload) with payload expressed over
    ORIGINAL ids: kind 'vertex' and 'arc' payloads are translated through the
    current vertex partition at choice time; kind 'raw' payloads (star ids,
    direction strings, oriented edges) are matched as-is. Once the plan is
    exhausted, remaining choices silently take index 0, exactly like an
    exhausted script.
    """

    def __init__(self, plan: Sequence[tuple[str, str, object]]):
        self.plan = list(plan)
        self.position = 0
        self.recorded: list[int] = []

    def pick(self, label: str, candidates: Sequence, partition) -> int:
        if self.position >= len(self.plan):
            return 0
        want_label, kind, payload = self.plan[self.position]
        if want_label != label:
            raise AssertionError(
                f"plan expected choice '{want_label}' but algorithm asked "
                f"'{label}' (candidates {list(candidates)})"
            )
        self.position += 1
        target = self._translate(kind, payload, partition)
        try:
            index = list(candidates).index(target)
        except ValueError:
            raise AssertionError(
                f"plan target {target!r} for '{label}' not among "
                f"candidates {list(candidates)}"
            ) from None
        self.recorded.append(index)
        return index

    @staticmethod
    def _translate(kind: str, payload, partition):
        if kind == "raw" or partition is None:
            return payload
        if kind == "vertex":
            return partition.current_of(payload)
        if kind == "arc":
            u, v = payload
            return (partition.current_of(u), partition.current_of(v))
        raise ValueError(f"unknown plan payload kind {kind!r}")
