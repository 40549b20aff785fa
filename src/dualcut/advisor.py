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

    def choose(self, label: str, candidates: Sequence):
        """Return one of `candidates`, a read-only Sequence in canonical order.

        Advisors may use only `len`, indexing in `[0, len)` and iteration:
        candidates need not be a list, and the `initial-arc` and
        `initial-edge` ones are read lazily off the live graph, so one index
        costs far less than a copy. An index `pick` returns outside
        `[0, len)` raises ValueError.
        """
        if label not in CHOICE_LABELS:
            raise ValueError(f"unknown choice label {label!r}")
        if not candidates:
            raise ValueError(f"choice '{label}' offered no candidates")
        if len(candidates) == 1:
            return candidates[0]
        i = self.pick(label, candidates)
        if not 0 <= i < len(candidates):
            raise ValueError(f"choice '{label}' got index {i} of {len(candidates)} candidates")
        return candidates[i]

    def pick(self, label: str, candidates: Sequence) -> int:
        return 0


class ScriptedAdvisor(Advisor):
    """Consumes one integer per multi-candidate choice; out-of-range or
    exhausted entries fall back to index 0 (counted in `fallbacks`)."""

    def __init__(self, script: Sequence[int] = ()):  # empty = default choices
        self.script = list(script)
        self.position = 0
        self.fallbacks = 0

    def pick(self, label: str, candidates: Sequence) -> int:
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
