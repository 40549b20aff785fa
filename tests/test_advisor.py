"""Tests for the choice advisors."""

import ast
import re
from pathlib import Path

import pytest

import dualcut
from dualcut import Advisor, ScriptedAdvisor, gen_random_ssc
from dualcut.advisor import CHOICE_LABELS
from dualcut.perfect import Labels, LiveInstance
from reference import PlannedAdvisor


def test_default_advisor_picks_first():
    a = Advisor()
    assert a.choose("extend", [5, 6, 7]) == 5
    assert a.choose("extend", [42]) == 42
    with pytest.raises(ValueError):
        a.choose("extend", [])


def test_scripted_advisor_consumes_one_index_per_real_choice():
    a = ScriptedAdvisor([2, 1])
    assert a.choose("extend", [10, 11, 12]) == 12
    assert a.choose("extend", [10])  == 10  # single candidate: no consumption
    assert a.position == 1
    assert a.choose("extend", [10, 11]) == 11
    assert a.fallbacks == 0


def test_scripted_advisor_fallbacks():
    a = ScriptedAdvisor([7])
    assert a.choose("extend", [1, 2]) == 1  # out of range -> index 0
    assert a.fallbacks == 1
    assert a.choose("extend", [1, 2]) == 1  # exhausted nonempty script counts too
    assert a.fallbacks == 2
    b = ScriptedAdvisor([])
    assert b.choose("extend", [1, 2]) == 1  # empty script is the silent default
    assert b.fallbacks == 0


def test_planned_advisor_records_indices():
    plan = [("arc-star", "raw", "b"), ("arc-star", "raw", 3)]
    a = PlannedAdvisor(plan)
    assert a.choose("arc-star", ["a", "b", "c"]) == "b"
    assert a.choose("arc-star", [1, 3]) == 3
    assert a.recorded == [1, 1]
    # Exhausted plan: silent index 0, nothing recorded.
    assert a.choose("arc-star", ["x", "y"]) == "x"
    assert a.recorded == [1, 1]


def test_planned_advisor_translates_through_partition():
    part = Labels(4)
    part.merge({2, 3}, 2)
    a = PlannedAdvisor([("extend", "vertex", 3), ("initial-arc", "arc", (4, 3))])
    a.labels = part
    # Original vertex 3 now lives at label 2; original 4 keeps label 4.
    assert a.choose("extend", [1, 2, 4]) == 2
    assert a.choose("initial-arc", [(1, 2), (4, 2)]) == (4, 2)


def test_planned_advisor_rejects_label_mismatch_and_missing_target():
    a = PlannedAdvisor([("f1-star", "raw", 1)])
    with pytest.raises(AssertionError):
        a.choose("f2-star", [1, 2])
    b = PlannedAdvisor([("extend", "raw", 99)])
    with pytest.raises(AssertionError):
        b.choose("extend", [1, 2])


class FixedIndexAdvisor(Advisor):
    """Picks the same index at every choice, in range or not."""

    def __init__(self, index):
        self.index = index

    def pick(self, label, candidates):
        return self.index


@pytest.mark.parametrize("index", [-1, 3, 10**6])
def test_an_index_out_of_range_is_rejected_with_its_label(index):
    with pytest.raises(ValueError, match=f"choice 'extend' got index {index} of 3 candidates"):
        FixedIndexAdvisor(index).choose("extend", [5, 6, 7])


@pytest.mark.parametrize("index", [-1, 10**6])
def test_an_index_out_of_range_of_a_lazy_sequence_is_rejected(index):
    li = LiveInstance.from_instance(gen_random_ssc(30, 1.0, 3, 1).instance)
    arcs = li.arc_candidates()
    found = f"choice 'initial-arc' got index {index} of {len(arcs)} candidates"
    with pytest.raises(ValueError, match=found):
        FixedIndexAdvisor(index).choose("initial-arc", arcs)


def test_unknown_choice_labels_are_rejected():
    for advisor in (Advisor(), ScriptedAdvisor([1]), PlannedAdvisor([])):
        with pytest.raises(ValueError, match="unknown choice label"):
            advisor.choose("x", [1, 2])


def _labels_offered_in_source() -> set[str]:
    """String constants the package passes as a `label` argument: to
    `Advisor.choose` or to any of its functions that forward one."""
    trees = [ast.parse(path.read_text()) for path in Path(dualcut.__file__).parent.glob("*.py")]
    params = {
        node.name: [a.arg for a in node.args.args if a.arg != "self"]
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    offered = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if "label" not in params.get(name, ()):
                continue
            position = params[name].index("label")
            args = call.args[position : position + 1] + [
                kw.value for kw in call.keywords if kw.arg == "label"
            ]
            offered.update(
                a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)
            )
    return offered


def test_choice_labels_match_the_readme_and_the_source():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"Choice labels are stable strings \(([^)]*)\)", readme).group(1)
    assert set(re.findall(r"`([^`]+)`", listed)) == CHOICE_LABELS
    assert _labels_offered_in_source() == CHOICE_LABELS
