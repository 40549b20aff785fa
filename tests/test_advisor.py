"""Tests for the choice advisors."""

import pytest

from dualcut import Advisor, PlannedAdvisor, ScriptedAdvisor
from dualcut.perfect import Labels


def test_default_advisor_picks_first():
    a = Advisor()
    assert a.choose("x", [5, 6, 7]) == 5
    assert a.choose("x", [42]) == 42
    with pytest.raises(ValueError):
        a.choose("x", [])


def test_scripted_advisor_consumes_one_index_per_real_choice():
    a = ScriptedAdvisor([2, 1])
    assert a.choose("x", [10, 11, 12]) == 12
    assert a.choose("x", [10])  == 10  # single candidate: no consumption
    assert a.position == 1
    assert a.choose("x", [10, 11]) == 11
    assert a.fallbacks == 0


def test_scripted_advisor_fallbacks():
    a = ScriptedAdvisor([7])
    assert a.choose("x", [1, 2]) == 1  # out of range -> index 0
    assert a.fallbacks == 1
    assert a.choose("x", [1, 2]) == 1  # exhausted nonempty script counts too
    assert a.fallbacks == 2
    b = ScriptedAdvisor([])
    assert b.choose("x", [1, 2]) == 1  # empty script is the silent default
    assert b.fallbacks == 0


def test_planned_advisor_records_indices():
    plan = [("pick", "raw", "b"), ("pick", "raw", 3)]
    a = PlannedAdvisor(plan)
    assert a.choose("pick", ["a", "b", "c"]) == "b"
    assert a.choose("pick", [1, 3]) == 3
    assert a.recorded == [1, 1]
    # Exhausted plan: silent index 0, nothing recorded.
    assert a.choose("pick", ["x", "y"]) == "x"
    assert a.recorded == [1, 1]


def test_planned_advisor_translates_through_partition():
    part = Labels(4)
    part.merge({2, 3}, 2)
    a = PlannedAdvisor([("v", "vertex", 3), ("e", "arc", (4, 3))])
    # Original vertex 3 now lives at label 2; original 4 keeps label 4.
    assert a.choose("v", [1, 2, 4], part) == 2
    assert a.choose("e", [(1, 2), (4, 2)], part) == (4, 2)


def test_planned_advisor_rejects_label_mismatch_and_missing_target():
    a = PlannedAdvisor([("want", "raw", 1)])
    with pytest.raises(AssertionError):
        a.choose("got", [1, 2])
    b = PlannedAdvisor([("x", "raw", 99)])
    with pytest.raises(AssertionError):
        b.choose("x", [1, 2])
