"""Tests for the tight families and the random instance generators."""

import pytest

import dualcut.generators as generators
from dualcut import (
    DPAInstance,
    RunCheckError,
    SSCInstance,
    ScriptedAdvisor,
    TwoECSInstance,
    approx_dpa,
    approx_ssc,
    certify_exact_by_bound,
    check_feasible,
    gen_dpa_tight,
    gen_random_2ecs,
    gen_random_bidirected,
    gen_random_dpa,
    gen_random_ssc,
    gen_ssc_tight,
)
from reference import PlannedAdvisor, follow_labels


def test_bidirected_family_smallest_advice_frozen():
    gi = gen_dpa_tight(1)
    assert gi.advice == (11, 1, 0)
    assert gi.expected.alg_cost == 6 and gi.expected.opt_cost == 5


def test_general_family_smallest_advice_frozen():
    gi = gen_ssc_tight(1)
    assert gi.advice == (3, 1, 0, 1, 0, 0)
    assert gi.expected.alg_cost == 10 and gi.expected.opt_cost == 7


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_bidirected_family_structure(k):
    gi = gen_dpa_tight(k)
    inst = gi.instance
    n = 2 * k + 3
    assert inst.vertex_count == n
    assert len(inst.stars) == 2 * (3 * k + 5)
    assert all(len(s.sinks) == 1 for s in inst.stars)
    assert inst.is_bidirected()
    assert gi.expected.alg_cost == 3 * k + 3
    assert gi.expected.opt_cost == n
    witness = gi.opt_witness
    assert len(witness) == n
    assert check_feasible(inst, witness)
    assert certify_exact_by_bound(inst, witness)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_general_family_structure(k):
    gi = gen_ssc_tight(k)
    inst = gi.instance
    n = 5 * k + 2
    assert inst.vertex_count == n
    assert len(inst.stars) == 9 * k + 2
    assert all(len(s.sinks) == 1 for s in inst.stars)
    assert not inst.is_bidirected()
    assert gi.expected.alg_cost == 8 * k + 2
    assert gi.expected.opt_cost == n
    witness = gi.opt_witness
    assert len(witness) == n
    assert check_feasible(inst, witness)
    assert certify_exact_by_bound(inst, witness)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_bidirected_family_replays_under_both_algorithms(k):
    gi = gen_dpa_tight(k)
    ssc_run = approx_ssc(gi.instance, ScriptedAdvisor(list(gi.advice)))
    dpa_run = approx_dpa(gi.instance, ScriptedAdvisor(list(gi.advice)))
    assert ssc_run.cost == dpa_run.cost == 3 * k + 3
    assert ssc_run.selected == dpa_run.selected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_general_family_replays_with_scripted_advice(k):
    gi = gen_ssc_tight(k)
    report = approx_ssc(gi.instance, ScriptedAdvisor(list(gi.advice)))
    assert report.cost == 8 * k + 2
    assert sum(len(it.selected) - 1 for it in report.iterations) == gi.instance.vertex_count - 1


def gk_route(k):
    """`gen_dpa_tight`'s route: the initial arc k+3 -> 2, then the outer
    cycle down to 1."""
    steps = [*range(k + 2, 2, -1), 1]
    return [("initial-arc", "arc", (k + 3, 2))] + [("extend", "vertex", t) for t in steps]


def tk_route(k):
    """`gen_ssc_tight`'s route: each gadget (a, b, c, d, x, y), innermost
    first, then the base level's 2-cycle start 6 -> 7."""
    levels = [(1, 2, 3, 4, 5, 6)]
    for j in range(2, k + 1):
        n = 5 * j - 3  # vertices before level j; a is the last level's x
        levels.append((levels[-1][4], n + 1, n + 2, n + 3, n + 4, n + 5))
    route = []
    for a, b, c, d, x, y in reversed(levels):
        route += [
            ("initial-arc", "arc", (c, a)),
            ("extend", "vertex", y),
            ("extend", "vertex", x),
            ("initial-arc", "arc", (c, d)),
            ("initial-arc", "arc", (a, b)),
        ]
    return route + [("initial-arc", "arc", (6, 7))]


@pytest.mark.parametrize(
    ("generate", "solve", "route", "k"),
    [(gen_dpa_tight, approx_dpa, gk_route, k) for k in range(1, 21)]
    + [(gen_ssc_tight, approx_ssc, tk_route, k) for k in range(1, 13)],
    ids=[f"gk{k}" for k in range(1, 21)] + [f"tk{k}" for k in range(1, 13)],
)
def test_the_planner_along_each_route_records_the_shipped_advice(
    monkeypatch, generate, solve, route, k
):
    gi = generate(k)
    plan = route(k)
    planner = PlannedAdvisor(plan)
    follow_labels(monkeypatch, planner)
    report = solve(gi.instance, planner)
    assert planner.position == len(plan)
    assert tuple(planner.recorded) == gi.advice
    assert report.cost == gi.expected.alg_cost


def test_random_generators_are_deterministic():
    for seed in (0, 7, 123):
        a = gen_random_ssc(6, 1.0, 3, seed=seed).instance
        b = gen_random_ssc(6, 1.0, 3, seed=seed).instance
        assert a.stars == b.stars and a.vertex_count == b.vertex_count
        c = gen_random_dpa(6, 0.4, seed=seed).instance
        d = gen_random_dpa(6, 0.4, seed=seed).instance
        assert c.edges == d.edges
        e = gen_random_2ecs(6, 0.7, seed=seed).instance
        f = gen_random_2ecs(6, 0.7, seed=seed).instance
        assert e.graph.edges == f.graph.edges
        g = gen_random_bidirected(6, 0.8, 2, seed=seed).instance
        h = gen_random_bidirected(6, 0.8, 2, seed=seed).instance
        assert g.stars == h.stars


def test_random_generator_types_and_sizes():
    for seed in range(30):
        s = gen_random_ssc(7, 1.0, 3, seed=seed).instance
        assert isinstance(s, SSCInstance) and len(s.stars) <= 20
        b = gen_random_bidirected(7, 0.8, 3, seed=seed).instance
        assert isinstance(b, SSCInstance) and b.is_bidirected()
        assert len(b.stars) <= 20
        d = gen_random_dpa(7, 0.4, seed=seed).instance
        assert isinstance(d, DPAInstance) and len(d.edges) <= 12
        t = gen_random_2ecs(7, 0.7, seed=seed).instance
        assert isinstance(t, TwoECSInstance) and len(t.graph.edges) <= 20


def test_two_vertex_edge_cases():
    t = gen_random_2ecs(2, 0.7, seed=1).instance
    assert len(t.graph.edges) >= 2
    s = gen_random_ssc(2, 1.0, 1, seed=1).instance
    assert s.vertex_count == 2
    d = gen_random_dpa(2, 0.4, seed=1).instance
    assert d.vertex_count == 2


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        gen_dpa_tight(0)
    with pytest.raises(ValueError):
        gen_ssc_tight(0)
    with pytest.raises(ValueError):
        gen_random_ssc(1)
    with pytest.raises(ValueError):
        gen_random_ssc(4, max_star_fan=0)
    with pytest.raises(ValueError):
        gen_random_bidirected(1)
    with pytest.raises(ValueError):
        gen_random_2ecs(1)
    with pytest.raises(ValueError):
        gen_random_dpa(1)


def test_tight_family_claims_survive_python_O(monkeypatch):
    # The generators check their route, cost and witness with explicit code,
    # never an `assert` (`test_no_check_depends_on_assert`), so `python -O`
    # still refuses a witness that fails its certificate.
    monkeypatch.setattr(
        generators, "certify_exact_by_bound", lambda instance, witness: False
    )
    for gen in (gen_ssc_tight, gen_dpa_tight):
        with pytest.raises(RunCheckError) as info:
            gen(2)
        assert info.value.problems == (f"{gen.__name__}: witness is not optimal",)
