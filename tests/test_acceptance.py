"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Criteria 1-3 produce runs (tight families through the CLI / the general
algorithm, plus large seeded random pools); criteria 4-5 re-check every one
of those stored runs. Criteria 6-8 are exhaustive equivalence, per-round
contract, and conversion checks.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dualcut import (
    Advisor,
    ScriptedAdvisor,
    approx_2ecs,
    approx_dpa,
    approx_ssc,
    certify_exact_by_bound,
    check_feasible,
    dpa_to_ssc,
    exact_2ecs,
    exact_dpa,
    exact_ssc,
    gen_dpa_tight,
    gen_random_2ecs,
    gen_random_bidirected,
    gen_random_dpa,
    gen_random_ssc,
    gen_ssc_tight,
    report_from_json,
    verify_certificate,
    write_instance,
)
from dualcut.cli import main
from dualcut.dpa import find_perfect_two_cuts
from dualcut.io import write_advice
from dualcut.perfect import (
    LiveInstance,
    are_star_disjoint,
    contract_perfect,
    is_internal_cut,
    is_perfect,
)
from dualcut.ssc import find_perfect_set
from reference import check_cut_feasible, enumerate_internal_cuts, ssc_to_dpa


# Each stored run: (problem, cert_instance, report, optimum, seconds).
# cert_instance is the star/edge instance the certificate refers to (for
# power runs, the derived star instance); optimum is exact and proven.


@pytest.fixture(scope="session")
def tight_dpa_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("gk")
    runs = []
    for k in range(1, 51):
        gi = gen_dpa_tight(k)
        inst_path = base / f"gk{k}.txt"
        inst_path.write_text(write_instance(gi.instance, "mscs"))
        advice_path = base / f"gk{k}.advice"
        advice_path.write_text(write_advice(gi.advice))
        report_path = base / f"gk{k}.json"
        started = time.perf_counter()
        code = main(
            [
                "solve", "--problem", "ssc",
                "--input", str(inst_path),
                "--advice", str(advice_path),
                "--out", str(report_path),
            ]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        report = report_from_json(report_path.read_text())
        witness = gi.opt_witness
        assert certify_exact_by_bound(gi.instance, witness)
        runs.append(("ssc", gi.instance, report, len(witness), elapsed))
    return runs


@pytest.fixture(scope="session")
def tight_ssc_runs():
    runs = []
    for k in range(1, 51):
        gi = gen_ssc_tight(k)
        started = time.perf_counter()
        report = approx_ssc(gi.instance, ScriptedAdvisor(list(gi.advice)))
        elapsed = time.perf_counter() - started
        witness = gi.opt_witness
        assert certify_exact_by_bound(gi.instance, witness)
        runs.append(("ssc", gi.instance, report, len(witness), elapsed))
    return runs


@pytest.fixture(scope="session")
def random_runs():
    rng = random.Random(20260818)
    started = time.perf_counter()
    runs = []

    def scripts():
        yield Advisor()
        for _ in range(5):
            yield ScriptedAdvisor([rng.randrange(0, 8) for _ in range(16)])

    for i in range(500):
        n = 2 + i % 6
        inst = gen_random_ssc(n, 1.0, 1 + i % 3, seed=i).instance
        opt = exact_ssc(inst).optimum
        for adv in scripts():
            runs.append(("ssc", inst, approx_ssc(inst, adv), opt, 0.0))

    for i in range(500):
        n = 2 + i % 6
        inst = gen_random_ssc(n, 1.0, 1, seed=10_000 + i).instance
        opt = exact_ssc(inst).optimum
        for adv in scripts():
            runs.append(("mscs", inst, approx_ssc(inst, adv), opt, 0.0))

    for i in range(500):
        n = 2 + i % 6
        inst = gen_random_dpa(n, 0.4, seed=20_000 + i).instance
        opt = exact_dpa(inst).optimum
        derived, _ = dpa_to_ssc(inst)
        for adv in scripts():
            runs.append(("dpa", derived, approx_dpa(inst, adv), opt, 0.0))

    for i in range(500):
        n = 2 + i % 6
        inst = gen_random_2ecs(n, 0.7, seed=30_000 + i).instance
        opt = exact_2ecs(inst).optimum
        for adv in scripts():
            runs.append(("2ecs", inst, approx_2ecs(inst, adv), opt, 0.0))

    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_criterion_1_tight_bidirected_family_via_cli(tight_dpa_runs):
    assert len(tight_dpa_runs) == 50
    for k, (_, inst, report, opt, seconds) in enumerate(tight_dpa_runs, start=1):
        assert report.cost == 3 * k + 3
        assert opt == 2 * k + 3
        assert seconds < 1.0
    _, _, last, last_opt, _ = tight_dpa_runs[-1]
    assert (last.cost, last_opt) == (153, 103)
    assert Fraction(last.cost, last_opt) == Fraction(153, 103)


def test_criterion_2_tight_general_family(tight_ssc_runs):
    assert len(tight_ssc_runs) == 50
    for k, (_, inst, report, opt, seconds) in enumerate(tight_ssc_runs, start=1):
        assert report.cost == 8 * k + 2
        assert opt == 5 * k + 2
        assert seconds < 1.0
    _, _, last, last_opt, _ = tight_ssc_runs[-1]
    assert (last.cost, last_opt) == (402, 252)


def test_criterion_3_ratio_guarantees_on_random_pools(random_runs):
    runs, elapsed = random_runs
    by_problem = Counter(problem for problem, *_ in runs)
    # 500 instances x (default advisor + 5 scripts) per problem.
    assert all(by_problem[p] == 3000 for p in ("ssc", "mscs", "dpa", "2ecs"))
    for problem, _inst, report, opt, _t in runs:
        if problem == "2ecs":
            assert 2 * report.cost < 3 * opt
        elif problem == "dpa":
            assert 2 * report.cost <= 3 * opt
        else:
            assert 5 * report.cost <= 8 * opt
    assert elapsed < 120.0


def test_criterion_4_accounting_identities_on_every_run(
    tight_dpa_runs, tight_ssc_runs, random_runs
):
    everything = tight_dpa_runs + tight_ssc_runs + random_runs[0]
    assert len(everything) == 100 + 12_000
    for problem, _inst, report, _opt, _t in everything:
        hist = Counter(len(it.selected) for it in report.iterations)
        assert sum((i - 1) * a for i, a in hist.items()) == report.n - 1
        assert report.cost == report.n + report.k - 1
        if problem in ("ssc", "mscs"):
            d = report.bounds.dual_objective
            assert 5 * report.cost <= 6 * (report.n - 1) + 2 * d


def test_criterion_5_certificate_soundness_on_every_run(
    tight_dpa_runs, tight_ssc_runs, random_runs
):
    for _problem, cert_inst, report, opt, _t in (
        tight_dpa_runs + tight_ssc_runs + random_runs[0]
    ):
        feasible, objective, violations = verify_certificate(
            cert_inst, report.certificate
        )
        assert feasible, violations
        assert objective == report.bounds.dual_objective
        assert objective <= opt
        assert report.bounds.n_bound <= opt


def test_criterion_6_cut_feasibility_equals_connectivity():
    started = time.perf_counter()
    cases = 0
    for i in range(50):
        inst = gen_random_ssc(2 + i % 4, 1.0, 1 + i % 3, seed=5000 + i).instance
        ids = [s.id for s in inst.stars]
        assert len(ids) <= 12
        for r in range(len(ids) + 1):
            for combo in itertools.combinations(ids, r):
                sol = frozenset(combo)
                assert check_cut_feasible(inst, sol) == check_feasible(inst, sol)
                cases += 1
        assert cases >= 2 ** len(ids)
    assert time.perf_counter() - started < 60.0


def test_criterion_7_round_construction_contracts():
    rng = random.Random(7)

    two_cut_calls = 0
    i = 0
    while two_cut_calls < 500:
        inst = gen_random_bidirected(2 + i % 6, 0.8, 1 + i % 3, seed=7000 + i).instance
        li = LiveInstance.from_instance(inst)
        adv = ScriptedAdvisor([rng.randrange(0, 8) for _ in range(16)])
        while li.current_count > 1:
            q, (s1, s2), kind = find_perfect_two_cuts(li, adv)
            assert kind == "perfect"
            assert is_perfect(li, q)
            assert is_internal_cut(li, q, s1) and is_internal_cut(li, q, s2)
            assert are_star_disjoint(li, s1, s2)
            if li.current_count <= 12:
                sides = {c.side for c in enumerate_internal_cuts(li, q)}
                assert s1 in sides and s2 in sides
            two_cut_calls += 1
            li = contract_perfect(li, q)
        i += 1

    general_calls = 0
    i = 0
    while general_calls < 500:
        inst = gen_random_ssc(2 + i % 6, 1.2, 1 + i % 3, seed=7700 + i).instance
        li = LiveInstance.from_instance(inst)
        adv = ScriptedAdvisor([rng.randrange(0, 8) for _ in range(16)])
        while li.current_count > 1:
            q, cut_sides, kind = find_perfect_set(li, adv)
            assert is_perfect(li, q)
            for side in cut_sides:
                assert is_internal_cut(li, q, side)
            if kind == "two-cuts":
                assert len(cut_sides) == 2
                assert are_star_disjoint(li, *cut_sides)
            else:
                assert kind == "big-one-cut"
                assert len(cut_sides) == 1 and len(q) >= 4
            if li.current_count <= 12:
                sides = {c.side for c in enumerate_internal_cuts(li, q)}
                assert all(s in sides for s in cut_sides)
            general_calls += 1
            li = contract_perfect(li, q)
        i += 1

    assert two_cut_calls >= 500 and general_calls >= 500


def test_criterion_8_solution_conversions_preserve_cost_and_feasibility():
    for i in range(200):
        s = gen_random_bidirected(2 + i % 6, 0.8, 1 + i % 3, seed=8000 + i).instance
        d = ssc_to_dpa(s)  # star id j becomes power vertex j + 1

        # Star selection -> power selection.
        stars = frozenset(approx_ssc(s).selected)
        assert check_feasible(s, stars)
        power = frozenset(j + 1 for j in stars)
        assert len(power) == len(stars)
        assert check_feasible(d, power)

        # Power selection -> star selection on the derived instance.
        d_report = approx_dpa(d)
        chosen = frozenset(d_report.selected)
        assert check_feasible(d, chosen)
        derived, vertex_to_star = dpa_to_ssc(d)
        lifted = frozenset(vertex_to_star[v] for v in chosen)
        assert len(lifted) == len(chosen)
        assert check_feasible(derived, lifted)
