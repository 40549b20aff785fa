"""Tests for the exhaustive solvers and the optimality certifier."""

from itertools import combinations

import pytest

from dualcut import (
    DPAInstance,
    Multigraph,
    SSCInstance,
    Star,
    TwoECSInstance,
    approx_2ecs,
    approx_dpa,
    certify_exact_by_bound,
    check_feasible,
    exact_2ecs,
    exact_dpa,
    exact_ssc,
    gen_dpa_tight,
    gen_random_bidirected,
    gen_random_dpa,
    gen_ssc_tight,
    mscs_to_ssc,
)
from dualcut.certificates import SSC, Cut, DualCertificate
from dualcut.graphs import is_strongly_connected
from dualcut.perfect import LiveInstance
from reference import dpa_induced_graph, enumerate_internal_cuts, ssc_to_dpa


def S(i, src, *sinks):
    return Star(i, src, frozenset(sinks))


def test_directed_four_cycle_needs_every_star():
    inst = mscs_to_ssc(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    res = exact_ssc(inst)
    assert res.optimum == 4 and res.method == "search"
    assert check_feasible(inst, res.witness)


def test_forced_sources_pin_the_optimum():
    # Each vertex needs an out-arc, and three sources offer exactly one star.
    inst = SSCInstance(4, [
        S(0, 1, 2), S(1, 2, 3), S(2, 3, 4), S(3, 4, 1), S(4, 1, 2, 3),
    ])
    assert exact_ssc(inst).optimum == 4
    inst2 = SSCInstance(3, [S(0, 1, 2), S(1, 2, 3), S(2, 3, 1), S(3, 2, 1, 3)])
    assert exact_ssc(inst2).optimum == 3


def test_tight_family_optima():
    g1 = gen_dpa_tight(1).instance
    r = exact_ssc(g1)
    assert r.optimum == 5
    t1 = gen_ssc_tight(1).instance
    assert exact_ssc(t1, limit=25).optimum == 7


def test_single_vertex_star_instance():
    assert exact_ssc(SSCInstance(1, [])).optimum == 0


def test_exact_2ecs_on_k4_and_cycle():
    k4_edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    res = exact_2ecs(TwoECSInstance(Multigraph(4, k4_edges)))
    assert res.optimum == 4
    assert check_feasible(TwoECSInstance(Multigraph(4, k4_edges)), res.witness)
    cyc = TwoECSInstance(Multigraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    assert exact_2ecs(cyc).optimum == 4
    pair = TwoECSInstance(Multigraph(2, [(1, 2), (1, 2)]))
    assert exact_2ecs(pair).optimum == 2
    assert exact_2ecs(TwoECSInstance(Multigraph(1, []))).optimum == 0


def test_exact_dpa_unit_and_free_triangles():
    unit = DPAInstance(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    res = exact_dpa(unit)
    assert res.optimum == 3
    assert check_feasible(unit, res.witness)
    free = DPAInstance(3, [(1, 2, 0), (2, 3, 0), (1, 3, 0)])
    res0 = exact_dpa(free)
    assert res0.optimum == 0 and res0.witness == frozenset()


def test_exact_dpa_mixed_costs():
    # Free path 1-2-3 plus a unit edge closing the triangle: raising either
    # endpoint of (1,3) is unnecessary since the path is already two-way free.
    inst = DPAInstance(3, [(1, 2, 0), (2, 3, 0), (1, 3, 1)])
    assert exact_dpa(inst).optimum == 0


def _exact_dpa_reference(d: DPAInstance):
    """Smallest-first search over high-power sets, in `exact_dpa`'s order,
    deciding each set on the `Digraph` of the arcs it induces."""
    n = d.vertex_count
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            if is_strongly_connected(dpa_induced_graph(d, combo)):
                return size, frozenset(combo)


def test_exact_dpa_matches_the_induced_digraph_search():
    pool = [gen_random_dpa(6 + i % 5, 0.2 + 0.1 * (i % 4), seed=900 + i).instance for i in range(40)]
    # Random power instances almost always finish in one round; power forms
    # of sparse bidirected star instances sometimes take two.
    for seed in range(40):
        stars = gen_random_bidirected(5 + seed % 4, 0.3, 2, seed=seed).instance
        if len(stars.stars) <= 11:
            pool.append(ssc_to_dpa(stars))
    assert any(approx_dpa(d).k >= 2 for d in pool)
    for d in pool:
        result = exact_dpa(d)
        assert (result.optimum, result.witness) == _exact_dpa_reference(d)


def test_search_limits_raise():
    big_m = mscs_to_ssc(30, [(i, i % 30 + 1) for i in range(1, 31)])
    with pytest.raises(ValueError):
        exact_ssc(big_m)
    with pytest.raises(ValueError):
        exact_2ecs(
            TwoECSInstance(Multigraph(30, [(i, i % 30 + 1) for i in range(1, 31)]))
        )
    with pytest.raises(ValueError):
        exact_dpa(DPAInstance(30, [(i, i + 1, 1) for i in range(1, 30)] + [(1, 30, 1)]))
    li = LiveInstance.from_instance(big_m)
    with pytest.raises(ValueError):
        enumerate_internal_cuts(li, range(30))


# Read as a power instance, this star instance's star ids would pass for
# vertices.
_STARS = SSCInstance(2, [Star(0, 1, {2}), Star(1, 2, {1}), Star(2, 1, {2})])
_REJECTED = [
    (exact_dpa, _STARS, "DPAInstance"),
    (approx_2ecs, _STARS, "TwoECSInstance"),
    (exact_ssc, DPAInstance(2, [(1, 2, 1)]), "SSCInstance"),
    (exact_2ecs, _STARS, "TwoECSInstance"),
]


@pytest.mark.parametrize(
    "solve, inst, needed",
    _REJECTED,
    ids=[f"{solve.__name__}-{needed}" for solve, _inst, needed in _REJECTED],
)
def test_solvers_reject_an_instance_of_another_problem(solve, inst, needed):
    with pytest.raises(TypeError, match=needed):
        solve(inst)


def test_enumerate_internal_cuts_triangle():
    inst = mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1)])
    li = LiveInstance.from_instance(inst)
    cuts = enumerate_internal_cuts(li, [0, 1, 2])
    # Every proper nonempty side is internal when all stars are chosen.
    assert {c.side for c in cuts} == {
        frozenset(s) for s in ([1], [2], [3], [1, 2], [1, 3], [2, 3])
    }
    sub = enumerate_internal_cuts(li, [0, 1])
    # Dropping star 2 disqualifies every side except those it alone enters.
    assert {c.side for c in sub} == {frozenset((1,)), frozenset((1, 3))}


def test_certify_by_bound_accepts_tight_witness():
    gi = gen_dpa_tight(2)
    witness = gi.opt_witness
    assert certify_exact_by_bound(gi.instance, witness)


def test_certify_by_bound_rejects_slack_witness():
    inst = mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1), (2, 1)])
    # All four stars are feasible but cost 4 > n, so the bound cannot match.
    assert not certify_exact_by_bound(inst, frozenset((0, 1, 2, 3)))
    # The minimal cycle cover has cost n and is certified by the vertex bound.
    assert certify_exact_by_bound(inst, frozenset((0, 1, 2)))


def test_certify_by_bound_uses_certificate():
    # Cost-4 solution on a 3-vertex instance: the vertex bound (3) is not
    # enough, but two star-disjoint cuts raise nothing — need objective 4.
    inst = SSCInstance(3, [S(0, 1, 2), S(1, 1, 3), S(2, 2, 1), S(3, 3, 1)])
    witness = frozenset((0, 1, 2, 3))
    assert not certify_exact_by_bound(inst, witness)
    cert = DualCertificate(SSC, (Cut(frozenset((2,))), Cut(frozenset((3,)))))
    # Two cuts give bound 2; still short of 4.
    assert not certify_exact_by_bound(inst, witness, cert)


def test_certify_by_bound_raises_on_bad_inputs():
    inst = mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        certify_exact_by_bound(inst, frozenset((0,)))
    witness = frozenset((0, 1, 2))
    # The star leaving vertex 2 crosses both sides: not star-disjoint.
    bad_cert = DualCertificate(SSC, (Cut(frozenset((2,))), Cut(frozenset((1, 2)))))
    with pytest.raises(ValueError):
        certify_exact_by_bound(inst, witness, bad_cert)


def test_certify_dpa_goes_through_derived_instance():
    inst = DPAInstance(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    assert certify_exact_by_bound(inst, frozenset((1, 2, 3)))
    assert not certify_exact_by_bound(
        DPAInstance(3, [(1, 2, 0), (2, 3, 0), (1, 3, 1)]),
        frozenset((1,)),
    )


def test_exact_results_record_exploration():
    inst = mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1)])
    res = exact_ssc(inst)
    assert res.explored >= 1
    assert res.method == "search"
