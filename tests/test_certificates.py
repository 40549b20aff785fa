"""Tests for dual certificates: crossing sets, feasibility, lower bounds."""

import pytest

from dualcut import (
    Multigraph,
    RunCheckError,
    SSCInstance,
    Star,
    TwoECSInstance,
    mscs_to_ssc,
    verify_certificate,
)
from dualcut.certificates import (
    SSC,
    TWOECS,
    Cut,
    DualCertificate,
    crossing_edges,
    crossing_stars,
    lower_bounds,
)
from dualcut.report import TWO_CUTS, IterationRecord, build_report


def test_cut_must_be_nonempty():
    # `[]` in a report constructs, so that the report decodes, and the
    # certificate check rejects it.
    s = mscs_to_ssc(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="nonempty proper subset"):
        crossing_stars(s, Cut(frozenset()))


def test_an_empty_complemented_side_decodes_but_is_no_cut():
    # `[0]` in a report: every vertex. It constructs, so that the report
    # decodes, and the certificate check rejects it.
    cut = Cut(frozenset(), complement=True)
    s = mscs_to_ssc(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="nonempty proper subset"):
        crossing_stars(s, cut)


def test_certificate_kind_checked():
    # An unknown problem tag constructs, and the certificate check
    # rejects it on any instance.
    s = mscs_to_ssc(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="certificate kind 'nope' does not match"):
        verify_certificate(s, DualCertificate("nope", ()))


def test_crossing_stars():
    s = SSCInstance(3, [
        Star(0, 1, frozenset({2, 3})),
        Star(1, 2, frozenset({3})),
        Star(2, 3, frozenset({1})),
    ])
    assert crossing_stars(s, Cut(frozenset({1}))) == frozenset({0})
    assert crossing_stars(s, Cut(frozenset({1, 2}))) == frozenset({0, 1})
    # a star whose sinks stay inside does not cross
    assert crossing_stars(s, Cut(frozenset({2, 3}))) == frozenset({2})
    with pytest.raises(ValueError):
        crossing_stars(s, Cut(frozenset({1, 2, 3})))  # not proper
    # Only int vertex ids in 1..n: a float or bool would pass a range check
    # yet name no vertex, so no star would cross it.
    for alien in (9, 1.5, True):
        with pytest.raises(ValueError):
            crossing_stars(s, Cut(frozenset({alien})))


def test_crossing_edges():
    t = TwoECSInstance(Multigraph(3, [(1, 2), (2, 3), (3, 1), (1, 2)]))
    assert crossing_edges(t, Cut(frozenset({1}))) == frozenset({0, 2, 3})
    assert crossing_edges(t, Cut(frozenset({1, 2}))) == frozenset({1, 2})


def test_verify_certificate_feasible_star_family():
    s = mscs_to_ssc(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    cert = DualCertificate(SSC, (Cut(frozenset({1})), Cut(frozenset({3}))))
    feasible, objective, violations = verify_certificate(s, cert)
    assert feasible and objective == 2 and violations == []


def test_verify_certificate_reports_shared_crossers():
    s = mscs_to_ssc(3, [(1, 2), (2, 3), (3, 1)])
    # Star 0 (arc 1->2) crosses both {1} and {1,3}.
    cert = DualCertificate(SSC, (Cut(frozenset({1})), Cut(frozenset({1, 3}))))
    feasible, objective, violations = verify_certificate(s, cert)
    assert not feasible
    assert objective == 2
    assert violations == [(0, (0, 1))]


def test_verify_certificate_edge_objective_doubles():
    t = TwoECSInstance(Multigraph(3, [(1, 2), (2, 3), (3, 1), (1, 3)]))
    cert = DualCertificate(TWOECS, (Cut(frozenset({2})),))
    feasible, objective, _ = verify_certificate(t, cert)
    assert feasible and objective == 2


def test_verify_certificate_kind_mismatch():
    s = mscs_to_ssc(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        verify_certificate(s, DualCertificate(TWOECS, ()))
    with pytest.raises(TypeError):
        verify_certificate(42, DualCertificate(SSC, ()))


def test_lower_bounds_combines_objective_and_vertex_count():
    assert lower_bounds(4, 2) == (4, 4)
    assert lower_bounds(1, 0) == (0, 0)
    s = mscs_to_ssc(4, [(1, 2), (2, 3), (3, 4), (4, 1)])

    def bounds(*sides):
        cuts = tuple(Cut(frozenset(side)) for side in sides)
        return build_report(
            problem="ssc",
            instance=s,
            iterations=(IterationRecord(0, TWO_CUTS, (0, 1, 2, 3), cuts),),
            advisor_fallbacks=0,
        ).bounds

    b = bounds({1}, {3})
    assert (b.dual_objective, b.n_bound, b.best) == (2, 4, 4)
    with pytest.raises(RunCheckError, match="certificate infeasible"):
        bounds({1}, {1, 3})
