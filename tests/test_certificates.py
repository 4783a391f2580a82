from fractions import Fraction

import pytest

from minproj.catalog import l1_ball
from minproj.certificates import (CMFunctional, cm_from_dual, cm_operator,
                                  cm_rank_gap, minimal_support_cm,
                                  trace_on_subspace, verify_cm)
from minproj.errors import (CertificateInvalidError, RankGapViolationError,
                            SupportBudgetExceededError)
from minproj.geometry import Subspace
from minproj.projections import OperatorPoint, projection_constant

F = Fraction


def test_cmfunctional_validation():
    with pytest.raises(ValueError):
        CMFunctional(pairs=(), weights=())
    with pytest.raises(ValueError):
        CMFunctional(pairs=((0, 0),), weights=(F(1, 2), F(1, 2)))


def test_dual_certificate_round_trip(analyzed):
    for name, a in analyzed.items():
        cm = cm_from_dual(a.report)
        assert sum(cm.weights) == 1
        assert all(w > 0 for w in cm.weights)
        verdict = verify_cm(a.case.space, a.case.subspace, cm, a.report.lam,
                            a.report.interior, basis=a.report.basis)
        assert verdict.ok, (name, verdict.violations)
        assert trace_on_subspace(a.case.space, a.case.subspace, cm) == a.report.lam


def test_certificate_pairs_are_implicit(analyzed):
    # a valid certificate can only charge pairs norming for every minimal
    # projection, which are exactly the implicit pairs
    for a in analyzed.values():
        cm = cm_from_dual(a.report)
        assert set(cm.pairs) <= set(a.implicit)


def test_perturbed_weights_break_vanishing(analyzed):
    a = analyzed["ker-sum-linf-n3"]
    cm = cm_from_dual(a.report)
    eps = F(1, 1000)
    raw = [w + (eps if i == 0 else 0) for i, w in enumerate(cm.weights)]
    total = sum(raw)
    bad = CMFunctional(pairs=cm.pairs, weights=tuple(w / total for w in raw))
    verdict = verify_cm(a.case.space, a.case.subspace, bad, a.report.lam,
                        a.report.interior, basis=a.report.basis)
    assert not verdict.ok
    assert any(v.startswith("vanishing:") for v in verdict.violations)


def test_non_minimal_projection_breaks_norming(analyzed):
    a = analyzed["ker-sum-linf-n3"]
    cm = cm_from_dual(a.report)
    shifted = OperatorPoint(tuple(c + 1 for c in a.report.interior.coefficients))
    verdict = verify_cm(a.case.space, a.case.subspace, cm, a.report.lam,
                        shifted, basis=a.report.basis)
    assert not verdict.ok
    assert any(v.startswith("norming:") for v in verdict.violations)


def test_projection_of_the_wrong_length_is_refused(analyzed):
    # the norming values are integer dot products, which would silently
    # drop the missing coefficients
    a = analyzed["ker-sum-linf-n3"]
    cm = cm_from_dual(a.report)
    short = OperatorPoint(a.report.interior.coefficients[:-1])
    with pytest.raises(ValueError, match="coefficient count"):
        verify_cm(a.case.space, a.case.subspace, cm, a.report.lam, short,
                  basis=a.report.basis)


def test_cm_operator_maps_into_subspace(analyzed):
    a = analyzed["mixed-extremal-n5-k3"]
    cm = cm_from_dual(a.report)
    T = cm_operator(a.case.space, cm)
    for y in a.case.subspace.basis_vectors():
        assert a.case.subspace.contains(T.apply(y))


def test_minimal_support_sizes(analyzed):
    expected = {"ker-sum-linf-n3": 3, "ker-sum-linf-n4": 4, "ker-sum-linf-n5": 5,
                "ker-sum-l1-n3": 3, "mixed-extremal-n4-k3": 3,
                "partial-sum-linf-n5-k4": 4, "coordinate-span-l1-n3-k2": 1}
    for name, size in expected.items():
        a = analyzed[name]
        cm, got = minimal_support_cm(a.case.space, a.case.subspace, a.implicit,
                                     a.report.lam, witness=a.report.interior)
        assert got == size, name
        assert len(cm.pairs) == size
        assert trace_on_subspace(a.case.space, a.case.subspace, cm) == a.report.lam


def test_single_pair_certificate_on_l1_coordinate_case():
    # on l1^4 with Y = span{e3, e4}: one cube-corner functional attaining
    # its value at e4 certifies lambda = 1 on its own
    space = l1_ball(4)
    Y = Subspace.from_basis([(0, 0, 1, 0), (0, 0, 0, 1)])
    report = projection_constant(space, Y)
    e4 = space.primal_vertices.index((F(0), F(0), F(0), F(1)))
    f = space.dual_vertices.index((F(1), F(1), F(1), F(1)))
    cm = CMFunctional(pairs=((e4, f),), weights=(F(1),))
    verdict = verify_cm(space, Y, cm, F(1), report.witness, basis=report.basis)
    assert verdict.ok, verdict.violations
    assert trace_on_subspace(space, Y, cm) == 1


def test_support_budget(analyzed):
    a = analyzed["ker-sum-linf-n5"]
    with pytest.raises(SupportBudgetExceededError):
        minimal_support_cm(a.case.space, a.case.subspace, a.implicit,
                           a.report.lam, max_candidates=4,
                           witness=a.report.interior)
    with pytest.raises(CertificateInvalidError):
        minimal_support_cm(a.case.space, a.case.subspace, [],
                           a.report.lam, witness=a.report.interior)


def test_tampered_dual_is_rejected(analyzed):
    a = analyzed["ker-sum-linf-n3"]
    report = projection_constant(a.case.space, a.case.subspace)
    pair = next(iter(report.dual_certificate))
    report.dual_certificate[pair] += F(1, 7)
    with pytest.raises(CertificateInvalidError):
        cm_from_dual(report)


def test_rank_gap(analyzed):
    for name in ("ker-sum-linf-n3", "ker-sum-l1-n4", "partial-sum-linf-n5-k3"):
        a = analyzed[name]
        cm = cm_from_dual(a.report)
        full, restricted = cm_rank_gap(a.case.space, a.case.subspace, cm,
                                       a.report.lam)
        assert restricted < full


def test_rank_gap_lambda_one_reports_only(analyzed):
    a = analyzed["coordinate-span-l1-n3-k2"]
    cm, _ = minimal_support_cm(a.case.space, a.case.subspace, a.implicit,
                               a.report.lam, witness=a.report.interior)
    full, restricted = cm_rank_gap(a.case.space, a.case.subspace, cm, F(1))
    assert (full, restricted) == (1, 1)


def test_rank_gap_violation_raised_for_fake_lambda(analyzed):
    # a single-pair certificate with full restricted rank is fine at
    # lambda = 1 but must trip the check if lambda > 1 is claimed
    a = analyzed["coordinate-span-l1-n3-k2"]
    cm, _ = minimal_support_cm(a.case.space, a.case.subspace, a.implicit,
                               a.report.lam, witness=a.report.interior)
    with pytest.raises(RankGapViolationError):
        cm_rank_gap(a.case.space, a.case.subspace, cm, F(3, 2))
