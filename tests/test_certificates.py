import dataclasses
from fractions import Fraction

import pytest

import minproj.certificates as certificates
import minproj.projections as projections
from minproj.catalog import l1_ball, linf_ball, random_subspace
from minproj.certificates import (CMFunctional, _projection_normed_by, certify_cm,
                                  cm_from_dual, cm_rank_gap, minimal_support_cm,
                                  verify_cm)
from minproj.errors import BudgetExceededError, InputFormatError, InternalError
from minproj.geometry import PolyhedralSpace, Subspace, general_position_check
from minproj.linalg import integer_row_rank, subset_walk
from minproj.projections import (OperatorPoint, face_dimension, pair_rows,
                                 projection_constant)

from oracles import certify_by_cold_lp, cm_operator, trace_on_subspace, work_edge

F = Fraction


def test_cmfunctional_validation():
    with pytest.raises(InputFormatError, match="^empty certificate$"):
        CMFunctional(pairs=(), weights=())
    with pytest.raises(InputFormatError, match="^pairs and weights must have equal length$"):
        CMFunctional(pairs=((0, 0),), weights=(F(1, 2), F(1, 2)))


def test_dual_cm_round_trip(analyzed):
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
    assert "vanishing" in verdict.failed


def test_non_minimal_projection_breaks_norming(analyzed):
    a = analyzed["ker-sum-linf-n3"]
    cm = cm_from_dual(a.report)
    shifted = OperatorPoint(tuple(c + 1 for c in a.report.interior.coefficients))
    verdict = verify_cm(a.case.space, a.case.subspace, cm, a.report.lam,
                        shifted, basis=a.report.basis)
    assert not verdict.ok
    assert "norming" in verdict.failed


def test_projection_of_the_wrong_length_is_refused(analyzed):
    # the norming values are integer dot products, which would silently
    # drop the missing coefficients
    a = analyzed["ker-sum-linf-n3"]
    cm = cm_from_dual(a.report)
    short = OperatorPoint(a.report.interior.coefficients[:-1])
    with pytest.raises(ValueError, match="coefficient count"):
        verify_cm(a.case.space, a.case.subspace, cm, a.report.lam, short,
                  basis=a.report.basis)


def test_operator_basis_of_another_subspace_is_refused(analyzed):
    # the trace is read through the basis's functionals of P0, so a basis
    # built for a second subspace of the same dimension would give a
    # verdict about neither; an equal copy of Y is the same subspace
    a = analyzed["ker-sum-linf-n3"]
    space, Y = a.case.space, a.case.subspace
    cm = cm_from_dual(a.report)
    other = projections.build_operator_basis(space, random_subspace(space.dim, Y.dim, 1))
    assert other.dimension == a.report.basis.dimension
    with pytest.raises(ValueError, match="another subspace"):
        verify_cm(space, Y, cm, a.report.lam, a.report.interior, basis=other)
    copy = Subspace(basis_num=Y.basis_num, basis_den=Y.basis_den)
    assert copy is not Y
    assert verify_cm(space, copy, cm, a.report.lam, a.report.interior,
                     basis=a.report.basis).ok


def test_certificate_checks_refuse_a_subspace_of_another_dimension():
    # the l-inf^3 plane's own certificate, claimed for a 2-plane of R^4:
    # certify and the rank gap would read its functionals against three
    # of the four coordinates
    space = linf_ball(3)
    report = projection_constant(space, Subspace.from_basis([(1, 0, 1), (0, 1, 1)]))
    cm = cm_from_dual(report)
    Y = Subspace.from_basis([(1, 0, 1, 0), (0, 1, 1, 1)])
    message = "^a subspace of R\\^4 in a space of dimension 3$"
    with pytest.raises(ValueError, match=message):
        certify_cm(space, Y, cm, report.lam)
    with pytest.raises(ValueError, match=message):
        cm_rank_gap(space, Y, cm)


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
        cm, got = minimal_support_cm(a.report)
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
    # the budget counts walk work: its five implicit pairs are the lambda
    # dual's, returned with no walk, so even a zero budget holds
    assert minimal_support_cm(a.report, budget=0)[1] == 5
    # the candidates are the implicit pairs of a settled face
    with pytest.raises(ValueError, match="not settled"):
        minimal_support_cm(projection_constant(a.case.space, a.case.subspace))


def _seeded_linf5_plane():
    """The seeded l-inf^5 2-plane and its report with the face settled,
    as analyze builds them."""
    space = PolyhedralSpace.from_vertices(linf_ball(5).primal_vertices)
    Y = random_subspace(5, 2, 7)
    report = projection_constant(space, Y)
    face_dimension(report)
    return space, Y, report


def test_support_budget_edge_on_the_linf5_plane():
    # The seeded l-inf^5 2-plane, called without a general-position
    # verdict: the search starts at size 1, over 32 candidate pairs in
    # d + 1 = 7 coordinates.  Its walks carry and group 1203 rows, and
    # they yield two subsets of size 4, each charged (d + 1)(size + 1) =
    # 35 steps: 1273 in all.  With that budget it finds its support of
    # size 4; one step less stops it at the charge of its second subset.
    _, _, report = _seeded_linf5_plane()
    assert (report.lam, len(report.implicit_rows)) == (1, 32)
    cm, size = minimal_support_cm(report, budget=1203 + 2 * 35)
    assert size == 4
    assert (cm, size) == minimal_support_cm(report)
    with pytest.raises(BudgetExceededError,
                       match="^support search exceeded its work budget of 1272 row steps$"):
        minimal_support_cm(report, budget=1272)


def test_support_of_the_linf5_plane_from_the_general_position_bound(monkeypatch):
    # The same 2-plane is in general position with lambda = 1, so no
    # certificate has fewer than n - k + 1 = 4 pairs, and the search with
    # the verdict walks size 4 only.  That walk carries and groups 149
    # rows and yields the same two subsets, each charged 35 steps: 219 in
    # all, against 1273 from size 1.  One step less stops it at the
    # charge of its second subset.
    space, Y, report = _seeded_linf5_plane()
    assert general_position_check(space, Y).in_general_position
    from_one = minimal_support_cm(report)
    sizes = []

    def walk(columns, size, width, work):
        sizes.append(size)
        return subset_walk(columns, size, width, work)

    monkeypatch.setattr(certificates, "subset_walk", walk)
    assert minimal_support_cm(report, in_general_position=True,
                              budget=149 + 2 * 35) == from_one
    assert sizes == [4]
    with pytest.raises(BudgetExceededError,
                       match="^support search exceeded its work budget of 218 row steps$"):
        minimal_support_cm(report, in_general_position=True, budget=218)


def test_support_of_a_unique_dual_is_verified_once(analyzed, spy):
    # When the implicit rows are the dual's and the face is the witness,
    # the search returns cm_from_dual's certificate, verified there once
    report = analyzed["ker-sum-l1-n3"].report
    assert report.implicit_rows == report.dual_rows
    assert report.interior == report.witness
    calls = spy(certificates, "verify_cm")
    cm, size = minimal_support_cm(report)
    assert calls["verify_cm"] == 1
    assert (cm, size) == (cm_from_dual(report), len(report.dual_rows))


def test_tampered_dual_is_rejected(analyzed):
    a = analyzed["ker-sum-linf-n3"]
    report = projection_constant(a.case.space, a.case.subspace)
    weights = (report.dual_weights[0] + F(1, 7),) + report.dual_weights[1:]
    with pytest.raises(InternalError):
        cm_from_dual(dataclasses.replace(report, dual_weights=weights))


def test_rank_gap(analyzed):
    for name in ("ker-sum-linf-n3", "ker-sum-l1-n4", "partial-sum-linf-n5-k3"):
        a = analyzed[name]
        cm = cm_from_dual(a.report)
        full, restricted = cm_rank_gap(a.case.space, a.case.subspace, cm,
                                       a.report.lam)
        assert restricted < full


def test_rank_gap_lambda_one_reports_only(analyzed):
    a = analyzed["coordinate-span-l1-n3-k2"]
    cm, _ = minimal_support_cm(a.report)
    full, restricted = cm_rank_gap(a.case.space, a.case.subspace, cm, F(1))
    assert (full, restricted) == (1, 1)


def test_rank_gap_violation_raised_for_fake_lambda(analyzed):
    # a single-pair certificate with full restricted rank is fine at
    # lambda = 1 but must trip the check if lambda > 1 is claimed
    a = analyzed["coordinate-span-l1-n3-k2"]
    cm, _ = minimal_support_cm(a.report)
    with pytest.raises(InternalError):
        cm_rank_gap(a.case.space, a.case.subspace, cm, F(3, 2))


@pytest.mark.parametrize("ball, k, tamper, solves, faces", [
    # the pairs of an l1 hyperplane's dual certificate determine the
    # minimal projection: one exact solve, no LP
    (l1_ball, 3, False, 0, 0),
    # an l-inf 2-plane's three pairs do not (rank 2 of 4): the lambda LP
    (linf_ball, 2, False, 1, 0),
    # an invalid certificate goes through the optimal face
    (l1_ball, 3, True, None, 1),
])
def test_certify_work_per_route(spy, ball, k, tamper, solves, faces):
    # the pair grid is built for the lambda LP alone: once on every route
    # that solves it, never on the no-LP route
    space, Y = ball(4), random_subspace(4, k, 7)
    report = projection_constant(space, Y)
    cm = cm_from_dual(report)
    if tamper:
        cm = CMFunctional(cm.pairs, (F(1, 1000),) + cm.weights[1:])
    spy(projections, "solve")
    spy(certificates, "face_dimension")
    counts = spy(certificates, "build_pair_grid")
    computed, verdict = certify_cm(space, Y, cm, report.lam)
    assert computed == report.lam
    assert verdict.ok != tamper
    assert counts["face_dimension"] == faces
    assert counts["build_pair_grid"] == (0 if solves == 0 else 1)
    if solves is not None:
        assert counts["solve"] == solves


def test_certify_rejects_the_no_lp_point_below_lambda(monkeypatch, spy):
    # Three pairs (x, f) of the seeded l1^4 hyperplane's dual certificate
    # have pair rows of full rank k(n-k) = 3.  With their antipodes
    # (x, -f), all six at weight 1/6, T = 0: a certificate that passes
    # every check but norming at lambda_c = 0, so its pairs' rows are
    # solved for the one projection that gives them all the value 0.  Its
    # norm is at least lambda > 0, since no projection has norm below
    # lambda: the point is rejected, and certify starts the lambda LP at
    # the certificate's rows, builds one grid and reports the true
    # lambda, above lambda_c, as the one norming violation, with no
    # optimal face.  The point is realized as an integer matrix M over a
    # denominator den, and ||P|| = ||M|| / den; nothing else is realized
    space, Y = l1_ball(4), random_subspace(4, 3, 7)
    report = projection_constant(space, Y)
    pairs = cm_from_dual(report).pairs[:3]
    cm = CMFunctional(pairs + tuple((i, space.dual_negation[j]) for i, j in pairs),
                      (F(1, 6),) * 6)
    basis = report.basis
    assert integer_row_rank(pair_rows(space, basis, cm.pairs)[0]) == basis.dimension
    norms, dens = [], []
    original = certificates.operator_norm
    original_realize = projections.OperatorBasis.realize_cleared

    def norm(space, matrix):
        norms.append(original(space, matrix))
        return norms[-1]

    def realize(basis, point):
        M, den = original_realize(basis, point)
        dens.append(den)
        return M, den

    monkeypatch.setattr(certificates, "operator_norm", norm)
    monkeypatch.setattr(projections.OperatorBasis, "realize_cleared", realize)
    spy(certificates, "build_pair_grid")
    counts = spy(certificates, "face_dimension")
    computed, verdict = certify_cm(space, Y, cm, F(0))
    assert len(norms) == 1 and len(dens) == 1 and norms[0] / dens[0] >= report.lam
    assert counts == {"build_pair_grid": 1}
    assert computed == report.lam
    assert verdict.failed == {"norming"}


@pytest.mark.parametrize("ball, n, k", [(l1_ball, 4, 3), (linf_ball, 4, 2),
                                        (linf_ball, 6, 5)])
@pytest.mark.parametrize("t", [F(0), F(1, 2)])
def test_a_bound_below_lambda_solves_one_lambda_lp_and_no_face(spy, ball, n, k, t):
    # t·(dual certificate) + (1 - t)·T0, T0 = 0 over the pairs (x_0, g)
    # and (x_0, -g) of a functional g paired with x_0 in neither sign,
    # passes every check that T decides alone at lambda_c = t·lambda <
    # lambda.  certify solves the lambda LP once, started at its rows,
    # settles no optimal face, and fails norming alone
    space, Y = ball(n), random_subspace(n, k, 7)
    report = projection_constant(space, Y)
    dual, negd = cm_from_dual(report), space.dual_negation
    g = next(j for j in range(len(negd))
             if not {(0, j), (0, negd[j])} & set(dual.pairs))
    weights = {(0, g): (1 - t) / 2, (0, negd[g]): (1 - t) / 2}
    weights.update((pair, t * a) for pair, a in zip(dual.pairs, dual.weights) if t)
    cm = CMFunctional(*zip(*sorted(weights.items())))
    lam = t * report.lam
    spy(certificates, "face_dimension")
    counts = spy(projections, "solve")
    computed, verdict = certify_cm(space, Y, cm, lam)
    assert counts == {"solve": 1}
    assert computed == report.lam
    assert verdict.violations == (
        f"norming: the pairs average {lam} at every projection onto Y, "
        f"below lambda {report.lam}",)


def test_a_certificate_that_fails_without_a_projection_goes_to_the_face(spy):
    # The seeded l1^4 hyperplane's dual certificate has pair rows of full
    # rank, the no-LP route's case.  With one weight set to 0 it fails
    # the weight checks, which no projection can mend: certify solves no
    # projection from its pairs and starts no LP, but solves the lambda
    # LP once, cold, and reads the verdict at the face's interior, as the
    # cold one-LP route does
    space, Y = l1_ball(4), random_subspace(4, 3, 7)
    report = projection_constant(space, Y)
    cm = cm_from_dual(report)
    assert (integer_row_rank(pair_rows(space, report.basis, cm.pairs)[0])
            == report.basis.dimension)
    cm = CMFunctional(cm.pairs, (F(0),) + cm.weights[1:])
    spy(certificates, "_projection_normed_by")
    spy(certificates, "face_dimension")
    counts = spy(projections, "solve")
    computed, verdict = certify_cm(space, Y, cm, report.lam)
    assert counts == {"solve": 1, "face_dimension": 1}
    assert "weights" in verdict.failed
    assert (computed, verdict) == certify_by_cold_lp(space, Y, cm, report.lam)


def test_no_lp_point_is_refused_by_its_norm():
    # The three pairs of the seeded l1^4 hyperplane have rows of full rank
    # k(n-k) = 3, so at every lambda_c one projection gives them all the
    # value lambda_c.  At lambda it is the minimal projection, returned
    # with the integer matrix its norm was read off; below lambda its
    # norm exceeds lambda_c and it is refused.  The l-inf 2-plane's three
    # pairs have rank 2 of 4, and no point is solved
    space, Y = l1_ball(4), random_subspace(4, 3, 7)
    report = projection_constant(space, Y)
    rows = pair_rows(space, report.basis, cm_from_dual(report).pairs[:3])
    assert (_projection_normed_by(rows, space, report.basis, report.lam)
            == (report.witness, report.basis.realize_cleared(report.witness)))
    assert _projection_normed_by(rows, space, report.basis, report.lam - F(1, 10)) is None
    space, Y = linf_ball(4), random_subspace(4, 2, 7)
    report = projection_constant(space, Y)
    rows = pair_rows(space, report.basis, cm_from_dual(report).pairs)
    assert _projection_normed_by(rows, space, report.basis, report.lam) is None


def test_certify_refuses_an_lp_value_below_the_certified_bound(monkeypatch):
    # a certificate that passes every check but norming proves
    # lambda >= its trace; an LP value below that is an internal failure
    space, Y = linf_ball(4), random_subspace(4, 2, 7)
    report = projection_constant(space, Y)
    cm = cm_from_dual(report)
    lowered = dataclasses.replace(report, lam=report.lam - F(1, 2))

    def face(report):
        report.interior = report.witness

    monkeypatch.setattr(certificates, "_solve_lambda",
                        lambda space, Y, basis, grid, start=(): lowered)
    monkeypatch.setattr(certificates, "face_dimension", face)
    with pytest.raises(InternalError, match="proves lambda >="):
        certify_cm(space, Y, cm, report.lam)


@pytest.mark.parametrize("ball, k", [(l1_ball, 3), (linf_ball, 2)])
def test_certify_refuses_a_valid_certificate_that_fails_norming(monkeypatch, ball, k):
    # once lambda equals the trace of a certificate that passes every
    # check T decides alone, every pair norms every minimal projection:
    # a pair that fails at the point certify found, with no LP (l1) or by
    # the LP (l-inf), is an internal failure, not a verdict
    space, Y = ball(4), random_subspace(4, k, 7)
    report = projection_constant(space, Y)
    cm = cm_from_dual(report)
    monkeypatch.setattr(certificates, "_norming",
                        lambda *args: ("norming: pair (0, 0) gives 0, expected 1",))
    with pytest.raises(InternalError, match="fails at a minimal projection"):
        certify_cm(space, Y, cm, report.lam)


def test_uncapped_support_of_the_linf6_plane():
    # The 2-plane of l-inf^6 at generator seed 7 has 64 candidate pairs.
    # Within the default work budget, the first support in (size,
    # lexicographic) order has 5 pairs, as the walk through every leaf
    # (oracles.subset_walk_by_leaves) finds it.
    space, Y = linf_ball(6), random_subspace(6, 2, 7)
    report = projection_constant(space, Y)
    _, implicit = face_dimension(report)
    assert len(set(implicit)) == 64
    cm, size = minimal_support_cm(report)
    assert size == 5
    assert cm.pairs == ((0, 0), (1, 0), (2, 0), (4, 0), (27, 0))
    assert cm.weights == (F(2467, 36729), F(3917, 20988), F(513, 1484),
                          F(303, 2332), F(631, 2332))


def test_support_of_the_linf6_plane_from_the_general_position_bound():
    # The same 2-plane is in general position with lambda = 1, so the
    # search with the verdict starts at n - k + 1 = 5, the size of its
    # support, and finds the same certificate in 4204 carried and grouped
    # rows and 20 yielded subsets, each charged (d + 1)(size + 1) = 54
    # steps: 5284 row steps, against 94659 from size 1.
    space, Y = linf_ball(6), random_subspace(6, 2, 7)
    report = projection_constant(space, Y)
    face_dimension(report)
    assert general_position_check(space, Y).in_general_position
    assert work_edge(certificates, minimal_support_cm, report) == 94659
    assert work_edge(certificates, minimal_support_cm, report, True) == 4204 + 20 * 54
    assert minimal_support_cm(report, in_general_position=True) == (
        CMFunctional(pairs=((0, 0), (1, 0), (2, 0), (4, 0), (27, 0)),
                     weights=(F(2467, 36729), F(3917, 20988), F(513, 1484),
                              F(303, 2332), F(631, 2332))), 5)


def test_support_search_of_the_l16_hyperplane(monkeypatch):
    # The hyperplane of l1^6 at generator seed 7, over the polar that
    # analyze computes from the cross-polytope's vertices, is in general
    # position with lambda > 1, so the search walks size n = 6 only.  Its
    # walk yields 260 spanning subsets, the last the first with positive
    # weights, and the search charges 11,156 row steps in all
    space = PolyhedralSpace.from_vertices(l1_ball(6).primal_vertices)
    Y = random_subspace(6, 5, 7)
    report = projection_constant(space, Y)
    face_dimension(report)
    assert report.lam > 1
    assert general_position_check(space, Y).in_general_position
    yielded = []

    def walk(columns, size, width, work):
        for subset in subset_walk(columns, size, width, work):
            yielded.append(subset)
            yield subset

    monkeypatch.setattr(certificates, "subset_walk", walk)
    cm, size = minimal_support_cm(report, in_general_position=True)
    assert size == 6
    assert cm.pairs == ((2, 21), (2, 23), (2, 29), (6, 20), (6, 52), (10, 27))
    assert len(yielded) == 260
    monkeypatch.undo()
    assert work_edge(certificates, minimal_support_cm, report, True) == 11156


@pytest.mark.parametrize("heads", [[(1, 0), (0, 1)], [(0,), (0,), (0,)], [(1,), (1,)]])
def test_support_weights_refuse_a_kernel_that_is_no_line_of_nonzero_sum(heads):
    # independent heads (no kernel), a kernel plane, and a kernel line
    # summing to zero: the columns [h_p; 1] miss [0; 1] or are dependent,
    # which no subset the walk yields can be
    with pytest.raises(InternalError, match="misses the target"):
        certificates._support_weights(heads)


def test_support_of_the_l15_hyperplane_from_the_bound():
    # The hyperplane of l1^5 at generator seed 7 has lambda > 1 and is in
    # general position, so the search starts at n = 5, where the search
    # from size 1 finds its first support too.
    space, Y = l1_ball(5), random_subspace(5, 4, 7)
    report = projection_constant(space, Y)
    face_dimension(report)
    assert report.lam > 1
    assert general_position_check(space, Y).in_general_position
    from_one = minimal_support_cm(report)
    assert from_one[1] == 5
    assert minimal_support_cm(report, in_general_position=True) == from_one
