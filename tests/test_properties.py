"""Property-based checks of validation, the polar, general position, the
minimal projection, its norming pairs, its certificates, the check of
random certificates and the paper's bounds on the dimension of its
optimal face on random symmetric polytopes.

A ball is the convex hull of a few small-integer points and their
negations in dimension n <= 4.  For general position its extreme points
are read off the double polar, so the space is built from vertices
alone, as a user would supply it; subspaces have small-integer bases of
every dimension 1..n-1.  For validation and the polar the point list is
kept as drawn, with its non-extreme and duplicated points.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from minproj.certificates import (CMFunctional, cm_from_dual, minimal_support_cm,
                                  trace_on_subspace, verify_cm)
from minproj.errors import NotExtremeError, SupportBudgetExceededError
from minproj.geometry import (PolyhedralSpace, Subspace,
                              general_position_check, polar_dual)
from minproj.linalg import dot, rows_rank
from minproj.projections import (face_dimension, max_norming_projection,
                                 norming_pairs, operator_norm,
                                 projection_constant)

from oracles import (first_non_extreme, general_position_exhaustive,
                     is_extreme, minimal_support_by_solve, verify_cm_by_apply)

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.filter_too_much,
                                            HealthCheck.too_slow])


def _vectors(n, count, unique=False):
    return st.lists(st.tuples(*[st.integers(-2, 2)] * n).filter(any),
                    min_size=count, max_size=count, unique=unique)


@st.composite
def spaces_with_subspaces(draw):
    n = draw(st.integers(2, 4))
    points = draw(_vectors(n, draw(st.integers(n, n + 1))))
    assume(rows_rank(points) == n)
    symmetric = sorted(set(points) | {tuple(-x for x in p) for p in points})
    space = PolyhedralSpace.from_vertices(polar_dual(polar_dual(symmetric)))
    k = draw(st.integers(1, n - 1))
    basis = draw(_vectors(n, k))
    assume(rows_rank(basis) == k)
    return space, basis


@st.composite
def symmetric_point_lists(draw):
    """Distinct points, sometimes with one of them drawn again, each
    followed by its negation; a point drawn with its negation leaves
    duplicates too."""
    n = draw(st.integers(2, 4))
    count = draw(st.integers(n, n + 3))
    points = draw(_vectors(n, count, unique=True))
    assume(rows_rank(points) == n)
    if draw(st.integers(0, 3)) == 0:
        points.insert(draw(st.integers(0, count)),
                      draw(st.sampled_from(points)))
    return [q for p in points for q in (p, tuple(-x for x in p))]


def _verdict(report):
    return report.in_general_position, report.witness_kind, report.witness


@_SETTINGS
@given(spaces_with_subspaces())
def test_general_position_agrees_with_exhaustive_oracle(case):
    space, basis = case
    Y = Subspace.from_basis(basis)
    assert (_verdict(general_position_check(space, Y))
            == _verdict(general_position_exhaustive(space, Y)))


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_general_position_invariant_under_change_of_basis(case, data):
    space, basis = case
    k = len(basis)
    mix = data.draw(_vectors(k, k))
    assume(rows_rank(mix) == k)
    mixed = [tuple(sum(c * b[i] for c, b in zip(row, basis))
                   for i in range(space.dim)) for row in mix]
    assert (general_position_check(space, Subspace.from_basis(mixed))
            == general_position_check(space, Subspace.from_basis(basis)))


@_SETTINGS
@given(symmetric_point_lists())
def test_validation_agrees_with_lp_oracle(vertices):
    failing = first_non_extreme(vertices)
    if failing is None:
        PolyhedralSpace.from_vertices(vertices)
    else:
        with pytest.raises(NotExtremeError,
                           match=f"^primal vertex {failing} is a convex"):
            PolyhedralSpace.from_vertices(vertices)


@_SETTINGS
@given(symmetric_point_lists())
def test_double_polar_is_the_extreme_point_set(vertices):
    distinct = list(dict.fromkeys(vertices))
    extreme = {v for v in distinct if is_extreme(distinct, v)}
    assert set(polar_dual(polar_dual(vertices))) == extreme


def _analyze(case):
    space, basis = case
    Y = Subspace.from_basis(basis)
    report = projection_constant(space, Y)
    _, implicit = face_dimension(space, Y, report)
    return space, Y, report, implicit


@_SETTINGS
@given(spaces_with_subspaces())
def test_projection_has_norm_lambda_and_dual_certificate_verifies(case):
    space, Y, report, _ = _analyze(case)
    for point in (report.witness, report.interior):
        assert operator_norm(space, report.basis.realize(point)) == report.lam
    cm = cm_from_dual(report)
    verdict = verify_cm(space, Y, cm, report.lam, report.interior,
                        basis=report.basis)
    assert verdict.ok, verdict.violations
    assert trace_on_subspace(space, Y, cm) == report.lam


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_verify_cm_agrees_with_apply_oracle_on_random_certificates(case, data):
    # Random pairs with weights of either sign, summing to one or not, and
    # lambda the computed one or not: verify_cm reads vanishing and
    # invariance off g(T y), so they fail together, and the whole verdict
    # matches the oracle that applies every operator matrix.  Each space
    # gets three certificates: random pairs; the dual certificate with
    # random pairs added; and random pairs on one vertex x with the last
    # weight fitted so that sum a_i f_i(y) = 0 for the first basis vector
    # y of Y, so T y = 0 and invariance can only fail in a later block.
    space, Y, report, _ = _analyze(case)
    y = Y.basis_vectors()[0]
    for mode in ("random", "dual", "one vertex"):
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, len(space.primal_vertices) - 1),
                      st.integers(0, len(space.dual_vertices) - 1)),
            min_size=0 if mode == "dual" else 1, max_size=6))
        weights = data.draw(st.lists(
            st.fractions(-2, 2, max_denominator=4).filter(bool),
            min_size=len(pairs), max_size=len(pairs)))
        if mode == "dual":
            dual = cm_from_dual(report)
            pairs = list(dual.pairs) + pairs
            weights = list(dual.weights) + weights
        elif mode == "one vertex":
            pairs = [(pairs[0][0], j) for _, j in pairs]
            at_y = [dot(space.dual_vertices[j], y) for _, j in pairs]
            if at_y[-1]:
                weights[-1] = -dot(weights[:-1], at_y[:-1]) / at_y[-1]
        total = sum(weights)
        if total and data.draw(st.booleans()):
            weights = [w / total for w in weights]
        lam = data.draw(st.sampled_from([report.lam])
                        | st.fractions(1, 3, max_denominator=6))
        cm = CMFunctional(pairs=tuple(pairs), weights=tuple(weights))
        for point in (report.witness, report.interior):
            verdict = verify_cm(space, Y, cm, lam, point, basis=report.basis)
            assert verdict == verify_cm_by_apply(space, Y, cm, lam, point,
                                                 basis=report.basis), mode
            failed = {v.split(":")[0] for v in verdict.violations}
            assert "invariance" not in failed or "vanishing" in failed


@_SETTINGS
@given(spaces_with_subspaces())
def test_max_norming_projection_has_n_pairs_over_the_implicit_ones(case):
    space, Y, report, implicit = _analyze(case)
    point, count = max_norming_projection(space, Y, report)
    pairs = norming_pairs(space, Y, point, report.lam, grid=report.grid)
    assert count == len(pairs) >= space.dim
    assert pairs >= implicit


# Candidate sets beyond this size are compared only in that both searches
# refuse them: the oracle solves every subset and grows combinatorially.
_SUPPORT_CAP = 16


@_SETTINGS
@given(spaces_with_subspaces())
def test_minimal_support_agrees_with_solve_oracle(case):
    space, Y, report, implicit = _analyze(case)
    try:
        expected = minimal_support_by_solve(space, Y, implicit,
                                            max_candidates=_SUPPORT_CAP)
    except SupportBudgetExceededError:
        with pytest.raises(SupportBudgetExceededError):
            minimal_support_cm(space, Y, implicit, report.lam,
                               max_candidates=_SUPPORT_CAP,
                               witness=report.interior, basis=report.basis)
        return
    cm, size = minimal_support_cm(space, Y, implicit, report.lam,
                                  max_candidates=_SUPPORT_CAP,
                                  witness=report.interior, basis=report.basis)
    assert (cm.pairs, cm.weights) == expected
    assert size == len(cm.pairs)


@_SETTINGS
@given(spaces_with_subspaces())
def test_face_dimension_within_the_paper_bounds(case):
    # arXiv 2211.14008: the minimal projections form a face of dimension
    # at most k(n-k), two less when lambda > 1, and at most k(n-k) - n + 1
    # in general position, so a hyperplane in general position has a
    # unique minimal projection
    space, Y, report, _ = _analyze(case)
    n, k = space.dim, Y.dim
    top = k * (n - k)
    assert 0 <= report.face_dim <= top
    if report.lam > 1:
        assert report.face_dim <= top - 2
    if general_position_check(space, Y).in_general_position:
        assert report.face_dim <= top - n + 1
        if k == n - 1:
            assert report.face_dim == 0
