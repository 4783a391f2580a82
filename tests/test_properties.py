"""Property-based checks of validation, the polar, general position, the
minimal projection, its norming pairs, its certificates, the check of
random certificates, the certify routes, its optimal face against Gordan
rounds from no implicit row and, for n <= 3, against the hull of its
enumerated vertices, and the paper's bounds on the dimension of
that face and on the support of a certificate in general position on
random symmetric polytopes.  General position is also compared with the
subset walk through every leaf that it replaced.  The polar
is also compared with the Fraction polar it replaced, which takes a rank
per edge test, and the tight masks of its double description with the
tight sets recomputed by dot products.  Extremality read off the masks
alone is compared with the rank of the tight polar vertices and the LP
test, and the integer operator norm with the Fraction one it replaced,
also on the catalog spaces and mixed balls.  The projection constant of
random hyperplanes of l-inf^n is compared with Blatter and Cheney's
closed form.

A ball is the convex hull of a few small-integer points and their
negations in dimension n <= 4.  For general position its extreme points
are read off the double polar, so the space is built from vertices
alone, as a user would supply it; subspaces have small-integer bases,
mostly hyperplanes in n = 3, 4 and 2-planes.  The operator basis is also
compared with the Fraction basis it replaced, and the realized
projection matrix with the Fraction sum it replaced.  For validation and the polar the point list is
kept as drawn, with its non-extreme and duplicated points; the polar
also gets lists in dimension 5 made mostly of cube vertices, where a
wrong edge test shows.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from minproj.catalog import linf_ball, mixed_ball, paper_cases, random_subspace
from minproj.certificates import (CMFunctional, certify_cm, cm_from_dual,
                                  cm_rank_gap, minimal_support_cm, verify_cm)
from minproj.errors import (BudgetExceededError, NotExtremeError,
                            NotFullDimensionalError, NotSymmetricError)
from minproj.geometry import (PolyhedralSpace, Subspace, _double_description,
                              _first_non_vertex, _vertices_of,
                              general_position_check, polar_dual)
from minproj.linalg import RMatrix, cleared, dot, integer_row_rank
from minproj.projections import (OperatorPoint, build_operator_basis,
                                 face_dimension, max_norming_projection,
                                 norming_pairs, operator_norm,
                                 projection_constant)

from oracles import (budget_outcome, certify_by_face, face_dimension_by_rounds,
                     face_dimension_by_vertices, first_non_extreme,
                     first_non_vertex_by_rank,
                     general_position_by_leaf_walk,
                     general_position_exhaustive, general_position_per_subset,
                     is_extreme, linf_hyperplane_lambda,
                     minimal_support_by_solve, nullspace_by_fractions,
                     operator_basis_by_fractions, operator_norm_by_fractions,
                     polar_dual_by_fractions, realize_by_fractions,
                     trace_on_subspace, verify_cm_by_apply)

# No shrink phase: each shrink step re-solves lambda and the face, so a
# failure took minutes to report.  derandomize=True still reproduces the
# failing example as it was first drawn.
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     phases=[Phase.explicit, Phase.reuse, Phase.generate,
                             Phase.target],
                     suppress_health_check=[HealthCheck.filter_too_much,
                                            HealthCheck.too_slow])


def _vectors(n, count, unique=False):
    return st.lists(st.tuples(*[st.integers(-2, 2)] * n).filter(any),
                    min_size=count, max_size=count, unique=unique)


@st.composite
def spaces_with_subspaces(draw):
    """A ball from n to n + 2 small-integer points and their negations,
    and a subspace with a small-integer basis.  n is 3 or 4 in about four
    draws of five, else 2; k is drawn from n - 1, ..., 1, so it is 3, 2
    or 1 for n = 4, 2 or 1 for n = 3 and 1 for n = 2.  Lines are always
    1-complemented (lambda = 1), but a line in n = 3 has k(n-k) = 2, as
    a plane there has.  A failure shrinks toward a hyperplane in n = 3."""
    n = draw(st.sampled_from((3, 4))) if draw(st.integers(0, 4)) else 2
    points = draw(_vectors(n, draw(st.integers(n, n + 2))))
    assume(integer_row_rank(points) == n)
    symmetric = sorted(set(points) | {tuple(-x for x in p) for p in points})
    space = PolyhedralSpace.from_vertices(polar_dual(polar_dual(symmetric)))
    k = draw(st.sampled_from(range(n - 1, 0, -1)))
    basis = draw(_vectors(n, k))
    assume(integer_row_rank(basis) == k)
    return space, basis


@st.composite
def symmetric_point_lists(draw):
    """Distinct points, sometimes with one of them drawn again, each
    followed by its negation; a point drawn with its negation leaves
    duplicates too."""
    n = draw(st.integers(2, 4))
    count = draw(st.integers(n, n + 3))
    points = draw(_vectors(n, count, unique=True))
    assume(integer_row_rank(points) == n)
    if draw(st.integers(0, 3)) == 0:
        points.insert(draw(st.integers(0, count)),
                      draw(st.sampled_from(points)))
    return [q for p in points for q in (p, tuple(-x for x in p))]


@st.composite
def cube_like_point_lists(draw):
    """Some vertices of the 5-cube, a few small-integer points besides
    them, each followed by its negation: many points share each facet,
    so sets of n - 1 tight points are often dependent."""
    n = 5
    corners = draw(st.lists(st.tuples(*[st.sampled_from((1, -1))] * n),
                            min_size=n, max_size=8, unique=True))
    points = corners + draw(_vectors(n, draw(st.integers(0, 2))))
    assume(integer_row_rank(points) == n)
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
def test_general_position_agrees_with_per_subset_oracle(case, data):
    """The whole report, counts included, and the budget error at the
    total count, one below it and a drawn cap."""
    space, basis = case
    Y = Subspace.from_basis(basis)
    report = general_position_check(space, Y)
    assert report == general_position_per_subset(space, Y)
    total = report.spans_checked + report.kernels_checked
    for cap in (total, total - 1, data.draw(st.integers(0, total))):
        assert (budget_outcome(general_position_check, space, Y, cap)
                == budget_outcome(general_position_per_subset, space, Y, cap))


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_general_position_agrees_with_leaf_walk_oracle(case, data):
    """The whole report of the walk that decides two levels at once and of
    the walk through every leaf, and their budget errors at the total
    count, one below it and two drawn caps."""
    space, basis = case
    Y = Subspace.from_basis(basis)
    report = general_position_check(space, Y)
    assert report == general_position_by_leaf_walk(space, Y)
    total = report.spans_checked + report.kernels_checked
    for cap in (total, total - 1, *data.draw(st.lists(st.integers(0, total),
                                                      min_size=2, max_size=2))):
        assert (budget_outcome(general_position_check, space, Y, cap)
                == budget_outcome(general_position_by_leaf_walk, space, Y, cap))


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_general_position_invariant_under_change_of_basis(case, data):
    space, basis = case
    k = len(basis)
    mix = data.draw(_vectors(k, k))
    assume(integer_row_rank(mix) == k)
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
@given(symmetric_point_lists() | cube_like_point_lists(), st.data())
def test_extremality_from_masks_agrees_with_rank_and_lp_oracles(vertices, data):
    # The first non-vertex read off the masks alone is the one the rank
    # of the tight polar vertices names and the one the LP oracle names,
    # also with half a listed point and its negation (interior points)
    # or the zero vector inserted, and with the duplicates the lists hold
    n = len(vertices[0])
    points = list(vertices)
    if data.draw(st.booleans()):
        half = tuple(Fraction(x, 2) for x in data.draw(st.sampled_from(vertices)))
        for point in (half, tuple(-x for x in half)):
            points.insert(data.draw(st.integers(0, len(points))), point)
    if data.draw(st.booleans()):
        points.insert(data.draw(st.integers(0, len(points))), (0,) * n)
    dd = _double_description([tuple(Fraction(x) for x in p) for p in points],
                             "vertex", "vertices do not span the ambient space")
    first = _first_non_vertex(dd)
    assert first == first_non_vertex_by_rank(dd, n)
    assert first == first_non_extreme(points)


@_SETTINGS
@given(symmetric_point_lists())
def test_double_polar_is_the_extreme_point_set(vertices):
    distinct = list(dict.fromkeys(vertices))
    extreme = {v for v in distinct if is_extreme(distinct, v)}
    assert set(polar_dual(polar_dual(vertices))) == extreme


@_SETTINGS
@given(st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(-5, 5), min_size=n, max_size=n).filter(any)))
def test_linf_hyperplane_lambda_agrees_with_closed_form(f):
    # Blatter and Cheney's formula for lambda(ker f, l-inf^n), with no LP
    n = len(f)
    report = projection_constant(linf_ball(n), Subspace.from_kernel([f]))
    assert report.lam == linf_hyperplane_lambda(f)


def _polar_outcome(polar, vertices):
    try:
        return polar(vertices)
    except (NotSymmetricError, NotFullDimensionalError, ValueError) as exc:
        return type(exc), str(exc)


def _polar_cases(vertices, data):
    """The list as drawn, its pairs scaled by positive rationals (big
    denominators, other non-extreme points) in any order, with the
    vertices of the cube [-1, 1]^n added (many points tight at once, so
    sets of n - 1 tight points are often dependent), its points scaled
    one by one (mostly not symmetric), and the list flattened into a
    coordinate hyperplane (not full-dimensional), by label."""
    n = len(vertices[0])
    positive = st.fractions(0, 5, max_denominator=7).filter(bool)
    scales = data.draw(st.lists(positive, min_size=len(vertices),
                                max_size=len(vertices)))
    by_pair = [tuple(scales[i - i % 2] * x for x in v)
               for i, v in enumerate(vertices)]
    return {
        "drawn": vertices,
        "pairs scaled": data.draw(st.permutations(by_pair)),
        "with the cube": vertices + list(itertools.product((1, -1), repeat=n)),
        "points scaled": [tuple(c * x for x in v)
                          for c, v in zip(scales, vertices)],
        "flat": [v[:-1] + (0,) for v in vertices],
    }


@_SETTINGS
@given(symmetric_point_lists() | cube_like_point_lists(), st.data())
def test_polar_agrees_with_fraction_oracle(vertices, data):
    # The integer polar returns the Fraction polar's tuple, or raises the
    # same error, on every case of _polar_cases
    for label, case in _polar_cases(vertices, data).items():
        assert (_polar_outcome(polar_dual, case)
                == _polar_outcome(polar_dual_by_fractions, case)), label


def _pairs_and_bits(vertices):
    """The antipodal pairs of a symmetric list in order of first
    occurrence, each representative u cleared to (w, s) with u = w / s,
    and per listed point the bit that stands for it: 2p for u_p, 2p + 1
    for -u_p, None for the zero vector."""
    pairs, bit_of = [], {}
    for v in vertices:
        v = tuple(Fraction(x) for x in v)
        if v not in bit_of and any(v):
            s = math.lcm(*(x.denominator for x in v))
            bit_of[v] = 2 * len(pairs)
            bit_of[tuple(-x for x in v)] = 2 * len(pairs) + 1
            pairs.append(([int(x * s) for x in v], s))
    return pairs, [bit_of.get(tuple(Fraction(x) for x in v)) for v in vertices]


def _tight_mask(X, pairs):
    """Bit 2p (2p + 1) set when w_p·P = s_p·h (-w_p·P = s_p·h) for the
    homogeneous point X = (P, h)."""
    mask = 0
    for p, (w, s) in enumerate(pairs):
        value, bound = sum(a * b for a, b in zip(w, X)), s * X[-1]
        mask |= (value == bound) << (2 * p) | (-value == bound) << (2 * p + 1)
    return mask


@_SETTINGS
@given(symmetric_point_lists() | cube_like_point_lists(), st.data())
def test_double_description_masks_are_the_tight_sets(vertices, data):
    # The whole double description: its points are the Fraction polar's
    # (which takes a rank per edge test), each mask is its point's tight
    # set recomputed by integer dot products, and each listed point has
    # its bit; or it raises the Fraction polar's error.  The masks are
    # what _first_non_vertex reads.
    for label, case in _polar_cases(vertices, data).items():
        expected = _polar_outcome(polar_dual_by_fractions, case)
        verts = [tuple(Fraction(x) for x in v) for v in case]
        try:
            dd = _double_description(verts, "vertex",
                                     "vertices do not span the ambient space")
        except (NotSymmetricError, NotFullDimensionalError) as exc:
            assert (type(exc), str(exc)) == expected, label
            continue
        assert _vertices_of(dd) == expected, label
        pairs, bits = _pairs_and_bits(case)
        assert dd.bits == bits, label
        assert dd.tights == [_tight_mask(X, pairs) for X in dd.points], label


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_operator_basis_agrees_with_fraction_oracle(case, data):
    # The integer basis equals the Fraction one it replaced: P0, every
    # operator, Y's basis and the annihilator, on the drawn basis of Y and
    # on its vectors scaled by positive rationals (so Y's basis clears
    # over a denominator above 1)
    space, basis = case
    scales = data.draw(st.lists(st.fractions(0, 5, max_denominator=7).filter(bool),
                                min_size=len(basis), max_size=len(basis)))
    for vectors in (basis, [tuple(c * x for x in v) for c, v in zip(scales, basis)]):
        Y = Subspace.from_basis(vectors)
        ours = build_operator_basis(space, Y)
        expected = operator_basis_by_fractions(space, Y)
        assert ours.base_projection == expected.base_projection
        assert ours.basis_ops == expected.basis_ops
        assert ([list(y) for y in ours.y_num], ours.y_den) == cleared(expected.y_basis)
        assert ([list(g) for g in ours.g_num], ours.g_den) == cleared(expected.annihilator)


def _assert_subspace_families(vectors):
    """The families of Subspace against the Fraction nullspace: the
    annihilator of from_basis, and the basis of from_kernel (the
    subspace_basis that reports print), each also over its least common
    denominator."""
    rows = RMatrix.from_rows(vectors)
    Y = Subspace.from_basis(vectors)
    assert Y.annihilator_functionals() == nullspace_by_fractions(rows)
    assert ([list(g) for g in Y.annihilator_num], Y.annihilator_den) == cleared(
        nullspace_by_fractions(rows))
    Z = Subspace.from_kernel(vectors)
    assert Z.basis_vectors() == nullspace_by_fractions(rows)
    assert ([list(y) for y in Z.basis_num], Z.basis_den) == cleared(
        nullspace_by_fractions(rows))


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_subspace_families_agree_with_fraction_nullspace(case, data):
    # on the drawn basis and on its vectors scaled by rationals of both
    # signs, so the rows clear over denominators above 1
    _, basis = case
    scales = data.draw(st.lists(st.fractions(-5, 5, max_denominator=7).filter(bool),
                                min_size=len(basis), max_size=len(basis)))
    for vectors in (basis, [tuple(c * x for x in v) for c, v in zip(scales, basis)]):
        _assert_subspace_families(vectors)


def test_subspace_families_on_seeded_inputs():
    # the subspaces of the eight seeded n = 4, 5 inputs of the pipeline
    # benchmark (one per n and k; the ball does not enter)
    for n in (4, 5):
        for k in (n - 1, 2):
            _assert_subspace_families(random_subspace(n, k, 7).basis_vectors())


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_realize_agrees_with_fraction_oracle(case, data):
    # The integer sum P0 + sum c_q L_q equals the Fraction one it
    # replaced, at coefficients of both signs, zeros among them
    space, basis = case
    ops = build_operator_basis(space, Subspace.from_basis(basis))
    coefficients = data.draw(st.lists(
        st.fractions(-5, 5, max_denominator=9),
        min_size=ops.dimension, max_size=ops.dimension))
    point = OperatorPoint(tuple(coefficients))
    assert ops.realize(point) == realize_by_fractions(ops, point)


_NORM_SPACES = tuple(c.space for c in paper_cases()) + (
    mixed_ball(5, 4), mixed_ball(6, 3), mixed_ball(6, 5))


def _polytope_or_its_polar(case):
    space = case[0]
    return st.sampled_from((space, PolyhedralSpace.from_vertices(space.dual_vertices)))


@_SETTINGS
@given(st.sampled_from(_NORM_SPACES)
       | spaces_with_subspaces().flatmap(_polytope_or_its_polar), st.data())
def test_operator_norm_agrees_with_fraction_oracle(space, data):
    # The integer norm over the cleared vertex lists equals the largest
    # Fraction norm of a vertex's image, on random rational matrices over
    # the catalog spaces, mixed balls, random polytopes and their polars
    # (whose dual or primal vertices clear over denominators above 1)
    n = space.dim
    entries = data.draw(st.lists(st.fractions(-5, 5, max_denominator=9),
                                 min_size=n * n, max_size=n * n))
    matrix = RMatrix(n, n, tuple(entries))
    assert operator_norm(space, matrix) == operator_norm_by_fractions(space, matrix)


def _analyze(case):
    space, basis = case
    Y = Subspace.from_basis(basis)
    report = projection_constant(space, Y)
    _, implicit = face_dimension(report)
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
@given(spaces_with_subspaces(), st.data())
def test_certify_agrees_with_face_oracle(case, data):
    # certify_cm skips the LP, or the optimal face, when the certificate
    # proves its own lambda; whatever it skips, lambda and the violations
    # are those of verify_cm at the relative interior of the optimal face.
    # Five certificates per space: the dual certificate; random distinct
    # pairs with positive weights summing to one, at the computed lambda
    # or another; the dual certificate with another lambda; the dual
    # certificate with one weight changed, renormalized or not; and random
    # pairs, each with the negated functional beside it, at equal weights:
    # T = 0 passes every check but norming at lambda 0, and its pairs'
    # rows often determine a projection, which has norm above 0
    space, basis = case
    Y = Subspace.from_basis(basis)
    report = projection_constant(space, Y)
    dual = cm_from_dual(report)
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, len(space.primal_vertices) - 1),
                  st.integers(0, len(space.dual_vertices) - 1)),
        min_size=1, max_size=6, unique=True))
    raw = data.draw(st.lists(st.integers(1, 5), min_size=len(pairs),
                             max_size=len(pairs)))
    other = st.fractions(1, 3, max_denominator=6).filter(
        lambda lam: lam != report.lam)
    changed = list(dual.weights)
    changed[data.draw(st.integers(0, len(changed) - 1))] += data.draw(
        st.fractions(-1, 1, max_denominator=8).filter(bool))
    if sum(changed) and data.draw(st.booleans()):
        changed = [w / sum(changed) for w in changed]
    negd = space.dual_negation
    balanced = sorted({q for i, j in pairs for q in ((i, j), (i, negd[j]))})
    certificates = {
        "dual": (dual, report.lam),
        "random": (CMFunctional(tuple(pairs),
                                tuple(Fraction(w, sum(raw)) for w in raw)),
                   data.draw(st.sampled_from([report.lam]) | other)),
        "lambda": (dual, data.draw(other)),
        "weight": (CMFunctional(dual.pairs, tuple(changed)), report.lam),
        "balanced": (CMFunctional(tuple(balanced),
                                  (Fraction(1, len(balanced)),) * len(balanced)),
                     Fraction(0)),
    }
    for label, (cm, lam) in certificates.items():
        computed, verdict = certify_cm(space, Y, cm, lam)
        expected_lam, expected = certify_by_face(space, Y, cm, lam)
        assert computed == expected_lam, label
        assert verdict.violations == expected.violations, label
        assert verdict.ok or label != "dual"


@_SETTINGS
@given(spaces_with_subspaces())
def test_max_norming_projection_has_n_pairs_over_the_implicit_ones(case):
    space, Y, report, implicit = _analyze(case)
    point, count = max_norming_projection(report)
    pairs = norming_pairs(report, point)
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
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            minimal_support_cm(report, max_candidates=_SUPPORT_CAP)
        return
    cm, size = minimal_support_cm(report, max_candidates=_SUPPORT_CAP)
    assert (cm.pairs, cm.weights) == expected
    assert size == len(cm.pairs)


# Five times the draws: about one in ten has lambda > 1 in general position.
@settings(_SETTINGS, max_examples=300)
@given(spaces_with_subspaces())
def test_support_in_general_position_is_at_least_n(case):
    # arXiv 2211.14008: with lambda > 1 and Y in general position, a
    # Chalmers-Metcalf certificate charges at least n pairs, and the rank
    # of its functionals drops strictly when they are restricted to Y
    space, Y, report, _ = _analyze(case)
    if report.lam <= 1 or not general_position_check(space, Y).in_general_position:
        return
    try:
        cm, size = minimal_support_cm(report, max_candidates=_SUPPORT_CAP)
    except BudgetExceededError:
        return
    assert size >= space.dim
    rank_full, rank_restricted = cm_rank_gap(space, Y, cm, report.lam)
    assert rank_restricted < rank_full


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


@_SETTINGS
@given(spaces_with_subspaces().filter(lambda case: case[0].dim <= 3))
def test_face_dimension_agrees_with_vertex_enumeration(case):
    # for n <= 3, k(n-k) <= 2: the affine hull of the optimal face's
    # vertices, each solved from k(n-k) grid rows at lambda
    _, _, report, _ = _analyze(case)
    assert report.face_dim == face_dimension_by_vertices(report)


@_SETTINGS
@given(spaces_with_subspaces())
def test_face_agrees_with_rounds_oracle(case):
    # Taking the lambda dual's support as implicit gives the face, the
    # implicit pairs and the relative-interior point of Gordan rounds from
    # no implicit row
    space, Y, report, implicit = _analyze(case)
    assert (report.face_dim, implicit, report.interior.coefficients) == \
        face_dimension_by_rounds(report)
