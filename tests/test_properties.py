"""Property-based checks of validation, the polar, general position, the
minimal projection, its norming pairs, its certificates, the check of
random certificates, the certify routes, its optimal face against Gordan
rounds from no implicit row and, for n <= 3, against the hull of its
enumerated vertices, and the paper's bounds on the dimension of
that face and on the support of a certificate in general position on
random symmetric polytopes.  General position is also compared with the
subset walk through every leaf that it replaced, and its n-wide walk
rows with the rows [v·d | v] they replaced, by the walk's events on
random integer rows; on such rows the budgeted walk is compared with
the walk before it charged a budget, and stops one step short of its
work.  The polar
is also compared with the Fraction polar it replaced, which takes a rank
per edge test, and the tight masks of its double description with the
tight sets recomputed by dot products.  Extremality read off the masks
alone is compared with the rank of the tight polar vertices and the LP
test, and the integer operator norm with the Fraction one it replaced,
also on the catalog spaces and mixed balls.  The double description,
the norm and the operator norm, which read one vertex of each antipodal
pair, are compared with the passes over both signs and over every
listed vertex that they replaced, the norms also on symmetric lists
taken as given that are neither extreme nor each other's polar.  The projection constant of
random hyperplanes of l-inf^n is compared with Blatter and Cheney's
closed form.

A ball is the convex hull of a few small-integer points and their
negations in dimension n <= 4.  For general position its extreme points
are read off the double polar, so the space is built from vertices
alone, as a user would supply it; subspaces have small-integer bases,
mostly hyperplanes in n = 3, 4 and 2-planes.  The operator basis is also
compared with the Fraction basis it replaced, and the realized
projection matrix with the Fraction sum it replaced.  The pair grid kept
as its rank-one factors is compared with its rows formed in Fractions,
and its factored LP (values, row values, entering columns and the whole solve)
with the dense LP over every formed row.  For validation and the polar the point list is
kept as drawn, with its non-extreme and duplicated points; the polar
also gets lists in dimension 5 made mostly of cube vertices, where a
wrong edge test shows.  The weights that the support search reads off
a spanning set's kernel are compared with the augmented solve they
replaced, on random small integer columns.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from minproj.catalog import l1_ball, linf_ball, mixed_ball, paper_cases, random_subspace
from minproj.certificates import (CHECKS, CMFunctional, _support_weights, certify_cm,
                                  cm_from_dual, cm_rank_gap, minimal_support_cm,
                                  verify_cm)
from minproj.errors import (BudgetExceededError, NotExtremeError,
                            NotFullDimensionalError, NotSymmetricError)
from minproj.geometry import (PolyhedralSpace, Subspace, _double_description,
                              _first_non_vertex, _vertices_of, _walk_rows,
                              general_position_check, norm_eval, polar_dual)
from minproj import geometry
from minproj.linalg import (DEFAULT_WORK_BUDGET, RMatrix, WorkBudget, cleared, int_dot,
                            integer_row_rank, over_denominator, subset_walk)
from minproj.projections import (OperatorPoint, build_operator_basis,
                                 build_pair_grid, face_dimension,
                                 max_norming_projection, norming_pairs,
                                 operator_norm, pair_rows, projection_constant)
from minproj.simplex import solve

from oracles import (budget_outcome, certify_by_face, dense_grid_lp, dot, grid_rows,
                     double_description_both_signs, face_dimension_by_rounds,
                     face_dimension_by_vertices, first_non_extreme,
                     first_non_vertex_by_rank,
                     general_position_by_leaf_walk,
                     general_position_exhaustive, general_position_per_subset,
                     general_position_rows_by_raw_vectors,
                     is_extreme, linf_hyperplane_lambda,
                     bases_by_base_projection, minimal_support_by_solve,
                     norm_every_vertex,
                     nullspace_by_fractions, operator_basis_by_fractions,
                     operator_norm_by_fractions, operator_norm_every_vertex,
                     pair_rows_by_fractions,
                     polar_dual_by_fractions, realize_by_fractions,
                     subset_walk_by_classes, support_weights_by_solve,
                     trace_on_subspace, verify_cm_by_apply,
                     verify_cm_by_pair_rows, work_edge)

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


def _assert_completes_from_its_work(space, Y, report, data):
    """The check gives report with a budget of the row steps it charges,
    and stops with a budget error one step below and at a drawn budget
    below."""
    edge = work_edge(geometry, general_position_check, space, Y)
    assert general_position_check(space, Y, budget=edge) == report
    for budget in (edge - 1, data.draw(st.integers(0, edge - 1))):
        assert budget_outcome(general_position_check, space, Y,
                              budget=budget).endswith(f"budget of {budget} row steps")


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_general_position_agrees_with_per_subset_oracle(case, data):
    """The whole report, counts included, and the stop below the check's
    work."""
    space, basis = case
    Y = Subspace.from_basis(basis)
    report = general_position_check(space, Y)
    assert report == general_position_per_subset(space, Y)
    _assert_completes_from_its_work(space, Y, report, data)


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_general_position_agrees_with_leaf_walk_oracle(case, data):
    """The whole report of the walk that decides two levels at once and of
    the walk through every leaf, and the stop below the check's work."""
    space, basis = case
    Y = Subspace.from_basis(basis)
    report = general_position_check(space, Y)
    assert report == general_position_by_leaf_walk(space, Y)
    _assert_completes_from_its_work(space, Y, report, data)


@_SETTINGS
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from((-2, -1, 0, 0, 0, 1, 2)),
                      min_size=n, max_size=n), min_size=1, max_size=7),
    _vectors(n, n - 1).flatmap(lambda d: st.sampled_from(
        [d[:r] for r in range(1, n)])))))
def test_general_position_rows_walk_as_the_raw_rows_do(case):
    """On random integer rows v and independent directions d, the n-wide
    rows [v·d | v_J] give the subset walk's events of the rows [v·d | v]
    at every size."""
    vectors, directions = case
    assume(integer_row_rank(directions) == len(directions))
    reps = range(len(vectors))
    rows = _walk_rows(vectors, reps, directions)
    raw = general_position_rows_by_raw_vectors(vectors, reps, directions)
    assert all(len(row) == len(vectors[0]) for row in rows)
    for size in range(1, len(vectors) + 1):
        narrow, wide = (WorkBudget(DEFAULT_WORK_BUDGET, "walk") for _ in "ab")
        assert (list(subset_walk(rows, size, len(directions), narrow))
                == list(subset_walk(raw, size, len(directions), wide)))
        assert narrow.spent == wide.spent


@_SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
             min_size=1, max_size=8),
    st.integers(1, n))), st.data())
def test_budgeted_walk_completes_with_the_events_of_the_walk_without_budget(case, data):
    """On random small integer rows, a budgeted subset walk that completes
    yields the (passed, subset) events of the walk as it was before it
    charged a budget; it completes with a budget of the row steps it
    charged, and stops one step below."""
    rows, width = case
    size = data.draw(st.integers(1, len(rows)))
    budget = WorkBudget(DEFAULT_WORK_BUDGET, "walk")
    events = list(subset_walk(rows, size, width, budget))
    assert events == list(subset_walk_by_classes(rows, size, width))
    assert list(subset_walk(rows, size, width, WorkBudget(budget.spent, "walk"))) == events
    if budget.spent:  # a walk that cuts every child of its root charges nothing
        with pytest.raises(BudgetExceededError, match="^walk exceeded its work budget"):
            list(subset_walk(rows, size, width, WorkBudget(budget.spent - 1, "walk")))


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


def _with_inner_points(vertices, data):
    """The list with half a listed point and its negation (interior
    points) inserted, and the zero vector, each when drawn and where
    drawn."""
    points = list(vertices)
    if data.draw(st.booleans()):
        half = tuple(Fraction(x, 2) for x in data.draw(st.sampled_from(vertices)))
        for point in (half, tuple(-x for x in half)):
            points.insert(data.draw(st.integers(0, len(points))), point)
    if data.draw(st.booleans()):
        points.insert(data.draw(st.integers(0, len(points))), (0,) * len(vertices[0]))
    return points


@_SETTINGS
@given(symmetric_point_lists() | cube_like_point_lists(), st.data())
def test_extremality_from_masks_agrees_with_rank_and_lp_oracles(vertices, data):
    # The first non-vertex read off the masks alone is the one the rank
    # of the tight polar vertices names and the one the LP oracle names,
    # also with half a listed point and its negation (interior points)
    # or the zero vector inserted, and with the duplicates the lists hold
    points = _with_inner_points(vertices, data)
    dd = _double_description(*cleared(points))
    first = _first_non_vertex(dd)
    assert first == first_non_vertex_by_rank(dd, len(vertices[0]))
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
        try:
            dd = _double_description(*cleared(case))
        except (NotSymmetricError, NotFullDimensionalError) as exc:
            assert (type(exc), str(exc)) == expected, label
            continue
        rows, den = _vertices_of(dd)
        assert tuple(tuple(Fraction(x, den) for x in row) for row in rows) == expected, label
        # sorted integer rows over the least common denominator
        assert (rows, den) == cleared(expected), label
        pairs, bits = _pairs_and_bits(case)
        assert dd.bits == bits, label
        assert dd.tights == [_tight_mask(X, pairs) for X in dd.points], label


def _unreduced(vector, c):
    """The entries as strings p·c / q·c, not in lowest terms."""
    return [f"{Fraction(x).numerator * c}/{Fraction(x).denominator * c}"
            for x in vector]


@_SETTINGS
@given(symmetric_point_lists() | cube_like_point_lists(), st.data())
def test_space_holds_its_vertex_lists_cleared(vertices, data):
    # A space stores each vertex list as integer rows over its least
    # common denominator, and the Fraction views are those rows over it:
    # computed or supplied duals, validated or not, supplied lists
    # permuted or written unreduced.  The computed dual is the Fraction
    # polar.  The ball's pairs are scaled by rationals with denominators
    # up to 7, and its extreme points read off the double polar
    positive = st.fractions(0, 5, max_denominator=7).filter(bool)
    scales = data.draw(st.lists(positive, min_size=len(vertices),
                                max_size=len(vertices)))
    scaled = [tuple(scales[i - i % 2] * x for x in v) for i, v in enumerate(vertices)]
    primal = data.draw(st.permutations(polar_dual(polar_dual(scaled))))
    polar = polar_dual_by_fractions(primal)
    dual = data.draw(st.permutations(polar))
    c = data.draw(st.integers(2, 6))
    spaces = {
        "computed": PolyhedralSpace.from_vertices(primal),
        "computed, not validated": PolyhedralSpace.from_vertices(primal, validate=False),
        "supplied": PolyhedralSpace.from_vertices(primal, dual_vertices=dual),
        "supplied, not validated": PolyhedralSpace.from_vertices(
            primal, dual_vertices=dual, validate=False),
        "unreduced": PolyhedralSpace.from_vertices(
            [_unreduced(v, c) for v in primal],
            dual_vertices=[_unreduced(f, c) for f in dual]),
    }
    for label, space in spaces.items():
        for stored, view in ((space.primal_cleared, space.primal_vertices),
                             (space.dual_cleared, space.dual_vertices)):
            rows, den = cleared(view)
            assert stored == (tuple(map(tuple, rows)), den), label
        assert space.primal_vertices == tuple(primal), label
        expected = polar if label.startswith("computed") else tuple(dual)
        assert space.dual_vertices == expected, label


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
        Z = ours.subspace
        assert (Z.basis_num, Z.basis_den) == cleared(expected.y_basis)
        assert (Z.annihilator_num, Z.annihilator_den) == cleared(expected.annihilator)


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_factored_grid_agrees_with_dense_oracle(case, data):
    # The grid kept as its rank-one factors against every row formed:
    # each formed row and base is f(L_q x) and f(P0 x) in Fractions; the
    # factored value pass equals the dense one at the LP's optimum and at
    # a drawn point; the grid's row values at drawn integers equal the
    # dense oracle LP's, its folded entering column at drawn weights is
    # the one the dense LP picks off every row; and its solve is the
    # dense LP's LPSolution, pivots included
    space, vectors = case
    Y = Subspace.from_basis(vectors)
    basis = build_operator_basis(space, Y)
    grid = build_pair_grid(space, basis)
    D, d = grid.denominator, basis.dimension
    for r, (base, coefs) in enumerate(pair_rows_by_fractions(
            space, operator_basis_by_fractions(space, Y), grid.pairs)):
        assert Fraction(grid.base_num[r], D) == base
        assert tuple(Fraction(a, D) for a in grid.coefs(r)) == coefs
    dense = dense_grid_lp(grid)
    sol = solve(grid)
    assert sol == solve(dense)
    point = data.draw(st.lists(st.fractions(-3, 3, max_denominator=5),
                               min_size=d, max_size=d))
    for c in (sol.primal[:d], point):
        x, x_den = over_denominator(c)
        assert grid.value_numerators(c) == (
            [b * x_den + int_dot(row, x) for b, row in zip(grid.base_num, grid_rows(grid))],
            D * x_den)
    ints = st.integers(-10 ** 6, 10 ** 6)
    x = data.draw(st.lists(ints, min_size=d + 1, max_size=d + 1))
    assert grid.row_values(x) == dense.row_values(x)
    w = data.draw(st.lists(ints, min_size=d + 1, max_size=d + 1))
    bf = data.draw(st.integers(0, 10 ** 6))
    assert grid.entering(w, bf) == dense.entering(w, bf)


def _assert_bases_agree(space, Y):
    """The grid's bases base_num / denominator, and the bases pair_rows
    forms on every (primal, dual) pair, against f(P0 x) by the n x n
    route (oracles.bases_by_base_projection)."""
    basis = build_operator_basis(space, Y)
    grid = build_pair_grid(space, basis)
    assert [Fraction(b, grid.denominator) for b in grid.base_num] == (
        bases_by_base_projection(space, basis, grid.pairs))
    pairs = list(itertools.product(range(len(space.primal_negation)),
                         range(len(space.dual_negation))))
    _, bases, D = pair_rows(space, basis, pairs)
    assert [Fraction(b, D) for b in bases] == bases_by_base_projection(space, basis, pairs)


def test_grid_bases_agree_with_the_base_projection_oracle_on_the_catalog():
    # Each grid base is f_at[j]·h_at[i] over P0's k functionals; the
    # n x n matrix of P0 gives the same values on every catalog case
    for case in paper_cases():
        _assert_bases_agree(case.space, case.subspace)


@_SETTINGS
@given(st.sampled_from((l1_ball, linf_ball)), st.integers(2, 5), st.data())
def test_grid_bases_agree_with_the_base_projection_oracle(ball, n, data):
    # The same on seeded subspaces of every dimension of both balls, n <= 5
    k = data.draw(st.integers(1, n - 1))
    _assert_bases_agree(ball(n), random_subspace(n, k, data.draw(st.integers(0, 10 ** 6))))


def _assert_subspace_families(vectors):
    """The families of Subspace against the Fraction nullspace: the
    annihilator of from_basis, and the basis of from_kernel (the
    subspace_basis that reports print), each also over its least common
    denominator."""
    rows = RMatrix.from_rows(vectors)
    Y = Subspace.from_basis(vectors)
    assert Y.annihilator_functionals() == nullspace_by_fractions(rows)
    assert (Y.annihilator_num, Y.annihilator_den) == cleared(nullspace_by_fractions(rows))
    Z = Subspace.from_kernel(vectors)
    assert Z.basis_vectors() == nullspace_by_fractions(rows)
    assert (Z.basis_num, Z.basis_den) == cleared(nullspace_by_fractions(rows))


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
    M, den = ops.realize_cleared(point)
    assert (RMatrix(M.rows, M.cols, tuple(Fraction(x, den) for x in M.entries))
            == realize_by_fractions(ops, point))


def _description_outcome(double_description, points):
    """The set of (point, mask) of a double description, its number of
    points and its bits, or the error it raises."""
    try:
        dd = double_description(*cleared(points))
    except (NotSymmetricError, NotFullDimensionalError) as exc:
        return type(exc), str(exc)
    return set(zip(map(tuple, dd.points), dd.tights)), len(dd.points), dd.bits


@_SETTINGS
@given(symmetric_point_lists() | cube_like_point_lists(), st.data())
def test_double_description_by_classes_matches_both_signs(vertices, data):
    # Keeping one point of each antipodal pair and expanding at the end
    # gives the (point, mask) set, the point count and the bits of the
    # pass over both signs, or the same error, on every case of
    # _polar_cases and with interior points, the zero vector and the
    # duplicates the lists hold
    cases = _polar_cases(vertices, data)
    cases["inner points"] = _with_inner_points(vertices, data)
    for label, case in cases.items():
        assert (_description_outcome(_double_description, case)
                == _description_outcome(double_description_both_signs, case)), label


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
    # (whose dual or primal vertices clear over denominators above 1).
    # Read over each antipodal class once, the norm and the operator norm
    # equal their integer passes over every listed vertex
    n = space.dim
    entries = data.draw(st.lists(st.fractions(-5, 5, max_denominator=9),
                                 min_size=n * n, max_size=n * n))
    matrix = RMatrix(n, n, tuple(entries))
    norm = operator_norm(space, matrix)
    assert norm == operator_norm_by_fractions(space, matrix)
    assert norm == operator_norm_every_vertex(space, matrix)
    assert norm_eval(space, entries[:n]) == norm_every_vertex(space, entries[:n])


@st.composite
def unvalidated_spaces(draw):
    """A primal and a dual list taken as given (validate=False): small
    rational points, each list symmetric with no zero or repeated row,
    the pairs {v, -v} in any order and neither list extreme nor the
    other's polar."""
    n = draw(st.integers(2, 4))

    def points():
        drawn = draw(st.lists(st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * n)
                              .filter(any), min_size=1, max_size=n + 3,
                              unique_by=lambda p: max(p, tuple(-x for x in p))))
        return draw(st.permutations([q for p in drawn for q in (p, tuple(-x for x in p))]))

    return PolyhedralSpace.from_vertices(points(), dual_vertices=points(),
                                         validate=False)


@_SETTINGS
@given(unvalidated_spaces(), st.data())
def test_norms_by_classes_on_unvalidated_lists(space, data):
    # Read as |value| over one vertex of each antipodal pair, the norm
    # and the operator norm give the maximum over every listed vertex, on
    # symmetric lists that are not extreme and not each other's polar
    n = space.dim
    entries = data.draw(st.lists(st.fractions(-5, 5, max_denominator=9),
                                 min_size=n * n, max_size=n * n))
    matrix = RMatrix(n, n, tuple(entries))
    assert operator_norm(space, matrix) == operator_norm_every_vertex(space, matrix)
    assert norm_eval(space, entries[:n]) == norm_every_vertex(space, entries[:n])


def _analyze(case):
    space, basis = case
    Y = Subspace.from_basis(basis)
    report = projection_constant(space, Y)
    _, implicit = face_dimension(report)
    return space, Y, report, implicit


@_SETTINGS
@given(spaces_with_subspaces())
def test_projection_has_norm_lambda_and_dual_cm_verifies(case):
    space, Y, report, _ = _analyze(case)
    for point in (report.witness, report.interior):
        assert operator_norm(space, realize_by_fractions(report.basis, point)) == report.lam
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
            assert "invariance" not in verdict.failed or "vanishing" in verdict.failed


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_verify_cm_agrees_with_pair_rows_oracle_on_tampered_certificates(case, data):
    # verify_cm reads the norming values off the realized integer
    # projection; the oracle reads them off the certificate's pair rows.
    # The dual certificate and three tamperings of it: a weight moved
    # from one pair to another (the sum stays 1), one pair replaced by a
    # random one, and the dual certificate at a point moved off the
    # optimal face.  The verdicts, violation texts included, are equal,
    # and equal again when the caller hands the realized matrix over.
    space, Y, report, _ = _analyze(case)
    basis = report.basis
    dual = cm_from_dual(report)
    pairs, weights = list(dual.pairs), list(dual.weights)
    point_index = st.integers(0, len(space.primal_vertices) - 1)
    dual_index = st.integers(0, len(space.dual_vertices) - 1)
    moved = list(weights)
    if len(moved) > 1:
        a, b = data.draw(st.permutations(range(len(moved))))[:2]
        step = data.draw(st.fractions(-1, 1, max_denominator=5).filter(bool))
        moved[a] += step
        moved[b] -= step
    replaced = list(pairs)
    replaced[data.draw(st.integers(0, len(pairs) - 1))] = (
        data.draw(point_index), data.draw(dual_index))
    shift = data.draw(st.lists(st.fractions(-1, 1, max_denominator=3),
                               min_size=basis.dimension, max_size=basis.dimension))
    off_face = OperatorPoint(tuple(c + s for c, s in
                                   zip(report.interior.coefficients, shift)))
    for mode, cm, points in (
            ("dual", dual, (report.witness, report.interior)),
            ("moved", CMFunctional(tuple(pairs), tuple(moved)), (report.interior,)),
            ("replaced", CMFunctional(tuple(replaced), tuple(weights)),
             (report.witness, report.interior)),
            ("off the face", dual, (off_face,))):
        for point in points:
            expected = verify_cm_by_pair_rows(space, Y, cm, report.lam, point,
                                              basis=basis)
            assert verify_cm(space, Y, cm, report.lam, point, basis=basis) == expected, mode
            assert verify_cm(space, Y, cm, report.lam, point, basis=basis,
                             realized=basis.realize_cleared(point)) == expected, mode


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_certify_agrees_with_face_oracle(case, data):
    # certify_cm skips the LP, or the optimal face, when the certificate
    # proves its own lambda; whatever it skips, lambda and the violations
    # are those of verify_cm at the relative interior of the optimal face,
    # with lambda deciding a certificate that fails norming alone.
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
@given(spaces_with_subspaces(), st.data())
def test_certify_decides_a_chalmers_metcalf_bound_by_lambda(case, data):
    # A certificate that passes every check T decides alone proves
    # lambda >= its trace lambda_c, and certifies lambda exactly when
    # lambda = lambda_c, whatever its pairs give at a minimal projection.
    # t·(dual certificate) + (1 - t)·T0, T0 = 0 over random pairs beside
    # their functionals' negations, passes those checks at lambda_c =
    # t·lambda, and so, at lambda_c, does the dual certificate (t = 1)
    # and T0 (t = 0).  Claimed at another value, or drawn at random,
    # a certificate mostly fails a check that T decides alone, the
    # oracle's verify_cm_by_apply at the witness tells which
    space, basis = case
    Y = Subspace.from_basis(basis)
    report = projection_constant(space, Y)
    dual = cm_from_dual(report)
    negd = space.dual_negation
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, len(space.primal_vertices) - 1),
                  st.integers(0, len(space.dual_vertices) - 1)),
        min_size=1, max_size=4, unique=True))
    balanced = sorted({q for i, j in pairs for q in ((i, j), (i, negd[j]))})
    t = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                   Fraction(1)]))
    weights = dict.fromkeys(balanced, (1 - t) / len(balanced))
    for pair, a in zip(dual.pairs, dual.weights):
        weights[pair] = weights.get(pair, 0) + t * a
    mixed = CMFunctional(*zip(*sorted((q, a) for q, a in weights.items() if a)))
    raw = data.draw(st.lists(st.integers(1, 5), min_size=len(pairs),
                             max_size=len(pairs)))
    other = st.fractions(0, 3, max_denominator=6)
    drawn = [(mixed, t * report.lam), (mixed, data.draw(other)),
             (CMFunctional(tuple(pairs), tuple(Fraction(w, sum(raw)) for w in raw)),
              data.draw(other))]
    for cm, lam in drawn:
        computed, verdict = certify_cm(space, Y, cm, lam)
        assert computed == report.lam
        assert verdict.failed <= set(CHECKS)
        bound = verify_cm_by_apply(space, Y, cm, lam, report.witness, basis=report.basis)
        if bound.failed <= {"norming"}:
            assert verdict.ok == (computed == lam), (cm, lam)


@_SETTINGS
@given(spaces_with_subspaces())
def test_max_norming_projection_has_n_pairs_over_the_implicit_ones(case):
    space, Y, report, implicit = _analyze(case)
    point, count = max_norming_projection(report)
    pairs = norming_pairs(report, point)
    assert count == len(pairs) >= space.dim
    assert pairs >= implicit


# The oracle solves every subset and grows combinatorially, so it refuses
# candidate sets beyond this size, and such a draw compares nothing.
_ORACLE_CAP = 16


@_SETTINGS
@given(spaces_with_subspaces())
def test_minimal_support_agrees_with_solve_oracle(case):
    space, Y, report, implicit = _analyze(case)
    try:
        expected = minimal_support_by_solve(space, Y, implicit,
                                            max_candidates=_ORACLE_CAP)
    except BudgetExceededError:
        return
    cm, size = minimal_support_cm(report)
    assert (cm.pairs, cm.weights) == expected
    assert size == len(cm.pairs)


@st.composite
def spanning_heads(draw):
    """Heads h_p of width d <= 4, one per column [h_p; 1] of a set the
    support walk can yield: s <= d + 1 independent columns whose span
    holds [0; 1], so one head is an integer combination of the others.
    In half the draws its coefficients are all negative, so that every
    weight is positive and the set is a support."""
    d = draw(st.integers(1, 4))
    s = draw(st.integers(1, d + 1))
    heads = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                          min_size=s - 1, max_size=s - 1))
    coef = st.integers(-3, -1) if draw(st.booleans()) else st.integers(-2, 2)
    coefs = draw(st.lists(coef, min_size=s - 1, max_size=s - 1))
    heads.insert(draw(st.integers(0, s - 1)),
                 [sum(c * h[i] for c, h in zip(coefs, heads)) for i in range(d)])
    assume(integer_row_rank([h + [1] for h in heads]) == s)
    return heads


@settings(_SETTINGS, max_examples=300)
@given(spanning_heads())
def test_support_weights_off_the_kernel_agree_with_the_solve(heads):
    # The weights read off the heads' kernel are the solution of the
    # augmented system [h_p; 1]·w = [0; 1], and a set is rejected exactly
    # when some solved weight is not positive
    solved = support_weights_by_solve([h + [1] for h in heads],
                                      [0] * len(heads[0]) + [1])
    assert solved is not None
    weights = _support_weights([tuple(h) for h in heads])
    assert weights == (solved if all(w > 0 for w in solved) else None)


# Five times the draws: about one in five is in general position, one in
# twenty with lambda > 1.
@settings(_SETTINGS, max_examples=300)
@given(spaces_with_subspaces())
def test_support_in_general_position_is_at_least_n(case):
    # With Y in general position, a Chalmers-Metcalf certificate charges at
    # least n - k + 1 pairs: the span of fewer vertices meets Y in 0, and a
    # T mapping Y into it has trace 0 on Y.  arXiv 2211.14008: with
    # lambda > 1 it charges at least n pairs, and the rank of its
    # functionals drops strictly when they are restricted to Y
    space, Y, report, _ = _analyze(case)
    if not general_position_check(space, Y).in_general_position:
        return
    try:
        cm, size = minimal_support_cm(report)
    except BudgetExceededError:
        return
    assert size >= space.dim - Y.dim + 1
    if report.lam > 1:
        assert size >= space.dim
        rank_full, rank_restricted = cm_rank_gap(space, Y, cm, report.lam)
        assert rank_restricted < rank_full


@settings(_SETTINGS, max_examples=300)
@given(spaces_with_subspaces())
def test_support_search_from_the_bound_matches_the_search_from_one(case):
    # the search that starts at the bound in general position (n when
    # lambda > 1, n - k + 1 at lambda = 1) returns the first support of
    # the search from size 1, the oracle
    space, Y, report, _ = _analyze(case)
    if not general_position_check(space, Y).in_general_position:
        return
    try:
        expected = minimal_support_cm(report)
    except BudgetExceededError:
        return
    assert minimal_support_cm(report, in_general_position=True) == expected


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
