import itertools
import math
from fractions import Fraction

import pytest

from minproj.catalog import l1_ball, linf_ball, mixed_ball, random_subspace
from minproj.errors import (BudgetExceededError, NotExtremeError,
                            NotFullDimensionalError, NotSymmetricError)
from minproj.geometry import (PolyhedralSpace, Subspace,
                              general_position_check, norm_eval, polar_dual)
from minproj.linalg import RMatrix, dot, over_denominator
from minproj.simplex import OPTIMAL, SOLVE_STATS, solve

from oracles import (budget_outcome, general_position_per_subset,
                     inverse_by_fractions, is_extreme, make_lp,
                     polar_dual_by_fractions, subset_walk_by_leaves)

F = Fraction


def _cross(n):
    out = []
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(1)
        out.append(tuple(e))
        out.append(tuple(-x for x in e))
    return out


def _cube(n):
    return [tuple(F(s) for s in signs)
            for signs in itertools.product((1, -1), repeat=n)]


# ------------------------------------------------- extremality (LP oracle)

def test_is_extreme_basics():
    verts = _cross(2) + [(F(1, 2), F(1, 2)), (F(-1, 2), F(-1, 2))]
    assert is_extreme(verts, verts[0])
    assert not is_extreme(verts, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        is_extreme(verts, (F(7), F(7)))


def test_is_extreme_duplicate_is_not_extreme():
    verts = [(F(1), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)),
             (F(-1), F(0))]
    assert not is_extreme(verts, (F(1), F(0)))


# ----------------------------------------------------------------- polar dual

def test_polar_of_cube_is_cross():
    # the sorted tuple itself, up to n = 9, and the Fraction polar's tuple
    # where that one is still quick
    for n in range(2, 10):
        assert polar_dual(_cube(n)) == tuple(sorted(_cross(n)))
        assert polar_dual(_cross(n)) == tuple(sorted(_cube(n)))
        if n <= 6:
            assert polar_dual(_cube(n)) == polar_dual_by_fractions(_cube(n))
            assert polar_dual(_cross(n)) == polar_dual_by_fractions(_cross(n))


def test_polar_involution_on_catalog_balls():
    for space in (l1_ball(3), linf_ball(3), mixed_ball(4, 3), mixed_ball(5, 3)):
        v = space.primal_vertices
        assert set(polar_dual(polar_dual(v))) == set(v)


def test_polar_transforms_contravariantly():
    # polar(U V) = U^{-T} polar(V) for any invertible U
    U = RMatrix.from_rows([[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    Uinv_t = RMatrix.from_rows(inverse_by_fractions(U)).transpose()
    skewed = [U.apply(v) for v in _cross(3)]
    expect = {Uinv_t.apply(f) for f in polar_dual(_cross(3))}
    assert set(polar_dual(skewed)) == expect


def test_polar_rejects_asymmetric_and_flat():
    with pytest.raises(NotSymmetricError):
        polar_dual([(F(1), F(0)), (F(0), F(1)), (F(0), F(-1))])
    with pytest.raises(NotFullDimensionalError):
        polar_dual([(F(1), F(0), F(0)), (F(-1), F(0), F(0)),
                    (F(0), F(1), F(0)), (F(0), F(-1), F(0))])


def test_polar_drops_non_extreme_points():
    verts = _cube(2) + [(F(1), F(0)), (F(-1), F(0))]
    assert set(polar_dual(verts)) == set(_cross(2))


# ------------------------------------------------------------ space and norm

def test_space_construction_and_validation():
    space = PolyhedralSpace.from_vertices(_cross(3))
    assert set(space.dual_vertices) == set(_cube(3))
    with pytest.raises(NotExtremeError):
        PolyhedralSpace.from_vertices(
            _cross(2) + [(F(1, 2), F(0)), (F(-1, 2), F(0))])
    with pytest.raises(NotExtremeError):
        # wrong dual list: claims the cross-polytope is its own dual
        PolyhedralSpace.from_vertices(_cross(3), dual_vertices=_cross(3))


def test_supplied_dual_boundary_point_rejected():
    # (1, 0) lies on an edge of the polar square, midway between two cube
    # vertices
    with pytest.raises(NotExtremeError,
                       match="^supplied dual vertices are not the polar vertex set$"):
        PolyhedralSpace.from_vertices(
            _cross(2), dual_vertices=_cube(2) + [(F(1), F(0)), (F(-1), F(0))])


def test_supplied_duals_missing_a_facet_vertex_rejected():
    # the hexagon's polar is a hexagon; dropping one antipodal pair of its
    # vertices leaves polar vertices that no longer span the facet of
    # primal vertex 0, which is itself extreme
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    polar = polar_dual(hexagon)
    assert polar[0] == (-1, 0)
    with pytest.raises(NotExtremeError,
                       match="^supplied dual vertices are not the polar vertex set$"):
        PolyhedralSpace.from_vertices(hexagon, dual_vertices=polar[1:-1])


def test_supplied_dual_extreme_in_list_but_not_polar_vertex_rejected():
    # (1, 1, 0) is an extreme point of the listed duals, since (1, 1, 1) is
    # missing, but not a vertex of the polar cube; every facet is still
    # spanned
    duals = [f for f in _cube(3) if abs(sum(f)) != 3]
    duals += [(F(1), F(1), F(0)), (F(-1), F(-1), F(0))]
    with pytest.raises(NotExtremeError,
                       match="^supplied dual vertices are not the polar vertex set$"):
        PolyhedralSpace.from_vertices(_cross(3), dual_vertices=duals)


def test_supplied_duals_missing_polar_vertices_rejected():
    # l1^3 with the cube minus +-(1, 1, 1): every listed dual is a polar
    # vertex and every facet at a primal vertex is still spanned, yet the
    # norm of (1, 1, 1) would come out 1 instead of 3
    duals = [f for f in _cube(3) if abs(sum(f)) != 3]
    with pytest.raises(NotExtremeError,
                       match="^supplied dual vertices are not the polar vertex set$"):
        PolyhedralSpace.from_vertices(_cross(3), dual_vertices=duals)
    space = PolyhedralSpace.from_vertices(_cross(3), dual_vertices=duals, validate=False)
    assert norm_eval(space, (1, 1, 1)) == 1


def _solves(build):
    before = SOLVE_STATS["solves"]
    build()
    return SOLVE_STATS["solves"] - before


def test_validation_solves_no_lp():
    assert _solves(lambda: PolyhedralSpace.from_vertices(_cube(6))) == 0
    for build in (lambda: linf_ball.__wrapped__(5),
                  lambda: l1_ball.__wrapped__(5),
                  lambda: mixed_ball.__wrapped__(5, 3)):
        assert _solves(build) == 0


def test_supplied_duals_accepted_when_exact():
    space = PolyhedralSpace.from_vertices(_cross(4), dual_vertices=_cube(4))
    assert norm_eval(space, (1, -2, 3, 0)) == 6


def _gauge_lp_norm(space, x):
    """min sum(lam) s.t. V^T lam = x, lam >= 0 -- the definition of the norm."""
    verts = space.primal_vertices
    n, N = space.dim, len(verts)
    rows, rhs = [], []
    for i in range(n):
        col = [verts[j][i] for j in range(N)]
        rows.append(col)
        rhs.append(x[i])
        rows.append([-c for c in col])
        rhs.append(-x[i])
    for j in range(N):
        e = [0] * N
        e[j] = -1
        rows.append(e)
        rhs.append(0)
    sol = solve(make_lp([1] * N, rows, rhs))
    assert sol.status == OPTIMAL
    return sol.value


def test_norm_eval_matches_gauge_lp():
    state = 12345

    def rnd():
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return F((state >> 33) % 11 - 5, (state >> 20) % 4 + 1)

    for space in (l1_ball(3), linf_ball(3), mixed_ball(4, 3)):
        for _ in range(12):
            x = tuple(rnd() for _ in range(space.dim))
            assert norm_eval(space, x) == _gauge_lp_norm(space, x)


def test_norm_eval_on_vertices_is_one():
    for space in (l1_ball(4), linf_ball(3), mixed_ball(5, 3)):
        for v in space.primal_vertices:
            assert norm_eval(space, v) == 1
    with pytest.raises(ValueError):
        norm_eval(l1_ball(3), (1, 2))


# ------------------------------------------------------------------ subspace

def test_subspace_roundtrip():
    Y = Subspace.from_kernel([(1, 1, 1, 0), (0, 0, 0, 1)])
    assert Y.dim == 2
    assert Y.contains((1, -1, 0, 0))
    assert not Y.contains((1, 0, 0, 0))
    for g in Y.annihilator_functionals():
        for b in Y.basis_vectors():
            assert dot(g, b) == 0
    Z = Subspace.from_basis(Y.basis_vectors())
    assert Z.contains(Y.basis_vectors()[0])


def test_subspace_rejects_degenerate():
    with pytest.raises(ValueError):
        Subspace.from_basis([(1, 0), (0, 1)])      # k = n
    with pytest.raises(ValueError):
        Subspace.from_basis([(1, 1, 0), (2, 2, 0)])
    with pytest.raises(ValueError):
        Subspace.from_kernel([(0, 0, 0)])
    with pytest.raises(ValueError):
        Subspace.from_basis([])


# ----------------------------------------------------------- general position

def test_general_position_verdicts():
    assert general_position_check(
        linf_ball(3), Subspace.from_kernel([(1, 1, 1)])).in_general_position
    r = general_position_check(linf_ball(4), Subspace.from_kernel([(1, 1, 1, 1)]))
    assert not r.in_general_position
    assert r.witness_kind == "span"
    r2 = general_position_check(l1_ball(3), Subspace.from_kernel([(1, 1, 1)]))
    assert not r2.in_general_position
    assert r2.witness_kind == "kernel"
    r3 = general_position_check(linf_ball(3), Subspace.from_kernel([(1, 0, 0)]))
    assert not r3.in_general_position


def test_general_position_counts_and_determinism():
    space = linf_ball(3)
    Y = Subspace.from_kernel([(1, 1, 1)])
    a = general_position_check(space, Y)
    b = general_position_check(space, Y)
    # spans of at most n - k = 1 of the 4 vertex pairs, kernels of at
    # most k = 2 of the 3 dual pairs
    assert (a.spans_checked, a.kernels_checked) == (4, 6)
    assert a == b


def test_general_position_n6_hyperplane_finishes():
    # The exhaustive enumeration runs out its budget here after minutes;
    # capped at n - k = 1 and k = 5 it visits C(32, 1) spans and
    # C(6, 1) + ... + C(6, 5) kernels.
    r = general_position_check(linf_ball(6), random_subspace(6, 5, 7))
    assert r.in_general_position
    assert (r.spans_checked, r.kernels_checked) == (
        32, sum(math.comb(6, s) for s in range(1, 6)))


def test_general_position_invariant_under_change_of_basis():
    space = linf_ball(4)
    for functional, expected in (((1, 1, 1, 1), False), ((2, 1, 1, 1), True)):
        Y = Subspace.from_kernel([functional])
        verdict = general_position_check(space, Y).in_general_position
        assert verdict is expected
        basis = Y.basis_vectors()
        mixed = [tuple(3 * a - b for a, b in zip(basis[0], basis[1])),
                 tuple(a + b for a, b in zip(basis[1], basis[2])),
                 tuple(-x for x in basis[2])]
        Y2 = Subspace.from_basis(mixed)
        assert general_position_check(space, Y2).in_general_position is expected


def test_general_position_budget():
    space = linf_ball(4)
    Y = Subspace.from_kernel([(2, 1, 1, 1)])
    with pytest.raises(BudgetExceededError):
        general_position_check(space, Y, subset_cap=5)


def test_general_position_budget_boundary_on_l1_6_hyperplane():
    # Spans of one of the 6 vertex pairs, kernels of at most 5 of the 32
    # dual pairs: 32 + 496 + 4960 + 35960 + 201376 = 242824.
    space, Y = l1_ball(6), random_subspace(6, 5, 7)
    r = general_position_check(space, Y, subset_cap=242_830)
    assert r.in_general_position
    assert (r.spans_checked, r.kernels_checked) == (6, 242_824)
    with pytest.raises(BudgetExceededError,
                       match="^kernel enumeration exceeded cap 242829$"):
        general_position_check(space, Y, subset_cap=242_829)


# e1, e2 and e1 + e2 are dependent vertices; the others are e3, e4, e5.
_DEPENDENT_TRIPLE = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0),
                     (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]


def _cut_prefixes(space, Y, size):
    """The prefixes under which the leaf walk over the projected vertex
    pairs cuts a subtree at this size."""
    projected = [over_denominator([dot(space.primal_vertices[i], g)
                                   for g in Y.annihilator_functionals()])[0]
                 for i in space.primal_class_reps]
    return [subset for subset, _, _ in subset_walk_by_leaves(projected, size)
            if len(subset) < size]


def test_general_position_counts_the_subtree_under_a_dependent_prefix():
    # The vertex pairs are spaced so that the line Y avoids every span of
    # four of them.  At size 4 the walk cuts the subtree under the prefix
    # of e1, e2, e1 + e2 (pair positions 0, 1, 2) and counts its 3 subsets
    # at once.
    space = PolyhedralSpace.from_vertices(
        [q for p in _DEPENDENT_TRIPLE for q in (p, tuple(-x for x in p))])
    Y = Subspace.from_basis([(1, 2, 4, 8, 16)])
    assert _cut_prefixes(space, Y, 4) == [(0, 1, 2)]

    r = general_position_check(space, Y)
    assert r.in_general_position
    assert (r.spans_checked, r.kernels_checked) == (
        sum(math.comb(6, s) for s in range(1, 5)), 24)
    assert r == general_position_per_subset(space, Y)
    # every cap, those that run out inside the cut subtree included
    for cap in range(r.spans_checked + r.kernels_checked + 1):
        assert (budget_outcome(general_position_check, space, Y, cap)
                == budget_outcome(general_position_per_subset, space, Y, cap))


def test_general_position_counts_a_subtree_cut_above_the_leaf_batches():
    # With e6 added, the walk over spans of five vertices cuts the prefix
    # (0, 1, 2) one level above the nodes that decide their leaves at once,
    # and counts the 6 subsets under it by a binomial
    points = [p + (0,) for p in _DEPENDENT_TRIPLE] + [(0, 0, 0, 0, 0, 1)]
    space = PolyhedralSpace.from_vertices(
        [q for p in points for q in (p, tuple(-x for x in p))])
    Y = Subspace.from_basis([(1, 2, 4, 8, 16, 32)])
    assert _cut_prefixes(space, Y, 5) == [(0, 1, 2)]
    r = general_position_check(space, Y)
    assert r.in_general_position
    assert (r.spans_checked, r.kernels_checked) == (
        sum(math.comb(7, s) for s in range(1, 6)), len(space.dual_class_reps))
    for cap in range(r.spans_checked + r.kernels_checked + 1):
        assert (budget_outcome(general_position_check, space, Y, cap)
                == budget_outcome(general_position_per_subset, space, Y, cap))


def test_general_position_budget_runs_out_inside_a_leaf_batch():
    # The line Y lies in the span of e1, e2, e3, e5 (pair positions 0, 1,
    # 3, 5) and in no span of fewer vertices.  The 41 subsets of sizes 1
    # to 3 pass; at size 4 the node (0, 1) decides its leaves at once: the
    # 3 under the prefix (0, 1, 2), which the leaf walk cuts at depth 3,
    # then (0, 1, 3, 4), which passes, then (0, 1, 3, 5), which fails.
    # Caps 41-43 run out inside the cut subtree, 44 one leaf before the
    # failing leaf and 45 at the failing leaf, where the budget error wins.
    space = PolyhedralSpace.from_vertices(
        [q for p in _DEPENDENT_TRIPLE for q in (p, tuple(-x for x in p))])
    Y = Subspace.from_basis([(1, 2, 4, 0, 16)])
    reps = space.primal_class_reps
    assert _cut_prefixes(space, Y, 4) == [(0, 1, 2)]
    r = general_position_check(space, Y)
    assert r == general_position_per_subset(space, Y)
    assert (r.witness_kind, r.witness) == ("span", tuple(reps[i] for i in (0, 1, 3, 5)))
    assert (r.spans_checked, r.kernels_checked) == (46, 0)
    for cap in range(47):
        outcome = budget_outcome(general_position_check, space, Y, cap)
        assert outcome == budget_outcome(general_position_per_subset, space, Y, cap)
        assert (outcome == r) is (cap == 46)
