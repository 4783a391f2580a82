import itertools
import math
from fractions import Fraction

import pytest

from minproj.catalog import l1_ball, linf_ball, mixed_ball, random_subspace
from minproj.errors import (NotExtremeError, NotFullDimensionalError,
                            NotSymmetricError, SubsetBudgetExceededError)
from minproj.geometry import (PolyhedralSpace, Subspace,
                              general_position_check, norm_eval, polar_dual)
from minproj.linalg import RMatrix, dot, inverse
from minproj.simplex import OPTIMAL, SOLVE_STATS, solve

from oracles import is_extreme, make_lp, polar_dual_by_fractions

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
    # the sorted tuple itself, up to n = 7, and the Fraction polar's tuple
    # where that one is still quick
    for n in range(2, 8):
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
    Uinv_t = inverse(U).transpose()
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
    with pytest.raises(SubsetBudgetExceededError):
        general_position_check(space, Y, subset_cap=5)
