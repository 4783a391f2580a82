import itertools
import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from minproj import errors, geometry, linalg, projections
from minproj.catalog import l1_ball, linf_ball, mixed_ball, random_subspace
from minproj.errors import (BudgetExceededError, InputFormatError, NotExtremeError,
                            NotFullDimensionalError, NotSymmetricError)
from minproj.geometry import (PolyhedralSpace, Subspace,
                              general_position_check, polar_dual)
from minproj.linalg import RMatrix, cleared, over_denominator

from oracles import (annihilator_functionals, budget_outcome, dot, dual_vertices,
                     general_position_per_subset, inverse_by_fractions,
                     is_extreme, norm_every_vertex, polar_dual_by_fractions,
                     primal_vertices, subset_walk_by_leaves, work_edge)

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
    # the sorted tuple itself, up to n = 11, and the Fraction polar's
    # tuple where that one is still quick
    for n in range(2, 12):
        assert polar_dual(_cube(n)) == tuple(sorted(_cross(n)))
        assert polar_dual(_cross(n)) == tuple(sorted(_cube(n)))
        if n <= 6:
            assert polar_dual(_cube(n)) == polar_dual_by_fractions(_cube(n))
            assert polar_dual(_cross(n)) == polar_dual_by_fractions(_cross(n))


def test_polar_involution_on_catalog_balls():
    for space in (l1_ball(3), linf_ball(3), mixed_ball(4, 3), mixed_ball(5, 3)):
        v = primal_vertices(space)
        assert set(polar_dual(polar_dual(v))) == set(v)


_SKEW = RMatrix.from_rows([[1, 2, 0], [0, 1, 0], [1, 0, 1]])


def _skewed(points):
    return [_SKEW.apply(v) for v in points]


def test_polar_transforms_contravariantly():
    # polar(U V) = U^{-T} polar(V) for any invertible U, on the octahedron
    # and on the cube (a parallelotope: its polar is read in closed form)
    Uinv_t = RMatrix.from_rows(inverse_by_fractions(_SKEW)).transpose()
    for points in (_cross(3), _cube(3)):
        expect = {Uinv_t.apply(f) for f in polar_dual(points)}
        assert set(polar_dual(_skewed(points))) == expect


def _closed_form(points):
    rows, den = cleared(points)
    return geometry._parallelotope_polar(rows, den, geometry._negation(rows, den, "primal"))


def test_parallelotopes_take_the_closed_form():
    # l-inf^n and a skewed cube, listed in any order, are read in closed
    # form, with the polar of the insertion steps
    for n in range(1, 9):
        assert isinstance(_closed_form(_cube(n)), geometry._Polar)
    skewed = _skewed(_cube(3))
    shuffled = skewed[5:] + skewed[:5]
    assert isinstance(_closed_form(shuffled), geometry._Polar)
    assert polar_dual(shuffled) == polar_dual_by_fractions(shuffled)


def test_lists_near_a_parallelotope_take_the_insertion_steps():
    # 2^n symmetric points that are not a parallelotope's vertices get
    # None from the closed form, then the polar of the steps and the same
    # validation
    hexagon = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 0), (-1, -1, 0)]
    bipyramid = hexagon + [(0, 0, 1), (0, 0, -1)]
    prism = [(a, b, c) for a, b in [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
             for c in (1, -1)]
    halved = [tuple(x / 2 for x in v) if abs(sum(v)) == 4 else v for v in _cube(4)]
    cases = {
        "hexagonal bipyramid": (bipyramid, None),
        "4-cube with ±(1/2, 1/2, 1/2, 1/2)": (halved, 0),
        "a row repeated": (_cross(3) + [(F(0),) * 3, _cross(3)[2]], 2),
        "the greatest pair repeated": (_cross(3) + _cross(3)[:2], 0),
    }
    for label, (points, non_vertex) in cases.items():
        assert len(points) == 2 ** len(points[0]), label
        assert _closed_form(points) is None, label
        assert polar_dual(points) == polar_dual_by_fractions(points), label
        if non_vertex is None:
            PolyhedralSpace.from_vertices(points)
        else:
            with pytest.raises(NotExtremeError, match=f"^primal vertex {non_vertex} is a "
                               "convex combination of the others$"):
                PolyhedralSpace.from_vertices(points)
    assert set(polar_dual(bipyramid)) == set(prism)


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
    assert set(dual_vertices(space)) == set(_cube(3))
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
    assert norm_every_vertex(space, (1, 1, 1)) == 1


def test_validation_solves_no_lp(spy):
    counts = spy(projections, "solve")
    PolyhedralSpace.from_vertices(_cube(6))
    linf_ball.__wrapped__(5)
    l1_ball.__wrapped__(5)
    mixed_ball.__wrapped__(5, 3)
    assert counts["solve"] == 0


def test_supplied_duals_accepted_when_exact():
    space = PolyhedralSpace.from_vertices(_cross(4), dual_vertices=_cube(4))
    assert norm_every_vertex(space, (1, -2, 3, 0)) == 6


# (primal list, dual list or None, error, message): lists taken as given
# (validate=False) whose pairing is not an involution without fixed
# points, refused when the space is built
_UNPAIRED = {
    "primal-missing": ([(1, 0), (-1, 0), ("1/2", 1)], [(1, 1), (-1, -1), (1, -1), (-1, 1)],
                       "NotSymmetricError", "primal vertex (1/2, 1) has no negation in the list"),
    "dual-missing": ([(1, 0), (-1, 0), (0, 1), (0, -1)], [(1, 1), (-1, -1), (1, -1)],
                     "NotSymmetricError", "dual vertex (1, -1) has no negation in the list"),
    "primal-zero": ([(1, 0), (-1, 0), (0, 0), (0, 1), (0, -1)], None,
                    "NotExtremeError", "primal vertex 2 is a convex combination of the others"),
    "dual-zero": ([(1, 0), (-1, 0), (0, 1), (0, -1)], [(1, 1), (-1, -1), (0, 0)],
                  "NotExtremeError", "dual vertex 2 is a convex combination of the others"),
    "primal-repeated": ([(1, 0), (0, 1), (-1, 0), (0, -1), (0, 1)], None,
                        "NotExtremeError", "primal vertex 1 is a convex combination of the others"),
    "dual-repeated": ([(1, 0), (-1, 0), (0, 1), (0, -1)], [(1, 1), (-1, -1), ("2/2", 1)],
                      "NotExtremeError", "dual vertex 0 is a convex combination of the others"),
}


@pytest.mark.parametrize("case", _UNPAIRED)
def test_unvalidated_space_refuses_an_unpaired_list(case):
    # every space pairs each list with its negations when it is built,
    # validate=False included: a missing negation, a zero row and a
    # repeated row are refused there, whether the dual list is supplied
    # or computed (the polar of a list with a zero or repeated row exists)
    vertices, duals, error, message = _UNPAIRED[case]
    with pytest.raises(getattr(errors, error), match=f"^{re.escape(message)}$"):
        PolyhedralSpace.from_vertices(vertices, dual_vertices=duals, validate=False)


def test_pairing_refusals_survive_python_O():
    code = ("from minproj.errors import MinprojError\n"
            "from minproj.geometry import PolyhedralSpace\n"
            f"for vertices, duals, _, _ in {list(_UNPAIRED.values())!r}:\n"
            "    try:\n"
            "        PolyhedralSpace.from_vertices(vertices, duals, validate=False)\n"
            "    except MinprojError as exc:\n"
            "        print(type(exc).__name__, exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "".join(f"{error} {message}\n"
                                 for _, _, error, message in _UNPAIRED.values())


def test_subspace_roundtrip():
    Y = Subspace.from_kernel([(1, 1, 1, 0), (0, 0, 0, 1)])
    assert Y.dim == 2
    assert Y.contains((1, -1, 0, 0))
    assert not Y.contains((1, 0, 0, 0))
    for g in annihilator_functionals(Y):
        for b in Y.basis_vectors():
            assert dot(g, b) == 0
    Z = Subspace.from_basis(Y.basis_vectors())
    assert Z.contains(Y.basis_vectors()[0])


@pytest.mark.parametrize("basis", [
    ((1, 1, 0),),
    ((2, -1, 0, 3), (0, 1, 1, 1)),
    ((1, 2),),
])
def test_subspace_built_directly_is_checked(basis):
    # the basis is the one input of a Subspace: built directly it is the
    # subspace from_basis gives, annihilator included, and a dependent
    # basis is refused when it is built
    assert Subspace(basis, 1) == Subspace.from_basis(basis)
    with pytest.raises(ValueError, match="^basis vectors are linearly dependent$"):
        Subspace(basis + (tuple(2 * x for x in basis[0]),), 1)


def test_subspace_refusal_survives_python_O():
    code = ("from minproj.geometry import Subspace\n"
            "try:\n"
            "    Subspace(((1, 1, 0), (2, 2, 0)), 1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "basis vectors are linearly dependent\n"


def test_from_basis_takes_one_elimination(monkeypatch):
    # the annihilator is the nullspace of the basis, and no rank of
    # either family is taken again
    calls = []

    def spy(name, original):
        def wrapped(*args):
            calls.append(name)
            return original(*args)
        return wrapped
    monkeypatch.setattr(linalg, "_echelon", spy("_echelon", linalg._echelon))
    for module in (linalg, geometry):
        monkeypatch.setattr(module, "integer_row_rank",
                            spy("integer_row_rank", linalg.integer_row_rank),
                            raising=False)
    Subspace.from_basis([(1, 2, 0, 1), (0, 1, -1, 3)])
    assert calls == ["_echelon"]


def test_subspace_rejects_degenerate():
    # input is judged by InputFormatError, which is a ValueError too
    assert issubclass(InputFormatError, ValueError)
    with pytest.raises(InputFormatError):
        Subspace.from_basis([(1, 0), (0, 1)])      # k = n
    with pytest.raises(InputFormatError):
        Subspace.from_basis([(1, 1, 0), (2, 2, 0)])
    with pytest.raises(InputFormatError):
        Subspace.from_kernel([(0, 0, 0)])
    with pytest.raises(InputFormatError, match="^ragged rows$"):
        Subspace.from_kernel([(1, 0, 0), (0, 1)])
    with pytest.raises(InputFormatError):
        Subspace.from_basis([])
    with pytest.raises(InputFormatError, match="^inconsistent vector lengths$"):
        PolyhedralSpace.from_vertices([(1, 0), (-1, 0), (0, 1, 0), (0, -1, 0)])


@pytest.mark.parametrize("build", [polar_dual, PolyhedralSpace.from_vertices])
def test_vectors_with_no_entries_are_refused(build):
    # R^0 has no ball: a list of zero-length vectors is malformed input,
    # refused before the polar is formed
    for vectors in ([()], [(), ()]):
        with pytest.raises(InputFormatError, match="^vectors have no entries$"):
            build(vectors)


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


@pytest.mark.parametrize("basis, ambient", [([(1, 2)], 2), ([(1, 2, 3, 4)], 4)])
def test_general_position_refuses_a_subspace_of_another_dimension(basis, ambient):
    # the walk rows would be dot products of vectors of unequal lengths
    with pytest.raises(ValueError,
                       match=f"^a subspace of R\\^{ambient} in a space of dimension 3$"):
        general_position_check(linf_ball(3), Subspace.from_basis(basis))


def test_general_position_budget():
    space = linf_ball(4)
    Y = Subspace.from_kernel([(2, 1, 1, 1)])
    with pytest.raises(BudgetExceededError):
        general_position_check(space, Y, budget=5)


def test_general_position_budget_boundary_on_l1_6_hyperplane():
    # Spans of one of the 6 vertex pairs, kernels of at most 5 of the 32
    # dual pairs: 32 + 496 + 4960 + 35960 + 201376 = 242824 subsets.  No
    # subtree is cut, so the walks charge 6 row steps for the spans (the
    # root groups its 6 rows) and 32, 32, 990, 10353 and 76412 for the
    # kernels of sizes 1 to 5: the rows each node carries to each child,
    # and the rows each node two levels above the leaves groups.
    space, Y = l1_ball(6), random_subspace(6, 5, 7)
    assert 6 + 32 + 32 + 990 + 10_353 + 76_412 == 87_825
    r = general_position_check(space, Y, budget=87_825)
    assert r.in_general_position
    assert (r.spans_checked, r.kernels_checked) == (6, 242_824)
    with pytest.raises(
            BudgetExceededError,
            match="^kernel enumeration exceeded its work budget of 87824 row steps$"):
        general_position_check(space, Y, budget=87_824)


def _assert_completes_from_its_work(space, Y, report):
    """The check gives report at every budget from the row steps it
    charges, and below that stops with the budget error of the walk it
    is in."""
    edge = work_edge(geometry, general_position_check, space, Y)
    for budget in range(edge + 2):
        outcome = budget_outcome(general_position_check, space, Y, budget=budget)
        if budget >= edge:
            assert outcome == report, budget
        else:
            assert re.fullmatch(r"(vertex-span|kernel) enumeration exceeded its "
                                rf"work budget of {budget} row steps", outcome)
    return edge


# e1, e2 and e1 + e2 are dependent vertices; the others are e3, e4, e5.
_DEPENDENT_TRIPLE = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0),
                     (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]


def _cut_prefixes(space, Y, size):
    """The prefixes under which the leaf walk over the projected vertex
    pairs cuts a subtree at this size."""
    X, G = primal_vertices(space), annihilator_functionals(Y)
    projected = [over_denominator([dot(X[i], g) for g in G])[0]
                 for i in space.primal_reps]
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
    _assert_completes_from_its_work(space, Y, r)


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
        sum(math.comb(7, s) for s in range(1, 6)), len(space.dual_reps))
    assert r == general_position_per_subset(space, Y)
    _assert_completes_from_its_work(space, Y, r)


def test_general_position_budget_runs_out_inside_a_leaf_batch():
    # The line Y lies in the span of e1, e2, e3, e5 (pair positions 0, 1,
    # 3, 5) and in no span of fewer vertices.  The 41 subsets of sizes 1
    # to 3 pass; at size 4 the node (0, 1) decides its leaves at once: the
    # 3 under the prefix (0, 1, 2), which the leaf walk cuts at depth 3,
    # then (0, 1, 3, 4), which passes, then (0, 1, 3, 5), which fails.
    # No head is zero, so no subtree is cut: the walks charge 6 and 6 row
    # steps at sizes 1 and 2 (the root groups its 6 rows), 2 * (5 + 4 + 3
    # + 2) at size 3 (the rows carried to each child, which groups them),
    # and at size 4 the 5 rows carried to (0,), the 4 carried to (0, 1)
    # and the 4 it groups before it decides its leaves.  So every budget
    # from 49 to 52 stops at that last charge, and the budget error wins
    # over the failing leaf in its batch.
    space = PolyhedralSpace.from_vertices(
        [q for p in _DEPENDENT_TRIPLE for q in (p, tuple(-x for x in p))])
    Y = Subspace.from_basis([(1, 2, 4, 0, 16)])
    reps = space.primal_reps
    assert _cut_prefixes(space, Y, 4) == [(0, 1, 2)]
    r = general_position_check(space, Y)
    assert r == general_position_per_subset(space, Y)
    assert (r.witness_kind, r.witness) == ("span", tuple(reps[i] for i in (0, 1, 3, 5)))
    assert (r.spans_checked, r.kernels_checked) == (46, 0)
    edge = _assert_completes_from_its_work(space, Y, r)
    assert edge == 6 + 6 + 2 * (5 + 4 + 3 + 2) + 5 + 4 + 4 == 53
