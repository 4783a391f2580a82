from fractions import Fraction

import pytest

from minproj.catalog import l1_ball, linf_ball, random_subspace
import minproj.projections as projections
from minproj.errors import InternalError
from minproj.geometry import PolyhedralSpace, Subspace
from minproj.linalg import RMatrix, integer_row_rank
from minproj.projections import (OperatorPoint, build_operator_basis,
                                 build_pair_grid, face_dimension,
                                 max_norming_projection, operator_norm,
                                 projection_constant)

from oracles import (dual_vertices, matadd, matmul, norm_every_vertex, norming_pairs,
                     operator_norm_by_fractions, operator_norm_every_vertex,
                     primal_vertices, realize_by_fractions, rref_by_fractions,
                     row_value)

F = Fraction


@pytest.fixture(scope="module")
def ker_sum_3():
    space = linf_ball(3)
    Y = Subspace.from_kernel([(1, 1, 1)])
    return space, Y


def test_operator_basis_structure(ker_sum_3):
    space, Y = ker_sum_3
    basis = build_operator_basis(space, Y)
    n, k = space.dim, Y.dim
    assert len(basis.basis_ops) == k * (n - k)
    P0 = basis.base_projection
    assert matmul(P0, P0).row_list() == P0.row_list()
    for y in Y.basis_vectors():
        assert P0.apply(y) == y
    for op in basis.basis_ops:
        for y in Y.basis_vectors():
            assert op.apply(y) == tuple(F(0) for _ in range(n))
        assert all(Y.contains(op.col(j)) for j in range(n))
    flat = [sum(op.row_list(), ()) for op in basis.basis_ops]
    assert len(rref_by_fractions(flat)[1]) == k * (n - k)


def _wrong_inverse(factor):
    """projections.integer_inverse with its rows scaled by factor."""
    right = projections.integer_inverse

    def wrong(rows):
        H, den = right(rows)
        return [[factor * x for x in h] for h in H], den
    return wrong


@pytest.mark.parametrize("corrupt, message", [
    (lambda mp, Y: mp.setattr(projections, "integer_inverse", lambda rows: None),
     "basis of Y plus its complement is singular"),
    pytest.param(lambda mp, Y: mp.setattr(projections, "integer_inverse",
                                          _wrong_inverse(2)),
                 "base projection does not fix Y", id="doubled-inverse"),
    (lambda mp, Y: mp.setattr(projections, "integer_inverse", _wrong_inverse(0)),
     "base projection does not fix Y"),
])
def test_operator_basis_guards_raise(monkeypatch, corrupt, message):
    # every guard raises InternalError itself, so it also fires under
    # python -O: a wrong inverse (P0 = 2·P0, or P0 = 0, which is
    # idempotent) breaks H·Y = h_den·I, from which P0^2 = P0 and P0 y = y
    # follow
    Y = Subspace.from_basis([(1, 1, 1)])
    corrupt(monkeypatch, Y)
    with pytest.raises(InternalError, match=f"^{message}$"):
        build_operator_basis(linf_ball(3), Y)


def test_realize_checks_length(ker_sum_3):
    space, Y = ker_sum_3
    basis = build_operator_basis(space, Y)
    with pytest.raises(ValueError):
        basis.realize_cleared(OperatorPoint((F(0),)))


def test_pair_grid_antipodal_dedup(ker_sum_3):
    space, Y = ker_sum_3
    basis = build_operator_basis(space, Y)
    grid = build_pair_grid(space, basis)
    assert len(grid.pairs) == len(space.primal_cleared[0]) * len(space.dual_cleared[0]) // 2
    negp, negd = space.primal_negation, space.dual_negation
    seen = set(grid.pairs)
    for i, j in grid.pairs:
        assert (negp[i], negd[j]) not in seen


def test_hyperplane_unique_minimal_projection(ker_sum_3):
    space, Y = ker_sum_3
    report = projection_constant(space, Y)
    assert report.lam == F(4, 3)
    fd, implicit = face_dimension(report)
    assert fd == 0
    assert len(implicit) == 3
    expected = RMatrix.from_rows([
        [F(2, 3), F(-1, 3), F(-1, 3)],
        [F(-1, 3), F(2, 3), F(-1, 3)],
        [F(-1, 3), F(-1, 3), F(2, 3)]])
    assert realize_by_fractions(report.basis, report.witness).row_list() == expected.row_list()
    # face dimension zero: the witness and the interior coincide
    assert report.interior == report.witness


def test_norm_one_slice_is_fully_optimal():
    space = l1_ball(4)
    Y = Subspace.from_basis([(0, 0, 1, 0), (0, 0, 0, 1)])
    report = projection_constant(space, Y)
    assert report.lam == 1
    fd, _ = face_dimension(report)
    assert fd == 4
    basis = report.basis
    diag = RMatrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 1]])
    assert basis.base_projection.row_list() == diag.row_list()
    for op in basis.basis_ops:
        assert operator_norm(space, matadd(basis.base_projection, op)) == 1


def test_operator_norm_attained_on_vertices(ker_sum_3):
    space, Y = ker_sum_3
    report = projection_constant(space, Y)
    P = realize_by_fractions(report.basis, report.witness)
    norm = operator_norm(space, P)
    assert norm == report.lam
    X = primal_vertices(space)[:4]
    state = 99
    for _ in range(25):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        weights = [(state >> (8 * i)) % 5 for i in range(4)]
        total = sum(weights) or 1
        x = [sum(F(w, total) * v[i] for w, v in zip(weights, X))
             for i in range(3)]
        assert norm_every_vertex(space, P.apply(x)) <= norm


def test_operator_norm_is_lambda_on_every_catalog_case(analyzed):
    # at the witness and at the relative interior, by the integer norm
    # and by the Fraction one it replaced
    for name, a in analyzed.items():
        for point in (a.report.witness, a.report.interior):
            P = realize_by_fractions(a.report.basis, point)
            assert operator_norm(a.case.space, P) == a.report.lam, name
            assert operator_norm_by_fractions(a.case.space, P) == a.report.lam, name
    with pytest.raises(ValueError, match="2x2 matrix on a space of dimension 3"):
        operator_norm(l1_ball(3), RMatrix.from_rows([[1, 0], [0, 1]]))


@pytest.mark.parametrize("basis, ambient", [([(1, 2)], 2), ([(1, 2, 3, 4)], 4)])
def test_projection_constant_refuses_a_subspace_of_another_dimension(basis, ambient):
    # a line of R^2 or R^4 is no subspace of l-inf^3: the operator basis
    # would read its entries against three coordinates
    Y = Subspace.from_basis(basis)
    message = f"^a subspace of R\\^{ambient} in a space of dimension 3$"
    with pytest.raises(ValueError, match=message):
        build_operator_basis(linf_ball(3), Y)
    with pytest.raises(ValueError, match=message):
        projection_constant(linf_ball(3), Y)


def test_operator_norm_on_unvalidated_lists():
    # validate=False takes symmetric lists as given, neither extreme nor
    # each other's polar: the norm reads one vertex of each antipodal
    # pair and still gives the maximum over every listed vertex, as the
    # Fraction one and the pass over every vertex do.  The lists hold an
    # interior pair, a dual list that is not the polar, a one-pair dual
    # list, and a one-pair primal list that does not span
    P = RMatrix.from_rows([[F(1, 2), F(-3)], [F(2, 3), F(1, 5)]])
    spaces = [
        PolyhedralSpace.from_vertices(
            [(1, 0), (-1, 0), (0, 1), (0, -1), (F(1, 2), F(1, 2)), (F(-1, 2), F(-1, 2))],
            dual_vertices=[(2, -1), (-2, 1), (-1, 2), (1, -2)], validate=False),
        PolyhedralSpace.from_vertices(primal_vertices(linf_ball(2)),
                                      dual_vertices=[(1, 0), (-1, 0)],
                                      validate=False),
        PolyhedralSpace.from_vertices([(1, 1), (-1, -1)],
                                      dual_vertices=[(1, 0), (-1, 0)],
                                      validate=False),
    ]
    for space in spaces:
        assert operator_norm(space, P) == operator_norm_by_fractions(space, P)
        assert operator_norm(space, P) == operator_norm_every_vertex(space, P)
    assert [operator_norm(space, P) for space in spaces] == [F(31, 5), F(7, 2), F(5, 2)]


def test_witness_rows_are_its_norming_pairs(ker_sum_3):
    space, Y = ker_sum_3
    report = projection_constant(space, Y)
    pairs = norming_pairs(report, report.witness)
    assert pairs == {report.grid.pairs[r] for r in report.witness_rows}
    X, D = primal_vertices(space), dual_vertices(space)
    P = realize_by_fractions(report.basis, report.witness)
    for i, j in pairs:
        f, Px = D[j], P.apply(X[i])
        assert sum(a * b for a, b in zip(f, Px)) == report.lam


def test_face_dimension_bound_and_interior(analyzed):
    for name, a in analyzed.items():
        n, k = a.case.space.dim, a.case.subspace.dim
        assert 0 <= a.face_dim <= k * (n - k)
        if a.report.lam > 1:
            assert a.face_dim <= k * (n - k) - 2
        P = realize_by_fractions(a.report.basis, a.report.interior)
        assert operator_norm(a.case.space, P) == a.report.lam, name


def test_implicit_pairs_norm_every_sampled_minimal_point(analyzed):
    a = analyzed["partial-sum-linf-n5-k3"]
    grid = a.report.grid
    lam = a.report.lam
    # the witness is one sampled minimal projection; implicit pairs must
    # be tight there as well as at the interior
    rows = {grid.pairs[r]: r for r in range(len(grid.pairs))}
    for pair in a.implicit:
        r = rows[pair]
        assert row_value(grid, r, a.report.witness.coefficients) == lam
        assert row_value(grid, r, a.report.interior.coefficients) == lam


def test_max_norming_extends_implicit(analyzed):
    for name in ("ker-sum-linf-n3", "partial-sum-linf-n4-k3",
                 "coordinate-span-l1-n3-k2"):
        a = analyzed[name]
        point, count = max_norming_projection(a.report)
        pairs = norming_pairs(a.report, point)
        assert count == len(pairs)
        assert pairs >= a.implicit
        assert count >= a.case.space.dim


def test_max_norming_pinned_counts(analyzed):
    # regression pins from verified runs
    expected = {"ker-sum-linf-n3": 3, "partial-sum-linf-n4-k3": 7,
                "coordinate-span-l1-n3-k2": 12}
    for name, count in expected.items():
        a = analyzed[name]
        _, got = max_norming_projection(a.report)
        assert got == count, name


def test_max_norming_projection_solves_no_lp(analyzed, spy):
    # l1^2 onto span(e1): the optimal face is the segment c in [-1, 1], and
    # the LP witness is already one of its vertices, normed by 4 pairs
    space, Y = l1_ball(2), Subspace.from_basis([[1, 0]])
    segment = projection_constant(space, Y)
    counts = spy(projections, "solve")
    for report in [a.report for a in analyzed.values()] + [segment]:
        max_norming_projection(report)
    assert counts["solve"] == 0
    assert max_norming_projection(segment) == (OperatorPoint((F(1),)), 4)
    assert segment.witness == OperatorPoint((F(1),))


def test_reports_are_deterministic(ker_sum_3):
    space, Y = ker_sum_3
    r1 = projection_constant(space, Y)
    r2 = projection_constant(space, Y)
    assert r1.lam == r2.lam
    assert r1.witness == r2.witness
    assert r1.dual_rows == r2.dual_rows
    assert r1.dual_weights == r2.dual_weights
    assert face_dimension(r1) == face_dimension(r2)
    assert r1.interior == r2.interior


def _face_lps(report, counts):
    """The number of LPs face_dimension solves on the report, read off
    the spy on projections.solve that keeps counts."""
    before = counts["solve"]
    face_dimension(report)
    return counts["solve"] - before


def test_face_dimension_lp_count(analyzed, spy):
    # at most one Gordan round per dimension the face can lose, plus one
    cases = [(a.case.space, a.case.subspace) for a in analyzed.values()]
    cases.append((linf_ball(6), random_subspace(6, 5, 7)))
    counts = spy(projections, "solve")
    for space, Y in cases:
        report = projection_constant(space, Y)
        assert _face_lps(report, counts) <= Y.dim * (space.dim - Y.dim) + 1


def test_face_dimension_solves_no_lp_when_the_dual_fixes_the_point(analyzed, spy):
    # The rows of the lambda dual's support are implicit by complementary
    # slackness; when their [coefs_r, -D] have rank d + 1 they leave the
    # face no direction, so no Gordan round is needed
    runs = [(a.case.space, a.case.subspace) for name, a in analyzed.items()
            if name.startswith("ker-sum")]
    runs.append((l1_ball(5), random_subspace(5, 4, 7)))
    counts = spy(projections, "solve")
    for space, Y in runs:
        report = projection_constant(space, Y)
        grid, d = report.grid, report.basis.dimension
        assert integer_row_rank([grid.row(r) for r in report.dual_rows]) == d + 1
        assert _face_lps(report, counts) == 0
        assert report.face_dim == 0
        assert report.interior == report.witness


def test_face_dimension_lp_count_on_seeded_inputs(spy):
    # the eight seeded n = 4, 5 inputs of the pipeline benchmark: two
    # Gordan rounds in all, against ten from no implicit row
    counts = spy(projections, "solve")
    total = 0
    for ball in (linf_ball, l1_ball):
        for n in (4, 5):
            for k in (n - 1, 2):
                space, Y = ball(n), random_subspace(n, k, 7)
                total += _face_lps(projection_constant(space, Y), counts)
    assert total == 2
