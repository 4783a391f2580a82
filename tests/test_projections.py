from fractions import Fraction

import pytest

from minproj.catalog import l1_ball, linf_ball, random_subspace
import minproj.projections as projections
from minproj.errors import InternalError, NotMinimalError
from minproj.geometry import Subspace, norm_eval
from minproj.linalg import RMatrix, rows_rank
from minproj.projections import (OperatorPoint, build_operator_basis,
                                 build_pair_grid, face_dimension,
                                 max_norming_projection, norming_pairs,
                                 operator_norm, projection_constant)
from minproj.simplex import SOLVE_STATS

from oracles import row_value

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
    assert P0.matmul(P0).row_list() == P0.row_list()
    for y in Y.basis_vectors():
        assert P0.apply(y) == y
    for op in basis.basis_ops:
        for y in Y.basis_vectors():
            assert op.apply(y) == tuple(F(0) for _ in range(n))
        assert all(Y.contains(op.col(j)) for j in range(n))
    flat = [sum(op.row_list(), ()) for op in basis.basis_ops]
    assert rows_rank(flat) == k * (n - k)


def _wrong_inverse(factor):
    """projections.inverse with its result scaled by factor."""
    right = projections.inverse
    return lambda M: right(M).scale(F(factor))


def _with_annihilator(Y, columns):
    """Y with its annihilator replaced, past the checks of Subspace."""
    object.__setattr__(Y, "annihilator", RMatrix.from_rows(columns).transpose())
    return Y


@pytest.mark.parametrize("corrupt, message", [
    (lambda mp, Y: mp.setattr(projections, "inverse", lambda M: None),
     "basis of Y plus its complement is singular"),
    (lambda mp, Y: mp.setattr(projections, "inverse", _wrong_inverse(2)),
     "base projection is not idempotent"),
    (lambda mp, Y: mp.setattr(projections, "inverse", _wrong_inverse(0)),
     "base projection does not fix Y"),
    (lambda mp, Y: _with_annihilator(Y, [(1, 0, 0), (0, 1, -1)]),
     "a basis operator does not vanish on Y"),
    (lambda mp, Y: _with_annihilator(Y, [(1, -1, 0), (2, -2, 0)]),
     "basis operators are linearly dependent"),
])
def test_operator_basis_guards_raise(monkeypatch, corrupt, message):
    # every guard raises InternalError itself, so it also fires under
    # python -O: a wrong inverse (P0 = 2·P0, or P0 = 0, which is
    # idempotent), an annihilator that misses Y, and one that vanishes on
    # Y but is dependent
    Y = Subspace.from_basis([(1, 1, 1)])
    corrupt(monkeypatch, Y)
    with pytest.raises(InternalError, match=f"^{message}$"):
        build_operator_basis(linf_ball(3), Y)


def test_realize_checks_length(ker_sum_3):
    space, Y = ker_sum_3
    basis = build_operator_basis(space, Y)
    with pytest.raises(ValueError):
        basis.realize(OperatorPoint((F(0),)))


def test_pair_grid_antipodal_dedup(ker_sum_3):
    space, Y = ker_sum_3
    basis = build_operator_basis(space, Y)
    grid = build_pair_grid(space, Y, basis)
    assert len(grid.pairs) == len(space.primal_vertices) * len(space.dual_vertices) // 2
    negp, negd = space.primal_negation, space.dual_negation
    seen = set(grid.pairs)
    for i, j in grid.pairs:
        assert (negp[i], negd[j]) not in seen


def test_hyperplane_unique_minimal_projection(ker_sum_3):
    space, Y = ker_sum_3
    report = projection_constant(space, Y)
    assert report.lam == F(4, 3)
    fd, implicit = face_dimension(space, Y, report)
    assert fd == 0
    assert len(implicit) == 3
    expected = RMatrix.from_rows([
        [F(2, 3), F(-1, 3), F(-1, 3)],
        [F(-1, 3), F(2, 3), F(-1, 3)],
        [F(-1, 3), F(-1, 3), F(2, 3)]])
    assert report.basis.realize(report.witness).row_list() == expected.row_list()
    # face dimension zero: the witness and the interior coincide
    assert report.interior == report.witness


def test_norm_one_slice_is_fully_optimal():
    space = l1_ball(4)
    Y = Subspace.from_basis([(0, 0, 1, 0), (0, 0, 0, 1)])
    report = projection_constant(space, Y)
    assert report.lam == 1
    fd, _ = face_dimension(space, Y, report)
    assert fd == 4
    basis = report.basis
    diag = RMatrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 1]])
    assert basis.base_projection.row_list() == diag.row_list()
    for op in basis.basis_ops:
        assert operator_norm(space, basis.base_projection.add(op)) == 1


def test_operator_norm_attained_on_vertices(ker_sum_3):
    space, Y = ker_sum_3
    report = projection_constant(space, Y)
    P = report.basis.realize(report.witness)
    norm = operator_norm(space, P)
    assert norm == report.lam
    state = 99
    for _ in range(25):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        weights = [(state >> (8 * i)) % 5 for i in range(4)]
        total = sum(weights) or 1
        x = [sum(F(w, total) * v[i] for w, v in zip(weights, space.primal_vertices[:4]))
             for i in range(3)]
        assert norm_eval(space, P.apply(x)) <= norm


def test_norming_pairs_rejects_non_minimal(ker_sum_3):
    space, Y = ker_sum_3
    report = projection_constant(space, Y)
    p0 = OperatorPoint((F(0),) * len(report.basis.basis_ops))
    if operator_norm(space, report.basis.base_projection) != report.lam:
        with pytest.raises(NotMinimalError):
            norming_pairs(space, Y, p0, report.lam)
    with pytest.raises(NotMinimalError, match="operator norm is"):
        norming_pairs(space, Y, report.witness, report.lam + 1)


def test_norming_pairs_of_witness_match_report(ker_sum_3):
    space, Y = ker_sum_3
    report = projection_constant(space, Y)
    pairs = norming_pairs(space, Y, report.witness, report.lam, grid=report.grid)
    assert pairs == report.norming_pairs_of_witness
    for i, j in pairs:
        f = space.dual_vertices[j]
        Px = report.basis.realize(report.witness).apply(space.primal_vertices[i])
        assert sum(a * b for a, b in zip(f, Px)) == report.lam


def test_face_dimension_bound_and_interior(analyzed):
    for name, a in analyzed.items():
        n, k = a.case.space.dim, a.case.subspace.dim
        assert 0 <= a.face_dim <= k * (n - k)
        if a.report.lam > 1:
            assert a.face_dim <= k * (n - k) - 2
        P = a.report.basis.realize(a.report.interior)
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
        point, count = max_norming_projection(a.case.space, a.case.subspace,
                                              a.report)
        pairs = norming_pairs(a.case.space, a.case.subspace, point,
                              a.report.lam, grid=a.report.grid)
        assert count == len(pairs)
        assert pairs >= a.implicit
        assert count >= a.case.space.dim


def test_max_norming_pinned_counts(analyzed):
    # regression pins from verified runs
    expected = {"ker-sum-linf-n3": 3, "partial-sum-linf-n4-k3": 7,
                "coordinate-span-l1-n3-k2": 12}
    for name, count in expected.items():
        a = analyzed[name]
        _, got = max_norming_projection(a.case.space, a.case.subspace, a.report)
        assert got == count, name


def test_max_norming_projection_solves_no_lp(analyzed):
    # l1^2 onto span(e1): the optimal face is the segment c in [-1, 1], and
    # the LP witness is already one of its vertices, normed by 4 pairs
    space, Y = l1_ball(2), Subspace.from_basis([[1, 0]])
    segment = (space, Y, projection_constant(space, Y))
    runs = [(a.case.space, a.case.subspace, a.report) for a in analyzed.values()]
    for space, Y, report in runs + [segment]:
        before = SOLVE_STATS["solves"]
        max_norming_projection(space, Y, report)
        assert SOLVE_STATS["solves"] == before
    assert max_norming_projection(*segment) == (OperatorPoint((F(-1),)), 4)
    assert segment[2].witness == OperatorPoint((F(-1),))


def test_reports_are_deterministic(ker_sum_3):
    space, Y = ker_sum_3
    r1 = projection_constant(space, Y)
    r2 = projection_constant(space, Y)
    assert r1.lam == r2.lam
    assert r1.witness == r2.witness
    assert r1.dual_certificate == r2.dual_certificate
    assert face_dimension(space, Y, r1) == face_dimension(space, Y, r2)
    assert r1.interior == r2.interior


def test_face_dimension_lp_count(analyzed):
    # at most one Gordan round per dimension the face can lose, plus one
    cases = [(a.case.space, a.case.subspace) for a in analyzed.values()]
    cases.append((linf_ball(6), random_subspace(6, 5, 7)))
    for space, Y in cases:
        report = projection_constant(space, Y)
        before = SOLVE_STATS["solves"]
        face_dimension(space, Y, report)
        assert SOLVE_STATS["solves"] - before <= Y.dim * (space.dim - Y.dim) + 1
