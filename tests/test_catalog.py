import itertools
from fractions import Fraction

import pytest

from minproj.catalog import (coordinate_span, first_coordinate, ker_sum, l1_ball,
                             linf_ball, mixed_ball, mixed_extremal, paper_cases,
                             partial_sum, random_subspace)
from minproj.geometry import norm_eval, polar_dual
from minproj.linalg import cleared, integer_row_rank
from minproj.projections import face_dimension, projection_constant

F = Fraction


def test_coordinate_ball_counts():
    assert len(l1_ball(3).primal_vertices) == 6
    assert len(l1_ball(3).dual_vertices) == 8
    assert len(linf_ball(3).primal_vertices) == 8
    assert len(linf_ball(3).dual_vertices) == 6
    with pytest.raises(ValueError):
        l1_ball(1)


def test_l1_polar_is_cube():
    cube = {tuple(F(s) for s in signs)
            for signs in itertools.product((1, -1), repeat=3)}
    assert set(polar_dual(l1_ball(3).primal_vertices)) == cube


def test_mixed_ball_structure():
    space = mixed_ball(5, 3)
    assert len(space.primal_vertices) == 16
    assert norm_eval(space, (1, 1, 1, 1, 2)) == 4
    assert norm_eval(space, (F(1, 2), 0, 0, 0, 3)) == 3
    assert sorted(mixed_ball(4, 2).primal_vertices) == sorted(l1_ball(4).primal_vertices)
    with pytest.raises(ValueError):
        mixed_ball(4, 4)
    with pytest.raises(ValueError):
        mixed_ball(4, 1)


def test_paper_cases_well_formed():
    cases = paper_cases()
    assert len(cases) == 16
    assert len({c.name for c in cases}) == 16
    for case in cases:
        assert 3 <= case.space.dim <= 5
        assert 1 <= case.subspace.dim < case.space.dim
        assert case.expected is not None
        assert case.expected.lam >= 1
        assert case.expected.note


def test_expected_values_reproduce(analyzed):
    for name, a in analyzed.items():
        assert a.report.lam == a.case.expected.lam, name
        assert a.face_dim == a.case.expected.face_dim, name


@pytest.mark.parametrize("n", [6, 7, 8])
def test_closed_forms_beyond_the_paper_suite(n):
    # paper_cases checks its five families at n <= 5, but each has a
    # closed form in n; at k(n-k) - 2 the mixed-extremal face attains the
    # paper's bound for lambda > 1
    expected = [(case, 2 - F(2, n), 0) for case in ker_sum(n)] + [
        (coordinate_span(n), F(1), 2 * (n - 2)),
        (mixed_extremal(n), F(4, 3), 3 * (n - 3) - 2),
        *((partial_sum(n, k), 2 - F(2, k), n - k) for k in range(3, n)),
        (first_coordinate(n), F(1), n - 2)]
    for case, lam, face in expected:
        assert (case.expected.lam, case.expected.face_dim) == (lam, face), case.name
        report = projection_constant(case.space, case.subspace)
        assert (report.lam, face_dimension(report)[0]) == (lam, face), case.name


def test_random_subspace_determinism():
    a = random_subspace(4, 3, 1)
    b = random_subspace(4, 3, 1)
    assert a.basis_vectors() == b.basis_vectors()
    c = random_subspace(4, 3, 2)
    assert a.basis_vectors() != c.basis_vectors()


def test_random_subspace_entry_bounds_and_rank():
    for seed in (0, 3, 17, 123456789):
        for n, k in ((3, 1), (4, 2), (5, 4)):
            Y = random_subspace(n, k, seed)
            assert Y.dim == k
            rows = Y.basis_vectors()
            assert integer_row_rank(cleared(rows)[0]) == k
            for row in rows:
                for x in row:
                    assert abs(x.numerator) <= 100
                    assert 1 <= x.denominator <= 10
    with pytest.raises(ValueError):
        random_subspace(4, 0, 1)
    with pytest.raises(ValueError):
        random_subspace(4, 4, 1)


@pytest.mark.parametrize("n, k, message", [
    (1, 0, "a 1-dimensional space has no proper subspace"),
    (1, 1, "a 1-dimensional space has no proper subspace"),
    (4, 0, r"subspace dimension 0 must be in \[1, 3\]"),
    (4, 4, r"subspace dimension 4 must be in \[1, 3\]"),
])
def test_random_subspace_refuses_with_the_subspace_message(n, k, message):
    # the range of subspace dimensions is stated once, by Subspace
    with pytest.raises(ValueError, match=f"^{message}$"):
        random_subspace(n, k, 1)
