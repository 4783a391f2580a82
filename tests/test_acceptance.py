"""Binding end-to-end checks, one test per criterion, all equalities
exact (tolerance zero).  Each test prints a single "ACCEPTANCE n:
PASS/FAIL" line; run with ``pytest -s tests/test_acceptance.py`` to see
the lines for passing criteria as well."""

from contextlib import contextmanager
from fractions import Fraction

from minproj.catalog import l1_ball, linf_ball, mixed_ball, paper_cases, random_subspace
from minproj.certificates import cm_from_dual, cm_rank_gap, minimal_support_cm, \
    trace_on_subspace, verify_cm
from minproj.geometry import Subspace, general_position_check, norm_eval, polar_dual
from minproj.linalg import RMatrix, solve_linear
from minproj.projections import OperatorPoint, face_dimension, max_norming_projection, \
    norming_pairs, operator_norm, projection_constant
from minproj.simplex import OPTIMAL, SOLVE_STATS, solve

from oracles import make_lp

ONE = Fraction(1)


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {summary}")


def _coordinates_of(basis, matrix):
    """Express matrix - base_projection in the operator basis."""
    A = RMatrix.from_rows([op.entries for op in basis.basis_ops]).transpose()
    b = matrix.add(basis.base_projection.scale(Fraction(-1))).entries
    coeffs = solve_linear(A, b)
    assert coeffs is not None
    return OperatorPoint(coeffs)


def test_criterion_1_hyperplane_constants(analyzed):
    with criterion(1, "lambda = 2 - 2/n with the unique averaging projection, "
                      "both balls, n in {3, 4, 5}"):
        for tag in ("l1", "linf"):
            for n in (3, 4, 5):
                rec = analyzed[f"ker-sum-{tag}-n{n}"]
                assert rec.report.lam == 2 - Fraction(2, n)
                assert rec.face_dim == 0
                matrix = rec.report.basis.realize(rec.report.interior)
                expected = [[(ONE if i == j else 0) - Fraction(1, n)
                             for j in range(n)] for i in range(n)]
                assert matrix.entries == RMatrix.from_rows(expected).entries


def test_criterion_2_norm_one_slice_in_l1_4(analyzed):
    with criterion(2, "l1^4 onto span{e3, e4}: lambda = 1, face dim 4, every "
                      "shifted operator P0 + L_ij is minimal"):
        rec = analyzed["coordinate-span-l1-n4-k2"]
        assert rec.report.lam == 1
        assert rec.face_dim == 4 == 2 * (4 - 2)
        space, Y = rec.case.space, rec.case.subspace
        base = [[Fraction(0)] * 4 for _ in range(4)]
        base[2][2] = base[3][3] = ONE
        for i in (0, 1):
            for j in (2, 3):
                entries = [row[:] for row in base]
                entries[j][i] = ONE
                P = RMatrix.from_rows(entries)
                assert P.matmul(P).entries == P.entries
                assert operator_norm(space, P) == 1
                point = _coordinates_of(rec.report.basis, P)
                assert norming_pairs(space, Y, point, ONE, rec.report.grid)


def test_criterion_3_mixed_extremal_face(analyzed):
    with criterion(3, "mixed ball n=5: lambda = 4/3 with face dim k(n-k) - 2 = 4, "
                      "monotone over the restricted l1^3 pair"):
        rec = analyzed["mixed-extremal-n5-k3"]
        assert rec.report.lam == Fraction(4, 3)
        assert rec.face_dim == 4 == 3 * (5 - 3) - 2
        restricted = projection_constant(
            l1_ball(3), Subspace.from_kernel([(1, 1, 1)]))
        assert restricted.lam == Fraction(4, 3)
        assert rec.report.lam >= restricted.lam


def test_criterion_4_dimension_spectrum(analyzed):
    with criterion(4, "linf^5 partial sums sweep face dims 2, 1, 0; the mixed "
                      "first-coordinate hyperplane has lambda 1, face dim 2"):
        for k, fd in ((3, 2), (4, 1)):
            rec = analyzed[f"partial-sum-linf-n5-k{k}"]
            assert rec.report.lam == 2 - Fraction(2, k)
            assert rec.face_dim == fd == 5 - k
        rec = analyzed["ker-sum-linf-n5"]
        assert rec.report.lam == Fraction(8, 5)
        assert rec.face_dim == 0
        rec = analyzed["first-coordinate-mixed-n4"]
        assert rec.report.lam == 1
        assert rec.face_dim == 2


def test_criterion_5_trace_identity(analyzed):
    with criterion(5, "dual-extracted certificate has trace lambda and passes "
                      "verify_cm on every catalog case"):
        for rec in analyzed.values():
            space, Y = rec.case.space, rec.case.subspace
            cm = cm_from_dual(rec.report)
            assert trace_on_subspace(space, Y, cm) == rec.report.lam
            verdict = verify_cm(space, Y, cm, rec.report.lam,
                                rec.report.interior, basis=rec.report.basis)
            assert verdict.ok and not verdict.violations


def test_criterion_6_support_lower_bounds(analyzed):
    with criterion(6, "minimal support >= 3 when lambda > 1; >= n plus a "
                      "strict rank drop under general position"):
        generic = set()
        for rec in analyzed.values():
            if rec.report.lam <= 1:
                continue
            space, Y = rec.case.space, rec.case.subspace
            cm, size = minimal_support_cm(space, Y, rec.implicit,
                                          rec.report.lam,
                                          witness=rec.report.interior)
            assert size >= 3
            if general_position_check(space, Y).in_general_position:
                generic.add(rec.case.name)
                assert size >= space.dim
                rank_full, rank_restricted = cm_rank_gap(
                    space, Y, cm, rec.report.lam)
                assert rank_restricted < rank_full
        assert generic == {"ker-sum-linf-n3", "ker-sum-linf-n5"}


def test_criterion_7_norming_pair_counts(analyzed):
    with criterion(7, "a minimal projection with >= n norming pairs exists "
                      "on every catalog case"):
        for rec in analyzed.values():
            _, count = max_norming_projection(
                rec.case.space, rec.case.subspace, rec.report)
            assert count >= rec.case.space.dim


def test_criterion_8_genericity_sweep():
    with criterion(8, "seeded subspaces of linf^4 in general position have "
                      "face dim <= k(n-k) - n + 1"):
        space = linf_ball(4)
        skipped = []
        for k, seeds in ((3, range(1, 21)), (2, range(101, 121))):
            bound = k * (4 - k) - 4 + 1
            for seed in seeds:
                Y = random_subspace(4, k, seed)
                if not general_position_check(space, Y).in_general_position:
                    skipped.append((k, seed))
                    continue
                report = projection_constant(space, Y)
                fd, _ = face_dimension(space, Y, report)
                assert fd <= bound
                if k == 3:
                    assert fd == 0
        print(f"genericity sweep: {40 - len(skipped)} subspaces checked, "
              f"{len(skipped)} skipped: {skipped}")


def test_criterion_9_oracle_equivalences(analyzed):
    with criterion(9, "norm oracle matches the gauge LP, polar duality is an "
                      "involution, every optimal solve verified strong duality"):
        balls = (l1_ball(3), l1_ball(4), l1_ball(5), linf_ball(3),
                 linf_ball(4), linf_ball(5), mixed_ball(4, 3), mixed_ball(5, 3))
        state = 2024
        def next_value():
            nonlocal state
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            return state >> 33
        for space in balls:
            for _ in range(100):
                x = tuple(Fraction(next_value() % 19 - 9, next_value() % 4 + 1)
                          for _ in range(space.dim))
                assert norm_eval(space, x) == _gauge_lp_norm(space, x)
            back = polar_dual(polar_dual(space.primal_vertices))
            assert set(back) == set(space.primal_vertices)
        assert SOLVE_STATS["optimal"] == SOLVE_STATS["duality_verified"] > 0


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
