"""Chalmers-Metcalf certificates: convex combinations T = sum a_i x_i (x) f_i
over norming pairs that annihilate L_Y(X, Y).

A valid certificate leaves Y invariant, is norming for every minimal
projection, and its trace restricted to Y equals the projection
constant, which makes it an exact optimality witness for lambda(Y, X).
T annihilates y (x) g exactly when g(T y) = sum_i a_i f_i(y) g(x_i) = 0,
so vanishing on L_Y(X, Y) is invariance of Y; verify_cm reads both, and
the trace, off T alone, independent of the pair grid and the LP.
The LP dual of the projection solve is one such certificate; a
minimum-support one is found by exact linear solves over subsets of the
implicit pairs, smallest subsets first, with dependent subsets pruned
by integer elimination.  Both read lambda, the basis and the grid off
the MinProjReport they extend.  certify_cm judges a given certificate
from the Chalmers-Metcalf bound it proves, with one exact solve when its
pairs determine the projection, one LP when they do not, and the optimal
face only when the certificate is not valid.  The solved projection is
accepted by its exact operator norm on the vertex lists, so that route
builds no pair grid; the grid is built only for the lambda LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (BudgetExceededError, CertificateInvalidError,
                     InternalError, RankGapViolationError)
from .geometry import PolyhedralSpace, Subspace
from .linalg import (int_dot, integer_row_rank, integer_solve, over_denominator,
                     subset_walk)
from .projections import (MinProjReport, OperatorBasis, OperatorPoint, PairGrid,
                          _solve_lambda, build_operator_basis, build_pair_grid,
                          face_dimension, operator_norm, pair_rows)
from .rational import format_rational

#: Largest candidate set the minimal-support search enumerates by default.
DEFAULT_SUPPORT_CAP = 24


@dataclass(frozen=True)
class CMFunctional:
    """pairs (vertex index, dual index) with weights.  The defining
    invariants (strictly positive weights summing to one, distinct pairs)
    are judged by verify_cm rather than at construction, so third-party
    certificates can be loaded and reported on instead of rejected."""

    pairs: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.pairs) != len(self.weights):
            raise ValueError("pairs and weights must have equal length")
        if not self.pairs:
            raise ValueError("empty certificate")


@dataclass(frozen=True)
class CMVerdict:
    ok: bool
    violations: tuple[str, ...] = ()


def verify_cm(space: PolyhedralSpace, Y: Subspace, cm: CMFunctional,
              lam: Fraction, P: OperatorPoint,
              basis: OperatorBasis | None = None) -> CMVerdict:
    """Exact check of the certificate: weight sanity plus the four defining
    conditions -- (1) vanishing on every basis operator of L_Y(X, Y),
    (2) T(Y) contained in Y, (3) every pair norming for P, (4) trace of
    T|_Y equal to lam.

    The images T y_b = sum_i a_i f_i(y_b) x_i are formed in integers, over
    the cleared vertices, weights and basis of Y, with no matrix of T.
    For L_q = y_b (x) g_j, q = b(n-k) + j, the vanishing sum is
    sum_i a_i f_i(y_b) g_j(x_i) = g_j(T y_b), so (1) and (2) fail
    together, at the first nonzero g_j(T y_b): (1) reports its value and
    q, (2) its block b.  (4) sums the Y-coordinates of the same images,
    read off one exact solve, and is undefined when (2) fails.  These
    three read only the vertices, the weights and Y, never P0, the pair
    grid or the LP.  (3) reads each pair's value f(P x) off pair_rows."""
    n_p = len(space.primal_vertices)
    n_d = len(space.dual_vertices)
    for pi, dj in cm.pairs:
        if not (0 <= pi < n_p and 0 <= dj < n_d):
            return CMVerdict(False, (f"weights: pair ({pi}, {dj}) out of range",))
    violations: list[str] = []
    if len(set(cm.pairs)) != len(cm.pairs):
        violations.append("weights: duplicate pairs")
    if any(a <= 0 for a in cm.weights):
        violations.append("weights: non-positive weight")
    total = sum(cm.weights, Fraction(0))
    if total != 1:
        violations.append(f"weights: sum is {format_rational(total)}, not 1")

    if basis is None:
        basis = build_operator_basis(space, Y)
    X, dx = space.primal_cleared
    F, df = space.dual_cleared
    a, da = over_denominator(cm.weights)
    # T y_b over t_den; g_j(T y_b) over g_den·t_den.
    images = []
    for y in basis.y_num:
        image = [0] * space.dim
        for (pi, dj), ai in zip(cm.pairs, a):
            c = ai * int_dot(F[dj], y)
            if c:
                image = [s + c * x for s, x in zip(image, X[pi])]
        images.append(image)
    t_den = da * df * dx * basis.y_den
    leak = next(((q, s) for q, s in enumerate(
        int_dot(g, image) for image in images for g in basis.g_num) if s), None)
    if leak is not None:
        q, s = leak
        violations.append(
            f"vanishing: basis operator {q} gives "
            f"{format_rational(Fraction(s, basis.g_den * t_den))}")
        violations.append(
            f"invariance: T(basis vector {q // len(basis.g_num)}) leaves Y")

    if len(P.coefficients) != basis.dimension:
        raise ValueError("coefficient count does not match the operator basis")
    values, den = pair_rows(space, basis, cm.pairs).value_numerators(P.coefficients)
    for (pi, dj), v in zip(cm.pairs, values):
        if Fraction(v, den) != lam:
            violations.append(
                f"norming: pair ({pi}, {dj}) gives {format_rational(Fraction(v, den))}, "
                f"expected {format_rational(lam)}")
            break

    if leak is not None:
        violations.append("trace: undefined, T does not map Y into Y")
    else:
        # [y_num_1 .. y_num_k] C = t_den·[T y_1 .. T y_k], so the
        # coordinates of the images are C·y_den / t_den.
        k = len(images)
        coords = integer_solve(
            [list(column) + [image[r] for image in images]
             for r, column in enumerate(zip(*basis.y_num))], k)
        if coords is None:
            raise InternalError("an image of Y in Y has no coordinates in its basis")
        trace = (sum((coords[b][b] for b in range(k)), Fraction(0))
                 * basis.y_den / t_den)
        if trace != lam:
            violations.append(
                f"trace: {format_rational(trace)} differs from {format_rational(lam)}")

    return CMVerdict(ok=not violations, violations=tuple(violations))


def certify_cm(space: PolyhedralSpace, Y: Subspace, cm: CMFunctional,
               lam: Fraction) -> tuple[Fraction, CMVerdict]:
    """The projection constant lambda(Y, X) and the verdict of verify_cm on
    the certificate at a minimal projection in the relative interior of
    the optimal face, with as little work as the certificate allows.

    The Chalmers-Metcalf bound: when the weights are positive and sum to
    one, T vanishes on L_Y(X, Y) and T(Y) lies in Y, every projection Q
    onto Y has sum_i a_i f_i(Q x_i) = tr(T|_Y).  A trace lam then proves
    lambda >= lam, and a projection of norm at most lam proves lambda =
    lam.  In that case each pair has f_i(Q x_i) <= lam at every minimal
    projection Q, with weighted mean lam, so it norms every one of them,
    and a verdict that is ok at any minimal projection is the verdict at
    the relative interior.  The routes, in order:

    - no LP: when the certificate's pair rows have rank k(n-k), the one
      projection they can all norm at lam solves coefs·c = lam - base; it
      is tried when its operator norm, read off the vertex lists, is at
      most lam, and no pair grid is built;
    - one LP: otherwise the lambda LP is solved, and its witness is tried
      when its value is lam;
    - the face: when verify_cm fails at the projection tried, or there is
      none, the certificate is not valid.  face_dimension finds the
      relative interior of the optimal face and verify_cm runs there, as
      in the full pipeline, so the violations read the same.

    One operator basis serves every route; the pair grid is built only
    for the lambda LP, at most once.
    """
    basis = build_operator_basis(space, Y)
    n_p, n_d = len(space.primal_vertices), len(space.dual_vertices)
    report = point = None
    if all(0 <= i < n_p and 0 <= j < n_d for i, j in cm.pairs):
        rows = pair_rows(space, basis, cm.pairs)
        if integer_row_rank(rows.coefs_num) == basis.dimension:
            point = _projection_normed_by(rows, space, basis, lam)
        else:
            report = _solve_lambda(space, Y, basis, build_pair_grid(space, basis))
            if report.lam == lam:
                point = report.witness
    if point is not None:
        verdict = verify_cm(space, Y, cm, lam, point, basis=basis)
        if verdict.ok:
            return lam, verdict
    if report is None:
        report = _solve_lambda(space, Y, basis, build_pair_grid(space, basis))
    face_dimension(report)
    verdict = verify_cm(space, Y, cm, lam, report.interior, basis=basis)
    if report.lam < lam and all(v.startswith("norming:") for v in verdict.violations):
        raise InternalError(
            f"the certificate proves lambda >= {format_rational(lam)}, "
            f"the LP gives {format_rational(report.lam)}")
    return report.lam, verdict


def _projection_normed_by(rows: PairGrid, space: PolyhedralSpace,
                          basis: OperatorBasis, lam: Fraction
                          ) -> OperatorPoint | None:
    """The projection c at which every row of rows, of full column rank,
    has value lam, when it exists and its operator norm is at most lam;
    otherwise None.

    coefs·c = lam·D - base is solved in integers as
    coefs·(lam_den·c) = lam_num·D - lam_den·base by linalg.integer_solve,
    and c is its solution over lam_den.  The norm is
    projections.operator_norm of the realized matrix: the largest f(P x)
    over the vertex lists, which is the largest value over every pair,
    with no pair grid."""
    d = len(rows.coefs_num[0])
    D = rows.denominator
    solution = integer_solve([list(row) + [lam.numerator * D - lam.denominator * b]
                              for row, b in zip(rows.coefs_num, rows.base_num)], d)
    if solution is None:
        return None
    point = OperatorPoint(tuple(x / lam.denominator for x, in solution))
    if operator_norm(space, basis.realize(point)) > lam:
        return None
    return point


def cm_from_dual(report: MinProjReport) -> CMFunctional:
    """Certificate from the positive LP dual weights, as they are: the
    verified dual equation of the t column makes them sum to one.
    Verified before being returned."""
    items = sorted(report.dual_certificate.items())
    if not items:
        raise CertificateInvalidError("empty dual certificate")
    cm = CMFunctional(pairs=tuple(p for p, _ in items),
                      weights=tuple(w for _, w in items))
    verdict = verify_cm(report.space, report.subspace, cm, report.lam,
                        report.witness, basis=report.basis)
    if not verdict.ok:
        raise CertificateInvalidError("; ".join(verdict.violations))
    return cm


def minimal_support_cm(report: MinProjReport, max_candidates: int = DEFAULT_SUPPORT_CAP
                       ) -> tuple[CMFunctional, int]:
    """Smallest-support certificate over the implicit pairs of a report
    whose face is settled (face_dimension); ValueError otherwise.

    Each pair p contributes the column [v_p; 1], where v_p lists its
    values on the basis operators of L_Y(X, Y); a subset is a valid
    support exactly when [v_p; 1]·w = [0; 1] has a solution w > 0.
    Subsets are visited by cardinality, then lexicographically, and the
    first valid one is returned, so it has globally minimal support over
    the implicit pairs.  A smallest support has linearly independent
    columns (Caratheodory: a dependent one could be shrunk, and smaller
    sizes come first), so sizes beyond k(n-k) + 1 are never tried and
    every dependent subset can be skipped.  The implicit pairs hold the
    lambda dual's support, so they are never empty.

    The walk runs on the integer columns [coefs_num_p; D] = D·[v_p; 1]
    of the grid, D its denominator, against the target [0; D]: the same
    system scaled by D > 0, with the same solutions.  The grid lists its
    pairs sorted, so the implicit rows are in pair order.  The target
    spans the last coordinate, so a column's head, its first d entries,
    is the column modulo the target, and independent columns span the
    target exactly when their heads are dependent.  Each size is one
    linalg.subset_walk over the implicit rows' columns with heads of
    width d.  It yields, in lexicographic order, the independent subsets
    whose span holds the target while no prefix's span does.  The
    weights of a subset are unique, and under a prefix whose span holds
    the target they are zero on the columns after it, so the walk cuts
    that subtree with those of the dependent prefixes and loses no
    support.  It decides the last two columns at once: at a node two
    columns short of the size, a pair of carried columns completes a
    yielded subset exactly when their heads are parallel, or the second
    head is zero (its column is parallel to the carried target), and the
    columns themselves are not parallel.  Only the yielded subsets are
    solved exactly for their weights, from the same integer columns, and
    tested for w > 0.  The hit is verified at the report's
    relative-interior point, a minimal projection, before it is returned.
    """
    if report.interior is None:
        raise ValueError("the report's optimal face is not settled")
    rows = report._implicit_rows
    if len(rows) > max_candidates:
        raise BudgetExceededError(
            f"{len(rows)} candidate pairs exceed the cap of {max_candidates}")

    grid = report.grid
    d = report.basis.dimension
    columns = [list(grid.coefs_num[r]) + [grid.denominator] for r in rows]
    target = [0] * d + [grid.denominator]

    for size in range(1, min(d + 1, len(rows)) + 1):
        for _, subset in subset_walk(columns, size, d):
            if subset is None:
                continue
            weights = _support_weights([columns[i] for i in subset], target)
            if weights is None:
                raise InternalError(
                    "the subset walk yielded columns whose span misses the target")
            if any(w <= 0 for w in weights):
                continue
            cm = CMFunctional(pairs=tuple(grid.pairs[rows[i]] for i in subset),
                              weights=weights)
            check = verify_cm(report.space, report.subspace, cm, report.lam,
                              report.interior, basis=report.basis)
            if not check.ok:
                raise CertificateInvalidError(
                    "subset search produced an invalid certificate: "
                    + "; ".join(check.violations))
            return cm, size
    raise CertificateInvalidError("no valid certificate over the candidate pairs")


def _support_weights(columns: list[list[int]],
                     target: list[int]) -> tuple[Fraction, ...] | None:
    """The w with sum_i w_i columns[i] = target, for independent integer
    columns, or None when target is not in their span (linalg.integer_solve
    on the system [columns | target])."""
    w = integer_solve([list(row) for row in zip(*columns, target)], len(columns))
    return None if w is None else tuple(x for x, in w)


def cm_rank_gap(space: PolyhedralSpace, Y: Subspace, cm: CMFunctional,
                lam: Fraction | None = None) -> tuple[int, int]:
    """Rank of the certificate functionals in X* versus the rank of their
    restrictions to Y.  When lam > 1 is supplied, a missing strict drop
    raises RankGapViolationError: the restricted rank is always strictly
    smaller in that regime, so equality signals an implementation bug."""
    F = space.dual_cleared[0]
    fs = [F[dj] for _, dj in cm.pairs]
    rank_full = integer_row_rank(fs)
    rank_restricted = integer_row_rank([[int_dot(f, y) for y in Y.basis_num]
                                        for f in fs])
    if lam is not None and lam > 1 and rank_restricted >= rank_full:
        raise RankGapViolationError(
            f"restricted rank {rank_restricted} does not drop below {rank_full}")
    return rank_full, rank_restricted
