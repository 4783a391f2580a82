"""Chalmers-Metcalf certificates: convex combinations T = sum a_i x_i (x) f_i
over norming pairs that annihilate L_Y(X, Y).

A valid certificate leaves Y invariant, is norming for every minimal
projection, and its trace restricted to Y equals the projection
constant, which makes it an exact optimality witness for lambda(Y, X).
T annihilates y (x) g exactly when g(T y) = sum_i a_i f_i(y) g(x_i) = 0,
so vanishing on L_Y(X, Y) is invariance of Y; verify_cm reads both, and
the trace, off T alone, independent of the pair grid and the LP.  It
reads each pair's value f(P x) off P realized as an integer matrix, as
the operator norm reads every pair, so a verdict builds no pair rows.
The LP dual of the projection solve is one such certificate; a
minimum-support one is found by exact linear solves over subsets of the
implicit pairs, smallest subsets first (from n when the paper's lower
bound applies), with dependent subsets pruned by integer elimination;
the search's one stop is a work budget in row steps (linalg.WorkBudget).
When the implicit pairs are the dual's own pairs, the dual is the only
certificate over them, and so the minimum-support one, with no search:
its pairs' columns are independent, so its weights are the one
representation of the target over them.
Both read lambda, the basis and the grid off the MinProjReport they
extend.  certify_cm judges a given certificate from the
Chalmers-Metcalf bound it proves, by the routes its docstring lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputFormatError, InternalError
from .geometry import PolyhedralSpace, Subspace
from .linalg import (DEFAULT_WORK_BUDGET, RMatrix, WorkBudget, int_dot,
                     integer_row_rank, integer_rref, integer_solve,
                     over_denominator, subset_walk)
from .projections import (MinProjReport, OperatorBasis, OperatorPoint, _solve_lambda,
                          build_operator_basis, build_pair_grid, face_dimension,
                          operator_norm, pair_rows, pair_values)
from .rational import format_rational

#: The checks of verify_cm, in the order it reports them.
CHECKS = ("weights", "vanishing", "invariance", "norming", "trace")


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
            raise InputFormatError("pairs and weights must have equal length")
        if not self.pairs:
            raise InputFormatError("empty certificate")


@dataclass(frozen=True)
class CMVerdict:
    """The violations verify_cm found, each "<check>: <detail>" for a
    check named in CHECKS; the certificate is valid when there are none."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def failed(self) -> frozenset[str]:
        """The names of the checks that have a violation."""
        return frozenset(v.split(":", 1)[0] for v in self.violations)


def verify_cm(space: PolyhedralSpace, Y: Subspace, cm: CMFunctional,
              lam: Fraction, P: OperatorPoint, *, basis: OperatorBasis,
              realized: tuple[RMatrix, int] | None = None) -> CMVerdict:
    """Exact check of the certificate: weight sanity plus the four defining
    conditions -- (1) vanishing on every basis operator of L_Y(X, Y),
    (2) T(Y) contained in Y, (3) every pair norming for P, (4) trace of
    T|_Y equal to lam.  basis is the operator basis of (space, Y) that
    the caller built (projections.build_operator_basis), read only by (3).

    All but (3) are decided by T and lam alone, never by P, the pair grid
    or the LP (_conditions_of_T).  (3) reads each pair's value f(P x) off
    P realized as an integer matrix (projections.pair_values), as
    operator_norm reads every pair; realized is that matrix over its
    denominator, OperatorBasis.realize_cleared of P, when the caller
    holds it.  The values are compared with lam in integers."""
    head, trace = _conditions_of_T(space, Y, cm, lam)
    if trace is None:
        return CMVerdict(head)
    M, den = basis.realize_cleared(P) if realized is None else realized
    return CMVerdict(head + _norming(space, cm, lam, M, den) + trace)


def _conditions_of_T(space: PolyhedralSpace, Y: Subspace, cm: CMFunctional,
                     lam: Fraction) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
    """The violations of verify_cm's checks that T = sum_i a_i x_i (x) f_i
    and lam decide with no projection, split where the norming check
    goes: those of the pairs' range and repeats, the weights, (1) and
    (2), then those of (4).  A pair out of range is the one violation,
    and the second part is None: no value f(P x) can be read at it.
    When both parts are empty, T is a Chalmers-Metcalf bound of value
    lam: every projection Q onto Y has sum_i a_i f_i(Q x_i) = lam.

    The images T y_b = sum_i a_i f_i(y_b) x_i are formed in integers, over
    the cleared vertices, weights and Y's own families, with no matrix of T.
    For L_q = y_b (x) g_j, q = b(n-k) + j, the vanishing sum is
    sum_i a_i f_i(y_b) g_j(x_i) = g_j(T y_b), so (1) and (2) fail
    together, at the first nonzero g_j(T y_b): (1) reports its value and
    q, (2) its block b.  (4) sums the Y-coordinates of the same images,
    read off one integer reduced echelon form, and is undefined when (2)
    fails.  The weights' sum and the trace are compared with 1 and lam in
    integers."""
    n_p = len(space.primal_cleared[0])
    n_d = len(space.dual_cleared[0])
    for pi, dj in cm.pairs:
        if not (0 <= pi < n_p and 0 <= dj < n_d):
            return (f"weights: pair ({pi}, {dj}) out of range",), None
    violations: list[str] = []
    if len(set(cm.pairs)) != len(cm.pairs):
        violations.append("weights: duplicate pairs")
    if any(a <= 0 for a in cm.weights):
        violations.append("weights: non-positive weight")
    a, da = over_denominator(cm.weights)
    if sum(a) != da:
        violations.append(
            f"weights: sum is {format_rational(Fraction(sum(a), da))}, not 1")

    X, dx = space.primal_cleared
    F, df = space.dual_cleared
    # T y_b over t_den; g_j(T y_b) over g_den·t_den.
    images = []
    for y in Y.basis_num:
        image = [0] * space.dim
        for (pi, dj), ai in zip(cm.pairs, a):
            c = ai * int_dot(F[dj], y)
            if c:
                image = [s + c * x for s, x in zip(image, X[pi])]
        images.append(image)
    t_den = da * df * dx * Y.basis_den
    leak = next(((q, s) for q, s in enumerate(
        int_dot(g, image) for image in images for g in Y.annihilator_num) if s), None)
    if leak is not None:
        q, s = leak
        violations.append(
            f"vanishing: basis operator {q} gives "
            f"{format_rational(Fraction(s, Y.annihilator_den * t_den))}")
        violations.append(
            f"invariance: T(basis vector {q // len(Y.annihilator_num)}) leaves Y")
        return tuple(violations), ("trace: undefined, T does not map Y into Y",)

    # [y_num_1 .. y_num_k] C = t_den·[T y_1 .. T y_k]: C[b][b] is
    # row[k + b] / row[b] for the reduced row with pivot b, and the
    # trace of the images' coordinates is tr C·y_den / t_den.
    k = len(images)
    reduced = integer_rref([list(column) + [image[r] for image in images]
                            for r, column in enumerate(zip(*Y.basis_num))])
    if reduced[-1][0] >= k:
        raise InternalError("an image of Y in Y has no coordinates in its basis")
    L = lcm(*(row[b] for b, row in reduced))
    trace_num = sum(row[k + b] * (L // row[b]) for b, row in reduced) * Y.basis_den
    trace_den = L * t_den
    if trace_num * lam.denominator != lam.numerator * trace_den:
        return tuple(violations), (
            f"trace: {format_rational(Fraction(trace_num, trace_den))} "
            f"differs from {format_rational(lam)}",)
    return tuple(violations), ()


def _norming(space: PolyhedralSpace, cm: CMFunctional, lam: Fraction,
             M: RMatrix, m_den: int) -> tuple[str, ...]:
    """The norming check at the projection M / m_den: the first pair
    whose value f(P x) is not lam, or no violation."""
    values, den = pair_values(space, M, cm.pairs)
    den *= m_den
    target = lam.numerator * den
    for (pi, dj), v in zip(cm.pairs, values):
        if v * lam.denominator != target:
            return (f"norming: pair ({pi}, {dj}) gives {format_rational(Fraction(v, den))}, "
                    f"expected {format_rational(lam)}",)
    return ()


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
    the relative interior.

    The checks that T and lam decide alone (_conditions_of_T: all but
    norming) are made once, and pick the route:

    - a violation: no projection makes the certificate valid, so the
      optimal face is found at once;
    - none, no LP: T is then a feasible point of the lambda LP's dual of
      value lam.  When the certificate's pair rows have rank k(n-k), the
      one projection they can all norm at lam solves coefs·c = lam -
      base; it is tried when its operator norm, read off the vertex
      lists over each antipodal class once, is at most lam, and no pair
      grid is built;
    - none, one LP: otherwise the lambda LP is solved, started at the
      certificate's own grid rows (PairGrid.rows_of), which pivots them
      into the basis and runs phase II from there; when that point is not
      a feasible basic one, simplex.solve falls back to the two-phase
      solve.  Either witness is a minimal projection, and it is tried
      when the LP value is lam;
    - the optimal face: on a violation, or when no point tried is normed
      by every pair, the lambda LP is solved cold, face_dimension finds
      the relative interior of the optimal face, and the verdict is
      taken there, as in the full pipeline, so the violations read the
      same.  The interior is read off the cold solve's witness, so a
      started certificate that lands here (a feasible dual point of
      value lam below lambda) costs a second solve on the same grid and
      moves no byte.

    At each point tried only the norming check is made, off the point
    realized as an integer matrix once, the matrix its operator norm
    reads.  A certificate with no violation of the other checks proves
    lambda >= lam, so a lambda LP value below lam is an InternalError.
    One operator basis serves every route, and the pair grid is built
    only for the lambda LP, at most once.
    """
    basis = build_operator_basis(space, Y)
    head, trace = _conditions_of_T(space, Y, cm, lam)
    bound = not head and trace == ()
    grid = None
    if bound:
        full_rank, point, realized = _projection_normed_by(
            pair_rows(space, basis, cm.pairs), space, basis, lam)
        if not full_rank:
            grid = build_pair_grid(space, basis)
            started = _solve_lambda(space, Y, basis, grid,
                                    grid.rows_of(cm.pairs, space.primal_negation))
            if started.lam == lam:
                point, realized = started.witness, started.witness_cleared
        if point is not None and not _norming(space, cm, lam, *realized):
            return lam, CMVerdict()
    report = _solve_lambda(space, Y, basis, grid or build_pair_grid(space, basis))
    face_dimension(report)
    if bound and report.lam < lam:
        raise InternalError(
            f"the certificate proves lambda >= {format_rational(lam)}, "
            f"the LP gives {format_rational(report.lam)}")
    if trace is None:
        return report.lam, CMVerdict(head)
    return report.lam, CMVerdict(
        head + _norming(space, cm, lam, *report.interior_cleared) + trace)


def _projection_normed_by(rows: tuple[list[list[int]], list[int], int],
                          space: PolyhedralSpace, basis: OperatorBasis,
                          lam: Fraction
                          ) -> tuple[bool, OperatorPoint | None,
                                     tuple[RMatrix, int] | None]:
    """Whether the certificate's pair rows (coefs, base, D), the integer
    rows of projections.pair_rows over their denominator D, have full
    column rank k(n-k), and then the projection c at which every row has
    value lam, with c realized as an integer matrix over a denominator,
    when c exists and its operator norm is at most lam, or None and None.

    coefs·c = lam·D - base is cleared to coefs·(lam_den·c) =
    lam_num·D - lam_den·base, and one linalg.integer_rref of that system
    gives both answers: the rows have full column rank when its pivots
    hold the first d columns, and a further pivot, in the last column,
    means no c exists.  c is the last column over the pivot entries, over
    lam_den.  The projection is realized in integers as M / den
    (OperatorBasis.realize_cleared), and its norm is
    projections.operator_norm of M against lam·den: the largest f(P x)
    over the vertex lists, which is the largest value over every pair,
    with no pair grid and no Fraction per entry."""
    d = basis.dimension
    coefs, base, D = rows
    reduced = integer_rref([row + [lam.numerator * D - lam.denominator * b]
                            for row, b in zip(coefs, base)])
    pivots = [pivot for pivot, _ in reduced]
    if pivots[:d] != list(range(d)):
        return False, None, None
    if len(pivots) > d:
        return True, None, None
    point = OperatorPoint(tuple(Fraction(row[d], row[pivot] * lam.denominator)
                                for pivot, row in reduced))
    M, den = realized = basis.realize_cleared(point)
    if operator_norm(space, M) > lam * den:
        return True, None, None
    return True, point, realized


def cm_from_dual(report: MinProjReport) -> CMFunctional:
    """Certificate from the positive LP dual weights on dual_rows, as
    they are: the verified dual equation of the t column makes them sum
    to one.  The rows and the grid's pairs are ascending, so the pairs
    come sorted.  Verified before being returned."""
    if not report.dual_rows:
        raise InternalError("empty dual certificate")
    cm = CMFunctional(pairs=tuple(report.grid.pairs[r] for r in report.dual_rows),
                      weights=report.dual_weights)
    verdict = verify_cm(report.space, report.subspace, cm, report.lam,
                        report.witness, basis=report.basis,
                        realized=report.witness_cleared)
    if not verdict.ok:
        raise InternalError("; ".join(verdict.violations))
    return cm


def minimal_support_cm(report: MinProjReport, in_general_position: bool = False,
                       dual: CMFunctional | None = None,
                       budget: int = DEFAULT_WORK_BUDGET) -> tuple[CMFunctional, int]:
    """Smallest-support certificate over the implicit pairs of a report
    whose face is settled (face_dimension); ValueError otherwise.

    in_general_position is the verdict of geometry.general_position_check
    on the report's space and subspace, when it was reached; leave it
    False when it was not.  arXiv 2211.14008 shows that when lambda > 1
    and Y is in general position, every Chalmers-Metcalf certificate
    charges at least n pairs, n the dimension of X.  When the report has
    lambda > 1 and the verdict is true, no size below n holds a support,
    so the walk starts at size n and returns the same first subset as
    the walk from size 1.  Otherwise it starts at 1.

    When the implicit rows are the lambda dual's rows (dual_rows), and
    there are at least as many as the starting size, the lambda dual is
    returned with no walk, because it is the walk's own answer.  Its
    positive rows are columns of the final simplex basis, so their
    columns [v_p; 1] are independent.  As they are all the implicit
    rows, [0; 1] has one representation over the candidates' columns,
    and its weights are the positive dual weights.  A proper subset that
    held a support would give a second one, zero off the subset, so the
    only valid support is the whole set, the one subset of the walk's
    last size, len(dual_rows).  The dual optimal face is then a
    point: the lambda dual is the only certificate over the implicit
    pairs.

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

    The walk runs on the integer columns [coefs(p); D] = D·[v_p; 1],
    the implicit pairs' grid rows formed from the grid's factors and D
    its denominator, against the target [0; D]: the same system scaled
    by D > 0, with the same solutions.  The grid lists its pairs
    sorted, so the implicit rows are in pair order.  The target
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
    tested for w > 0.  The lambda dual's certificate is dual,
    cm_from_dual(report), or built by it when the caller does not hold
    it.  The hit, that certificate included, is verified at the report's
    relative-interior point, a minimal projection, before it is
    returned, except the lambda dual's, which is returned as it is when
    that point is the witness, where cm_from_dual verified it.

    The search runs on budget row steps (linalg.WorkBudget): the walks
    charge the rows they carry and group, and each exact solve is charged
    (d + 1)(size + 1) steps, each of its d + 1 rows reduced against at
    most size + 1 pivots.  Past the budget, the search's one stop, it
    raises BudgetExceededError.
    """
    if report.interior is None:
        raise ValueError("the report's optimal face is not settled")
    rows = report.implicit_rows
    grid = report.grid
    smallest = report.space.dim if in_general_position and report.lam > 1 else 1
    if rows == report.dual_rows and len(rows) >= smallest:
        cm = dual or cm_from_dual(report)
        if report.interior == report.witness:
            return cm, len(cm.pairs)
        return _verified(report, cm)

    d = report.basis.dimension
    columns = [list(grid.coefs(r)) + [grid.denominator] for r in rows]
    target = [0] * d + [grid.denominator]
    work = WorkBudget(budget, "support search")
    for size in range(smallest, min(d + 1, len(rows)) + 1):
        for _, subset in subset_walk(columns, size, d, work):
            if subset is None:
                continue
            work.charge(len(target) * (size + 1))
            weights = _support_weights([columns[i] for i in subset], target)
            if weights is None:
                raise InternalError(
                    "the subset walk yielded columns whose span misses the target")
            if any(w <= 0 for w in weights):
                continue
            return _verified(report, CMFunctional(
                pairs=tuple(grid.pairs[rows[i]] for i in subset), weights=weights))
    raise InternalError("no valid certificate over the candidate pairs")


def _verified(report: MinProjReport, cm: CMFunctional) -> tuple[CMFunctional, int]:
    """The support search's hit and its size, once verify_cm accepts it at
    the report's relative-interior point; InternalError otherwise."""
    check = verify_cm(report.space, report.subspace, cm, report.lam,
                      report.interior, basis=report.basis,
                      realized=report.interior_cleared)
    if not check.ok:
        raise InternalError(
            "subset search produced an invalid certificate: "
            + "; ".join(check.violations))
    return cm, len(cm.pairs)


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
    raises InternalError: the restricted rank is always strictly smaller
    in that regime, so equality signals an implementation bug."""
    F = space.dual_cleared[0]
    fs = [F[dj] for _, dj in cm.pairs]
    rank_full = integer_row_rank(fs)
    rank_restricted = integer_row_rank([[int_dot(f, y) for y in Y.basis_num]
                                        for f in fs])
    if lam is not None and lam > 1 and rank_restricted >= rank_full:
        raise InternalError(
            f"restricted rank {rank_restricted} does not drop below {rank_full}")
    return rank_full, rank_restricted
