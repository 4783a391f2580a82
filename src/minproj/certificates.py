"""Chalmers-Metcalf certificates: convex combinations T = sum a_i x_i (x) f_i
over norming pairs that annihilate L_Y(X, Y).

A valid certificate leaves Y invariant, is norming for every minimal
projection, and its trace restricted to Y equals the projection
constant, which makes it an exact optimality witness for lambda(Y, X).
T annihilates y (x) g exactly when g(T y) = sum_i a_i f_i(y) g(x_i) = 0,
so vanishing on L_Y(X, Y) is invariance of Y; verify_cm reads both, and
the trace (through P0's functionals), off T alone, independent of the
pair grid and the LP.  It reads each pair's value f(P x) off P realized
as an integer matrix, as the operator norm reads every pair, so a
verdict builds no pair rows.
The LP dual of the projection solve is one such certificate; a
minimum-support one is found over subsets of the implicit pairs,
smallest first (in general position from n when lambda > 1, the
paper's lower bound, and from n - k + 1 at lambda = 1), with dependent
subsets pruned by integer elimination and weights read off a kernel;
the search's one stop is a work budget in row steps (linalg.WorkBudget).
When the implicit pairs are the dual's own pairs, the dual is the only
certificate over them, and so the minimum-support one, with no search:
its pairs' columns are independent, so its weights are the one
representation of the target over them.
Both read lambda, the basis and the grid off the MinProjReport they
extend.  certify_cm judges a given certificate from the
Chalmers-Metcalf bound it proves: one that passes every check T
decides alone is valid exactly when lambda equals its trace, and only
one that fails such a check is read at the optimal face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputFormatError, InternalError
from .geometry import PolyhedralSpace, Subspace
from .linalg import (DEFAULT_WORK_BUDGET, RMatrix, WorkBudget, int_dot,
                     integer_nullspace, integer_row_rank, integer_rref,
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
    the caller built (projections.build_operator_basis): (3) reads P
    through it, and (4) reads the trace through P0's functionals, so a
    basis built for a subspace other than Y raises ValueError.

    All but (3) are decided by T and lam alone, never by P, the pair grid
    or the LP (_conditions_of_T).  (3) reads each pair's value f(P x) off
    P realized as an integer matrix (projections.pair_values), as
    operator_norm reads every pair; realized is that matrix over its
    denominator, OperatorBasis.realize_cleared of P, when the caller
    holds it.  The values are compared with lam in integers, so (3) means
    what it says only when lam is P's operator norm.  Every caller
    passes a minimal projection and lambda: cm_from_dual and the support
    search, which analyze runs, and perfbench/checks.py, against the
    reported projection once its norm is lambda.  certify_cm, which
    judges a certificate claimed at any lam, reads (3) itself."""
    if basis.subspace is not Y and basis.subspace != Y:
        raise ValueError("the operator basis was built for another subspace")
    head, trace = _conditions_of_T(space, basis, cm, lam)
    if trace is None:
        return CMVerdict(head)
    M, den = basis.realize_cleared(P) if realized is None else realized
    return CMVerdict(head + _norming(space, cm, lam, M, den) + trace)


def _conditions_of_T(space: PolyhedralSpace, basis: OperatorBasis, cm: CMFunctional,
                     lam: Fraction) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
    """The violations of verify_cm's checks that T = sum_i a_i x_i (x) f_i
    and lam decide with no projection, split where the norming check
    goes: those of the pairs' range and repeats, the weights, (1) and
    (2), then those of (4).  A pair out of range is the one violation,
    and the second part is None: no value f(P x) can be read at it.
    When both parts are empty, T is a Chalmers-Metcalf bound of value
    lam: every projection Q onto Y has sum_i a_i f_i(Q x_i) = lam.

    Y is basis.subspace.  The images T y_b = sum_i a_i f_i(y_b) x_i are
    formed in integers, over the cleared vertices, weights and Y's own
    families, with no matrix of T.  For L_q = y_b (x) g_j, q = b(n-k) + j,
    the vanishing sum is sum_i a_i f_i(y_b) g_j(x_i) = g_j(T y_b), so (1)
    and (2) fail together, at the first nonzero g_j(T y_b): (1) reports
    its value and q, (2) its block b.  (4) is undefined when (2) fails;
    otherwise the images lie in Y, where P0's functionals h_num_b / h_den
    (OperatorBasis) give the coordinates over the basis_num_c, so the
    trace is k dot products, with no elimination.  The weights' sum and
    the trace are compared with 1 and lam in integers."""
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

    Y = basis.subspace
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

    # T basis_num_b = basis_den·image_b / t_den, whose b-th coordinate
    # is h_num_b·that / h_den.
    trace_num = sum(map(int_dot, basis.h_num, images)) * Y.basis_den
    trace_den = basis.h_den * t_den
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
    """The projection constant lambda(Y, X) and the verdict on the
    certificate claimed at lam, with as little work as it allows.

    The Chalmers-Metcalf bound: when the weights are positive and sum to
    one, T vanishes on L_Y(X, Y) and T(Y) lies in Y, every projection Q
    onto Y has sum_i a_i f_i(Q x_i) = tr(T|_Y).  A trace lam then proves
    lambda >= lam, and certifies lambda exactly when lambda = lam; each
    pair then has f_i(Q x_i) <= lam at every minimal projection Q, with
    weighted mean lam, so it norms every one of them.

    The checks that T and lam decide alone (_conditions_of_T: all but
    norming) are made once, and pick the route:

    - none, no LP: when the certificate's pair rows have rank k(n-k), the
      one projection they can all norm at lam solves coefs·c = lam -
      base; when it exists and its operator norm, read off the vertex
      lists over each antipodal class once, is at most lam, lambda = lam
      and no pair grid is built;
    - none, one LP: otherwise the lambda LP is solved, started at the
      certificate's own grid rows (PairGrid.rows_of), which pivots them
      into the basis and runs phase II from there; when they give no
      feasible basic point, simplex.solve falls back to the two-phase
      solve.  The certificate is valid when the LP value is lam, and
      otherwise fails norming alone: its pairs average lam, below
      lambda, at every projection onto Y;
    - a pair out of range: the lambda LP is solved cold, and that
      violation is the verdict, since no value f(P x) can be read at it;
    - another violation: no projection makes the certificate valid, so
      the lambda LP is solved cold, face_dimension finds the relative
      interior of the optimal face, and the verdict is taken there.

    A valid certificate's pairs are checked at the minimal projection
    found, realized as an integer matrix, the matrix its operator norm
    reads; a pair that fails there, or an LP value below lam, is an
    InternalError.  The lambda LP is solved at most once.
    """
    basis = build_operator_basis(space, Y)
    head, trace = _conditions_of_T(space, basis, cm, lam)
    if not head and trace == ():
        found = _projection_normed_by(pair_rows(space, basis, cm.pairs), space, basis, lam)
        if found is None:
            grid = build_pair_grid(space, basis)
            report = _solve_lambda(space, Y, basis, grid,
                                   grid.rows_of(cm.pairs, space.primal_negation))
            if report.lam < lam:
                raise InternalError(
                    f"the certificate proves lambda >= {format_rational(lam)}, "
                    f"the LP gives {format_rational(report.lam)}")
            if report.lam > lam:
                return report.lam, CMVerdict((
                    f"norming: the pairs average {format_rational(lam)} at every "
                    f"projection onto Y, below lambda {format_rational(report.lam)}",))
            found = report.witness, report.witness_cleared
        _, realized = found
        broken = _norming(space, cm, lam, *realized)
        if broken:
            raise InternalError(
                f"a certificate of lambda {format_rational(lam)} fails at a "
                f"minimal projection: {broken[0]}")
        return lam, CMVerdict()
    report = _solve_lambda(space, Y, basis, build_pair_grid(space, basis))
    if trace is None:
        return report.lam, CMVerdict(head)
    face_dimension(report)
    return report.lam, CMVerdict(
        head + _norming(space, cm, lam, *report.interior_cleared) + trace)


def _projection_normed_by(rows: tuple[list[list[int]], list[int], int],
                          space: PolyhedralSpace, basis: OperatorBasis,
                          lam: Fraction
                          ) -> tuple[OperatorPoint, tuple[RMatrix, int]] | None:
    """The projection c at which every one of the certificate's pair rows
    (coefs, base, D), the integer rows of projections.pair_rows over
    their denominator D, has value lam, with c realized as an integer
    matrix over a denominator, when the rows have full column rank
    k(n-k), c exists and its operator norm is at most lam; else None.

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
    if pivots != list(range(d)):
        return None
    point = OperatorPoint(tuple(Fraction(row[d], row[pivot] * lam.denominator)
                                for pivot, row in reduced))
    M, den = realized = basis.realize_cleared(point)
    if operator_norm(space, M) > lam * den:
        return None
    return point, realized


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
    False when it was not.  When it is true, no size below a bound holds
    a support, so the walk starts at the bound and returns the same
    first subset as the walk from size 1; otherwise it starts at 1.
    arXiv 2211.14008 shows that when lambda > 1 and Y is in general
    position, every Chalmers-Metcalf certificate charges at least n
    pairs, n the dimension of X, so the bound is n.  At every lambda the
    span half of general position gives n - k + 1, k the dimension of
    Y: the vertices x_i of a certificate T = sum_i a_i x_i (x) f_i over
    s pairs span a W of dimension r <= s, and T(Y) lies in Y and in W.
    While r <= n - k, an independent set of r vertices spans W, and
    general position gives Y + W dimension k + r, so Y meets W in 0;
    then T vanishes on Y and its trace there is 0, not lambda >= 1.  So
    s >= r >= n - k + 1, the bound when lambda = 1.

    When the implicit rows are the lambda dual's rows (dual_rows), and
    there are at least as many as the starting size (a certificate
    itself, the dual always has), the lambda dual is returned with no
    walk, because it is the walk's own answer.  Its positive rows are
    columns of the final simplex basis, so their columns [v_p; 1] are
    independent.  As they are all the implicit rows, [0; 1] has one
    representation over the candidates' columns, and its weights are
    the positive dual weights.  A proper subset that
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

    The walk runs on the integer columns [coefs(p); 1], coefs(p) = D·v_p
    the implicit pairs' grid rows formed from the grid's factors and D
    their denominator.  Their heads, the first d entries, have the
    kernels of the v_p, and so the same weights.  The target [0; 1]
    spans the last coordinate, so a column's head is the column modulo
    the target, and independent columns span the target exactly when
    their heads are dependent.  The grid lists its pairs sorted, so the
    implicit rows are in pair order.  Each size is one
    linalg.subset_walk over the implicit rows' columns with heads of
    width d.  It yields, in lexicographic order, the independent subsets
    whose span holds the target while no prefix's span does, and only
    those, so each one it yields is weighed.  The
    weights of a subset are unique, and under a prefix whose span holds
    the target they are zero on the columns after it, so the walk cuts
    that subtree with those of the dependent prefixes and loses no
    support.  It decides the last two columns at once: at a node two
    columns short of the size, a pair of carried columns completes a
    yielded subset exactly when their heads are parallel, or the second
    head is zero (its column is parallel to the target), and the columns
    themselves are not parallel.  A yielded subset's columns are
    independent and its heads h_p dependent, so they have a kernel line,
    spanned by c, and sum_p c_p·[h_p; 1] = [0; sum_p c_p]: the weights
    are c / sum_p c_p, positive when every c_p has the sum's sign
    (_support_weights), and no system is solved.  The lambda
    dual's certificate is dual, cm_from_dual(report), or built by it when
    the caller does not hold it.  The hit, that certificate included, is
    verified at the report's relative-interior point, a minimal
    projection, before it is returned, except the lambda dual's, which
    is returned as it is when that point is the witness, where
    cm_from_dual verified it.

    The search runs on budget row steps (linalg.WorkBudget): the walks
    charge the rows they carry and group, and each yielded subset is
    charged (d + 1)(size + 1) steps, the d + 1 rows of its system
    [v_p; 1]·w = [0; 1] times its size + 1 columns.  Past the budget,
    the search's one stop, it raises BudgetExceededError.
    """
    if report.interior is None:
        raise ValueError("the report's optimal face is not settled")
    rows = report.implicit_rows
    grid = report.grid
    n, k = report.space.dim, report.subspace.dim
    smallest = (n if report.lam > 1 else n - k + 1) if in_general_position else 1
    if rows == report.dual_rows and len(rows) >= smallest:
        cm = dual or cm_from_dual(report)
        if report.interior == report.witness:
            return cm, len(cm.pairs)
        return _verified(report, cm)

    d = report.basis.dimension
    heads = [grid.coefs(r) for r in rows]
    columns = [head + (1,) for head in heads]
    work = WorkBudget(budget, "support search")
    for size in range(smallest, min(d + 1, len(rows)) + 1):
        for subset in subset_walk(columns, size, d, work):
            work.charge((d + 1) * (size + 1))
            weights = _support_weights([heads[i] for i in subset])
            if weights is not None:
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


def _support_weights(heads: list[tuple[int, ...]]) -> tuple[Fraction, ...] | None:
    """The weights c / sum(c) of a subset the support walk yielded, c
    spanning the kernel of its heads (linalg.integer_nullspace), or None
    when one is not positive.  A kernel that is not a line, or sums to
    0, is an InternalError: the columns [h_p; 1] are dependent or miss
    the target [0; 1]."""
    kernel, _ = integer_nullspace(list(zip(*heads)), len(heads))
    total = sum(kernel[0]) if len(kernel) == 1 else 0
    if not total:
        raise InternalError(
            "the subset walk yielded columns whose span misses the target")
    c = kernel[0] if total > 0 else [-x for x in kernel[0]]
    if min(c) <= 0:
        return None
    return tuple(Fraction(x, abs(total)) for x in c)


def cm_rank_gap(space: PolyhedralSpace, Y: Subspace, cm: CMFunctional,
                lam: Fraction | None = None) -> tuple[int, int]:
    """Rank of the certificate functionals in X* versus the rank of their
    restrictions to Y.  When lam > 1 is supplied, a missing strict drop
    raises InternalError: the restricted rank is always strictly smaller
    in that regime, so equality signals an implementation bug.  Y must
    be a subspace of R^n (Subspace.check_ambient)."""
    Y.check_ambient(space.dim)
    F = space.dual_cleared[0]
    fs = [F[dj] for _, dj in cm.pairs]
    rank_full = integer_row_rank(fs)
    rank_restricted = integer_row_rank([[int_dot(f, y) for y in Y.basis_num]
                                        for f in fs])
    if lam is not None and lam > 1 and rank_restricted >= rank_full:
        raise InternalError(
            f"restricted rank {rank_restricted} does not drop below {rank_full}")
    return rank_full, rank_restricted
