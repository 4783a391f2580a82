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
by integer elimination.  certify_cm judges a given certificate from the
Chalmers-Metcalf bound it proves, with one exact solve when its pairs
determine the projection, one LP when they do not, and the optimal face
only when the certificate is not valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import (CertificateInvalidError, InternalError,
                     RankGapViolationError, SupportBudgetExceededError)
from .geometry import PolyhedralSpace, Subspace
from .linalg import (RMatrix, dot, int_dot, integer_row_rank, over_denominator,
                     reduce_row, rows_rank, rref_rows, solve_linear)
from .projections import (MinProjReport, OperatorBasis, OperatorPoint, PairGrid,
                          build_operator_basis, build_pair_grid, face_dimension,
                          pair_rows, projection_constant)

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

    def __bool__(self) -> bool:
        return self.ok


def cm_operator(space: PolyhedralSpace, cm: CMFunctional) -> RMatrix:
    """The matrix of T = sum a_i x_i (x) f_i."""
    n = space.dim
    entries = [[Fraction(0)] * n for _ in range(n)]
    for (pi, dj), a in zip(cm.pairs, cm.weights):
        x = space.primal_vertices[pi]
        f = space.dual_vertices[dj]
        for r in range(n):
            if x[r]:
                ax = a * x[r]
                for c in range(n):
                    entries[r][c] += ax * f[c]
    return RMatrix.from_rows(entries)


def trace_on_subspace(space: PolyhedralSpace, Y: Subspace,
                      cm: CMFunctional) -> Fraction | None:
    """trace of T restricted to Y: coordinate b of T(y_b) in Y's basis,
    by one exact solve per basis vector y_b, summed over b; None when T
    does not map Y into Y."""
    T = cm_operator(space, cm)
    coords = [solve_linear(Y.basis, T.apply(y)) for y in Y.basis_vectors()]
    if None in coords:
        return None
    return sum((c[b] for b, c in enumerate(coords)), Fraction(0))


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
        violations.append(f"weights: sum is {total}, not 1")

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
            f"vanishing: basis operator {q} gives {Fraction(s, basis.g_den * t_den)}")
        violations.append(
            f"invariance: T(basis vector {q // len(basis.g_num)}) leaves Y")

    if len(P.coefficients) != basis.dimension:
        raise ValueError("coefficient count does not match the operator basis")
    values, den = pair_rows(space, basis, cm.pairs).value_numerators(P.coefficients)
    for (pi, dj), v in zip(cm.pairs, values):
        if Fraction(v, den) != lam:
            violations.append(
                f"norming: pair ({pi}, {dj}) gives {Fraction(v, den)}, expected {lam}")
            break

    if leak is not None:
        violations.append("trace: undefined, T does not map Y into Y")
    else:
        # [y_num_1 .. y_num_k] C = t_den·[T y_1 .. T y_k], so the
        # coordinates of the images are C·y_den / t_den.
        k = len(images)
        reduced, pivots = rref_rows(
            [list(column) + [image[r] for image in images]
             for r, column in enumerate(zip(*basis.y_num))])
        if pivots != list(range(k)):
            raise InternalError("an image of Y in Y has no coordinates in its basis")
        trace = (sum((reduced[b][k + b] for b in range(k)), Fraction(0))
                 * basis.y_den / t_den)
        if trace != lam:
            violations.append(f"trace: {trace} differs from {lam}")

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
      is tried when every grid row is at most lam there;
    - one LP: otherwise the lambda LP is solved, and its witness is tried
      when its value is lam;
    - the face: when verify_cm fails at the projection tried, or there is
      none, the certificate is not valid.  face_dimension finds the
      relative interior of the optimal face and verify_cm runs there, as
      in the full pipeline, so the violations read the same.
    """
    basis = build_operator_basis(space, Y)
    n_p, n_d = len(space.primal_vertices), len(space.dual_vertices)
    report = point = None
    if all(0 <= i < n_p and 0 <= j < n_d for i, j in cm.pairs):
        rows = pair_rows(space, basis, cm.pairs)
        if integer_row_rank(rows.coefs_num) == basis.dimension:
            point = _projection_normed_by(rows, build_pair_grid(space, Y, basis), lam)
        else:
            report = projection_constant(space, Y, basis=basis)
            if report.lam == lam:
                point = report.witness
    if point is not None:
        verdict = verify_cm(space, Y, cm, lam, point, basis=basis)
        if verdict.ok:
            return lam, verdict
    if report is None:
        report = projection_constant(space, Y, basis=basis)
    face_dimension(space, Y, report)
    verdict = verify_cm(space, Y, cm, lam, report.interior, basis=basis)
    if report.lam < lam and all(v.startswith("norming:") for v in verdict.violations):
        raise InternalError(
            f"the certificate proves lambda >= {lam}, the LP gives {report.lam}")
    return report.lam, verdict


def _projection_normed_by(rows: PairGrid, grid: PairGrid,
                          lam: Fraction) -> OperatorPoint | None:
    """The projection c at which every row of rows, of full column rank,
    has value lam, when it exists and every row of grid is at most lam
    there; otherwise None."""
    c = solve_linear(RMatrix.from_rows(rows.coefs_num),
                     [lam * rows.denominator - b for b in rows.base_num])
    if c is None:
        return None
    values, den = grid.value_numerators(c)
    if max(values) * lam.denominator > lam.numerator * den:
        return None
    return OperatorPoint(c)


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


def minimal_support_cm(space: PolyhedralSpace, Y: Subspace,
                       candidate_pairs: Iterable[tuple[int, int]],
                       lam: Fraction, max_candidates: int = DEFAULT_SUPPORT_CAP,
                       *, witness: OperatorPoint,
                       basis: OperatorBasis | None = None) -> tuple[CMFunctional, int]:
    """Smallest-support certificate over the candidate pairs.

    Each pair p contributes the column [v_p; 1], where v_p lists its
    values on the basis operators of L_Y(X, Y); a subset is a valid
    support exactly when [v_p; 1]·w = [0; 1] has a solution w > 0.
    Subsets are visited by cardinality, then lexicographically, and the
    first valid one is returned, so it has globally minimal support over
    the candidate set.  A smallest support has linearly independent
    columns (Caratheodory: a dependent one could be shrunk, and smaller
    sizes come first), so sizes beyond k(n-k) + 1 are never tried and
    every dependent subset can be skipped.

    The walk runs on the integer columns [coefs_num_p; D] = D·[v_p; 1]
    of pair_rows, D its denominator, against the target [0; D]: the same
    system scaled by D > 0, with the same solutions.  Each size is one
    depth-first walk over the sorted candidates (see
    _independent_spanning_subsets): a step reduces the new column
    against its prefix's echelon rows by linalg.reduce_row, the
    fraction-free step behind every rank and solve.  A column that
    reduces to zero makes the prefix dependent and prunes its whole
    subtree.  A full-size subset is a candidate only when the target,
    reduced against the same rows, vanishes; only then are the weights,
    unique by independence, solved exactly and tested for w > 0.  The hit
    is verified with witness, a minimal projection, before it is
    returned.  basis, when given, must be build_operator_basis(space, Y).
    """
    candidates = sorted(set(candidate_pairs))
    if not candidates:
        raise CertificateInvalidError("no candidate pairs to search")
    if len(candidates) > max_candidates:
        raise SupportBudgetExceededError(
            f"{len(candidates)} candidate pairs exceed the cap of {max_candidates}")

    if basis is None:
        basis = build_operator_basis(space, Y)
    d = basis.dimension
    grid = pair_rows(space, basis, candidates)
    columns = [list(row) + [grid.denominator] for row in grid.coefs_num]
    target = [0] * d + [grid.denominator]

    for size in range(1, min(d + 1, len(candidates)) + 1):
        for subset in _independent_spanning_subsets(columns, size):
            weights = solve_linear(
                RMatrix.from_rows(columns[i] for i in subset).transpose(), target)
            if weights is None:
                raise InternalError(
                    "the target reduces to zero but the support system is infeasible")
            if any(w <= 0 for w in weights):
                continue
            cm = CMFunctional(pairs=tuple(candidates[i] for i in subset),
                              weights=weights)
            check = verify_cm(space, Y, cm, lam, witness, basis=basis)
            if not check.ok:
                raise CertificateInvalidError(
                    "subset search produced an invalid certificate: "
                    + "; ".join(check.violations))
            return cm, size
    raise CertificateInvalidError("no valid certificate over the candidate pairs")


def _independent_spanning_subsets(columns: list[list[int]],
                                  size: int) -> Iterator[tuple[int, ...]]:
    """Index tuples of `size` linearly independent integer columns whose
    span holds the last unit vector, in lexicographic order.

    Depth-first: a node holds its prefix's echelon rows (pivot, row), each
    the linalg.reduce_row reduction of its column against the rows before
    it.  A column reduced to zero lies in the prefix's span, so every
    subset through it is dependent and is skipped.  A node one short of
    `size` reduces the target against its prefix once; a full-size subset
    spans the target exactly when one more step, against its last row,
    leaves zero.
    """
    last = len(columns) - size
    unit = [0] * (len(columns[0]) - 1) + [1]

    def walk(start, prefix, rows):
        depth = len(prefix)
        if depth + 1 == size:
            target = reduce_row(unit, rows)
            prev = rows[-1][1][rows[-1][0]] if rows else 1
        for i in range(start, last + depth + 1):
            row = reduce_row(columns[i], rows)
            pivot = next((p for p, x in enumerate(row) if x), None)
            if pivot is None:
                continue
            if depth + 1 < size:
                yield from walk(i + 1, prefix + (i,), rows + [(pivot, row)])
            elif not any(reduce_row(target, [(pivot, row)], prev)):
                yield prefix + (i,)

    return walk(0, (), [])


def cm_rank_gap(space: PolyhedralSpace, Y: Subspace, cm: CMFunctional,
                lam: Fraction | None = None) -> tuple[int, int]:
    """Rank of the certificate functionals in X* versus the rank of their
    restrictions to Y.  When lam > 1 is supplied, a missing strict drop
    raises RankGapViolationError: the restricted rank is always strictly
    smaller in that regime, so equality signals an implementation bug."""
    fs = [space.dual_vertices[dj] for _, dj in cm.pairs]
    rank_full = rows_rank(fs)
    restricted = [tuple(dot(f, y) for y in Y.basis_vectors()) for f in fs]
    rank_restricted = rows_rank(restricted)
    if lam is not None and lam > 1 and rank_restricted >= rank_full:
        raise RankGapViolationError(
            f"restricted rank {rank_restricted} does not drop below {rank_full}")
    return rank_full, rank_restricted
