"""Reference implementations kept as oracles for the exact methods in
``projections.face_dimension``, ``projections.max_norming_projection``,
``certificates.minimal_support_cm``, ``geometry.general_position_check``
and the extremality check of ``geometry.PolyhedralSpace.from_vertices``.

The first three are the earlier loop-of-LPs algorithms: the optimal face
decided by one pinned-objective LP per tight row, a minimal projection
with an inclusion-maximal norming set found by greedy tightening from
the relative interior, and the minimal-support certificate found by one
"maximize the smallest weight" LP per candidate subset.  The
minimal-support certificate has a second oracle, one rational linear
solve per candidate subset with no pruning.  Next comes
the exhaustive general-position enumeration over every subset size up
to n, with one stacked rank per distinct subspace.  The last decides
each vertex's extremality by one feasibility LP over the other listed
points.  They are slow but independent of the Gordan rounds, the
integer elimination and the ranks that replaced them, so agreement
between the two is evidence for both.
"""

import itertools
from fractions import Fraction

from minproj.errors import (CertificateInvalidError, SubsetBudgetExceededError,
                            SupportBudgetExceededError)
from minproj.geometry import GeneralPositionReport
from minproj.linalg import (RMatrix, dot, nullspace_basis, rows_rank, rref_rows,
                            solve_linear)
from minproj.projections import (OperatorPoint, _restrict_to_face,
                                  build_operator_basis, face_dimension,
                                  norming_pairs)
from minproj.simplex import INFEASIBLE, OPTIMAL, LinearProgram, make_lp, solve


def solve_on_face(lp, fixed_value, secondary_objective):
    """Optimize a secondary objective over the optimal face of a solved LP.

    The face is encoded by pinning objective·v = fixed_value with two
    inequality rows appended to the original system.  INFEASIBLE here
    means the caller passed a value that is not the optimum.
    """
    fixed = Fraction(fixed_value)
    rows = lp.constraint_matrix.row_list()
    rows.append(lp.objective)
    rows.append(tuple(-x for x in lp.objective))
    pinned = LinearProgram(
        objective=tuple(Fraction(x) for x in secondary_objective),
        constraint_matrix=RMatrix.from_rows(rows),
        rhs=lp.rhs + (fixed, -fixed),
    )
    return solve(pinned)


def face_dimension_per_row(report):
    """(face_dim, implicit pairs, relative-interior coefficients) by one
    secondary LP per undecided tight row: a row whose maximal slack over
    the optimal face is zero is an implicit equality.  Rows already slack
    at a collected optimum are skipped, and the average of the collected
    optima lies in the relative interior.  The report is not modified."""
    grid = report.grid
    d = len(report.witness.coefficients)
    lam = report.lam
    points = [report.witness.coefficients]
    implicit_rows = []
    for r in report.grid.tight_rows(report.witness.coefficients, lam):
        if any(grid.row_value(r, p) != lam for p in points):
            continue
        sub = solve_on_face(grid.lp, lam, grid.coefs[r] + (Fraction(0),))
        assert sub.status == OPTIMAL
        points.append(sub.primal[:d])
        if lam - grid.base[r] - sub.value == 0:
            implicit_rows.append(r)
    face_dim = d - (rows_rank([grid.coefs[r] for r in implicit_rows])
                    if implicit_rows else 0)
    count = Fraction(len(points))
    interior = tuple(sum(p[q] for p in points) / count for q in range(d))
    assert grid.tight_rows(interior, lam) == implicit_rows
    return face_dim, frozenset(grid.pairs[r] for r in implicit_rows), interior


def max_norming_by_greedy(space, Y, report):
    """(point, norming-pair count) of a minimal projection whose norming
    set is inclusion-maximal, by greedy tightening from the relative
    interior of the optimal face: visit non-tight grid rows in order and
    force each tight whenever that is jointly feasible with everything
    forced so far, one feasibility LP per row.

    Working coordinates are restricted to the affine hull of the face
    (the implicit rows are quotiented out); rows whose restricted
    coefficients vanish can never change their slack and are skipped.
    Fills in the report's face fields if they are missing."""
    if report.face_dim is None:
        face_dimension(space, Y, report)
    grid = report.grid
    lam = report.lam
    d = len(report.witness.coefficients)
    interior = report.interior.coefficients
    fd = report.face_dim
    if fd == 0:
        return report.interior, len(report.implicit_pairs)

    implicit = set(report._implicit_rows)
    ncols, restricted = _restrict_to_face(
        grid, report._implicit_rows,
        [r for r in range(len(grid.pairs)) if r not in implicit], d)

    slack0 = {}
    candidates = []
    for r, G in restricted.items():
        s = lam - grid.row_value(r, interior)
        assert s > 0, f"non-implicit row {r} is tight at the relative interior"
        if any(G):
            slack0[r] = s
            candidates.append(r)

    z = tuple([Fraction(0)] * fd)
    forced = []
    for r in candidates:
        if slack0[r] - dot(restricted[r], z) == 0:
            forced.append(r)
            continue
        rows = [restricted[q] for q in candidates]
        rhs = [slack0[q] for q in candidates]
        for q in forced + [r]:
            rows.append(tuple(-x for x in restricted[q]))
            rhs.append(-slack0[q])
        attempt = solve(LinearProgram(
            objective=tuple([Fraction(0)] * fd),
            constraint_matrix=RMatrix.from_rows(rows),
            rhs=tuple(rhs),
        ))
        if attempt.status == OPTIMAL:
            z = attempt.primal
            forced.append(r)
        else:
            assert attempt.status == INFEASIBLE, attempt.status

    final = tuple(interior[q] + sum(col[q] * zv for col, zv in zip(ncols, z))
                  for q in range(d))
    point = OperatorPoint(final)
    pairs = norming_pairs(space, Y, point, lam, grid=grid)
    assert len(pairs) >= len(report.implicit_pairs) + len(forced)
    return point, len(pairs)


def minimal_support_by_lp(space, Y, candidate_pairs, max_candidates=24):
    """(pairs, weights) of the smallest-support certificate over the
    candidates: subsets by cardinality, then lexicographically, each tested
    by an LP maximizing the smallest weight tau subject to the vanishing
    conditions and weight sum 1; the first subset with tau* > 0 wins."""
    candidates = sorted(set(candidate_pairs))
    if not candidates:
        raise CertificateInvalidError("no candidate pairs to search")
    if len(candidates) > max_candidates:
        raise SupportBudgetExceededError(
            f"{len(candidates)} candidate pairs exceed the cap of {max_candidates}")
    basis = build_operator_basis(space, Y)
    d = len(basis.basis_ops)
    vanish = {(pi, dj): tuple(dot(space.dual_vertices[dj],
                                  L.apply(space.primal_vertices[pi]))
                              for L in basis.basis_ops)
              for pi, dj in candidates}
    one, zero = Fraction(1), Fraction(0)
    for size in range(1, len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            rows, rhs = [], []
            for i in range(size):  # a_i >= tau
                row = [zero] * (size + 1)
                row[i] = -one
                row[size] = one
                rows.append(row)
                rhs.append(zero)
            rows.append([one] * size + [zero])  # sum = 1
            rhs.append(one)
            rows.append([-one] * size + [zero])
            rhs.append(-one)
            for q in range(d):  # vanishing, as equality pairs
                row = [vanish[p][q] for p in subset] + [zero]
                rows.append(row)
                rhs.append(zero)
                rows.append([-v for v in row])
                rhs.append(zero)
            rows.append([zero] * size + [one])  # tau <= 1
            rhs.append(one)
            sol = solve(LinearProgram(
                objective=tuple([zero] * size + [-one]),
                constraint_matrix=RMatrix.from_rows(rows),
                rhs=tuple(rhs),
            ))
            if sol.status == OPTIMAL and -sol.value > 0:
                return subset, sol.primal[:size]
    raise CertificateInvalidError("no valid certificate over the candidate pairs")


def minimal_support_by_solve(space, Y, candidate_pairs, max_candidates=24):
    """(pairs, weights) of the smallest-support certificate over the
    candidates: subsets by cardinality up to k(n-k) + 1, then
    lexicographically, each tested by an exact rational solve of
    [v_p; 1]·w = [0; 1]; the first subset whose solution is positive wins
    (free variables are set to zero, so a dependent subset never wins)."""
    candidates = sorted(set(candidate_pairs))
    if not candidates:
        raise CertificateInvalidError("no candidate pairs to search")
    if len(candidates) > max_candidates:
        raise SupportBudgetExceededError(
            f"{len(candidates)} candidate pairs exceed the cap of {max_candidates}")
    basis = build_operator_basis(space, Y)
    d = len(basis.basis_ops)
    column = {(pi, dj): tuple(dot(space.dual_vertices[dj],
                                  L.apply(space.primal_vertices[pi]))
                              for L in basis.basis_ops) + (Fraction(1),)
              for pi, dj in candidates}
    target = (Fraction(0),) * d + (Fraction(1),)
    for size in range(1, min(d + 1, len(candidates)) + 1):
        for subset in itertools.combinations(candidates, size):
            weights = solve_linear(
                RMatrix.from_rows(column[p] for p in subset).transpose(), target)
            if weights is not None and all(w > 0 for w in weights):
                return subset, weights
    raise CertificateInvalidError("no valid certificate over the candidate pairs")


def _canonical_span(rows):
    """RREF of the row span with zero rows dropped: equal spans give
    identical tuples."""
    reduced, pivots = rref_rows(rows)
    return tuple(tuple(row) for row in reduced[:len(pivots)])


def general_position_exhaustive(space, Y, subset_cap=10 ** 6):
    """For each candidate subspace Z (span of a vertex subset, or joint
    kernel of a dual-vertex subset, one representative per antipodal
    pair, subset size at most n, distinct subspaces only), verify
    dim(Y + Z) = min(dim Y + dim Z, n) by the rank of Y's basis stacked
    on a basis of Z.  Spans by (size, lexicographic indices), then
    kernels likewise; the first violation is the witness."""
    n = space.dim
    k = Y.dim
    y_rows = Y.basis_vectors()
    budget = subset_cap

    def stacked_rank(z_rows):
        return rows_rank(y_rows + list(z_rows))

    spans_checked = 0
    seen_spans = set()
    reps = space.primal_class_reps
    for size in range(1, min(n, len(reps)) + 1):
        for subset in itertools.combinations(reps, size):
            spans_checked += 1
            if spans_checked > budget:
                raise SubsetBudgetExceededError(
                    f"vertex-span enumeration exceeded cap {subset_cap}")
            z_rows = _canonical_span([space.primal_vertices[i] for i in subset])
            if z_rows in seen_spans:
                continue
            seen_spans.add(z_rows)
            if stacked_rank(z_rows) != min(k + len(z_rows), n):
                return GeneralPositionReport(False, "span", subset,
                                             spans_checked, 0)

    kernels_checked = 0
    seen_kernels = set()
    dreps = space.dual_class_reps
    for size in range(1, min(n, len(dreps)) + 1):
        for subset in itertools.combinations(dreps, size):
            kernels_checked += 1
            if spans_checked + kernels_checked > budget:
                raise SubsetBudgetExceededError(
                    f"kernel enumeration exceeded cap {subset_cap}")
            f_span = _canonical_span([space.dual_vertices[j] for j in subset])
            if f_span in seen_kernels:
                continue
            seen_kernels.add(f_span)
            z_rows = nullspace_basis(RMatrix.from_rows(f_span)).transpose().row_list()
            if stacked_rank(z_rows) != min(k + len(z_rows), n):
                return GeneralPositionReport(False, "kernel", subset,
                                             spans_checked, kernels_checked)

    return GeneralPositionReport(True, None, None, spans_checked, kernels_checked)


def is_extreme(vertices, v):
    """True iff v is not a convex combination of the other listed points.

    Decided by exact LP feasibility; a duplicated point is therefore not
    extreme (it is a combination of its twin).
    """
    others = [w for w in vertices if w != v]
    removed = len(vertices) - len(others)
    if removed == 0:
        raise ValueError("v must be one of the listed vertices")
    if removed > 1:
        return False  # duplicate
    if not others:
        return True
    n = len(v)
    count = len(others)
    rows = []
    rhs = []
    for c in range(n):
        coords = [w[c] for w in others]
        rows.append(coords)
        rhs.append(v[c])
        rows.append([-x for x in coords])
        rhs.append(-v[c])
    rows.append([1] * count)
    rhs.append(1)
    rows.append([-1] * count)
    rhs.append(-1)
    for i in range(count):
        row = [0] * count
        row[i] = -1
        rows.append(row)
        rhs.append(0)
    solution = solve(make_lp([0] * count, rows, rhs))
    return solution.status == INFEASIBLE


def first_non_extreme(vertices):
    """Index of the first listed point that is_extreme rejects, or None:
    the vertex the LP-based validation of a space named."""
    return next((i for i, v in enumerate(vertices)
                 if not is_extreme(vertices, v)), None)
