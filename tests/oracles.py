"""Reference implementations kept as oracles for the exact methods in
``projections.face_dimension``, ``projections.max_norming_projection``,
``certificates.minimal_support_cm``, ``geometry.general_position_check``
and the extremality check of ``geometry.PolyhedralSpace.from_vertices``.

The first three are the earlier loop-of-LPs algorithms: the optimal face
decided by one pinned-objective LP per tight row (and by Gordan rounds
from no implicit row, ``face_dimension_by_rounds``, which must give the
same face and the same relative-interior point, and for k(n-k) <= 2 by
enumerating its vertices, ``face_dimension_by_vertices``, which must give
the same dimension), a minimal projection
with an inclusion-maximal norming set found by greedy tightening from
the relative interior, and the minimal-support certificate found by one
"maximize the smallest weight" LP per candidate subset.  The
minimal-support certificate has a second oracle, one rational linear
solve per candidate subset with no pruning, and the weights of a subset
that the walk yields have theirs, the integer solve of its augmented
system (``support_weights_by_solve``, through ``integer_solve``, the
solve that ``linalg.solve_linear`` took in).  Next comes the exhaustive
general-position enumeration over every subset size up to n, with one
stacked rank per distinct subspace, and the per-subset search that the
subset walk of ``general_position_check`` replaced
(``general_position_per_subset``), one integer rank per subset in the
same order, which must give the same report, counts included
(``budget_outcome`` reads a check's report or budget error).
The subset walk itself is kept as it was when it went down to the
leaves (``subset_walk_by_leaves``, one fraction-free step per leaf,
with its own step), and so is the check built on it
(``general_position_by_leaf_walk``, one integer rank per leaf whose
projected rows are dependent): ``linalg.subset_walk``, which decides the
last two levels at once by parallel classes, must give the same
reports, and the same support hits less those under a prefix whose
span holds the target.  That walk is kept as it was before it charged a
work budget, when it yielded (passed, subset) events that counted
every subset it passed (``subset_walk_by_classes``): a budgeted walk
that completes must yield its subsets, and ``work_edge`` reads the row steps
that a run charges to the work budgets of a module.  The rows that walk took in the
general-position check before they were n entries wide,
[v·d | v] (``general_position_rows_by_raw_vectors``), must give the
same yielded subsets as ``geometry._walk_rows``.  The last decides each vertex's
extremality by one feasibility LP over the other listed points, and
the test it gave way to, which took the rank of the polar vertices
tight at each point, is kept too (``first_non_vertex_by_rank``).  They
are slow but independent of the Gordan rounds, the integer elimination
and the ranks that replaced them, so agreement between the two is
evidence for both.

Two more replaced implementations follow: ``verify_cm`` as it was when
it applied operator matrices (``verify_cm_by_apply``) and as it was when
it read the norming values off the certificate's pair rows
(``verify_cm_by_pair_rows``), and the simplex
on the rational num/den tableau with its Fraction verification
(``solve_by_fraction_tableau``).  Its standard-form dual tableau keeps
the pivot rules ``minproj.simplex`` had before its lexicographic ratio
test (ratio ties to the lowest basic variable, and a switch to Bland's
rule after ``_STALL_SWITCH`` degenerate pivots), and must give the same
status and value (``fraction_phase_two`` runs its phase II from a
given basis); its inequality-form tableau (split free variables, one
slack per row, artificials on negative right-hand sides), once the
second path of ``minproj.simplex``, decides infeasible and unbounded
LPs independently.  The full integer tableau that the revised dual
simplex replaced (``solve_by_full_tableau``), with the same
lexicographic ratio test, must give the same LPSolution as
``simplex.solve``, pivot count included, on every LP it finds optimal,
and ``simplex.solve`` must raise ``InternalError`` on every other.  It
keeps the INFEASIBLE and UNBOUNDED statuses that ``simplex.solve``
returned before it raised, and ``is_extreme``,
``max_norming_by_greedy``, ``minimal_support_by_lp`` and
``solve_on_face`` take their feasibility verdicts from it, not from the
solver they check.  The lambda LP as
it was before the pair grid kept its rank-one factors
(``dense_grid_lp``, a ``LinearProgram`` over every formed row, every
row costed by the list pass over the transposed rows) must give the
same LPSolution as the grid's own factored LP, which costs one row of
each partner pair, pivots included.
``certify_by_face`` is the ``certify`` command with no routes: the
lambda LP, the optimal face, and ``verify_cm`` at its relative interior,
for every certificate, with lambda deciding the one that fails norming
alone.  ``certify_by_cold_lp`` is ``certify_cm`` as it was before its
one-LP route started the lambda LP at the certificate's own rows: every
lambda LP from scratch, through phase I, and the no-LP point solved by
``projection_normed_by_full_rank``, the no-LP solve as it was while it
also reported the rank of the pair rows.
``verify_cm_by_apply`` reads the invariance and the trace off the
matrix of T (``cm_operator``, ``trace_on_subspace``).  Beside it stand
the polar dual, the operator basis, the realized projection matrix and
the operator norm (the largest norm of a vertex's image) as they were in
``Fraction`` arithmetic (``polar_dual_by_fractions``,
``operator_basis_by_fractions``, ``realize_by_fractions``,
``operator_norm_by_fractions``), the double description, the operator
norm and the norm as they were in integers before they read each
antipodal class once (``double_description_both_signs``, which must give
the same set of (point, mask) and the same bits, and
``operator_norm_every_vertex``, which must give the same values, also on
symmetric lists taken as given; ``norm_every_vertex``, the norm of one
vector, has no counterpart left in the package) and a closed form of the
projection constant of a hyperplane in l-inf^n (``linf_hyperplane_lambda``), which
checks the lambda LP with no LP at all.  ``gauge_lp_norm`` is the norm
by its definition, one LP over the primal vertices, which checks
``norm_every_vertex``.

Last come the eliminations that ``linalg.reduce_row`` replaced: the
rational Gauss-Jordan (``rref_by_fractions``, with the nullspace, solve
and inverse read off it), the in-place Bareiss rank
(``integer_rank_in_place``) and the support walk with its
content-dividing reducer (``spanning_subsets_by_content``).  The oracles
above solve, rank and reduce through ``rref_by_fractions`` (a rank is its
number of pivots) or ``integer_rank_in_place``, never through the
``minproj.linalg`` elimination they are meant to check.  ``row_value``
reads one pair-grid row at a point, for the oracles and tests that
sample rows.

A few helpers serve the tests alone: ``make_lp`` builds the integer LP
of ``minproj.simplex`` from plain numbers and ``lp_rhs`` reads its
right-hand side back in Fractions, ``grid_base`` and ``grid_coefs`` read
the pair-grid rows in Fractions, ``pair_rows_by_fractions`` forms them
from the space and the operator basis in Fractions,
``bases_by_base_projection`` forms each base f(P0 x) through the n x n
matrix of P0, as the grid did before P0 was held as its k functionals,
``dot`` is the
Fraction dot product, ``matmul`` and ``matadd`` multiply and add
``RMatrix`` values,
``space_json`` writes a space in the schema that
``jsonio.parse_space_document`` reads, ``primal_vertices``,
``dual_vertices`` and ``annihilator_functionals`` read a space's vertex
lists and a subspace's annihilator in Fractions, and ``norming_pairs``
reads off the report's grid the pairs at which a projection reaches
lambda.  The package held these four until only the tests read them.
"""

import itertools
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb, gcd, lcm
from types import SimpleNamespace
from typing import Sequence

from minproj.certificates import CMVerdict, verify_cm
from minproj.errors import (BudgetExceededError, InternalError,
                            NotFullDimensionalError, NotSymmetricError)
from minproj.geometry import GeneralPositionReport, _Polar
from minproj.jsonio import vector_json
from minproj.linalg import (RMatrix, WorkBudget, _direction, _pivot,
                            independent_rows, int_dot, integer_inverse, integer_rref,
                            over_denominator, primitive, reduce_rows)
from minproj.projections import (OperatorPoint, _first_slack_step, _solve_lambda,
                                  build_operator_basis, build_pair_grid, face_dimension,
                                  operator_norm, pair_rows, pair_values,
                                  projection_constant)
from minproj.rational import format_rational
from minproj import simplex
from minproj.simplex import (_MAX_PIVOTS, OPTIMAL, LinearProgram, LPSolution, _eliminate,
                             _finish, solve)

# The statuses of an LP that is not optimal, which the oracle solvers
# return and simplex.solve raises InternalError on.
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

# Consecutive degenerate pivots the rational tableau tolerates before it
# switches to Bland's rule for good; a test that sets it past _MAX_PIVOTS
# disables the switch.
_STALL_SWITCH = 24


def solve_on_face(lp, fixed_value, secondary_objective):
    """Optimize a secondary objective over the optimal face of a solved LP.

    The face is encoded by pinning objective·v = fixed_value with two
    inequality rows appended to the original system, and solved by
    solve_by_full_tableau.  INFEASIBLE here means the caller passed a
    value that is not the optimum.
    """
    fixed = Fraction(fixed_value)
    rows = lp.constraint_matrix.row_list()
    rows.append(lp.objective)
    rows.append(tuple(-x for x in lp.objective))
    return solve_by_full_tableau(make_lp(secondary_objective, rows,
                                         lp_rhs(lp) + (fixed, -fixed)))


def make_lp(objective, rows, rhs):
    """The LP  minimize c·v  s.t.  A·v <= b  from plain numbers, in the
    integer form that simplex.LinearProgram carries: [A | b] cleared over
    the least common denominator of its entries."""
    A = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    D = lcm(*(x.denominator for row in A for x in row), *(x.denominator for x in b))
    return LinearProgram(
        objective=tuple(Fraction(x) for x in objective),
        matrix=tuple(tuple(x.numerator * (D // x.denominator) for x in row)
                     for row in A),
        beta=tuple(x.numerator * (D // x.denominator) for x in b),
        denominator=D)


def lp_rhs(lp):
    """The right-hand side b of the LP in Fractions."""
    return tuple(Fraction(x, lp.denominator) for x in lp.beta)


def gauge_lp_norm(space, x):
    """min sum(lam) s.t. V^T lam = x, lam >= 0 -- the definition of the norm."""
    verts = primal_vertices(space)
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
    return solve(make_lp([1] * N, rows, rhs)).value


def grid_rows(grid):
    """Every coefficient row of a pair grid, formed through grid.coefs."""
    return tuple(grid.coefs(r) for r in range(len(grid.pairs)))


def dense_grid_lp(grid):
    """The lambda LP of a pair grid over its formed rows: minimize t
    s.t. coefs[r]·c - t <= -base[r], as [coefs | -D] and -base_num
    over D: every row costed, read and verified through the matrix."""
    rows = grid_rows(grid)
    D = grid.denominator
    return LinearProgram(
        objective=(0,) * len(rows[0]) + (1,),
        matrix=tuple(row + (-D,) for row in rows),
        beta=tuple(-b for b in grid.base_num),
        denominator=D,
    )


def pair_rows_by_fractions(space, basis, pairs):
    """(f(P0 x), (f(L_q x))_q) of each listed pair (x, f), in Fractions:
    the base projection and every basis operator applied to the vertex,
    as Fraction matrices (basis as operator_basis_by_fractions returns
    it), and the functional dotted with the image."""
    X, F = primal_vertices(space), dual_vertices(space)
    return [(dot(F[j], basis.base_projection.apply(X[i])),
             tuple(dot(F[j], op.apply(X[i])) for op in basis.basis_ops))
            for i, j in pairs]


def bases_by_base_projection(space, basis, pairs):
    """f(P0 x) of each listed pair (x, f), in Fractions, by the n x n
    route: base_projection cleared to one integer matrix over its
    denominator and applied to the cleared vertex lists
    (projections.pair_values), the bilinear form the pair grid and
    pair_rows read their bases from before P0 was held as its k
    functionals."""
    n = space.dim
    flat, den = over_denominator(basis.base_projection.entries)
    values, vertex_den = pair_values(space, RMatrix(n, n, tuple(flat)), pairs)
    return [Fraction(v, den * vertex_den) for v in values]


def grid_base(grid):
    """f(P0 x) of every pair-grid row, in Fractions."""
    return tuple(Fraction(b, grid.denominator) for b in grid.base_num)


def grid_coefs(grid):
    """f(L_q x) of every pair-grid row, in Fractions."""
    return tuple(tuple(Fraction(a, grid.denominator) for a in row)
                 for row in grid_rows(grid))


def dot(u, v):
    """The dot product of two vectors of equal length, a Fraction."""
    if len(u) != len(v):
        raise ValueError("vector lengths disagree")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def primal_vertices(space):
    """The primal vertices as Fractions: primal_cleared over its
    denominator."""
    rows, den = space.primal_cleared
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def dual_vertices(space):
    """The dual vertices as Fractions: dual_cleared over its denominator."""
    rows, den = space.dual_cleared
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def annihilator_functionals(Y):
    """The functionals vanishing on Y as Fractions: annihilator_num over
    annihilator_den."""
    return [tuple(Fraction(x, Y.annihilator_den) for x in g) for g in Y.annihilator_num]


def norming_pairs(report, P):
    """Pairs (vertex index, dual index) with f(P x) = lambda, one per
    antipodal class, off the report's grid (PairGrid.value_numerators).
    No projection has norm below lambda, so a pair above it means P is
    no minimal projection: a ValueError."""
    grid = report.grid
    values, den = grid.value_numerators(P.coefficients)
    top = max(values)
    norm = Fraction(top, den)
    if norm > report.lam:
        raise ValueError(f"pair {grid.pairs[values.index(top)]} reaches "
                         f"{format_rational(norm)} > {format_rational(report.lam)}: "
                         "not a minimal projection")
    return frozenset(grid.pairs[r] for r, v in enumerate(values) if v == top)


def matmul(A, B):
    """The product A·B of two RMatrix values."""
    if A.cols != B.rows:
        raise ValueError("inner dimensions disagree")
    return RMatrix.from_rows([[dot(row, col) for col in B.transpose().row_list()]
                              for row in A.row_list()])


def matadd(A, B, scale=1):
    """A + scale·B for two RMatrix values of one shape."""
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise ValueError("shapes disagree")
    return RMatrix(A.rows, A.cols, tuple(
        a + scale * b for a, b in zip(A.entries, B.entries)))


def space_json(space, subspace=None):
    """A space (and subspace) in the schema jsonio.parse_space_document
    reads, so that the document round-trips."""
    out = {
        "dim": space.dim,
        "vertices": [vector_json(v) for v in primal_vertices(space)],
        "dual_vertices": [vector_json(f) for f in dual_vertices(space)],
    }
    if subspace is not None:
        out["subspace_basis"] = [vector_json(b) for b in subspace.basis_vectors()]
    return out


def row_value(grid, r, coefficients):
    """The value of grid row r, f(P0 x) + sum_q c_q f(L_q x), at the
    operator coefficients c."""
    x, x_den = over_denominator(coefficients)
    return Fraction(grid.base_num[r] * x_den + int_dot(grid.coefs(r), x),
                    grid.denominator * x_den)


def face_dimension_per_row(report):
    """(face_dim, implicit pairs, relative-interior coefficients) by one
    secondary LP per undecided tight row: a row whose maximal slack over
    the optimal face is zero is an implicit equality.  Rows already slack
    at a collected optimum are skipped, and the average of the collected
    optima lies in the relative interior.  The report is not modified."""
    grid = report.grid
    base, coefs = grid_base(grid), grid_coefs(grid)
    d = len(report.witness.coefficients)
    lam = report.lam
    points = [report.witness.coefficients]
    implicit_rows = []
    for r in report.grid.tight_rows(report.witness.coefficients, lam):
        if any(row_value(grid, r, p) != lam for p in points):
            continue
        sub = solve_on_face(dense_grid_lp(grid), lam, coefs[r] + (Fraction(0),))
        assert sub.status == OPTIMAL
        points.append(sub.primal[:d])
        if lam - base[r] - sub.value == 0:
            implicit_rows.append(r)
    face_dim = d - len(rref_by_fractions([coefs[r] for r in implicit_rows])[1])
    count = Fraction(len(points))
    interior = tuple(sum(p[q] for p in points) / count for q in range(d))
    assert grid.tight_rows(interior, lam) == implicit_rows
    return face_dim, frozenset(grid.pairs[r] for r in implicit_rows), interior


def face_basis_by_fractions(grid, implicit, rows, d):
    """Columns of the nullspace basis N of the implicit grid rows that
    rref_by_fractions gives (the identity when there are none), in
    Fractions, and for each of rows its coefficients restricted to N
    (coefs[r]·N) as integers over one positive denominator: each column
    cleared over its own least denominator, then brought to their least
    common multiple."""
    if implicit:
        cols = nullspace_by_fractions(
            RMatrix.from_rows([grid.coefs(r) for r in implicit]))
    else:
        cols = [tuple(Fraction(int(i == q)) for i in range(d)) for q in range(d)]
    cleared_cols = [over_denominator(col) for col in cols]
    C = lcm(*(den for _, den in cleared_cols))
    scaled = [[x * (C // den) for x in num] for num, den in cleared_cols]
    return cols, {r: tuple(int_dot(grid.coefs(r), col) for col in scaled)
                  for r in rows}, grid.denominator * C


def face_dimension_by_rounds(report):
    """(face_dim, implicit pairs, relative-interior coefficients) by Gordan
    rounds from no implicit row, with a rational nullspace per round: the
    face stage as it was before the lambda LP's dual support was taken
    as implicit.  Each round restricts the undecided tight rows to the
    nullspace N of the rows found implicit so far, moves the ones that
    vanish there to the implicit rows, and solves max delta <= 1 subject
    to G_r·y + delta <= 0 over the rest; delta* > 0 gives the interior
    direction N·y, delta* = 0 makes the rows its dual charges implicit.
    The interior is the witness moved along N·y, keeping every row slack
    at the witness at least half slack.  The report is not modified."""
    grid = report.grid
    lam = report.lam
    witness = report.witness.coefficients
    d = len(witness)
    implicit = []
    undecided = list(report.witness_rows)
    while True:
        cols, restricted, den = face_basis_by_fractions(grid, implicit, undecided, d)
        implicit += [r for r in undecided if not any(restricted[r])]
        undecided = [r for r in undecided if any(restricted[r])]
        m = len(cols)
        if not undecided:
            y = (Fraction(0),) * m
            break
        sol = solve(LinearProgram(
            objective=(0,) * m + (-1,),
            matrix=tuple(restricted[r] + (den,) for r in undecided)
            + ((0,) * m + (den,),),
            beta=(0,) * len(undecided) + (den,),
            denominator=den,
        ))
        if sol.value < 0:
            y = sol.primal[:m]
            break
        charged = {undecided[i] for i in sol.dual_rows}
        assert charged, "a Gordan round at delta* = 0 charged no row"
        implicit.extend(charged)
        undecided = [r for r in undecided if r not in charged]

    z = tuple(sum((col[i] * yq for col, yq in zip(cols, y)), Fraction(0))
              for i in range(d))
    step = _first_slack_step(grid, witness, lam, z, skip=set(report.witness_rows))
    eps = Fraction(1) if step is None else min(Fraction(1), step / 2)
    interior = tuple(w + eps * zq for w, zq in zip(witness, z))
    implicit.sort()
    assert grid.tight_rows(interior, lam) == implicit
    return len(cols), frozenset(grid.pairs[r] for r in implicit), interior


def face_dimension_by_vertices(report):
    """The affine dimension of the optimal face {c : every grid row is at
    most lambda} by enumerating its vertices, for d = k(n-k) <= 2.  The
    face is a bounded polyhedron in R^d, so it is the hull of its
    vertices, and each vertex is the one solution of some d grid rows
    with independent coefficients, all at lambda.  Every such set of rows
    is solved exactly (rref_by_fractions), the solutions at which every
    grid row is at most lambda are kept, and the dimension is the rank
    of their differences from one of them.  No LP, no pair outside the
    grid and nothing of face_dimension is used."""
    grid, lam = report.grid, report.lam
    base, coefs = grid_base(grid), grid_coefs(grid)
    d = len(coefs[0])
    if d > 2:
        raise ValueError(f"vertex enumeration is for k(n-k) <= 2, not {d}")
    vertices = set()
    for rows in itertools.combinations(range(len(coefs)), d):
        reduced, pivots = rref_by_fractions(
            [list(coefs[r]) + [lam - base[r]] for r in rows])
        if pivots != list(range(d)):
            continue
        point = tuple(row[d] for row in reduced)
        if all(b + dot(c, point) <= lam for b, c in zip(base, coefs)):
            vertices.add(point)
    first, *rest = sorted(vertices)
    return len(rref_by_fractions([[x - y for x, y in zip(v, first)]
                                  for v in rest])[1])


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
        face_dimension(report)
    grid = report.grid
    lam = report.lam
    d = len(report.witness.coefficients)
    interior = report.interior.coefficients
    fd = report.face_dim
    if fd == 0:
        return report.interior, len(report.implicit_rows)

    implicit = set(report.implicit_rows)
    ncols, restricted, den = face_basis_by_fractions(
        grid, report.implicit_rows,
        [r for r in range(len(grid.pairs)) if r not in implicit], d)
    restricted = {r: tuple(Fraction(x, den) for x in row)
                  for r, row in restricted.items()}

    slack0 = {}
    candidates = []
    for r, G in restricted.items():
        s = lam - row_value(grid, r, interior)
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
        attempt = solve_by_full_tableau(make_lp([0] * fd, rows, rhs))
        if attempt.status == OPTIMAL:
            z = attempt.primal
            forced.append(r)
        else:
            assert attempt.status == INFEASIBLE, attempt.status

    final = tuple(interior[q] + sum(col[q] * zv for col, zv in zip(ncols, z))
                  for q in range(d))
    point = OperatorPoint(final)
    pairs = norming_pairs(report, point)
    assert len(pairs) >= len(report.implicit_rows) + len(forced)
    return point, len(pairs)


def minimal_support_by_lp(space, Y, candidate_pairs, max_candidates=None):
    """(pairs, weights) of the smallest-support certificate over the
    candidates: subsets by cardinality, then lexicographically, each tested
    by an LP maximizing the smallest weight tau subject to the vanishing
    conditions and weight sum 1; the first subset with tau* > 0 wins."""
    candidates = sorted(set(candidate_pairs))
    if not candidates:
        raise InternalError("no candidate pairs to search")
    if max_candidates is not None and len(candidates) > max_candidates:
        raise BudgetExceededError(
            f"{len(candidates)} candidate pairs exceed the cap of {max_candidates}")
    basis = build_operator_basis(space, Y)
    d = len(basis.basis_ops)
    X, F = primal_vertices(space), dual_vertices(space)
    vanish = {(pi, dj): tuple(dot(F[dj], L.apply(X[pi]))
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
            sol = solve_by_full_tableau(make_lp([zero] * size + [-one], rows, rhs))
            if sol.status == OPTIMAL and -sol.value > 0:
                return subset, sol.primal[:size]
    raise InternalError("no valid certificate over the candidate pairs")


def minimal_support_by_solve(space, Y, candidate_pairs, max_candidates=None):
    """(pairs, weights) of the smallest-support certificate over the
    candidates: subsets by cardinality up to k(n-k) + 1, then
    lexicographically, each tested by an exact rational solve of
    [v_p; 1]·w = [0; 1]; the first subset whose solution is positive wins
    (free variables are set to zero, so a dependent subset never wins)."""
    candidates = sorted(set(candidate_pairs))
    if not candidates:
        raise InternalError("no candidate pairs to search")
    if max_candidates is not None and len(candidates) > max_candidates:
        raise BudgetExceededError(
            f"{len(candidates)} candidate pairs exceed the cap of {max_candidates}")
    basis = build_operator_basis(space, Y)
    d = len(basis.basis_ops)
    X, F = primal_vertices(space), dual_vertices(space)
    column = {(pi, dj): tuple(dot(F[dj], L.apply(X[pi]))
                              for L in basis.basis_ops) + (Fraction(1),)
              for pi, dj in candidates}
    target = (Fraction(0),) * d + (Fraction(1),)
    for size in range(1, min(d + 1, len(candidates)) + 1):
        for subset in itertools.combinations(candidates, size):
            weights = solve_by_fractions(
                RMatrix.from_rows(column[p] for p in subset).transpose(), target)
            if weights is not None and all(w > 0 for w in weights):
                return subset, weights
    raise InternalError("no valid certificate over the candidate pairs")


def integer_solve(rows, width):
    """linalg.integer_solve as it was before linalg.solve_linear took it
    in: a solution X of A·X = B for the integer rows [A | B], A of width
    columns, or None when some column of B is outside the column span of
    A.  X has one row per column of A: zero at a free column, and
    row[width:] / row[pivot] for the reduced row with that pivot.  With
    no rows, every row of X is empty."""
    reduced = integer_rref(rows)
    if reduced and reduced[-1][0] >= width:
        return None
    X = [[Fraction(0)] * (len(rows[0]) - width if rows else 0) for _ in range(width)]
    for pivot, row in reduced:
        X[pivot] = [Fraction(x, row[pivot]) for x in row[width:]]
    return X


def support_weights_by_solve(columns, target):
    """The weights of a subset in certificates.minimal_support_cm as they
    were before they were read off its heads' kernel: the w with
    sum_i w_i columns[i] = target, for independent integer columns, or
    None when target is not in their span (integer_solve on the system
    [columns | target])."""
    w = integer_solve([list(row) for row in zip(*columns, target)], len(columns))
    return None if w is None else tuple(x for x, in w)


def _canonical_span(rows):
    """RREF of the row span with zero rows dropped: equal spans give
    identical tuples."""
    reduced, pivots = rref_by_fractions(rows)
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
    X, F = primal_vertices(space), dual_vertices(space)
    budget = subset_cap

    def stacked_rank(z_rows):
        return len(rref_by_fractions(y_rows + list(z_rows))[1])

    spans_checked = 0
    seen_spans = set()
    reps = space.primal_reps
    for size in range(1, min(n, len(reps)) + 1):
        for subset in itertools.combinations(reps, size):
            spans_checked += 1
            if spans_checked > budget:
                raise BudgetExceededError(
                    f"vertex-span enumeration exceeded cap {subset_cap}")
            z_rows = _canonical_span([X[i] for i in subset])
            if z_rows in seen_spans:
                continue
            seen_spans.add(z_rows)
            if stacked_rank(z_rows) != min(k + len(z_rows), n):
                return GeneralPositionReport(False, "span", subset,
                                             spans_checked, 0)

    kernels_checked = 0
    seen_kernels = set()
    dreps = space.dual_reps
    for size in range(1, min(n, len(dreps)) + 1):
        for subset in itertools.combinations(dreps, size):
            kernels_checked += 1
            if spans_checked + kernels_checked > budget:
                raise BudgetExceededError(
                    f"kernel enumeration exceeded cap {subset_cap}")
            f_span = _canonical_span([F[j] for j in subset])
            if f_span in seen_kernels:
                continue
            seen_kernels.add(f_span)
            z_rows = nullspace_by_fractions(RMatrix.from_rows(f_span))
            if stacked_rank(z_rows) != min(k + len(z_rows), n):
                return GeneralPositionReport(False, "kernel", subset,
                                             spans_checked, kernels_checked)

    return GeneralPositionReport(True, None, None, spans_checked, kernels_checked)


def general_position_per_subset(space, Y):
    """geometry.general_position_check as it was before the subset walk:
    the same subsets in the same order, spans of at most n - k vertices
    and kernels of at most k functionals, each visited and judged by one
    integer rank of its projected rows, and of its raw rows when that
    rank is below the subset's size.  Same report."""
    return _general_position_report(
        _first_failing_subset, (primal_vertices(space), space.primal_reps,
                                annihilator_functionals(Y)),
        (dual_vertices(space), space.dual_reps, Y.basis_vectors()),
        space.dim - Y.dim, Y.dim)


def general_position_by_leaf_walk(space, Y):
    """geometry.general_position_check as it was when its subset walk went
    down to the leaves (subset_walk_by_leaves over the projected rows): a
    cut prefix's subtree is counted by a binomial, and a leaf whose last
    projected row reduces to zero fails when its raw rows have full
    integer rank.  Same report."""
    return _general_position_report(
        _first_failing_by_leaf_walk,
        (space.primal_cleared[0], space.primal_reps, Y.annihilator_num),
        (space.dual_cleared[0], space.dual_reps, Y.basis_num),
        space.dim - Y.dim, Y.dim)


def _general_position_report(first_failing, spans, kernels, max_span, max_kernel):
    """The report of first_failing(vectors, reps, directions, max_size)
    run over spans, then over kernels, each a triple (vectors, reps,
    directions)."""
    span, spans_checked = first_failing(*spans, max_span)
    if span is not None:
        return GeneralPositionReport(False, "span", span, spans_checked, 0)
    kernel, kernels_checked = first_failing(*kernels, max_kernel)
    if kernel is not None:
        return GeneralPositionReport(False, "kernel", kernel,
                                     spans_checked, kernels_checked)
    return GeneralPositionReport(True, None, None, spans_checked, kernels_checked)


def budget_outcome(check, *args, budget):
    """The result of check(*args, budget=budget), or the text of the
    BudgetExceededError it raises."""
    try:
        return check(*args, budget=budget)
    except BudgetExceededError as exc:
        return str(exc)


def work_edge(module, check, *args):
    """The row steps check(*args) charges, in all, to the linalg.WorkBudgets
    that module makes, when it runs to the end with its default budget:
    the least budget it completes with (0 when it walks no subset)."""
    made = []

    class Recorded(WorkBudget):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    original = module.WorkBudget
    module.WorkBudget = Recorded
    try:
        check(*args)
    finally:
        module.WorkBudget = original
    return max((budget.spent for budget in made), default=0)


def subset_walk_by_classes(rows, size, width):
    """linalg.subset_walk as it was before it charged a work budget, when
    it yielded (passed, subset) events: the same walk and nodes, with no
    budget.  passed counts the subsets of `size`, in lexicographic order,
    from the one after the previous event up to subset, which qualifies;
    a cut subtree, and a node's leaves after its last qualifying one,
    end with one (passed, None) that counts up to their end, so the
    counts of a walk sum to comb(len(rows), size)."""
    def walk(prefix, indices, rows, prev):
        depth = len(prefix) + 1
        if depth >= size - 1:
            yield from _counted_leaves(prefix, indices, rows, size - len(prefix), width)
            return
        for pos in range(len(rows) - size + depth):
            row = rows[pos]
            pivot = _pivot(row)
            if pivot is None or pivot >= width:
                yield comb(len(rows) - pos - 1, size - depth), None
                continue
            yield from walk(prefix + (indices[pos],), indices[pos + 1:],
                            reduce_rows(rows[pos + 1:], pivot, row, prev), row[pivot])

    return walk((), range(len(rows)), rows, 1)


def _counted_leaves(prefix, indices, rows, left, width):
    """subset_walk_by_classes's (passed, subset) events for the leaves
    made of the prefix and `left` (1 or 2) of the node's carried rows,
    decided by the parallel classes of their heads."""
    count = len(rows)
    if left == 1:
        hits = [(a,) for a, row in enumerate(rows)
                if not any(row[:width]) and any(row)]
        offsets = [a for a, in hits]
    else:
        heads = [_direction(row[:width]) for row in rows]
        if None not in heads and len(set(heads)) == count:
            yield comb(count, 2), None
            return
        groups = {}
        for pos, head in enumerate(heads):
            groups.setdefault(head, []).append(pos)
        zeros = groups.pop(None, [])
        pairs = [pair for group in groups.values()
                 for pair in itertools.combinations(group, 2)]
        pairs += [(a, b) for b in zeros for a in range(b) if heads[a] is not None]
        pairs.sort()
        whole = {pos: _direction(rows[pos]) for pos in {p for pair in pairs for p in pair}}
        hits = [(a, b) for a, b in pairs
                if whole[b] is not None and whole[b] != whole[a]]
        # the leaves before (a, b): those through a smaller first row, then
        # those through a with a smaller second row
        offsets = [comb(count, 2) - comb(count - a, 2) + b - a - 1 for a, b in hits]
    passed = 0
    for hit, offset in zip(hits, offsets):
        yield offset + 1 - passed, prefix + tuple(indices[p] for p in hit)
        passed = offset + 1
    if passed < comb(count, left):
        yield comb(count, left) - passed, None


def _first_failing_subset(vectors, reps, directions, max_size):
    raw = {i: over_denominator(vectors[i])[0] for i in reps}
    projected = {i: over_denominator([dot(vectors[i], d) for d in directions])[0]
                 for i in reps}
    checked = 0
    for size in range(1, min(max_size, len(reps)) + 1):
        for subset in itertools.combinations(reps, size):
            checked += 1
            rank = integer_rank_in_place([projected[i] for i in subset])
            if rank < size and rank != integer_rank_in_place([raw[i] for i in subset]):
                return subset, checked
    return None, checked


def general_position_rows_by_raw_vectors(vectors, reps, directions):
    """geometry._walk_rows as it was before its rows were n entries wide:
    [v·d | v], the projected row and then the whole raw row, for each
    index of reps."""
    return [[int_dot(v, d) for d in directions] + list(v)
            for v in (vectors[i] for i in reps)]


def _first_failing_by_leaf_walk(vectors, reps, directions, max_size):
    raw = [vectors[i] for i in reps]
    projected = [[int_dot(v, d) for d in directions] for v in raw]
    m = len(reps)
    checked = 0
    for size in range(1, min(max_size, m) + 1):
        for subset, row, _ in subset_walk_by_leaves(projected, size):
            depth = len(subset)
            checked += 1 if depth == size else comb(m - subset[-1] - 1, size - depth)
            if (depth == size and not any(row)
                    and integer_rank_in_place([raw[i] for i in subset]) == size):
                return tuple(reps[i] for i in subset), checked
    return None, checked


def subset_walk_by_leaves(rows, size, target=None):
    """linalg.subset_walk as it was when it went down to the leaves, with
    its own fraction-free step.  The index subsets of `size` integer rows,
    depth-first in lexicographic order, each node carrying the rows after
    its prefix (and target, never chosen) reduced against the prefix's
    echelon rows; a child whose carried row is zero cuts its subtree.
    Yields (subset, row, spans): row is the subset's last row reduced
    against the rows before it, zero exactly when the subset is
    dependent; a subset shorter than `size` is yielded only then.  spans
    tells, for an independent subset of `size` rows when target is given,
    whether target lies in the span of its rows, else it is None."""
    def step(vec, pivot, row, prev):
        return [(row[pivot] * x - vec[pivot] * y) // prev for x, y in zip(vec, row)]

    def walk(prefix, indices, rows, target, prev):
        depth = len(prefix) + 1
        if depth == size:
            for i, row in zip(indices, rows):
                spans = None
                if target is not None and any(row):
                    pivot = next(j for j, x in enumerate(row) if x)
                    spans = not any(step(target, pivot, row, prev))
                yield prefix + (i,), row, spans
            return
        for pos in range(len(rows) - size + depth):
            row = rows[pos]
            subset = prefix + (indices[pos],)
            if not any(row):
                yield subset, row, None
                continue
            pivot = next(j for j, x in enumerate(row) if x)
            yield from walk(
                subset, indices[pos + 1:],
                [step(r, pivot, row, prev) for r in rows[pos + 1:]],
                None if target is None else step(target, pivot, row, prev),
                row[pivot])

    return walk((), range(len(rows)), rows, target, 1)


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
    solution = solve_by_full_tableau(make_lp([0] * count, rows, rhs))
    return solution.status == INFEASIBLE


def first_non_extreme(vertices):
    """Index of the first listed point that is_extreme rejects, or None:
    the vertex the LP-based validation of a space named."""
    return next((i for i, v in enumerate(vertices)
                 if not is_extreme(vertices, v)), None)


def first_non_vertex_by_rank(polar, n):
    """geometry._first_non_vertex as it was before it read the masks
    alone: a listed point of the hull Q is a vertex exactly when the
    polar vertices tight at it, read off the masks, have rank n (none
    are tight at the zero vector), and a duplicated point is never a
    vertex.  One rank (integer_rank_in_place) per antipodal pair."""
    counts = Counter(polar.bits)
    rank_of = {None: 0}
    for i, bit in enumerate(polar.bits):
        pair = None if bit is None else bit >> 1
        if pair not in rank_of:
            rank_of[pair] = integer_rank_in_place(
                [X[:-1] for X, mask in zip(polar.points, polar.tights)
                 if mask >> bit & 1])
        if counts[bit] > 1 or rank_of[pair] < n:
            return i
    return None


def operator_norm_by_fractions(space, matrix):
    """projections.operator_norm as it was before it ran in integers: the
    largest norm of the image of a ball vertex (norm_every_vertex), each
    image a Fraction product."""
    return max(norm_every_vertex(space, matrix.apply(v)) for v in primal_vertices(space))


def operator_norm_every_vertex(space, matrix):
    """projections.operator_norm as it was before it read each antipodal
    class once: the largest f(M x) in integers over every listed primal
    vertex x and every listed dual vertex f, the loop over the shorter
    list."""
    n = space.dim
    flat, m_den = over_denominator(matrix.entries)
    M = [flat[r * n:(r + 1) * n] for r in range(n)]
    X, dx = space.primal_cleared
    F, df = space.dual_cleared
    if len(X) > len(F):
        M, X, F = list(zip(*M)), F, X
    columns = list(zip(*F))

    def values(x):
        out = [0] * len(F)
        for v, column in zip([int_dot(row, x) for row in M], columns):
            if v:
                out = [s + v * f for s, f in zip(out, column)]
        return out

    return Fraction(max(max(values(x)) for x in X), m_den * dx * df)


def norm_every_vertex(space, x):
    """The norm of x, the largest f·x over every listed dual vertex f, in
    integers: geometry.norm_eval as it was before it read each antipodal
    class once, and before the package dropped it for want of a caller."""
    vec, den = over_denominator(x)
    F, df = space.dual_cleared
    return Fraction(max(int_dot(f, vec) for f in F), den * df)


def double_description_both_signs(rows, den):
    """geometry._double_description as it was before it kept one point of
    each antipodal pair: every vertex of the current polytope is held
    with its negation, the 2^n start points take n dot products each, and
    each insertion takes one slack per vertex and adds each cut with its
    negation.  Same checks and messages, same _Polar."""
    n = len(rows[0])
    present = set(rows)
    for w in rows:
        if tuple(-x for x in w) not in present:
            vertex = ", ".join(format_rational(Fraction(x, den)) for x in w)
            raise NotSymmetricError(
                f"primal vertex ({vertex}) has no negation in the list")

    bit_of = {}
    reps = []
    for w in rows:
        if w not in bit_of:
            if any(w):
                bit_of[w] = 2 * len(reps)
                bit_of[tuple(-x for x in w)] = 2 * len(reps) + 1
                reps.append(list(w))
            else:
                bit_of[w] = None

    chosen = independent_rows(reps, n)
    if len(chosen) < n:
        raise NotFullDimensionalError("vertices do not span the space")

    inv = integer_inverse([reps[p] for p in chosen])
    if inv is None:
        raise InternalError("independent vertices give a singular system")
    M, D = inv
    points = []
    tights = []
    for signs in itertools.product((den, -den), repeat=n):
        points.append(primitive([int_dot(row, signs) for row in M] + [D]))
        tights.append(sum(1 << (2 * p + (sign < 0))
                          for p, sign in zip(chosen, signs)))

    even = sum(1 << (2 * p) for p in range(len(reps)))
    started = set(chosen)
    for p, w in enumerate(reps):
        if p in started:
            continue
        plus, minus = 1 << (2 * p), 1 << (2 * p + 1)
        slack_row = w + [-den]
        slacks = [int_dot(slack_row, X) for X in points]
        inside = [i for i, a in enumerate(slacks) if a < 0]
        new_points = []
        new_tights = []
        for j, aj in enumerate(slacks):
            if aj <= 0:
                continue
            Xj, tj = points[j], tights[j]
            for i in inside:
                common = tights[i] & tj
                if common.bit_count() >= n - 1 and not any(
                        t & common == common and k != i and k != j
                        for k, t in enumerate(tights)):
                    ai = slacks[i]
                    cut = primitive([aj * x - ai * y
                                     for x, y in zip(points[i], Xj)])
                    mask = common | plus
                    new_points += (cut, [-x for x in cut[:-1]] + cut[-1:])
                    new_tights += (mask, ((mask & even) << 1)
                                   | ((mask >> 1) & even))
        for X, mask, a in zip(points, tights, slacks):
            b = -a - 2 * den * X[-1]
            if a <= 0 and b <= 0:
                new_points.append(X)
                new_tights.append(mask | (plus if a == 0 else 0)
                                  | (minus if b == 0 else 0))
        points, tights = new_points, new_tights

    index = {w: i for i, w in enumerate(rows)}
    return _Polar(points, tights, [bit_of[w] for w in rows],
                  tuple(index[tuple(-x for x in w)] for w in rows))


def linf_hyperplane_lambda(f):
    """The projection constant of the hyperplane ker f in l-inf^n, with no
    LP (Blatter and Cheney, "Minimal projections on hyperplanes in
    sequence spaces", Ann. Mat. Pura Appl. 1974): with f scaled so that
    sum |f_i| = 1, it is 1 when some |f_i| >= 1/2, and otherwise
    1 + 1 / sum(|f_i| / (1 - 2|f_i|))."""
    size = [abs(Fraction(x)) for x in f]
    total = sum(size)
    size = [x / total for x in size]
    if any(x >= Fraction(1, 2) for x in size):
        return Fraction(1)
    return 1 + 1 / sum(x / (1 - 2 * x) for x in size)


def polar_dual_by_fractions(vertices):
    """geometry.polar_dual as it was before it ran in integers: the same
    checks and messages, the parallelotope of the first n independent
    points (each found by a rank of all chosen so far), then one
    Fraction double-description step per remaining listed point, with a
    Fraction dot of the point against every polytope vertex, a Fraction
    cut per crossing edge and a Fraction rank per adjacency test.  Every
    rank and the inverse come from rref_by_fractions."""
    def rank(rows):
        return len(rref_by_fractions(rows)[1]) if rows else 0

    def neg(v):
        return tuple(-x for x in v)

    verts = [tuple(Fraction(x) for x in v) for v in vertices]
    if not verts:
        raise NotFullDimensionalError("empty vertex list")
    n = len(verts[0])
    if any(len(v) != n for v in verts):
        raise ValueError("inconsistent vector lengths")
    vertex_set = set(verts)
    for v in verts:
        if neg(v) not in vertex_set:
            raise NotSymmetricError(
                f"primal vertex ({', '.join(map(format_rational, v))}) has no "
                "negation in the list")
    if rank(verts) != n:
        raise NotFullDimensionalError("vertices do not span the space")

    index_of = {}
    for i, v in enumerate(verts):
        index_of.setdefault(v, i)

    chosen = []
    for i, v in enumerate(verts):
        if rank([verts[j] for j in chosen] + [v]) > len(chosen):
            chosen.append(i)
            if len(chosen) == n:
                break
    Vinv = inverse_by_fractions(RMatrix.from_rows([verts[i] for i in chosen]))
    if Vinv is None:
        raise InternalError("independent vertices give a singular system")
    points = []
    tights = []
    for signs in itertools.product((1, -1), repeat=n):
        points.append(tuple(dot(row, signs) for row in Vinv))
        tights.append({i if s == 1 else index_of[neg(verts[i])]
                       for s, i in zip(signs, chosen)})

    handled = set(chosen) | {index_of[neg(verts[i])] for i in chosen}
    for idx, w in enumerate(verts):
        if idx in handled:
            continue
        handled.add(idx)
        values = [dot(w, p) for p in points]
        inside = [i for i, val in enumerate(values) if val < 1]
        boundary = [i for i, val in enumerate(values) if val == 1]
        outside = [i for i, val in enumerate(values) if val > 1]
        for i in boundary:
            tights[i].add(idx)
        if not outside:
            continue
        new_points = {}
        for i in inside:
            for j in outside:
                common = tights[i] & tights[j]
                if len(common) < n - 1:
                    continue
                if rank([verts[t] for t in common]) != n - 1:
                    continue
                u, x = points[i], points[j]
                theta = (1 - values[i]) / (values[j] - values[i])
                cut = tuple(a + theta * (b - a) for a, b in zip(u, x))
                new_points.setdefault(cut, set()).update(common | {idx})
        keep = inside + boundary
        points = [points[i] for i in keep] + list(new_points)
        tights = [tights[i] for i in keep] + list(new_points.values())

    return tuple(sorted(points))


def cm_operator(space, cm):
    """The matrix of T = sum a_i x_i (x) f_i."""
    n = space.dim
    entries = [[Fraction(0)] * n for _ in range(n)]
    X, F = primal_vertices(space), dual_vertices(space)
    for (pi, dj), a in zip(cm.pairs, cm.weights):
        x, f = X[pi], F[dj]
        for r in range(n):
            if x[r]:
                ax = a * x[r]
                for c in range(n):
                    entries[r][c] += ax * f[c]
    return RMatrix.from_rows(entries)


def trace_on_subspace(space, Y, cm):
    """trace of T restricted to Y: coordinate b of T(y_b) in Y's basis,
    by one exact solve per basis vector y_b, summed over b; None when T
    does not map Y into Y."""
    T = cm_operator(space, cm)
    B = RMatrix.from_rows(Y.basis_vectors()).transpose()
    coords = [solve_by_fractions(B, T.apply(y)) for y in Y.basis_vectors()]
    if None in coords:
        return None
    return sum((c[b] for b, c in enumerate(coords)), Fraction(0))


def verify_cm_by_apply(space, Y, cm, lam, P, basis=None):
    """certificates.verify_cm as it was before it read pair values: (1)
    applies every basis operator L_q to every vertex, (2) tests each T y
    against Y's annihilator, and (3) realizes the matrix of P and applies
    it.  Same checks, same violation texts."""
    violations: list[str] = []
    X, F = primal_vertices(space), dual_vertices(space)
    n_p, n_d = len(X), len(F)
    for pi, dj in cm.pairs:
        if not (0 <= pi < n_p and 0 <= dj < n_d):
            violations.append(f"weights: pair ({pi}, {dj}) out of range")
            return CMVerdict(tuple(violations))
    if len(set(cm.pairs)) != len(cm.pairs):
        violations.append("weights: duplicate pairs")
    if any(a <= 0 for a in cm.weights):
        violations.append("weights: non-positive weight")
    total = sum(cm.weights, Fraction(0))
    if total != 1:
        violations.append(f"weights: sum is {total}, not 1")

    if basis is None:
        basis = build_operator_basis(space, Y)
    for q, L in enumerate(basis.basis_ops):
        s = Fraction(0)
        for (pi, dj), a in zip(cm.pairs, cm.weights):
            s += a * dot(F[dj], L.apply(X[pi]))
        if s != 0:
            violations.append(f"vanishing: basis operator {q} gives {s}")
            break

    T = cm_operator(space, cm)
    for b, y in enumerate(Y.basis_vectors()):
        if not Y.contains(T.apply(y)):
            violations.append(f"invariance: T(basis vector {b}) leaves Y")
            break

    Pm = realize_by_fractions(basis, P)
    for pi, dj in cm.pairs:
        value = dot(F[dj], Pm.apply(X[pi]))
        if value != lam:
            violations.append(
                f"norming: pair ({pi}, {dj}) gives {value}, expected {lam}")
            break

    trace = trace_on_subspace(space, Y, cm)
    if trace is None:
        violations.append("trace: undefined, T does not map Y into Y")
    elif trace != lam:
        violations.append(f"trace: {trace} differs from {lam}")

    return CMVerdict(tuple(violations))


def verify_cm_by_pair_rows(space, Y, cm, lam, P, basis=None):
    """certificates.verify_cm as it was before it read the norming values
    off the realized integer projection: (3) builds the certificate's
    pair rows (projections.pair_rows) and reads each value f(P x) off
    them, and the weights' sum and the trace are Fractions (the trace
    from integer_solve).  Same checks, same violation texts."""
    n_p = len(space.primal_cleared[0])
    n_d = len(space.dual_cleared[0])
    for pi, dj in cm.pairs:
        if not (0 <= pi < n_p and 0 <= dj < n_d):
            return CMVerdict((f"weights: pair ({pi}, {dj}) out of range",))
    if basis is None:
        basis = build_operator_basis(space, Y)
    coefs, base, D = pair_rows(space, basis, cm.pairs)
    violations = []
    if len(set(cm.pairs)) != len(cm.pairs):
        violations.append("weights: duplicate pairs")
    if any(a <= 0 for a in cm.weights):
        violations.append("weights: non-positive weight")
    total = sum(cm.weights, Fraction(0))
    if total != 1:
        violations.append(f"weights: sum is {format_rational(total)}, not 1")

    X, dx = space.primal_cleared
    F, df = space.dual_cleared
    a, da = over_denominator(cm.weights)
    Z = basis.subspace
    images = []
    for y in Z.basis_num:
        image = [0] * space.dim
        for (pi, dj), ai in zip(cm.pairs, a):
            c = ai * int_dot(F[dj], y)
            if c:
                image = [s + c * x for s, x in zip(image, X[pi])]
        images.append(image)
    t_den = da * df * dx * Z.basis_den
    leak = next(((q, s) for q, s in enumerate(
        int_dot(g, image) for image in images for g in Z.annihilator_num) if s), None)
    if leak is not None:
        q, s = leak
        violations.append(
            f"vanishing: basis operator {q} gives "
            f"{format_rational(Fraction(s, Z.annihilator_den * t_den))}")
        violations.append(
            f"invariance: T(basis vector {q // len(Z.annihilator_num)}) leaves Y")

    if len(P.coefficients) != basis.dimension:
        raise ValueError("coefficient count does not match the operator basis")
    x, x_den = over_denominator(P.coefficients)
    values = [b * x_den + int_dot(row, x) for row, b in zip(coefs, base)]
    den = D * x_den
    for (pi, dj), v in zip(cm.pairs, values):
        if Fraction(v, den) != lam:
            violations.append(
                f"norming: pair ({pi}, {dj}) gives {format_rational(Fraction(v, den))}, "
                f"expected {format_rational(lam)}")
            break

    if leak is not None:
        violations.append("trace: undefined, T does not map Y into Y")
    else:
        k = len(images)
        coords = integer_solve(
            [list(column) + [image[r] for image in images]
             for r, column in enumerate(zip(*Z.basis_num))], k)
        if coords is None:
            raise InternalError("an image of Y in Y has no coordinates in its basis")
        trace = (sum((coords[b][b] for b in range(k)), Fraction(0))
                 * Z.basis_den / t_den)
        if trace != lam:
            violations.append(
                f"trace: {format_rational(trace)} differs from {format_rational(lam)}")
    return CMVerdict(tuple(violations))


def operator_basis_by_fractions(space, Y):
    """projections.build_operator_basis as it was in Fraction matrices:
    the complement by one rank per standard basis vector, P0 = M·D·M^-1
    by Fraction matmuls, the operators y_b (x) g_j as Fraction matrices,
    and the same four guards (idempotence, P0 fixing Y, every operator
    vanishing on Y by applying it, the rank of the flattened operators),
    raising the same InternalError messages.  Ranks and the inverse come
    from rref_by_fractions.  Returns base_projection, basis_ops, y_basis
    and annihilator."""
    def rank(rows):
        return len(rref_by_fractions(rows)[1]) if rows else 0

    n = space.dim
    k = Y.dim
    ys = tuple(Y.basis_vectors())
    gs = tuple(annihilator_functionals(Y))
    stack = list(ys)
    for j in range(n):
        e = tuple(Fraction(int(i == j)) for i in range(n))
        if rank(stack + [e]) > len(stack):
            stack.append(e)
            if len(stack) == n:
                break
    M = RMatrix.from_rows(stack).transpose()
    Minv = inverse_by_fractions(M)
    if Minv is None:
        raise InternalError("basis of Y plus its complement is singular")
    D = RMatrix.from_rows([[Fraction(int(i == j and i < k)) for j in range(n)]
                           for i in range(n)])
    P0 = matmul(matmul(M, D), RMatrix.from_rows(Minv))
    ops = [RMatrix.from_rows([[y[i] * g[j] for j in range(n)] for i in range(n)])
           for y in ys for g in gs]
    if matmul(P0, P0).entries != P0.entries:
        raise InternalError("base projection is not idempotent")
    if any(P0.apply(y) != y for y in ys):
        raise InternalError("base projection does not fix Y")
    if any(any(op.apply(y)) for op in ops for y in ys):
        raise InternalError("a basis operator does not vanish on Y")
    if rank([op.entries for op in ops]) != k * (n - k):
        raise InternalError("basis operators are linearly dependent")
    return SimpleNamespace(base_projection=P0, basis_ops=tuple(ops),
                           y_basis=ys, annihilator=gs)


def realize_by_fractions(basis, point):
    """OperatorBasis.realize as it was: P0 plus each basis operator scaled
    by its coefficient, as Fraction matrices."""
    if len(point.coefficients) != basis.dimension:
        raise ValueError("coefficient count does not match the operator basis")
    out = basis.base_projection
    for c, op in zip(point.coefficients, basis.basis_ops):
        if c:
            out = matadd(out, op, c)
    return out


def certify_by_face(space, Y, cm, lam):
    """(computed lambda, verdict) of the certify command with no routes:
    solve the lambda LP, find the relative interior of the optimal face,
    and run verify_cm there, whatever the certificate.  A certificate
    that fails norming alone there, or no check, proves lambda >= lam,
    and is valid exactly when lambda = lam (decided_by_lambda)."""
    report = projection_constant(space, Y)
    face_dimension(report)
    return decided_by_lambda(report.lam, verify_cm(
        space, Y, cm, lam, report.interior, basis=report.basis), lam)


def decided_by_lambda(computed, verdict, lam):
    """(computed, verdict), where a verdict that fails no check but
    norming is replaced, when computed differs from lam, by the one
    violation that the pairs average lam, below lambda, at every
    projection onto Y: such a certificate proves lambda >= lam and is
    valid exactly when lambda = lam."""
    if verdict.failed <= {"norming"} and computed != lam:
        verdict = CMVerdict((
            f"norming: the pairs average {format_rational(lam)} at every "
            f"projection onto Y, below lambda {format_rational(computed)}",))
    return computed, verdict


def projection_normed_by_full_rank(rows, space, basis, lam):
    """certificates._projection_normed_by as it was: whether the pair rows
    (coefs, base, D) have full column rank k(n-k), and then the point
    where every row has value lam with its realization, when it exists
    and has operator norm at most lam, or None and None."""
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


def certify_by_cold_lp(space, Y, cm, lam):
    """(computed lambda, verdict) of certificates.certify_cm as it was
    before its one-LP route started the lambda LP at the certificate: the
    same routes, the no-LP solve, one LP and the optimal face, with the
    lambda LP solved from scratch, once at most."""
    basis = build_operator_basis(space, Y)
    n_p, n_d = len(space.primal_cleared[0]), len(space.dual_cleared[0])
    report = point = realized = None
    if all(0 <= i < n_p and 0 <= j < n_d for i, j in cm.pairs):
        full_rank, point, realized = projection_normed_by_full_rank(
            pair_rows(space, basis, cm.pairs), space, basis, lam)
        if not full_rank:
            report = _solve_lambda(space, Y, basis, build_pair_grid(space, basis))
            if report.lam == lam:
                point, realized = report.witness, report.witness_cleared
    if point is not None:
        verdict = verify_cm(space, Y, cm, lam, point, basis=basis, realized=realized)
        if verdict.ok:
            return lam, verdict
    if report is None:
        report = _solve_lambda(space, Y, basis, build_pair_grid(space, basis))
    face_dimension(report)
    return report.lam, verify_cm(space, Y, cm, lam, report.interior, basis=basis,
                                 realized=report.interior_cleared)


# The rational tableau that the integer one in minproj.simplex replaced.
# A row is a pair of equal-length lists of Python ints (numerators and
# denominators) kept in lowest terms with positive denominators; a zero
# entry is stored as 0/1.  These two in-place operations were the entire
# inner loop of that simplex.

def scale_row(num, den, fn, fd):
    """Multiply the row by fn/fd in place (fn != 0, fd > 0)."""
    for i in range(len(num)):
        n = num[i]
        if n == 0:
            continue
        nn = n * fn
        dd = den[i] * fd
        g = gcd(nn, dd)
        num[i] = nn // g
        den[i] = dd // g


def row_axpy(dnum, dden, snum, sden, fn, fd):
    """Subtract (fn/fd) times the source row from the destination row in place.

    fd must be positive; a zero factor is a no-op.
    """
    if fn == 0:
        return
    for i in range(len(snum)):
        s = snum[i]
        if s == 0:
            continue
        a = dnum[i]
        b = dden[i]
        t = sden[i]
        nn = a * fd * t - fn * s * b
        if nn == 0:
            dnum[i] = 0
            dden[i] = 1
            continue
        dd = b * fd * t
        g = gcd(nn, dd)
        dnum[i] = nn // g
        dden[i] = dd // g


class _FractionPivotCore:
    """Shared full-tableau machinery: rows as parallel num/den lists, an
    objective row priced out over the basis, Dantzig-then-Bland pivoting
    (Bland's rule for good after _STALL_SWITCH degenerate pivots, across
    phases too)."""

    nrows: int
    width: int

    def _init_core(self, nrows: int, width: int) -> None:
        self.nrows = nrows
        self.width = width
        self.RHS = width - 1
        self.rows_n: list[list[int]] = []
        self.rows_d: list[list[int]] = []
        self.basis: list[int] = []
        self.forbidden: frozenset[int] = frozenset()
        self.on: list[int] = []
        self.od: list[int] = []
        self.bland = False
        self.stall = 0
        self.pivots = 0

    def set_objective(self, costs: dict[int, Fraction]) -> None:
        """Install an objective row and price out the current basis."""
        on = [0] * self.width
        od = [1] * self.width
        for col, value in costs.items():
            on[col] = value.numerator
            od[col] = value.denominator
        self.on = on
        self.od = od
        for r in range(self.nrows):
            j = self.basis[r]
            if on[j] != 0:
                row_axpy(on, od, self.rows_n[r], self.rows_d[r], on[j], od[j])
                on[j] = 0
                od[j] = 1

    def _entering(self) -> int | None:
        on = self.on
        od = self.od
        if self.bland:
            for j in range(self.width - 1):
                if on[j] < 0 and j not in self.forbidden:
                    return j
            return None
        best = None
        best_n = best_d = 0
        for j in range(self.width - 1):
            nj = on[j]
            if nj < 0 and j not in self.forbidden:
                dj = od[j]
                if best is None or nj * best_d < best_n * dj:
                    best, best_n, best_d = j, nj, dj
        return best

    def _leaving(self, c: int) -> int | None:
        best = None
        best_num = best_den = 0
        best_var = -1
        for i in range(self.nrows):
            an = self.rows_n[i][c]
            if an > 0:
                ad = self.rows_d[i][c]
                num = self.rows_n[i][self.RHS] * ad
                den = self.rows_d[i][self.RHS] * an
                if best is None:
                    take = True
                else:
                    lhs = num * best_den
                    rhs = best_num * den
                    take = lhs < rhs or (lhs == rhs and self.basis[i] < best_var)
                if take:
                    best, best_num, best_den, best_var = i, num, den, self.basis[i]
        return best

    def pivot(self, r: int, c: int) -> None:
        rn, rd = self.rows_n[r], self.rows_d[r]
        pn, pd = rn[c], rd[c]
        if pn < 0:
            fn, fd = -pd, -pn
        else:
            fn, fd = pd, pn
        if not (fn == 1 and fd == 1):
            scale_row(rn, rd, fn, fd)
        rn[c], rd[c] = 1, 1
        for i in range(self.nrows):
            if i != r:
                coef_n = self.rows_n[i][c]
                if coef_n != 0:
                    row_axpy(self.rows_n[i], self.rows_d[i], rn, rd,
                             coef_n, self.rows_d[i][c])
                    self.rows_n[i][c], self.rows_d[i][c] = 0, 1
        if self.on[c] != 0:
            row_axpy(self.on, self.od, rn, rd, self.on[c], self.od[c])
            self.on[c], self.od[c] = 0, 1
        self.basis[r] = c

    def run(self) -> str:
        while True:
            c = self._entering()
            if c is None:
                return OPTIMAL
            r = self._leaving(c)
            if r is None:
                return UNBOUNDED
            before = (self.on[self.RHS], self.od[self.RHS])
            self.pivot(r, c)
            self.pivots += 1
            if self.pivots > _MAX_PIVOTS:
                raise InternalError("simplex pivot budget exhausted")
            if (self.on[self.RHS], self.od[self.RHS]) == before:
                self.stall += 1
                if self.stall >= _STALL_SWITCH:
                    self.bland = True
            else:
                self.stall = 0

    def objective_value(self) -> Fraction:
        return -Fraction(self.on[self.RHS], self.od[self.RHS])

    def clear_artificials(self, real_cols: int) -> None:
        """Pivot basic artificials (all at zero) onto real columns when possible.

        A row whose real part vanished entirely is a redundant constraint;
        its artificial stays basic at zero and can never interfere again.
        """
        for r in range(self.nrows):
            if self.basis[r] >= real_cols:
                for c in range(real_cols):
                    if self.rows_n[r][c] != 0:
                        self.pivot(r, c)
                        break


class _FractionTableau(_FractionPivotCore):
    """Inequality-form tableau: columns are the split variables, one slack
    per row, artificials where the normalized right-hand side was negative."""

    def __init__(self, lp: LinearProgram):
        A = lp.constraint_matrix
        self.lp = lp
        self.m = m = A.rows
        self.d = d = A.cols
        rhs = lp_rhs(lp)
        sigma = [1 if rhs[i] >= 0 else -1 for i in range(m)]
        self.sigma = sigma
        art_rows = [i for i in range(m) if sigma[i] < 0]
        self.art_cols = {row: 2 * d + m + idx for idx, row in enumerate(art_rows)}
        self._init_core(m, 2 * d + m + len(art_rows) + 1)
        for i in range(m):
            rn = [0] * self.width
            rd = [1] * self.width
            s = sigma[i]
            for j in range(d):
                a = A.row(i)[j]
                if a:
                    num = a.numerator if s > 0 else -a.numerator
                    rn[j] = num
                    rd[j] = a.denominator
                    rn[d + j] = -num
                    rd[d + j] = a.denominator
            rn[2 * d + i] = s
            b = rhs[i] if s > 0 else -rhs[i]
            rn[self.RHS] = b.numerator
            rd[self.RHS] = b.denominator
            self.rows_n.append(rn)
            self.rows_d.append(rd)
            self.basis.append(2 * d + i if s > 0 else self.art_cols[i])
        # Artificial columns never (re-)enter the basis; sound because any
        # feasible point extends with all artificials at zero.
        self.forbidden = frozenset(self.art_cols.values())


class _FractionStdTableau(_FractionPivotCore):
    """Standard-form tableau  sum_r u_r * col_r = rhs, u >= 0  with one
    artificial per equality row."""

    def __init__(self, columns: list[tuple[Fraction, ...]], rhs: Sequence[Fraction]):
        n_eq = len(rhs)
        n_u = len(columns)
        self.n_u = n_u
        self._init_core(n_eq, n_u + n_eq + 1)
        sigma = [1 if rhs[i] >= 0 else -1 for i in range(n_eq)]
        self.sigma = sigma
        for i in range(n_eq):
            rn = [0] * self.width
            rd = [1] * self.width
            s = sigma[i]
            for r in range(n_u):
                a = columns[r][i]
                if a:
                    rn[r] = a.numerator if s > 0 else -a.numerator
                    rd[r] = a.denominator
            rn[n_u + i] = 1
            b = rhs[i] if s > 0 else -rhs[i]
            rn[self.RHS] = b.numerator
            rd[self.RHS] = b.denominator
            self.rows_n.append(rn)
            self.rows_d.append(rd)
            self.basis.append(n_u + i)
        self.forbidden = frozenset(range(n_u, n_u + n_eq))


def solve_by_fraction_tableau(lp, method="dual"):
    """The LP solved on the rational num/den tableau.  method "dual" takes
    the standard-form dual tableau with the pivot rules simplex.solve had
    before its lexicographic ratio test: Dantzig's rule, ratio ties to the
    lowest basic variable, and Bland's rule for good after _STALL_SWITCH
    degenerate pivots; method "rows" takes the inequality-form tableau, which decides infeasible and
    unbounded LPs on its own.  Optimal solutions are verified in Fraction
    arithmetic, not by simplex._finish."""
    if method == "dual":
        return _fraction_solve_via_dual(lp)
    if method != "rows":
        raise ValueError(f"unknown method {method!r}")
    return _fraction_solve_rows(lp)


def _fraction_solve_rows(lp, pivots=0):
    tab = _FractionTableau(lp)
    m, d = tab.m, tab.d

    if tab.art_cols:
        tab.set_objective({col: Fraction(1) for col in tab.art_cols.values()})
        status = tab.run()
        if status != OPTIMAL:
            raise InternalError("phase I cannot be unbounded")
        if tab.objective_value() != 0:
            return LPSolution(status=INFEASIBLE, pivots=pivots + tab.pivots)
        tab.clear_artificials(2 * d + m)

    costs = {}
    for j, cj in enumerate(lp.objective):
        if cj:
            costs[j] = cj
            costs[d + j] = -cj
    tab.set_objective(costs)
    status = tab.run()
    pivots += tab.pivots
    if status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED, pivots=pivots)

    basic_value = {}
    for r in range(m):
        basic_value[tab.basis[r]] = Fraction(tab.rows_n[r][tab.RHS],
                                             tab.rows_d[r][tab.RHS])
    zero = Fraction(0)
    primal = tuple(basic_value.get(j, zero) - basic_value.get(d + j, zero)
                   for j in range(d))
    value = tab.objective_value()
    dual = tuple(Fraction(tab.on[2 * d + i], tab.od[2 * d + i]) for i in range(m))
    return _fraction_finish(lp, value, primal, dual, pivots)


def _fraction_solve_via_dual(lp):
    """Solve  min b·u, Aᵀu = -c, u >= 0  and recover the primal optimum by
    an exact linear solve with the price rows of the final basis."""
    A = lp.constraint_matrix
    m, d = A.rows, A.cols
    columns = [A.row(r) for r in range(m)]
    rhs_eq = [-cj for cj in lp.objective]
    tab = _FractionStdTableau(columns, rhs_eq)

    tab.set_objective({col: Fraction(1) for col in range(tab.n_u, tab.n_u + d)})
    if tab.run() != OPTIMAL:
        raise InternalError("phase I cannot be unbounded")
    if tab.objective_value() != 0:
        return _fraction_solve_rows(lp, tab.pivots)
    tab.clear_artificials(tab.n_u)

    rhs = lp_rhs(lp)
    tab.set_objective({r: rhs[r] for r in range(m) if rhs[r]})
    if tab.run() == UNBOUNDED:
        return LPSolution(status=INFEASIBLE, pivots=tab.pivots)

    zero = Fraction(0)
    u = [zero] * m
    price_rows = []
    price_rhs = []
    for r in range(tab.nrows):
        var = tab.basis[r]
        if var < m:
            u[var] = Fraction(tab.rows_n[r][tab.RHS], tab.rows_d[r][tab.RHS])
            price_rows.append(columns[var])
            price_rhs.append(rhs[var])
        else:
            unit = [zero] * d
            unit[var - m] = Fraction(tab.sigma[var - m])
            price_rows.append(tuple(unit))
            price_rhs.append(zero)
    y = solve_by_fractions(RMatrix.from_rows(price_rows), price_rhs)
    if y is None:
        raise InternalError("singular optimal basis")
    primal = tuple(y)
    value = dot(lp.objective, primal)
    return _fraction_finish(lp, value, primal, tuple(u), tab.pivots)


def fraction_phase_two(lp, start):
    """Phase II of the rational dual tableau, by the rules of
    solve_by_fraction_tableau, from the basis of the LP rows start, one
    per variable, the i-th pivoted onto row i, as simplex.solve takes a
    start whose point is feasible: the tableau after its run, and the
    status."""
    A = lp.constraint_matrix
    tab = _FractionStdTableau([A.row(r) for r in range(A.rows)],
                              [-Fraction(cj) for cj in lp.objective])
    tab.set_objective({})
    for r, c in enumerate(start):
        tab.pivot(r, c)
    tab.set_objective({r: b for r, b in enumerate(lp_rhs(lp)) if b})
    return tab, tab.run()


def _fraction_finish(lp, value, primal, dual, pivots):
    """Feasibility, dual feasibility, complementary slackness, strong
    duality and the primal value, checked in Fraction arithmetic."""
    A, rhs = lp.constraint_matrix, lp_rhs(lp)
    m, d = A.rows, A.cols
    row_values = [dot(A.row(i), primal) for i in range(m)]
    tight = frozenset(i for i in range(m) if row_values[i] == rhs[i])
    for i in range(m):
        if row_values[i] > rhs[i]:
            raise InternalError(f"primal infeasibility on row {i}")
        if dual[i] < 0:
            raise InternalError(f"negative dual weight on row {i}")
        if dual[i] > 0 and i not in tight:
            raise InternalError(f"complementary slackness broken on row {i}")
    for j in range(d):
        lhs = sum((dual[i] * A.row(i)[j] for i in range(m)), Fraction(0))
        if lhs != -lp.objective[j]:
            raise InternalError(f"dual equation broken in column {j}")
    if dot(dual, rhs) != -value:
        raise InternalError("strong duality violated")
    if dot(lp.objective, primal) != value:
        raise InternalError("primal value mismatch")
    support = tuple(i for i in range(m) if dual[i])
    return LPSolution(status=OPTIMAL, value=value, primal=primal, dual_rows=support,
                      dual=tuple(dual[i] for i in support), tight_set=tight, pivots=pivots)


# The full integer tableau that the revised dual simplex of
# minproj.simplex replaced: each of the d rows holds every real column
# as well as its artificial block and right-hand side, and a pivot
# rewrites all of it.  It takes the same pivots by the same rules, so
# solve_by_full_tableau returns the same LPSolution as simplex.solve,
# pivot count included.

class _FullDualTableau:
    """Standard-form tableau of the dual  Aᵀu = -c, u >= 0: one column per
    constraint row of the LP, one equality row (with its artificial) per
    variable, negated where -c_j < 0 so the artificial starts basic.
    Integer rows are scaled through their basic entries, the objective row
    is priced out over the basis, pivoting follows Dantzig's rule, and the
    leaving row is the lexicographically least (rhs, B0 entries) / entry,
    B0 the basis the phase started from."""

    def __init__(self, lp):
        M, D = lp.matrix, lp.denominator
        n_u = len(M)
        self.nrows = n_eq = len(lp.objective)
        self.width = n_u + n_eq + 1
        self.RHS = self.width - 1
        self.rows = []
        self.basis = []
        self.sigma = []
        for j, cj in enumerate(lp.objective):
            s = 1 if cj <= 0 else -1
            self.sigma.append(s)
            # The true row times D·den(c_j).
            factor = s * cj.denominator
            row = [factor * M[r][j] for r in range(n_u)] + [0] * (n_eq + 1)
            row[n_u + j] = D * cj.denominator
            row[self.RHS] = -s * cj.numerator * D
            self.rows.append(primitive(row))
            self.basis.append(n_u + j)
        # Artificial columns never (re-)enter the basis.
        self.forbidden = frozenset(range(n_u, n_u + n_eq))
        self.on = []
        self.oscale = 1
        self.pivots = 0

    def set_objective(self, on, oscale):
        """Install the cost row on / oscale (oscale > 0), price out the
        current basis and take it as the phase's B0."""
        self.on = on
        self.oscale = oscale
        self.start = self.basis[:]
        for r in range(self.nrows):
            if on[self.basis[r]] != 0:
                self._price_out(r, self.basis[r])

    def _price_out(self, r, c):
        """Clear the reduced cost of column c with row r, whose entry p at c
        is positive: on/oscale - (on[c]/oscale)(R/p) = (p·on - on[c]·R)/(p·oscale)."""
        R = self.rows[r]
        p = R[c]
        f = self.on[c]
        on = _eliminate(self.on, p, f, R)
        scale = self.oscale * (p // gcd(p, f))  # the factor _eliminate applied
        g = gcd(gcd(*on), scale)
        if g > 1:
            on = [x // g for x in on]
            scale //= g
        self.on = on
        self.oscale = scale

    def _entering(self):
        on = self.on
        best = None
        best_v = 0
        for j in range(self.width - 1):
            v = on[j]
            if v < best_v and j not in self.forbidden:
                best, best_v = j, v
        return best

    def _leaving(self, c):
        """The row of the lexicographically least (rhs, entries in the
        columns of B0) / entry over the positive entries of column c, the
        keys compared in Fractions (the row factor cancels)."""
        keys = {i: [Fraction(row[j], row[c]) for j in [self.RHS] + self.start]
                for i, row in enumerate(self.rows) if row[c] > 0}
        return min(keys, key=keys.get, default=None)

    def pivot(self, r, c):
        rows = self.rows
        R = rows[r]
        p = R[c]
        if p < 0:
            R = rows[r] = [-x for x in R]
            p = -p
        for i in range(self.nrows):
            if i != r:
                row = rows[i]
                f = row[c]
                if f != 0:
                    rows[i] = primitive(_eliminate(row, p, f, R))
        if self.on[c] != 0:
            self._price_out(r, c)
        self.basis[r] = c

    def run(self):
        while True:
            c = self._entering()
            if c is None:
                return OPTIMAL
            r = self._leaving(c)
            if r is None:
                return UNBOUNDED
            self.pivot(r, c)
            self.pivots += 1
            if self.pivots > simplex._MAX_PIVOTS:
                raise InternalError("simplex pivot budget exhausted")

    def objective_value(self):
        return -Fraction(self.on[self.RHS], self.oscale)

    def basic_value(self, r):
        row = self.rows[r]
        return Fraction(row[self.RHS], row[self.basis[r]])

    def clear_artificials(self, real_cols):
        """Pivot basic artificials (all at zero) onto real columns when possible."""
        for r in range(self.nrows):
            if self.basis[r] >= real_cols:
                for c in range(real_cols):
                    if self.rows[r][c] != 0:
                        self.pivot(r, c)
                        break


def _full_tableau_run(lp):
    """Phase I and phase II on the dual of lp: the tableau and the status of
    phase II, or None when phase I finds the dual infeasible."""
    m, d = len(lp.matrix), len(lp.objective)
    tab = _FullDualTableau(lp)
    on = [0] * tab.width
    on[m:m + d] = [1] * d
    tab.set_objective(on, 1)
    if tab.run() != OPTIMAL:
        raise InternalError("phase I cannot be unbounded")
    if tab.objective_value() != 0:
        return tab, None
    tab.clear_artificials(m)
    tab.set_objective(list(lp.beta) + [0] * (d + 1), lp.denominator)
    return tab, tab.run()


def solve_by_full_tableau(lp):
    """simplex.solve on the full integer tableau.  An optimal solution goes
    through simplex._finish with the dual's nonzero rows and weights, so
    it is verified as simplex.solve's are.  An LP that is not optimal
    gets INFEASIBLE or UNBOUNDED, the statuses simplex.solve returned
    before it raised, told apart by the same LP with a zero objective:
    its dual {Aᵀu = 0, u >= 0} is feasible at u = 0, and unbounded
    exactly when the LP is infeasible."""
    m, d = len(lp.matrix), len(lp.objective)
    tab, status = _full_tableau_run(lp)
    if status is None:
        check, status = _full_tableau_run(replace(lp, objective=(0,) * d))
        return LPSolution(status=INFEASIBLE if status == UNBOUNDED else UNBOUNDED,
                          pivots=tab.pivots + check.pivots)
    if status == UNBOUNDED:
        return LPSolution(status=INFEASIBLE, pivots=tab.pivots)
    zero = Fraction(0)
    u = [zero] * m
    for r in range(tab.nrows):
        if tab.basis[r] < m:
            u[tab.basis[r]] = tab.basic_value(r)
    primal = tuple(Fraction(-tab.sigma[j] * tab.on[m + j], tab.oscale)
                   for j in range(d))
    value = sum((cj * vj for cj, vj in zip(lp.objective, primal)), zero)
    support = tuple(r for r in range(m) if u[r])
    return _finish(lp, value, primal, support, tuple(u[r] for r in support), tab.pivots)


# The eliminations that linalg.reduce_row replaced: the rational
# Gauss-Jordan behind nullspaces, solves and inverses, the in-place
# Bareiss loop of the integer rank, and the support walk's reducer, which
# divided each reduced column by its content.

def rref_by_fractions(rows):
    """Reduced row echelon form by Gauss-Jordan over Fractions, pivots in
    column order; returns (rows, pivot column indices), zero rows last."""
    work = [list(Fraction(x) for x in row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        if piv != 1:
            work[r] = [x / piv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def nullspace_by_fractions(M):
    """Nullspace basis columns read off rref_by_fractions, as rows."""
    reduced, pivots = rref_by_fractions(M.row_list())
    out = []
    for free in (c for c in range(M.cols) if c not in pivots):
        v = [Fraction(0)] * M.cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free]
        out.append(tuple(v))
    return out


def solve_by_fractions(A, b):
    """The solution of Av = b with free variables zero, or None."""
    reduced, pivots = rref_by_fractions(
        [list(A.row(i)) + [Fraction(b[i])] for i in range(A.rows)])
    if A.cols in pivots:
        return None
    v = [Fraction(0)] * A.cols
    for r, pc in enumerate(pivots):
        v[pc] = reduced[r][A.cols]
    return tuple(v)


def inverse_by_fractions(M):
    """Rows of M^-1, or None when M is singular."""
    n = M.rows
    reduced, pivots = rref_by_fractions(
        [list(M.row(i)) + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)])
    if pivots != list(range(n)):
        return None
    return [tuple(row[n:]) for row in reduced[:n]]


def integer_rank_in_place(rows):
    """Rank of integer rows by Bareiss elimination in place, pivots in
    column order."""
    work = [list(row) for row in rows if any(row)]
    if not work:
        return 0
    nrows, ncols = len(work), len(work[0])
    r, prev = 0, 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        for i in range(r + 1, nrows):
            factor = work[i][c]
            for j in range(c, ncols):
                work[i][j] = (piv * work[i][j] - factor * work[r][j]) // prev
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def reduce_by_content(vec, rows):
    """vec reduced against echelon rows (pivot, row): each step a·vec −
    c·row clears the pivot entry, and the content is divided out at the
    end."""
    for pivot, row in rows:
        c = vec[pivot]
        if c:
            a = row[pivot]
            vec = [a * x - c * y for x, y in zip(vec, row)]
    content = gcd(*vec)
    return [x // content for x in vec] if content > 1 else vec


def spanning_subsets_by_content(columns, size):
    """The support walk as it was with reduce_by_content: index tuples of
    `size` independent integer columns whose span holds the last unit
    vector, in lexicographic order, the reduced target carried down."""
    last = len(columns) - size
    unit = [0] * (len(columns[0]) - 1) + [1]

    def walk(start, prefix, rows, target):
        depth = len(prefix)
        for i in range(start, last + depth + 1):
            row = reduce_by_content(columns[i], rows)
            pivot = next((p for p, x in enumerate(row) if x), None)
            if pivot is None:
                continue
            reduced = reduce_by_content(target, ((pivot, row),))
            if depth + 1 == size:
                if not any(reduced):
                    yield prefix + (i,)
            else:
                yield from walk(i + 1, prefix + (i,), rows + [(pivot, row)], reduced)

    return walk(0, (), [], unit)
