"""Minimal projections onto a subspace as an exact linear program.

Every projection P: X -> Y is P0 + sum c_q L_q over the k(n-k) basis
operators of L_Y(X, Y) = { L : X -> Y, L|_Y = 0 }, so the operator norm
minimization becomes: minimize t subject to f(P x) <= t over the finite
grid of (ball vertex, dual vertex) pairs.  The optimum is the relative
projection constant; tight grid rows are norming pairs; the optimal face
of the LP is exactly the set of minimal projections, and its affine
dimension is read off the implicit-equality rows.  By complementary
slackness every row with positive weight in the LP's verified dual is
tight at every minimal projection, so those rows are implicit from the
start; Gordan rounds (one small LP each) decide only the other tight
rows, and none is needed when the dual's rows already fix the point.

Everything stays in integers from the subspace to the tableau.  The
operator basis holds Y's basis, its annihilator and P0 as integers over
one denominator each, and checks its guards in integers; the space
holds its vertex lists cleared once.  The grid rows are integer dot
products of those over one grid denominator, every test on them (tight
rows, slacks, rises, restricted coefficients) is an integer dot
product, and the lambda LP and the Gordan rounds hand their integer
rows to the simplex as they are.  The face's nullspace basis is read off
the integer reduced echelon form of the implicit rows.

Every stage after the lambda solve reads the space, Y, the operator
basis, the grid and the witness off the MinProjReport it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InternalError, NotMinimalError
from .geometry import PolyhedralSpace, Subspace
from .linalg import (RMatrix, independent_rows, int_dot, integer_inverse,
                     integer_nullspace, integer_row_rank, over_denominator)
from .rational import format_rational
from .simplex import OPTIMAL, LinearProgram, solve


@dataclass(frozen=True)
class OperatorPoint:
    """Coordinates of a projection over the operator basis: the realized
    matrix is base_projection + sum coefficients[q] * basis_ops[q]."""

    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class OperatorBasis:
    """A fixed projection P0 onto Y plus the basis L_q = y_b (x) g_j of
    L_Y(X, Y), q = b(n-k) + j, in integers: Y's basis vectors are
    y_num / y_den, the annihilator's functionals g_num / g_den, and P0 is
    p0_num / p0_den, each family over one common denominator.
    base_projection and basis_ops are the same in Fractions."""

    y_num: tuple[tuple[int, ...], ...]
    y_den: int
    g_num: tuple[tuple[int, ...], ...]
    g_den: int
    p0_num: tuple[tuple[int, ...], ...]
    p0_den: int

    @property
    def dimension(self) -> int:
        """k(n-k), the number of basis operators."""
        return len(self.y_num) * len(self.g_num)

    @cached_property
    def base_projection(self) -> RMatrix:
        return RMatrix.from_rows([[Fraction(x, self.p0_den) for x in row]
                                  for row in self.p0_num])

    @cached_property
    def basis_ops(self) -> tuple[RMatrix, ...]:
        den = self.y_den * self.g_den
        return tuple(RMatrix.from_rows([[Fraction(a * b, den) for b in g] for a in y])
                     for y in self.y_num for g in self.g_num)

    def realize(self, point: OperatorPoint) -> RMatrix:
        """P0 + sum_q c_q L_q, summed in integers.  With the coefficients
        cleared to cn / cd, L_q = y_b (x) g_j gives the sum
        sum_b y_num_b (x) w_b / (y_den·g_den·cd), w_b = sum_j cn_q g_num_j,
        and each entry is one Fraction over the common denominator."""
        if len(point.coefficients) != self.dimension:
            raise ValueError("coefficient count does not match the operator basis")
        cn, cd = over_denominator(point.coefficients)
        G = self.g_num
        ws = [[int_dot(cn[b * len(G):(b + 1) * len(G)], col) for col in zip(*G)]
              for b in range(len(self.y_num))]
        op_den = self.y_den * self.g_den * cd
        den = lcm(self.p0_den, op_den)
        p_mult, op_mult = den // self.p0_den, den // op_den
        n = len(self.p0_num)
        return RMatrix(n, n, tuple(
            Fraction(p * p_mult + op_mult * sum(y[r] * w[s] for y, w in zip(self.y_num, ws)),
                     den)
            for r, row in enumerate(self.p0_num) for s, p in enumerate(row)))


def build_operator_basis(space: PolyhedralSpace, Y: Subspace) -> OperatorBasis:
    """P0 projects onto Y along the first standard basis vectors
    independent from Y; basis ops are y_b (x) g_j over Y's basis and
    annihilator.

    Everything runs in integers.  Y's basis y_num / y_den and the
    annihilator g_num / g_den are Y's own integer families.
    linalg.independent_rows over Y's rows and then e_0, e_1, ... picks
    the complement.  With M the matrix of the columns y_num_b and the chosen
    e_j, the first k rows h_b of M^-1 have h_b·y_num_c = [b = c] and
    vanish on the e_j, so P0 = sum_b y_num_b (x) h_b, over the least
    common denominator of those rows (linalg.integer_inverse).  Four
    guards raise InternalError: P0^2 = P0, P0 y = y, g_j(y_b) = 0
    (exactly "L_q vanishes on Y") and the integer rank of the k(n-k)
    flattened operators y_num_b (x) g_num_j."""
    n = space.dim
    k = Y.dim
    ys, gs = Y.basis_num, Y.annihilator_num

    candidates = [*ys, *([int(i == j) for i in range(n)] for j in range(n))]
    columns = [candidates[i] for i in independent_rows(candidates, n)]
    inv = integer_inverse(list(zip(*columns)), k)
    if inv is None:
        raise InternalError("basis of Y plus its complement is singular")
    hs, h_den = inv
    P = [[sum(y[r] * h[c] for y, h in zip(ys, hs)) for c in range(n)]
         for r in range(n)]

    P_cols = list(zip(*P))
    if any(int_dot(row, col) != h_den * x
           for row in P for col, x in zip(P_cols, row)):
        raise InternalError("base projection is not idempotent")
    if any(int_dot(row, y) != h_den * y[r] for y in ys for r, row in enumerate(P)):
        raise InternalError("base projection does not fix Y")
    if any(int_dot(gj, y) for y in ys for gj in gs):
        raise InternalError("a basis operator does not vanish on Y")
    if integer_row_rank([[a * b for a in y for b in gj]
                         for y in ys for gj in gs]) != k * (n - k):
        raise InternalError("basis operators are linearly dependent")
    return OperatorBasis(y_num=ys, y_den=Y.basis_den, g_num=gs,
                         g_den=Y.annihilator_den, p0_num=tuple(map(tuple, P)),
                         p0_den=h_den)


@dataclass(frozen=True)
class PairGrid:
    """One row per listed (primal vertex, dual vertex) pair, cleared to
    integers over one grid denominator: the row value at coefficients c
    is (base_num[r] + coefs_num[r]·c) / denominator = f_j(P x_i).
    build_pair_grid lists one pair per antipodal class, and partner[r] is
    the row of the class of (x, -f): its row is row r negated, so the
    two LP rows add up to the same row for every r, and the lambda LP
    prices one of them (simplex.LinearProgram.partner).  Empty when the
    rows are not so paired (pair_rows)."""

    pairs: tuple[tuple[int, int], ...]
    base_num: tuple[int, ...]
    coefs_num: tuple[tuple[int, ...], ...]
    denominator: int
    partner: tuple[int, ...] = ()

    @cached_property
    def lp(self) -> LinearProgram:
        """minimize t  s.t.  coefs[r]·c - t <= -base[r], handed over in
        integers: [coefs_num | -D] and -base_num over D."""
        d = len(self.coefs_num[0])
        D = self.denominator
        return LinearProgram(
            objective=(0,) * d + (1,),
            matrix=tuple(row + (-D,) for row in self.coefs_num),
            beta=tuple(-b for b in self.base_num),
            denominator=D,
            partner=self.partner,
        )

    def value_numerators(self, coefficients: Sequence[Fraction]) -> tuple[list[int], int]:
        """Every row value at the coefficients, as integers over one
        positive denominator."""
        x, x_den = over_denominator(coefficients)
        return ([b * x_den + int_dot(row, x)
                 for b, row in zip(self.base_num, self.coefs_num)],
                self.denominator * x_den)

    def tight_rows(self, coefficients: Sequence[Fraction],
                   lam: Fraction) -> list[int]:
        values, den = self.value_numerators(coefficients)
        target = lam.numerator * den
        return [r for r, v in enumerate(values) if v * lam.denominator == target]


def pair_rows(space: PolyhedralSpace, basis: OperatorBasis,
              pairs: Sequence[tuple[int, int]]) -> PairGrid:
    """The rows f(P0 x) and f(L_q x) of the listed pairs (x, f), by index
    into the space's vertex lists, in integers: every vector family is
    cleared to one denominator first, so each row is a few integer dot
    products.  f(L_q x) factors over the rank-one basis operator
    L_q = y (x) g as f(y)·g(x), in the order of build_operator_basis
    (y outer, g inner), and the two factors are computed once per vertex.
    The vertex lists are cleared once per space, and the basis holds its
    families cleared."""
    X, dx = space.primal_cleared
    F, df = space.dual_cleared
    Yb, dy = basis.y_num, basis.y_den
    G, dg = basis.g_num, basis.g_den
    P, dp = basis.p0_num, basis.p0_den
    # True values: g(x) = g_at/(dg·dx), f(y) = f_at/(df·dy) and
    # P0 x = p0x/(dp·dx), all over the grid denominator df·dx·L.
    L = lcm(dy * dg, dp)
    coef_mult = L // (dy * dg)
    base_mult = L // dp
    xs = {i for i, _ in pairs}
    g_at = {i: [int_dot(g, X[i]) * coef_mult for g in G] for i in xs}
    p0x = {i: [int_dot(row, X[i]) * base_mult for row in P] for i in xs}
    f_at = {j: [int_dot(F[j], y) for y in Yb] for j in {j for _, j in pairs}}
    base = [int_dot(F[j], p0x[i]) for i, j in pairs]
    coefs = [tuple(fy * gx for fy in f_at[j] for gx in g_at[i]) for i, j in pairs]
    den = df * dx * L
    g = gcd(den, *base, *(a for row in coefs for a in row))
    if g > 1:
        base = [b // g for b in base]
        coefs = [tuple(a // g for a in row) for row in coefs]
        den //= g
    return PairGrid(pairs=tuple(pairs), base_num=tuple(base),
                    coefs_num=tuple(coefs), denominator=den)


def build_pair_grid(space: PolyhedralSpace, basis: OperatorBasis) -> PairGrid:
    """pair_rows over one pair per antipodal class: (x, f) and (-x, -f)
    give the same row, and the class keeps its smaller index pair, the one
    whose primal vertex x_i has i < negp[i] (a vertex is never its own
    negation).  So the rows come in one block per kept x_i, with every
    dual vertex in order, and the partner of the row of (x_i, f_j), the
    row of the class of (x_i, -f_j), is the row of (i, negd[j]) in the
    same block."""
    negp = space.primal_negation
    negd = space.dual_negation
    nd = len(negd)
    pairs = [(i, j) for i in range(len(negp)) if i < negp[i] for j in range(nd)]
    partner = tuple(start + nj for start in range(0, len(pairs), nd) for nj in negd)
    return replace(pair_rows(space, basis, pairs), partner=partner)


@dataclass
class MinProjReport:
    """Everything known about P_min(X, Y), and the one input of every
    stage after the lambda solve.

    The paper's pair sets are kept as sorted grid rows (grid.pairs[r] is
    the pair of row r).  projection_constant fills in lambda, one optimal
    vertex (witness) with its norming pairs (witness_rows), and the
    positive LP dual weights (dual_weights, one per row of dual_rows, a
    subset of witness_rows).  face_dimension then fills in, in place,
    the face fields: the affine dimension of the optimal face, the
    implicit rows (norming for every minimal projection), and a
    relative-interior point, found from the dual's rows and Gordan
    rounds on the cone of directions from the witness."""

    space: PolyhedralSpace
    subspace: Subspace
    basis: OperatorBasis
    grid: PairGrid
    lam: Fraction
    witness: OperatorPoint
    witness_rows: tuple[int, ...]
    dual_rows: tuple[int, ...]
    dual_weights: tuple[Fraction, ...]
    face_dim: int | None = None
    implicit_rows: tuple[int, ...] | None = None
    interior: OperatorPoint | None = None


def projection_constant(space: PolyhedralSpace, Y: Subspace) -> MinProjReport:
    """Solve the operator-norm LP exactly: lambda, one minimal projection,
    its norming pairs and the positive dual weights."""
    basis = build_operator_basis(space, Y)
    return _solve_lambda(space, Y, basis, build_pair_grid(space, basis))


def _solve_lambda(space: PolyhedralSpace, Y: Subspace, basis: OperatorBasis,
                  grid: PairGrid) -> MinProjReport:
    """projection_constant on the basis and grid of (space, Y), built."""
    solution = solve(grid.lp)
    if solution.status != OPTIMAL:  # always feasible (P0) and bounded (t >= 1)
        raise InternalError(f"operator-norm LP is {solution.status}")
    d = basis.dimension
    lam = solution.value
    if lam < 1:
        raise InternalError(f"projection constant {format_rational(lam)} is below 1")
    witness = OperatorPoint(solution.primal[:d])
    if solution.primal[d] != lam:
        raise InternalError("norm variable t differs from the LP value")
    tight = tuple(sorted(solution.tight_set))
    support = tuple(r for r, u in enumerate(solution.dual) if u > 0)
    return MinProjReport(
        space=space, subspace=Y, basis=basis, grid=grid, lam=lam,
        witness=witness, witness_rows=tight, dual_rows=support,
        dual_weights=tuple(solution.dual[r] for r in support),
    )


def operator_norm(space: PolyhedralSpace, matrix: RMatrix) -> Fraction:
    """Exact operator norm: the largest f(M x) over the ball's vertices x
    and the dual vertices f, in integers.

    The matrix is cleared once to M / m_den and the vertex lists are the
    space's cleared ones, so each image M x and each value f(M x) is an
    integer dot product, and the maximum becomes one Fraction over
    m_den·dx·df.  Every listed vertex is taken, so neither list needs to
    be symmetric (a space built with validate=False is taken as given)."""
    n = space.dim
    if (matrix.rows, matrix.cols) != (n, n):
        raise ValueError(f"a {matrix.rows}x{matrix.cols} matrix on a space "
                         f"of dimension {n}")
    flat, m_den = over_denominator(matrix.entries)
    M = [flat[r * n:(r + 1) * n] for r in range(n)]
    X, dx = space.primal_cleared
    F, df = space.dual_cleared
    images = ([int_dot(row, x) for row in M] for x in X)
    top = max(int_dot(f, image) for image in images for f in F)
    return Fraction(top, m_den * dx * df)


def norming_pairs(report: MinProjReport,
                  P: OperatorPoint) -> frozenset[tuple[int, int]]:
    """Pairs (vertex index, dual index) with f(P x) = lambda, one per
    antipodal class, off the report's grid.  No projection has norm below
    lambda, so NotMinimalError is raised exactly when a pair exceeds it."""
    grid = report.grid
    values, den = grid.value_numerators(P.coefficients)
    top = max(values)
    norm = Fraction(top, den)
    if norm > report.lam:
        raise NotMinimalError(f"pair {grid.pairs[values.index(top)]} reaches "
                              f"{format_rational(norm)} > {format_rational(report.lam)}: "
                              "not a minimal projection")
    return frozenset(grid.pairs[r] for r, v in enumerate(values) if v == top)


def _restrict_to_face(grid: PairGrid, implicit: Sequence[int],
                      rows: Iterable[int], d: int
                      ) -> tuple[list[list[int]], int, dict[int, tuple[int, ...]]]:
    """A basis N of {z : coefs[r]·z = 0 for r in implicit} as integer
    columns over their least common denominator C (column q of N is
    columns[q] / C), and for each of rows its coefficients restricted to
    N, coefs[r]·N, as integers over grid.denominator·C.

    The integer grid rows have the same nullspace as the rational ones,
    and N is the basis that linalg.integer_nullspace reads off their
    reduced row echelon form.  Every restricted coefficient is then one
    integer dot product."""
    columns, C = integer_nullspace([grid.coefs_num[r] for r in implicit], d)
    return columns, C, {r: tuple(int_dot(grid.coefs_num[r], col) for col in columns)
                        for r in rows}


def face_dimension(report: MinProjReport) -> tuple[int, frozenset[tuple[int, int]]]:
    """Decide which tight rows are implicit equalities of the optimal face.

    Only rows tight at the witness can be implicit, and near the witness
    the face is the witness plus the cone K = {z : coefs[r]·z <= 0 for r
    tight}.  By complementary slackness every row in the support of the
    lambda LP's verified dual is tight at every minimal projection, so
    those rows start out implicit.  Gordan rounds decide the other tight
    rows.  Each round works in the nullspace N of the rows found implicit
    so far: rows whose restricted coefficients G_r = coefs[r]·N vanish
    are implicit, and one LP maximizes delta <= 1 subject to
    G_r·y + delta <= 0 over the other undecided rows.  If delta* > 0,
    none of them is implicit and z = N·y points into the relative
    interior of K.  If delta* = 0, the verified dual u >= 0 has
    sum u_r G_r = 0 (Gordan's alternative), so every row it charges is
    implicit and N loses a dimension: at most k(n-k) + 1 LPs in all, and
    none when the dual's rows [coefs_r, -D] have rank d + 1, since N is
    then zero.

    The last round sees the implicit rows of the face and the rest of
    the tight rows in witness order whichever rows it starts from, and N
    is the one basis the reduced echelon form gives, so starting from
    the dual's rows solves the same last LP as starting from none.

    The relative-interior point is witness + eps·z, where eps keeps every
    row that is slack at the witness at least half slack; its norming
    pairs are exactly the implicit pairs, and it is the witness itself
    when no undecided row is left (z = 0), in particular when the face is
    a point.  face_dim is the dimension of N.
    """
    grid = report.grid
    lam = report.lam
    witness = report.witness.coefficients
    d = len(witness)
    support = set(report.dual_rows)
    implicit = list(report.dual_rows)
    undecided = [r for r in report.witness_rows if r not in support]
    while True:
        cols, scale, restricted = _restrict_to_face(grid, implicit, undecided, d)
        implicit += [r for r in undecided if not any(restricted[r])]
        undecided = [r for r in undecided if any(restricted[r])]
        if not undecided:
            interior = witness
            break
        m = len(cols)
        den = grid.denominator * scale
        # G_r·y + delta <= 0 and delta <= 1, over the restricted rows' den.
        sol = solve(LinearProgram(
            objective=(0,) * m + (-1,),
            matrix=tuple(restricted[r] + (den,) for r in undecided)
            + ((0,) * m + (den,),),
            beta=(0,) * len(undecided) + (den,),
            denominator=den,
        ))
        if sol.status != OPTIMAL:
            raise InternalError(f"Gordan round LP is {sol.status}")
        if sol.value < 0:
            y, y_den = over_denominator(sol.primal[:m])
            z = tuple(Fraction(int_dot(row, y), scale * y_den) for row in zip(*cols))
            # Keep every row slack at the witness at least half slack.
            step = _first_slack_step(grid, witness, lam, z,
                                     skip=set(report.witness_rows))
            eps = Fraction(1) if step is None else min(Fraction(1), step / 2)
            interior = tuple(w + eps * zq for w, zq in zip(witness, z))
            break
        charged = {r for r, u in zip(undecided, sol.dual) if u > 0}
        if not charged:
            raise InternalError("Gordan round charged no row at delta* = 0")
        implicit.extend(charged)
        undecided = [r for r in undecided if r not in charged]

    implicit.sort()
    if grid.tight_rows(interior, lam) != implicit:
        raise InternalError("relative-interior point is tight off the implicit rows")
    report.face_dim = len(cols)
    report.implicit_rows = tuple(implicit)
    report.interior = OperatorPoint(interior)
    return report.face_dim, frozenset(grid.pairs[r] for r in implicit)


def _first_slack_step(grid: PairGrid, point: Sequence[Fraction], lam: Fraction,
                      z: Sequence[Fraction], skip) -> Fraction | None:
    """The largest s with every row outside skip still <= lam at point + s·z:
    the least slack / rise over the rows that rise along z, or None when
    none rises.  Slacks and rises are integer numerators over common
    positive denominators, so the minimum is found by cross-products."""
    values, den = grid.value_numerators(point)
    top = lam.numerator * den
    z_num, z_den = over_denominator(z)
    best_slack = best_rise = None
    for r, row in enumerate(grid.coefs_num):
        if r in skip:
            continue
        rise = int_dot(row, z_num)
        if rise > 0:
            slack = top - lam.denominator * values[r]
            if best_rise is None or slack * best_rise < best_slack * rise:
                best_slack, best_rise = slack, rise
    if best_rise is None:
        return None
    # In true values: (slack / (lam.den·den)) / (rise / (D·z_den)).
    return Fraction(best_slack * grid.denominator * z_den,
                    lam.denominator * den * best_rise)


def max_norming_projection(report: MinProjReport) -> tuple[OperatorPoint, int]:
    """A minimal projection whose norming-pair set is inclusion-maximal,
    with the number of its norming pairs: the LP witness, a vertex of the
    optimal face, with no further LP.

    A minimal projection c is a vertex of the optimal face exactly when
    the grid rows [coefs_r, -1] tight at (c, lambda) have rank d + 1 in
    the d + 1 unknowns (c, t).  Any minimal projection normed by all of
    those pairs satisfies the same d + 1 independent equalities and is c
    itself, so no minimal projection has a strictly larger norming set.
    Full rank also needs at least d + 1 = k(n-k) + 1 >= n tight pairs.

    The LP witness is a basic optimum of the dual tableau, and the grid
    matrix [coefs, -1] has full column rank (the pairs (x, f) and (x, -f)
    are separate rows with opposite values, so a direction that gives
    every row the same value is zero).  So no artificial stays basic, and
    the witness has d + 1 independent tight rows: it is a vertex, and the
    rank test only confirms it.
    """
    grid = report.grid
    tight = report.witness_rows
    d = len(report.witness.coefficients)
    D = grid.denominator
    if integer_row_rank([list(grid.coefs_num[r]) + [-D] for r in tight]) != d + 1:
        raise InternalError("the LP witness is not a vertex of the optimal face")
    return report.witness, len(tight)
