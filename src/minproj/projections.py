"""Minimal projections onto a subspace as an exact linear program.

Every projection P: X -> Y is P0 + sum c_q L_q over the k(n-k) basis
operators of L_Y(X, Y) = { L : X -> Y, L|_Y = 0 }, so the operator norm
minimization becomes: minimize t subject to f(P x) <= t over the finite
grid of (ball vertex, dual vertex) pairs.  The optimum is the relative
projection constant; tight grid rows are norming pairs; the optimal face
of the LP is exactly the set of minimal projections, and its affine
dimension is read off the implicit-equality rows, which a few Gordan
rounds (one small LP each) decide exactly.

The grid rows are cleared to integers over one grid denominator when they
are built, and every test on them (tight rows, slacks, rises, restricted
coefficients) is an integer dot product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InternalError, NotMinimalError
from .geometry import PolyhedralSpace, Subspace, norm_eval
from .linalg import (RMatrix, Vector, int_dot, integer_row_rank, inverse,
                     nullspace_basis, over_denominator, rows_rank)
from .simplex import OPTIMAL, LinearProgram, solve


@dataclass(frozen=True)
class OperatorPoint:
    """Coordinates of a projection over the operator basis: the realized
    matrix is base_projection + sum coefficients[q] * basis_ops[q]."""

    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class OperatorBasis:
    """A fixed projection P0 onto Y plus a basis of L_Y(X, Y)."""

    base_projection: RMatrix
    basis_ops: tuple[RMatrix, ...]
    y_basis: tuple[Vector, ...]
    annihilator: tuple[Vector, ...]

    def realize(self, point: OperatorPoint) -> RMatrix:
        if len(point.coefficients) != len(self.basis_ops):
            raise ValueError("coefficient count does not match the operator basis")
        out = self.base_projection
        for c, op in zip(point.coefficients, self.basis_ops):
            if c:
                out = out.add(op.scale(c))
        return out


def build_operator_basis(space: PolyhedralSpace, Y: Subspace) -> OperatorBasis:
    """P0 projects onto Y along the first standard basis vectors independent
    from Y; basis ops are y_i (x) g_j over Y's basis and annihilator."""
    n = space.dim
    k = Y.dim
    ys = tuple(Y.basis_vectors())
    gs = tuple(Y.annihilator_functionals())

    complement: list[Vector] = []
    stack = list(ys)
    for j in range(n):
        e = tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
        if rows_rank(stack + [e]) > len(stack):
            stack.append(e)
            complement.append(e)
            if len(stack) == n:
                break
    M = RMatrix.from_rows(stack).transpose()
    Minv = inverse(M)
    if Minv is None:
        raise InternalError("basis of Y plus its complement is singular")
    D = RMatrix.from_rows([[Fraction(1) if i == j and i < k else Fraction(0)
                            for j in range(n)] for i in range(n)])
    P0 = M.matmul(D).matmul(Minv)

    ops = [RMatrix.from_rows([[y[i] * g[j] for j in range(n)] for i in range(n)])
           for y in ys for g in gs]

    if P0.matmul(P0).entries != P0.entries:
        raise InternalError("base projection is not idempotent")
    if P0.matmul(Y.basis) != Y.basis:
        raise InternalError("base projection does not fix Y")
    if any(any(op.apply(y)) for op in ops for y in ys):
        raise InternalError("a basis operator does not vanish on Y")
    if rows_rank([op.entries for op in ops]) != k * (n - k):
        raise InternalError("basis operators are linearly dependent")
    return OperatorBasis(base_projection=P0, basis_ops=tuple(ops),
                         y_basis=ys, annihilator=gs)


@dataclass(frozen=True)
class PairGrid:
    """One row per listed (primal vertex, dual vertex) pair, cleared to
    integers over one grid denominator: the row value at coefficients c
    is (base_num[r] + coefs_num[r]·c) / denominator = f_j(P x_i).  base and
    coefs are the same rows as Fractions.  build_pair_grid lists one pair
    per antipodal class."""

    pairs: tuple[tuple[int, int], ...]
    base_num: tuple[int, ...]
    coefs_num: tuple[tuple[int, ...], ...]
    denominator: int

    @cached_property
    def base(self) -> tuple[Fraction, ...]:
        D = self.denominator
        return tuple(Fraction(b, D) for b in self.base_num)

    @cached_property
    def coefs(self) -> tuple[tuple[Fraction, ...], ...]:
        D = self.denominator
        return tuple(tuple(Fraction(a, D) for a in row) for row in self.coefs_num)

    @cached_property
    def lp(self) -> LinearProgram:
        """minimize t  s.t.  coefs[r]·c - t <= -base[r]."""
        d = len(self.coefs_num[0])
        minus_one = Fraction(-1)
        entries = tuple(x for row in self.coefs for x in row + (minus_one,))
        return LinearProgram(
            objective=tuple([Fraction(0)] * d + [Fraction(1)]),
            constraint_matrix=RMatrix(len(self.pairs), d + 1, entries),
            rhs=tuple(-b for b in self.base),
        )

    def value_numerators(self, coefficients: Sequence[Fraction]) -> tuple[list[int], int]:
        """Every row value at the coefficients, as integers over one
        positive denominator."""
        x, x_den = over_denominator(coefficients)
        return ([b * x_den + int_dot(row, x)
                 for b, row in zip(self.base_num, self.coefs_num)],
                self.denominator * x_den)

    def row_value(self, r: int, coefficients: Sequence[Fraction]) -> Fraction:
        x, x_den = over_denominator(coefficients)
        return Fraction(self.base_num[r] * x_den + int_dot(self.coefs_num[r], x),
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
    (y outer, g inner), and the two factors are computed once per vertex."""
    X, dx = _cleared(space.primal_vertices)
    F, df = _cleared(space.dual_vertices)
    Yb, dy = _cleared(basis.y_basis)
    G, dg = _cleared(basis.annihilator)
    P, dp = _cleared(basis.base_projection.row_list())
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


def build_pair_grid(space: PolyhedralSpace, Y: Subspace,
                    basis: OperatorBasis) -> PairGrid:
    """pair_rows over one pair per antipodal class: (x, f) and (-x, -f)
    give the same row, and the class keeps its smaller index pair.  Y is
    not used and stays in the signature for its callers."""
    negp = space.primal_negation
    negd = space.dual_negation
    return pair_rows(space, basis, [
        (i, j) for i in range(len(negp)) for j in range(len(negd))
        if (i, j) <= (negp[i], negd[j])])


def _cleared(vectors: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The vectors as integer lists over one common denominator."""
    flat, den = over_denominator([x for v in vectors for x in v])
    width = len(vectors[0]) if vectors else 0
    if width == 0:
        return [[] for _ in vectors], den
    return [flat[i:i + width] for i in range(0, len(flat), width)], den


@dataclass
class MinProjReport:
    """Everything known about P_min(X, Y).

    projection_constant fills in lambda, one optimal vertex (witness) with
    its norming pairs, and the LP dual weights.  face_dimension then fills
    in, in place, the face fields: the affine dimension of the optimal
    face, the implicit pairs (norming for every minimal projection), and a
    relative-interior point, found by Gordan rounds on the cone of
    directions from the witness."""

    space: PolyhedralSpace
    subspace: Subspace
    basis: OperatorBasis
    grid: PairGrid
    lam: Fraction
    witness: OperatorPoint
    norming_pairs_of_witness: frozenset[tuple[int, int]]
    dual_certificate: dict[tuple[int, int], Fraction]
    face_dim: int | None = None
    implicit_pairs: frozenset[tuple[int, int]] | None = None
    interior: OperatorPoint | None = None
    _witness_tight: tuple[int, ...] = field(default=(), repr=False)
    _implicit_rows: tuple[int, ...] = field(default=(), repr=False)


def projection_constant(space: PolyhedralSpace, Y: Subspace) -> MinProjReport:
    """Solve the operator-norm LP exactly: lambda, one minimal projection,
    its norming pairs and the positive dual weights."""
    basis = build_operator_basis(space, Y)
    grid = build_pair_grid(space, Y, basis)
    solution = solve(grid.lp)
    if solution.status != OPTIMAL:  # always feasible (P0) and bounded (t >= 1)
        raise InternalError(f"operator-norm LP is {solution.status}")
    d = len(basis.basis_ops)
    lam = solution.value
    if lam < 1:
        raise InternalError(f"projection constant {lam} is below 1")
    witness = OperatorPoint(solution.primal[:d])
    if solution.primal[d] != lam:
        raise InternalError("norm variable t differs from the LP value")
    tight = tuple(sorted(solution.tight_set))
    certificate = {grid.pairs[r]: solution.dual[r]
                   for r in range(len(grid.pairs)) if solution.dual[r] > 0}
    return MinProjReport(
        space=space, subspace=Y, basis=basis, grid=grid, lam=lam,
        witness=witness,
        norming_pairs_of_witness=frozenset(grid.pairs[r] for r in tight),
        dual_certificate=certificate,
        _witness_tight=tight,
    )


def operator_norm(space: PolyhedralSpace, matrix: RMatrix) -> Fraction:
    """Exact operator norm: max over ball vertices of the image norm."""
    return max(norm_eval(space, matrix.apply(v)) for v in space.primal_vertices)


def norming_pairs(space: PolyhedralSpace, Y: Subspace, P: OperatorPoint,
                  lam: Fraction, grid: PairGrid | None = None) -> frozenset[tuple[int, int]]:
    """Pairs (vertex index, dual index) with f(P x) = lam, one per antipodal
    class.  Raises NotMinimalError unless the norm of P is exactly lam."""
    if grid is None:
        grid = build_pair_grid(space, Y, build_operator_basis(space, Y))
    values, den = grid.value_numerators(P.coefficients)
    top = max(values)
    norm = Fraction(top, den)
    if norm > lam:
        worst = values.index(top)
        raise NotMinimalError(
            f"pair {grid.pairs[worst]} reaches {norm} > {lam}: not a minimal projection")
    if norm < lam:
        raise NotMinimalError(f"operator norm is {norm}, not {lam}")
    return frozenset(grid.pairs[r] for r, v in enumerate(values) if v == top)


def _restrict_to_face(grid: PairGrid, implicit: Sequence[int],
                      rows: Iterable[int], d: int) -> tuple[list[Vector], dict[int, Vector]]:
    """Columns of a basis N of {z : coefs[r]·z = 0 for r in implicit} and,
    for each of rows, its coefficients restricted to N (coefs[r]·N).

    The integer grid rows have the same nullspace as the rational ones, and
    each restricted coefficient is one integer dot product with a column
    cleared to integers; the columns themselves are not rescaled."""
    N = (nullspace_basis(RMatrix.from_rows([grid.coefs_num[r] for r in implicit]))
         if implicit else RMatrix.identity(d))
    cols = [N.col(q) for q in range(N.cols)]
    cleared = [over_denominator(col) for col in cols]
    D = grid.denominator
    return cols, {r: tuple(Fraction(int_dot(grid.coefs_num[r], col), D * col_den)
                           for col, col_den in cleared)
                  for r in rows}


def face_dimension(space: PolyhedralSpace, Y: Subspace,
                   report: MinProjReport) -> tuple[int, frozenset[tuple[int, int]]]:
    """Decide which tight rows are implicit equalities of the optimal face.

    Only rows tight at the witness can be implicit, and near the witness
    the face is the witness plus the cone K = {z : coefs[r]·z <= 0 for r
    tight}.  Gordan rounds find the implicit equalities of K.  Each round
    works in the nullspace N of the rows found implicit so far: rows whose
    restricted coefficients G_r = coefs[r]·N vanish are implicit, and one
    LP maximizes delta <= 1 subject to G_r·y + delta <= 0 over the other
    undecided rows.  If delta* > 0, none of them is implicit and z = N·y
    points into the relative interior of K.  If delta* = 0, the verified
    dual u >= 0 has sum u_r G_r = 0 (Gordan's alternative), so every row
    it charges is implicit and N loses a dimension: at most k(n-k) + 1
    LPs in all.

    The relative-interior point is witness + eps·z, where eps keeps every
    row that is slack at the witness at least half slack; its norming
    pairs are exactly the implicit pairs, and it is the witness itself
    when the face is a point.  face_dim is the dimension of N.
    """
    grid = report.grid
    lam = report.lam
    witness = report.witness.coefficients
    d = len(witness)
    zero, one = Fraction(0), Fraction(1)
    implicit: list[int] = []
    undecided = list(report._witness_tight)
    while True:
        cols, restricted = _restrict_to_face(grid, implicit, undecided, d)
        implicit += [r for r in undecided if not any(restricted[r])]
        undecided = [r for r in undecided if any(restricted[r])]
        m = len(cols)
        if not undecided:
            y = (zero,) * m
            break
        sol = solve(LinearProgram(
            objective=(zero,) * m + (-one,),
            constraint_matrix=RMatrix.from_rows(
                [restricted[r] + (one,) for r in undecided]
                + [(zero,) * m + (one,)]),
            rhs=(zero,) * len(undecided) + (one,),
        ))
        if sol.status != OPTIMAL:
            raise InternalError(f"Gordan round LP is {sol.status}")
        if sol.value < 0:
            y = sol.primal[:m]
            break
        charged = {r for r, u in zip(undecided, sol.dual) if u > 0}
        if not charged:
            raise InternalError("Gordan round charged no row at delta* = 0")
        implicit.extend(charged)
        undecided = [r for r in undecided if r not in charged]

    z = tuple(sum((col[i] * yq for col, yq in zip(cols, y)), zero)
              for i in range(d))
    # Keep every row slack at the witness at least half slack.
    step = _first_slack_step(grid, witness, lam, z, skip=set(report._witness_tight))
    eps = one if step is None else min(one, step / 2)
    interior = tuple(w + eps * zq for w, zq in zip(witness, z))
    implicit.sort()
    if grid.tight_rows(interior, lam) != implicit:
        raise InternalError("relative-interior point is tight off the implicit rows")
    report.face_dim = len(cols)
    report.implicit_pairs = frozenset(grid.pairs[r] for r in implicit)
    report.interior = OperatorPoint(interior)
    report._implicit_rows = tuple(implicit)
    return report.face_dim, report.implicit_pairs


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


def max_norming_projection(space: PolyhedralSpace, Y: Subspace,
                           report: MinProjReport) -> tuple[OperatorPoint, int]:
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

    Everything is read from the report; space and Y are not used and stay
    in the signature for its callers.
    """
    grid = report.grid
    tight = report._witness_tight
    d = len(report.witness.coefficients)
    D = grid.denominator
    if integer_row_rank([list(grid.coefs_num[r]) + [-D] for r in tight]) != d + 1:
        raise InternalError("the LP witness is not a vertex of the optimal face")
    return report.witness, len(tight)
