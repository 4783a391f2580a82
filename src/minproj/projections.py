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
operator basis reads its operators off Y's own basis and annihilator
and holds P0 = sum_b y_b (x) h_b as its k functionals h_b, checked in
integers; no n x n matrix of P0 is formed.  The space holds its vertex
lists cleared once.  The pair grid is the lambda LP itself, its rows
integers over one grid denominator, kept as their rank-one factors: the
row of the pair (x, f) is f(y_b)·g(x) over the basis operators
y_b (x) g, the outer product of the k values f(y_b) and the n - k values
g(x), so the grid holds k + (n - k) integers per vertex in place of
k(n - k) per pair; its base f(P0 x) is the same f(y_b) against the k
values h_b(x).  A row is formed only where a stage reads it: the LP's
entering column and basis, the tight rows of the face stage and the
support columns.  Every pass over all rows (the bases, row values,
tight rows, slacks and rises, the lambda LP's pricing and its
verification) is a factored pass over the product of the two vertex
lists, one short dot product per pair after one side is formed per
vertex.  A certificate's few rows are formed one by one (pair_rows).
The Gordan rounds hand their integer rows to the simplex as they are.
The face's nullspace basis is read off the integer reduced echelon form
of the implicit rows.

Every stage after the lambda solve reads the space, Y, the operator
basis, the grid and the witness off the MinProjReport it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, product, repeat
from math import lcm
from operator import add, eq
from typing import Iterable, Sequence

from .errors import InternalError, NotMinimalError
from .geometry import PolyhedralSpace, Subspace
from .linalg import (RMatrix, complement_coordinates, int_dot, integer_inverse,
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
    L_Y(X, Y), q = b(n-k) + j, in integers.  The operators are read off
    the subspace's own families, its basis y_b = basis_num_b / basis_den
    and its annihilator g_j = annihilator_num_j / annihilator_den, and P0
    is held as its k functionals: P0 = sum_b basis_num_b (x) h_num_b /
    h_den, with h_num_b·basis_num_c = h_den·[b = c].  base_projection and
    basis_ops are the same in Fractions."""

    subspace: Subspace
    h_num: tuple[tuple[int, ...], ...]
    h_den: int

    @property
    def dimension(self) -> int:
        """k(n-k), the number of basis operators."""
        return len(self.h_num) * len(self.subspace.annihilator_num)

    @cached_property
    def base_projection(self) -> RMatrix:
        hs = list(zip(*self.h_num))
        return RMatrix.from_rows([[Fraction(int_dot(y, h), self.h_den) for h in hs]
                                  for y in zip(*self.subspace.basis_num)])

    @cached_property
    def basis_ops(self) -> tuple[RMatrix, ...]:
        Y = self.subspace
        den = Y.basis_den * Y.annihilator_den
        return tuple(RMatrix.from_rows([[Fraction(a * b, den) for b in g] for a in y])
                     for y in Y.basis_num for g in Y.annihilator_num)

    def realize_cleared(self, point: OperatorPoint) -> tuple[RMatrix, int]:
        """P0 + sum_q c_q L_q as an integer matrix over a denominator.
        With the coefficients cleared to cn / cd, L_q = y_b (x) g_j gives
        P = sum_b basis_num_b (x) (h_mult·h_num_b + op_mult·w_b) / den,
        w_b = sum_j cn_q annihilator_num_j (q = b(n-k) + j), with den the
        lcm of h_den and basis_den·annihilator_den·cd: one k x n
        combination, then its product with Y's basis."""
        if len(point.coefficients) != self.dimension:
            raise ValueError("coefficient count does not match the operator basis")
        cn, cd = over_denominator(point.coefficients)
        Y = self.subspace
        G, m = list(zip(*Y.annihilator_num)), len(Y.annihilator_num)
        op_den = Y.basis_den * Y.annihilator_den * cd
        den = lcm(self.h_den, op_den)
        h_mult, op_mult = den // self.h_den, den // op_den
        combination = [[h_mult * h + op_mult * int_dot(cn[b * m:(b + 1) * m], g)
                        for h, g in zip(h_row, G)] for b, h_row in enumerate(self.h_num)]
        cols = list(zip(*combination))
        return RMatrix(len(cols), len(cols), tuple(
            int_dot(y, col) for y in zip(*Y.basis_num) for col in cols)), den


def build_operator_basis(space: PolyhedralSpace, Y: Subspace) -> OperatorBasis:
    """P0 projects onto Y along the first standard basis vectors
    independent from Y; basis ops are y_b (x) g_j over Y's basis and
    annihilator, which Y holds.

    Everything runs in integers.  linalg.complement_coordinates picks the
    complement e_J of Y's basis, the one general_position_check also
    reads.  With M the matrix of the columns basis_num_b and the chosen
    e_j, the first k rows h_b of M^-1 have h_b·basis_num_c = [b = c] and
    vanish on the e_j, so P0 = sum_b basis_num_b (x) h_b, kept as those k
    rows over their least common denominator h_den.  As h_b is zero on
    J, its entries on the other k coordinates I are row b of the inverse
    of Y's k x k minor there, the matrix of rows (basis_num_c[i])_c for i
    in I (linalg.integer_inverse), and M itself is never inverted.  One
    guard raises InternalError: H·Y = h_den·I, k^2 dot products of length
    k over I.  P0^2 = P0 and P0 y = y both follow from it, as P0 y_c =
    sum_b y_b (h_b·y_c) / h_den = y_c.  A singular minor raises
    InternalError too.  Each L_q vanishes on Y and the k(n-k) operators
    y_b (x) g_j are independent (rank(A (x) B) = rank A · rank B) by
    construction: Subspace computes its annihilator as the nullspace of
    its independent basis.  Y must be a subspace of R^n
    (Subspace.check_ambient)."""
    n = space.dim
    Y.check_ambient(n)
    k = Y.dim
    ys = Y.basis_num

    J = set(complement_coordinates(ys, n))
    I = [i for i in range(n) if i not in J]
    minor = [[y[i] for y in ys] for i in I]
    inv = integer_inverse(minor, k)
    if inv is None:
        raise InternalError("basis of Y plus its complement is singular")
    minor_inv, h_den = inv
    if any(int_dot(h, y) != h_den * (b == c)
           for b, h in enumerate(minor_inv) for c, y in enumerate(zip(*minor))):
        raise InternalError("base projection does not fix Y")
    at = {i: c for c, i in enumerate(I)}
    h_num = tuple(tuple(row[at[i]] if i in at else 0 for i in range(n)) for row in minor_inv)
    return OperatorBasis(subspace=Y, h_num=h_num, h_den=h_den)


@dataclass(frozen=True)
class PairGrid:
    """The lambda LP: minimize t  s.t.  f(P x) <= t over one (primal
    vertex, dual vertex) pair per antipodal class, in integers over one
    grid denominator D.  The pairs are the kept primal vertices (g_at's
    keys) x the dual vertices (f_at's keys); the value of row r, the pair
    (x_i, f_j), at coefficients c is (base_num[r] + coefs(r)·c) / D =
    f_j(P x_i), its LP row is [coefs(r) | -D], and beta[r] = -base_num[r].

    The grid keeps the coefficients as their rank-one factors:
    f(L_q x) = f(y_b)·g(x) over L_q = y_b (x) g, so coefs(r) is
    f_at[j] (x) g_at[i], with f_at[j] the k values f_j(y_b) and g_at[i]
    the n - k values g(x_i).  coefs(r) and row(r) form one row where a
    stage reads it, and products(v) gives coefs(r)·v for every row
    through the factors; constraint_matrix, every row formed, is a view
    for the benchmark's tracer.

    The solver reads the LP through objective, beta, denominator, row,
    row_values and entering (see the simplex module docstring), and the
    grid folds its antipodal rows for entering.  negation[p] is the
    position in f_at of the negation of the p-th dual vertex: f_at holds
    every dual vertex in order, so this is the space's dual_negation, an
    involution without fixed points that the space checked when it was
    built, and reps, the positions p < negation[p], is its dual_reps.
    The rows of (x_i, f) and (x_i, -f) in one block are
    partners: f_at and the bases are linear in the dual vertex, so their
    LP rows add up to [0 | -2D] and their beta entries to 0.  A real
    column's reduced cost is linear in its row, so the costs of two
    partners are integers that add up to one constant K of the round,
    -2D·w_t for the signed weights w, the same for every pair.
    entering therefore forms only the representative r of each pair,
    the row of f before its negation in the block, as
    f_at[j]·W·g_at[i] - D·w_t + bf·beta[r], with W the k x (n-k) matrix
    of w and the constant added inside the factored product; each
    partner costs K minus its representative, the same integers the
    full pass gives.  Over the representatives' costs p, Dantzig's rule
    takes the least of min p and K - max p and, among the representatives
    costed so and the partners of those costed K minus it, the lowest
    row.  That is the column the full pass picks, so no pivot changes.
    One pairing of the dual vertices serves every block."""

    g_at: dict[int, tuple[int, ...]]
    f_at: dict[int, tuple[int, ...]]
    base_num: tuple[int, ...]
    denominator: int
    negation: tuple[int, ...]
    reps: tuple[int, ...]

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(i, j) of every row: the kept primal vertices x the dual vertices."""
        return tuple(product(self.g_at, self.f_at))

    @cached_property
    def objective(self) -> tuple[int, ...]:
        """0 on the k(n-k) coefficients, 1 on t."""
        f, g = next(iter(self.f_at.values())), next(iter(self.g_at.values()))
        return (0,) * (len(f) * len(g)) + (1,)

    @cached_property
    def beta(self) -> tuple[int, ...]:
        return tuple(-b for b in self.base_num)

    def rows_of(self, pairs: Iterable[tuple[int, int]],
                primal_negation: Sequence[int]) -> list[int]:
        """The row of each pair (x_i, f_j), by index into the space's
        vertex lists: j in the block of x_i when x_i is kept, else the row
        of its antipodal class, (x_{negp[i]}, f_{negation[j]}), with negp
        the space's primal_negation."""
        nd = len(self.negation)
        block = {i: b * nd for b, i in enumerate(self.g_at)}
        return [block[i] + j if i in block else block[primal_negation[i]] + self.negation[j]
                for i, j in pairs]

    def coefs(self, r: int) -> tuple[int, ...]:
        """The coefficient row of row r, formed from its factors."""
        i, j = self.pairs[r]
        return tuple([a * b for a in self.f_at[j] for b in self.g_at[i]])

    def row(self, r: int) -> tuple[int, ...]:
        """The LP row [coefs(r) | -D]."""
        return self.coefs(r) + (-self.denominator,)

    @property
    def constraint_matrix(self) -> RMatrix:
        """A = [coefs(r) | -D] / D in Fractions, every row formed on each
        read, for readers of the LP as rationals; the solver never reads
        it."""
        D, d = self.denominator, len(self.objective)
        return RMatrix(len(self.beta), d, tuple(
            Fraction(a, D) for r in range(len(self.beta)) for a in self.row(r)))

    @cached_property
    def _plan(self) -> _ProductPlan:
        return _ProductPlan.of(self.f_at, self.g_at, list(self.g_at), list(self.f_at))

    @cached_property
    def _folded(self) -> tuple[_ProductPlan, list[int], list[int], list[int]]:
        """The plan over the representatives, (kept x_i) x (f_j before its
        negation), their rows in ascending order, their partners' rows and
        their beta entries."""
        neg, ps = self.negation, self.reps
        starts = range(0, len(self.base_num), len(neg))
        reps = [s + p for s in starts for p in ps]
        fs = list(self.f_at)
        return (_ProductPlan.of(self.f_at, self.g_at, list(self.g_at), [fs[p] for p in ps]),
                reps, [s + neg[p] for s in starts for p in ps],
                [self.beta[r] for r in reps])

    def products(self, v: Sequence[int]) -> list[int]:
        """coefs(r)·v for every row r, for integers v, through the
        factors: f_at[j]·V·g_at[i], with V the k x (n-k) matrix of v."""
        return self._plan.products(v)

    def row_values(self, x: list[int]) -> list[int]:
        """row(r)·x for every row r, both partners included."""
        t = self.denominator * x[-1]
        return [a - t for a in self.products(x[:-1])]

    def entering(self, w: list[int], bf: int) -> int | None:
        """The entering column at the reduced costs w·row(r) + bf·beta[r],
        from the representatives' costs and the pair constant K (see the
        class docstring)."""
        plan, reps, mates, beta = self._folded
        c0 = -self.denominator * w[-1]
        vals = plan.products(w[:-1], c0)
        if bf:
            vals = [a + bf * b for a, b in zip(vals, beta)]
        K = 2 * c0
        lo, hi = min(vals), max(vals)
        best = min(lo, K - hi)
        if best >= 0:
            return None
        # The lowest partner costed best, and the lowest representative so costed.
        found = [min(compress(mates, map(eq, vals, repeat(hi))))] if K - hi == best else []
        if lo == best:
            found.append(reps[vals.index(lo)])
        return min(found)

    def value_numerators(self, coefficients: Sequence[Fraction]) -> tuple[list[int], int]:
        """Every row value at the coefficients, as integers over one
        positive denominator."""
        x, x_den = over_denominator(coefficients)
        return ([b * x_den + v for b, v in zip(self.base_num, self.products(x))],
                self.denominator * x_den)

    def tight_rows(self, coefficients: Sequence[Fraction],
                   lam: Fraction) -> list[int]:
        values, den = self.value_numerators(coefficients)
        target = lam.numerator * den
        return [r for r, v in enumerate(values) if v * lam.denominator == target]


@dataclass(frozen=True)
class _ProductPlan:
    """The factored pass over the product xs x fs of two index lists into
    two factor tables: f_at[j]·V·g_at[i] for every pair (i, j), x outer,
    with V the k x h matrix of a vector v, for f_at's entries of length k
    and g_at's of length h.  For a grid's tables, h = n - k and this is
    coefs·v; between f_at and the primal vertex list, h = n, and at P0's
    k functionals it is the bases f(P0 x).

    One side is formed first: W_i = V·g_at[i] per primal vertex, after
    which each pair costs the k products W_i·f_at[j], or A_j = f_at[j]·V
    per dual vertex, after which it costs the h products A_j·g_at[i],
    whichever costs fewer products in all.  Per component, the formed
    side is a combination of the near factors' columns, and the pass adds
    the outer product of that column with a far factors' column."""

    near: tuple[tuple[int, ...], ...]  # columns of the factors formed first
    far: tuple[tuple[int, ...], ...]   # columns of the other factors
    by_dual: bool                      # near is f_at (A_j), else g_at (W_i)
    size: int                          # the number of pairs

    @classmethod
    def of(cls, f_at, g_at, xs: Sequence[int], fs: Sequence[int]) -> _ProductPlan:
        """The plan over xs x fs for the factor tables f_at[j] and
        g_at[i] (dicts or lists, by vertex index)."""
        k, h = len(f_at[fs[0]]), len(g_at[xs[0]])
        # |xs|·kh + |pairs|·k products against |fs|·kh + |pairs|·h.
        by_dual = (len(fs) - len(xs)) * k * h < len(xs) * len(fs) * (k - h)
        g_cols = tuple(zip(*(g_at[i] for i in xs)))
        f_cols = tuple(zip(*(f_at[j] for j in fs)))
        near, far = (f_cols, g_cols) if by_dual else (g_cols, f_cols)
        return cls(near, far, by_dual, len(xs) * len(fs))

    def products(self, v: Sequence[int], start: int = 0) -> list[int]:
        """start + f_at[j]·V·g_at[i] for every pair: start is added in the
        first product formed, so it costs no pass of its own."""
        h = len(self.far if self.by_dual else self.near)
        V = [v[b:b + h] for b in range(0, len(v), h)]
        if self.by_dual:
            V = list(zip(*V))
        out = None
        for coefficients, far in zip(V, self.far):
            formed = None
            for a, column in zip(coefficients, self.near):
                if a:
                    formed = ([a * x for x in column] if formed is None
                              else [s + a * x for s, x in zip(formed, column)])
            if formed is None:
                continue
            xv, fv = (far, formed) if self.by_dual else (formed, far)
            c = start if out is None else 0
            terms = ([a * b + c for a in xv for b in fv] if c
                     else [a * b for a in xv for b in fv])
            out = terms if out is None else list(map(add, out, terms))
        return [start] * self.size if out is None else out


def _pair_factors(space: PolyhedralSpace, basis: OperatorBasis,
                  xs: Iterable[int], fs: Iterable[int]
                  ) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]],
                             list[list[int]], int]:
    """The factors of the rows f(L_q x) = f(y_b)·g(x) and of the bases
    f(P0 x) = sum_b f(y_b)·h_b(x) over the listed primal and dual
    vertices, in the order of build_operator_basis (y outer, g inner), as
    integers: g_at, f_at, P0's k functionals hs and the row denominator.
    With f_at[j] = F_j·y_num_b, g_at[i] = g_num·x_i·L/(dy·dg) and
    hs = h_num·L/dh, the row of (x_i, f_j) is f_at[j] (x) g_at[i] and its
    base f_at[j]·hs·x_i, over df·dx·L, L = lcm(dy·dg, dh), with x_i and
    F_j the cleared vertices and dy, dg and dh the denominators of Y's
    basis, its annihilator and P0's functionals."""
    X, dx = space.primal_cleared
    F, df = space.dual_cleared
    Y = basis.subspace
    op_den = Y.basis_den * Y.annihilator_den
    L = lcm(op_den, basis.h_den)
    g_mult, h_mult = L // op_den, L // basis.h_den
    g_at = {i: tuple(int_dot(g, X[i]) * g_mult for g in Y.annihilator_num) for i in xs}
    f_at = {j: tuple(int_dot(F[j], y) for y in Y.basis_num) for j in fs}
    return g_at, f_at, [[a * h_mult for a in h] for h in basis.h_num], df * dx * L


def pair_rows(space: PolyhedralSpace, basis: OperatorBasis,
              pairs: Sequence[tuple[int, int]]
              ) -> tuple[list[list[int]], list[int], int]:
    """The coefficient rows f(L_q x) and the bases f(P0 x) of the listed
    pairs (x, f), by index into the space's vertex lists, as integers
    over one denominator, formed row by row from the grid's factors
    (_pair_factors): f_at[j] (x) g_at[i], and f_at[j] against the k
    values hs·x_i, formed once per primal vertex."""
    g_at, f_at, hs, den = _pair_factors(
        space, basis, {i for i, _ in pairs}, {j for _, j in pairs})
    X = space.primal_cleared[0]
    h_at = {i: [int_dot(h, X[i]) for h in hs] for i in g_at}
    return ([[a * b for a in f_at[j] for b in g_at[i]] for i, j in pairs],
            [int_dot(f_at[j], h_at[i]) for i, j in pairs], den)


def build_pair_grid(space: PolyhedralSpace, basis: OperatorBasis) -> PairGrid:
    """The lambda LP over one pair per antipodal class: (x, f) and
    (-x, -f) give the same row, and the class keeps the pair whose primal
    vertex x_i has i < negp[i].  So the rows come in one block per kept
    x_i, with every dual vertex in order, and the partner of the row of
    (x_i, f_j), the class of (x_i, -f_j), is the row of (i, negd[j]) in
    the same block: the grid's negation and representatives are the dual
    list's.  The kept x_i are the space's primal_reps.  The bases
    f_at[j]·hs·x_i (_pair_factors) are one factored pass between f_at
    at the dual representatives (dual_reps) and the primal vertex list at
    V = hs, P0's k x n functionals; f_at is linear in the dual vertex, so
    each partner's base is the negated one of its representative."""
    xs, neg, reps = space.primal_reps, space.dual_negation, space.dual_reps
    g_at, f_at, hs, den = _pair_factors(space, basis, xs, range(len(neg)))
    folded = iter(_ProductPlan.of(f_at, space.primal_cleared[0], xs, reps).products(
        [a for h in hs for a in h]))
    base = [0] * (len(xs) * len(neg))
    for s in range(0, len(base), len(neg)):
        for p in reps:
            v = next(folded)
            base[s + p], base[s + neg[p]] = v, -v
    return PairGrid(g_at=g_at, f_at=f_at, base_num=tuple(base), denominator=den,
                    negation=neg, reps=reps)


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

    @cached_property
    def witness_cleared(self) -> tuple[RMatrix, int]:
        """The witness realized as an integer matrix over its denominator
        (OperatorBasis.realize_cleared), formed once for every stage that
        reads it."""
        return self.basis.realize_cleared(self.witness)

    @cached_property
    def interior_cleared(self) -> tuple[RMatrix, int]:
        """The relative-interior point realized likewise; the witness's
        matrix when the point is the witness."""
        if self.interior is None:
            raise ValueError("the report's optimal face is not settled")
        if self.interior == self.witness:
            return self.witness_cleared
        return self.basis.realize_cleared(self.interior)


def projection_constant(space: PolyhedralSpace, Y: Subspace) -> MinProjReport:
    """Solve the operator-norm LP exactly: lambda, one minimal projection,
    its norming pairs and the positive dual weights."""
    basis = build_operator_basis(space, Y)
    return _solve_lambda(space, Y, basis, build_pair_grid(space, basis))


def _solve_lambda(space: PolyhedralSpace, Y: Subspace, basis: OperatorBasis,
                  grid: PairGrid, start: Sequence[int] = ()) -> MinProjReport:
    """projection_constant on the basis and grid of (space, Y), built,
    with the LP started at the grid rows start when they give a feasible
    dual point (simplex.solve)."""
    solution = solve(grid, start)
    # always feasible (P0) and bounded: the rows come in ± pairs, so t >= 0
    if solution.status != OPTIMAL:
        raise InternalError(f"operator-norm LP is {solution.status}")
    d = basis.dimension
    lam = solution.value
    if lam < 1:
        raise InternalError(f"projection constant {format_rational(lam)} is below 1")
    witness = OperatorPoint(solution.primal[:d])
    if solution.primal[d] != lam:
        raise InternalError("norm variable t differs from the LP value")
    tight = tuple(sorted(solution.tight_set))
    support = tuple(r for r, u in enumerate(solution.dual) if u.numerator > 0)
    return MinProjReport(
        space=space, subspace=Y, basis=basis, grid=grid, lam=lam,
        witness=witness, witness_rows=tight, dual_rows=support,
        dual_weights=tuple(solution.dual[r] for r in support),
    )


def operator_norm(space: PolyhedralSpace, matrix: RMatrix) -> Fraction:
    """Exact operator norm: the largest f(M x) over the ball's vertices x
    and the dual vertices f, in integers over one vertex of each
    antipodal pair.

    The matrix is cleared once to M / m_den, and each cleared vertex list
    is read at its representatives (primal_reps, dual_reps).  Both lists
    are symmetric, so the largest value over two pairs is |f(M x)| at
    their representatives.  The values f·M·x of every pair of
    representatives are one _ProductPlan pass, with the dual vertices as
    f_at, the primal ones as g_at and M as V; the plan forms M x per
    primal or fᵀM per dual representative, whichever side is shorter."""
    n = space.dim
    if (matrix.rows, matrix.cols) != (n, n):
        raise ValueError(f"a {matrix.rows}x{matrix.cols} matrix on a space "
                         f"of dimension {n}")
    flat, m_den = over_denominator(matrix.entries)
    (X, dx), (F, df) = space.primal_cleared, space.dual_cleared
    values = _ProductPlan.of(F, X, space.primal_reps, space.dual_reps).products(flat)
    return Fraction(max(map(abs, values)), m_den * dx * df)


def pair_values(space: PolyhedralSpace, matrix: RMatrix,
                pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """f(M x) for each listed pair (x, f), by index into the space's
    vertex lists, for an integer matrix M: integers over the vertex
    lists' denominators, M x formed once per primal vertex."""
    n = space.dim
    X, dx = space.primal_cleared
    F, df = space.dual_cleared
    rows = [matrix.entries[r * n:(r + 1) * n] for r in range(n)]
    images: dict[int, list[int]] = {}
    values = []
    for i, j in pairs:
        image = images.get(i)
        if image is None:
            image = images[i] = [int_dot(row, X[i]) for row in rows]
        values.append(int_dot(F[j], image))
    return values, dx * df


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


def _restrict_to_face(coefs: dict[int, tuple[int, ...]], implicit: Sequence[int],
                      rows: Iterable[int], d: int
                      ) -> tuple[list[list[int]], int, dict[int, tuple[int, ...]]]:
    """A basis N of {z : coefs[r]·z = 0 for r in implicit} as integer
    columns over their least common denominator C (column q of N is
    columns[q] / C), and for each of rows its coefficients restricted to
    N, coefs[r]·N, as integers over grid.denominator·C; coefs holds the
    formed grid rows.

    The integer grid rows have the same nullspace as the rational ones,
    and N is the basis that linalg.integer_nullspace reads off their
    reduced row echelon form.  Every restricted coefficient is then one
    integer dot product."""
    columns, C = integer_nullspace([coefs[r] for r in implicit], d)
    return columns, C, {r: tuple(int_dot(coefs[r], col) for col in columns)
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
    a point.  A closing check compares the point's tight rows with the
    implicit rows; at the witness those are witness_rows, with no pass
    over the grid.  face_dim is the dimension of N.
    """
    grid = report.grid
    lam = report.lam
    witness = report.witness.coefficients
    d = len(witness)
    support = set(report.dual_rows)
    implicit = list(report.dual_rows)
    undecided = [r for r in report.witness_rows if r not in support]
    coefs = {r: grid.coefs(r) for r in report.witness_rows}
    while True:
        cols, scale, restricted = _restrict_to_face(coefs, implicit, undecided, d)
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
    # At the witness the tight rows are witness_rows, which _finish took
    # from the same row values.
    tight = (list(report.witness_rows) if interior is witness
             else grid.tight_rows(interior, lam))
    if tight != implicit:
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
    for r, rise in enumerate(grid.products(z_num)):
        if rise > 0 and r not in skip:
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
    if integer_row_rank([grid.row(r) for r in tight]) != d + 1:
        raise InternalError("the LP witness is not a vertex of the optimal face")
    return report.witness, len(tight)
