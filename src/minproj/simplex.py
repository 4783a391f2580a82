"""Exact simplex for  minimize c·v  subject to  A·v <= b,  v free.

Every LP is solved through its dual in standard form,  minimize b·u
subject to  Aᵀu = -c,  u >= 0:  one equality row (with an artificial)
per variable and one nonnegative column per constraint, so the basis has
one entry per variable, which suits the operator-norm grids (many rows
over few variables).  Phase I drives the artificials to zero, phase II
minimizes b·u.  Entering columns follow Dantzig's rule (most negative
reduced cost, ties to the lowest index), and the leaving row is the
lexicographic ratio test's: the least ratio rhs / entry, ties broken by
the least (rhs, entries in the columns of B0) / entry, with B0 the basis
the phase starts from (the artificials in phase I).  Each phase starts
with B⁻¹·B0 = I and rhs >= 0, so every row starts lexicographically
positive and stays so, the objective row rises lexicographically at
every pivot, and no basis repeats (Dantzig, Orden and Wolfe, Pacific J.
Math. 5, 1955): the solver terminates whatever the entering rule.
The dual optimum u is the certificate; the primal optimum is read off
the reduced costs of the artificial columns, the exact simplex
multipliers of the final basis.  Every optimal solve is re-verified
against the strong-duality identities before it is returned.

solve may take a start, LP rows, as a guess at the dual's optimal
basis: a certificate already in hand, such as a Chalmers-Metcalf
certificate of the lambda LP, is a feasible point of the dual.  Their
columns are pivoted into the artificial basis in order, with no
pricing.  When the basic point is feasible (every basic real column
>= 0 and every artificial left basic at 0), the artificials are
cleared and phase II runs from there, with no phase I.  When the
columns are dependent, the point is not feasible, or phase II does not
end OPTIMAL, the solve is the two-phase one with no start, pivot for
pivot.  Either way the result goes through the same verification.
pivots counts every pivot of the solve that returns: phase I's and
phase II's, the zero-objective check's, and a start's own pivots when
the start is taken; the degenerate pivots that clear artificials
before phase II are not counted, and a start that is not taken adds
none.

Statuses come from the dual.  An unbounded phase II means the LP is
infeasible.  A failed phase I means the dual is infeasible, so the LP is
unbounded or infeasible, and the same LP with a zero objective tells
which: its dual {Aᵀu = 0, u >= 0} is feasible (u = 0), and unbounded
exactly when the LP is infeasible.

All arithmetic is on Python ints.  An LP carries integer rows over one
common denominator, [A | b] = [M | beta] / D, as its builders form them
(the pair grid and the Gordan rounds keep their rows in integers from
the start), so nothing is cleared here.  The method is
the revised simplex: the artificial columns start as the identity, so
the artificial block of the current tableau is the basis inverse, and a
row of the tableau is its artificial block times the starting rows.  A
stored row is that block and the right-hand side, d + 1 ints for d
variables, equal to the true row times a positive factor.  The entry of
row R in real column c is then R·(σ⊙M[c]) / D, with σ the row signs;
only the entering column is formed, times D.  The cost row keeps the
reduced costs of the artificials and the negated objective, as ints
`on` over a positive `oscale`; they give the basis multipliers, from
which each iteration has the LP pick the entering column, its reduced
costs ints over the common oscale·D.
A pivot on the entry p > 0 at (r, c) replaces every other row R by
p·R − R[c]·R_r, one dense list pass per row, and divides out its
content (the gcd of its entries), so
rows stay primitive and no entry ever needs a gcd of its own.  Positive
factors change no sign and no ratio: Dantzig's rule compares the reduced-cost
ints directly, and the ratio test compares cross-products, reading the
B0 columns only for rows still tied, so the pivot sequence, the primal,
the dual and the tight set are the ones exact rational arithmetic gives,
and the ones the full tableau gives.  For the same reason one positive factor on the
whole of (M, beta, D) changes no pivot.  Verification runs in integer
dot products over the same integers.

The solver reads an LP through six names and nothing else: objective,
beta and denominator, and three methods over the matrix M.  row(c) is
one integer row, formed for the entering column and the rows a basis
or the dual's support names; row_values(x) is M[r]·x for every row r
at an integer x; and entering(w, bf) is the entering column at the
reduced costs w·M[c] + bf·beta[c], for signed weights
w = σ⊙(costs minus basis multipliers), or None at an optimum.  The
column is the one Dantzig's rule (the least reduced cost when it is
negative, ties to the lowest index) picks, as entering_column picks it
off a full list.  LinearProgram implements the three over its
matrix, costing every row in one list pass per nonzero weight over the
matrix transposed.  The pair grid (projections.PairGrid) is the lambda
LP and implements them over its rank-one factors, costing one row of
each antipodal pair; its docstring tells how that picks the same
column.  The verification never trusts
the pricing: it reads every row through row_values and the rows of the
dual's support through row.

Sign convention for certificates: on OPTIMAL, the dual u satisfies
u >= 0, Aᵀu = -c and u·b = -value (the standard dual of the
minimization form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, repeat
from math import gcd
from operator import eq, gt, mul
from typing import Sequence

from .errors import InternalError
from .linalg import RMatrix, int_dot, over_denominator, primitive

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

_MAX_PIVOTS = 500_000


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective·v  subject to  A·v <= b,  v free, given in
    integers: [A | b] = [matrix | beta] / denominator, denominator > 0.
    Scaling matrix, beta and denominator by one positive factor gives the
    same LP, and the same solution, pivot for pivot.

    row, row_values and entering are the solver's reads of the matrix
    (see the module docstring), here over matrix itself."""

    objective: tuple[Fraction | int, ...]
    matrix: tuple[tuple[int, ...], ...]
    beta: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        if any(len(row) != len(self.objective) for row in self.matrix):
            raise ValueError("objective length does not match constraint columns")
        if len(self.beta) != len(self.matrix):
            raise ValueError("rhs length does not match constraint rows")
        if self.denominator <= 0:
            raise ValueError("the denominator must be positive")

    @cached_property
    def _columns(self) -> list[tuple[int, ...]]:
        """The matrix transposed, one tuple per variable."""
        return list(zip(*self.matrix))

    def row(self, r: int) -> tuple[int, ...]:
        """matrix[r]."""
        return self.matrix[r]

    def row_values(self, x: list[int]) -> list[int]:
        """matrix[r]·x for every row r."""
        return [int_dot(row, x) for row in self.matrix]

    def entering(self, w: list[int], bf: int) -> int | None:
        """entering_column of the reduced costs w·matrix[r] + bf·beta[r]
        of every row, formed in one list pass per nonzero weight."""
        vals = [bf * b for b in self.beta] if bf else [0] * len(self.beta)
        for wj, col in zip(w, self._columns):
            if wj:
                vals = [v + wj * a for v, a in zip(vals, col)]
        return entering_column(vals)

    @cached_property
    def constraint_matrix(self) -> RMatrix:
        """A = matrix / denominator in Fractions, for readers of the LP
        as rationals; the solver never builds it."""
        D = self.denominator
        return RMatrix(len(self.matrix), len(self.objective),
                       tuple(Fraction(a, D) for row in self.matrix for a in row))


@dataclass(frozen=True)
class LPSolution:
    """status plus, when OPTIMAL: exact value, a primal optimum, the dual
    certificate (one weight per constraint) and the set of tight rows.
    pivots counts the simplex iterations of every phase and tableau,
    and a start's pivots when it is taken (see the module docstring)."""

    status: str
    value: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    tight_set: frozenset[int] = frozenset()
    pivots: int = 0


def _eliminate(row: list[int], p: int, f: int, R: list[int]) -> list[int]:
    """(p·row - f·R) / gcd(p, f) for p > 0, one list pass over the two
    rows of one length."""
    g = gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    if p == 1:
        return [a - f * b for a, b in zip(row, R)]
    return [p * a - f * b for a, b in zip(row, R)]


def _least_ratios(rows: list[int], nums: list[int], dens: list[int]) -> list[int]:
    """The rows i of rows, in order, whose ratio num / dens[i] is least,
    with nums their numerators and dens[i] > 0, by cross-products."""
    least, top, bottom = [], 0, 1
    for i, num in zip(rows, nums):
        lhs, rhs = num * bottom, top * dens[i]
        if not least or lhs < rhs:
            least, top, bottom = [i], num, dens[i]
        elif lhs == rhs:
            least.append(i)
    return least


def entering_column(vals: list[int]) -> int | None:
    """The column that enters at the reduced costs vals by Dantzig's
    rule, the lowest of least cost, or None when none is negative."""
    best = min(vals, default=0)
    return vals.index(best) if best < 0 else None


class _RevisedDual:
    """Revised form of the standard-form tableau of the dual  Aᵀu = -c,
    u >= 0: one column per constraint row of the LP, one equality row
    (with its artificial) per variable, negated where -c_j < 0 so the
    artificial starts basic.  A row stores only its artificial block (a
    row of B⁻¹) and its right-hand side, the true row times a positive
    factor; its entries in the real columns, and the reduced costs of
    those, are formed from the LP's integer rows when needed.  The costs
    c are objective, the LP's own or the zero objective of the check in
    solve.  Pivoting follows Dantzig's rule, and the leaving row the
    lexicographic ratio test over the columns of start, the basis the
    phase started from (see the module docstring)."""

    def __init__(self, lp, objective):
        D = lp.denominator
        self.lp = lp
        self.m = len(lp.beta)
        self.nrows = d = len(objective)
        self.D = D
        self.beta = lp.beta
        self.sigma = [1 if cj <= 0 else -1 for cj in objective]
        self.columns: dict[int, list[int]] = {}  # the real columns formed so far
        self.rows: list[list[int]] = []
        for j, cj in enumerate(objective):
            # The true row times D·den(c_j): D·den(c_j) on its artificial.
            row = [0] * (d + 1)
            row[j] = D * cj.denominator
            row[d] = -self.sigma[j] * cj.numerator * D
            self.rows.append(primitive(row))
        self.basis = [self.m + j for j in range(d)]
        self.start: list[int] = []  # B0, the basis set_objective found
        self.on: list[int] = []
        self.oscale = 1
        self.phase = 1
        self.pivots = 0

    def set_objective(self, phase: int) -> None:
        """Install the cost row of the phase and price out the current
        basis.  Phase I costs 1 on each artificial and 0 on the real
        columns, phase II costs b_c = beta_c / D on real column c and 0 on
        the artificials.  on / oscale holds the reduced costs of the
        artificials and the negated objective value (its last entry).
        The current basis becomes start, the phase's B0."""
        self.phase = phase
        self.on = [int(phase == 1)] * self.nrows + [0]
        self.oscale = 1
        self.start = self.basis[:]
        for r in range(self.nrows):
            c = self.basis[r]
            f = self._reduced_cost(c)
            if f != 0:
                # Row r's entry of _column(c), formed alone.
                row = self.rows[r]
                p = row[c - self.m] if c >= self.m else int_dot(row, self._real_column(c))
                self._price_out(r, p, f)

    def _weights(self) -> tuple[list[int], int]:
        """w and bf with the reduced cost of real column c equal to
        (w·(σ⊙M[c]) + bf·beta_c) / (oscale·D): the costs minus the basis
        multipliers, which the artificials' reduced costs give."""
        if self.phase == 1:
            return [x - self.oscale for x in self.on[:-1]], 0
        return self.on[:-1], self.oscale

    def _entering(self) -> int | None:
        """The entering column, or None at an optimum: the LP weighs its
        rows M[c] by the signed weights σ⊙w, which carry the row signs of
        the dual's columns σ⊙M[c], so it reads the real columns' reduced
        costs times oscale·D."""
        w, bf = self._weights()
        return self.lp.entering([s * x for s, x in zip(self.sigma, w)], bf)

    def _reduced_cost(self, c: int) -> int:
        """The reduced cost of column c on the scale of _column(c): times
        oscale·D for a real column, times oscale for an artificial."""
        if c >= self.m:
            return self.on[c - self.m]
        w, bf = self._weights()
        return int_dot(w, self._real_column(c)) + bf * self.beta[c]

    def _real_column(self, c: int) -> list[int]:
        """The dual's real column c times D, σ⊙M[c]: the LP's row c with
        the entries of the negated equality rows flipped, formed once per
        solve."""
        col = self.columns.get(c)
        if col is None:
            col = self.columns[c] = [s * a for s, a in zip(self.sigma, self.lp.row(c))]
        return col

    def _column(self, c: int) -> list[int]:
        """Column c in every row, each on its row's scale, and times D for
        a real column: one positive factor for all rows, which leaves the
        ratio test as it is.  int_dot stops at the shorter list, so a
        row's rhs entry takes no part."""
        if c >= self.m:
            return [row[c - self.m] for row in self.rows]
        col = self._real_column(c)
        return [int_dot(row, col) for row in self.rows]

    def _price_out(self, r: int, p: int, f: int) -> None:
        """Clear the reduced cost f of the column whose entry in row r is
        p > 0, both on one scale: on/oscale - (f/p)(R/oscale) =
        (p·on - f·R)/(p·oscale)."""
        on = _eliminate(self.on, p, f, self.rows[r])
        scale = self.oscale * (p // gcd(p, f))  # the factor _eliminate applied
        g = gcd(gcd(*on), scale)
        if g > 1:
            on = [x // g for x in on]
            scale //= g
        self.on = on
        self.oscale = scale

    def _leaving(self, alpha: list[int]) -> int | None:
        """The row of the lexicographically least (rhs, B⁻¹·B0 row) / entry
        over the positive entries alpha of the entering column (the row
        factors cancel), with B0 the columns of start in row order, or
        None when no entry is positive.  The rows of B⁻¹·B0 are
        independent, so one row is least.  A column of B0 is read only for
        the rows still tied: an artificial's entry is the row's own, a
        real column's one int_dot."""
        rows, m = self.rows, self.m
        tied = [i for i, a in enumerate(alpha) if a > 0]
        # m + nrows stands for the rhs, the entry after the artificial block.
        for b in [m + self.nrows] + self.start:
            if len(tied) < 2:
                break
            if b >= m:
                nums = [rows[i][b - m] for i in tied]
            else:
                col = self._real_column(b)
                nums = [int_dot(rows[i], col) for i in tied]
            tied = _least_ratios(tied, nums, alpha)
        return tied[0] if tied else None

    def pivot(self, r: int, c: int, alpha: list[int], f: int) -> None:
        """Pivot column c (entries alpha, reduced cost f, on one scale)
        into the basis at row r."""
        rows = self.rows
        R = rows[r]
        p = alpha[r]
        if p < 0:
            R = rows[r] = [-x for x in R]
            p = -p
        for i, a in enumerate(alpha):
            if i != r and a != 0:
                rows[i] = primitive(_eliminate(rows[i], p, a, R))
        if f != 0:
            self._price_out(r, p, f)
        self.basis[r] = c

    def run(self) -> str:
        while True:
            c = self._entering()
            if c is None:
                return OPTIMAL
            alpha = self._column(c)
            r = self._leaving(alpha)
            if r is None:
                return UNBOUNDED
            self.pivot(r, c, alpha, self._reduced_cost(c))
            self.pivots += 1
            if self.pivots > _MAX_PIVOTS:
                raise InternalError("simplex pivot budget exhausted")

    def objective_value(self) -> Fraction:
        return -Fraction(self.on[-1], self.oscale)

    def basic_value(self, r: int) -> Fraction:
        """The value of row r's basic real column c: D·rhs / alpha_r(c)."""
        row = self.rows[r]
        return Fraction(self.D * row[-1], int_dot(row, self._real_column(self.basis[r])))

    def clear_artificials(self) -> None:
        """Pivot basic artificials (all at zero) onto real columns when possible.

        A row whose real part vanished entirely is a redundant constraint;
        its artificial stays basic at zero and can never interfere again.
        The pivots leave the cost row as it is: set_objective installs
        phase II's afterwards, priced out from scratch.
        """
        for r in range(self.nrows):
            if self.basis[r] >= self.m:
                row = self.rows[r]
                for c in range(self.m):
                    if int_dot(row, self._real_column(c)) != 0:
                        self.pivot(r, c, self._column(c), 0)
                        break


def _run_dual(lp, objective) -> tuple[_RevisedDual, str | None]:
    """Phase I and phase II on the dual of lp with the given objective: the
    solver and the status of phase II, or None when phase I finds the
    dual infeasible."""
    tab = _RevisedDual(lp, objective)
    tab.set_objective(1)
    if tab.run() != OPTIMAL:
        raise InternalError("phase I cannot be unbounded")
    if tab.objective_value() != 0:
        return tab, None
    tab.clear_artificials()
    tab.set_objective(2)
    return tab, tab.run()


def _started_dual(lp, start: Sequence[int]) -> _RevisedDual | None:
    """Phase II on the dual of lp from the basis of the start's columns,
    or None when that basis is no start: the columns of start, LP rows,
    are pivoted into the artificial basis in order, each on the first row
    whose artificial is basic and whose entry is nonzero, with no
    pricing.  A column with no such row depends on those before it.  The
    basic point is feasible when every basic real column is >= 0 and
    every artificial left basic is at 0; a basic column's entry in its
    row stays positive, so each is the sign of its row's rhs.  Phase II
    then runs as after phase I, and must end OPTIMAL."""
    tab = _RevisedDual(lp, lp.objective)
    for c in start:
        alpha = tab._column(c)
        r = next((r for r, b in enumerate(tab.basis) if b >= tab.m and alpha[r]), None)
        if r is None:
            return None
        tab.pivot(r, c, alpha, 0)
        tab.pivots += 1
    if any(row[-1] < 0 or (b >= tab.m and row[-1]) for row, b in zip(tab.rows, tab.basis)):
        return None
    tab.clear_artificials()
    tab.set_objective(2)
    return tab if tab.run() == OPTIMAL else None


def solve(lp, start: Sequence[int] = ()) -> LPSolution:
    """Solve the LP, a LinearProgram or the pair grid (see the module
    docstring); on OPTIMAL the returned certificate is exact and
    verified.  Only a LinearProgram can fail phase I: the grid's LP is
    feasible (at P0) and bounded (t >= 0), so the zero-objective check
    never runs on it.

    start, LP rows, is a guess at the dual's optimal basis: phase II
    runs from the basis of those rows when its point is feasible
    (_started_dual), and otherwise the solve is the two-phase one with no
    start, pivot for pivot."""
    m, d = len(lp.beta), len(lp.objective)
    tab = _started_dual(lp, start) if start else None
    if tab is None:
        tab, status = _run_dual(lp, lp.objective)
        if status is None:
            # The dual is infeasible; the zero-objective LP tells infeasible
            # from unbounded (see the module docstring).
            check, status = _run_dual(lp, (0,) * d)
            return LPSolution(status=INFEASIBLE if status == UNBOUNDED else UNBOUNDED,
                              pivots=tab.pivots + check.pivots)
        if status == UNBOUNDED:
            return LPSolution(status=INFEASIBLE, pivots=tab.pivots)

    zero = Fraction(0)
    u = [zero] * m
    for r in range(tab.nrows):
        if tab.basis[r] < m:
            u[tab.basis[r]] = tab.basic_value(r)
    # Basis multipliers pi solve pi·B = c_B; the reduced cost of the artificial
    # of equality row j is -pi_j, and v_j = sigma_j·pi_j solves A_r·v = b_r
    # for every basic column r (and v_j = 0 for a basic artificial): the
    # unique primal optimum of this basis.
    primal = tuple(Fraction(-tab.sigma[j] * tab.on[j], tab.oscale)
                   for j in range(d))
    value = sum((cj * vj for cj, vj in zip(lp.objective, primal)), zero)
    return _finish(lp, value, primal, tuple(u), tab.pivots)


def _finish(lp, value, primal, dual, pivots: int = 0) -> LPSolution:
    x, x_den = over_denominator(primal)
    # A_i·v <= b_i  is  M_i·x <= beta_i·x_den  after scaling by D·x_den > 0.
    lhs = lp.row_values(x)
    tight = frozenset(compress(count(), map(eq, lhs, _scaled(lp.beta, x_den))))
    _verify_certificate(lp, value, x, x_den, dual, lhs, tight)
    return LPSolution(status=OPTIMAL, value=value, primal=primal,
                      dual=dual, tight_set=tight, pivots=pivots)


def _scaled(values, factor: int):
    """factor·v for every v of values, lazily."""
    return map(mul, values, repeat(factor))


def _verify_certificate(lp, value, x, x_den, dual, lhs, tight) -> None:
    """Exact optimality verification: feasibility, dual feasibility,
    complementary slackness, the dual equation, strong duality and the
    primal value, all in integers over the LP's [M | beta] / D, checked
    in that order.  The primal is x / x_den, and lhs[i] is M_i·x.
    Feasibility reads every row, in C-level passes over lhs; the other
    checks read the dual's support, the rows where it is nonzero, and
    the dual is cleared over that support alone.  Failure means a solver
    bug, never a property of the input."""
    beta, D = lp.beta, lp.denominator
    infeasible = next(compress(count(), map(gt, lhs, _scaled(beta, x_den))), None)
    if infeasible is not None:
        raise InternalError(f"primal infeasibility on row {infeasible}")
    support = list(compress(count(), dual))
    u, u_den = over_denominator([dual[i] for i in support])
    for i, ui in zip(support, u):
        if ui < 0:
            raise InternalError(f"negative dual weight on row {i}")
    for i in support:
        if i not in tight:
            raise InternalError(f"complementary slackness broken on row {i}")
    # Aᵀu = -c  is  c_den·Σ u_i M_ij = -c_j·D·u_den.
    c, c_den = over_denominator(lp.objective)
    rows = [lp.row(i) for i in support]
    for j, cj in enumerate(c):
        if c_den * sum(ui * row[j] for ui, row in zip(u, rows)) != -cj * D * u_den:
            raise InternalError(f"dual equation broken in column {j}")
    v_num, v_den = value.numerator, value.denominator
    if v_den * int_dot(u, [beta[i] for i in support]) != -v_num * D * u_den:
        raise InternalError("strong duality violated")
    if v_den * int_dot(c, x) != v_num * c_den * x_den:
        raise InternalError("primal value mismatch")
