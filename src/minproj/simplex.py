"""Exact simplex for  minimize c·v  subject to  A·v <= b,  v free.

Every LP is solved through its dual in standard form,  minimize b·u
subject to  Aᵀu = -c,  u >= 0:  one equality row (with an artificial)
per variable and one nonnegative column per constraint, so the basis has
one entry per variable, which suits the operator-norm grids (many rows
over few variables).  Phase I drives the artificials to zero, phase II
minimizes b·u.  Entering columns follow Dantzig's rule (most negative
reduced cost, ties to the lowest index) until a run of degenerate pivots
is detected.  The solver then follows Bland's rule until the objective
strictly improves, and Dantzig's rule again after that; a new objective
starts with Dantzig's rule too.  This still terminates: a cycle needs an
unbroken run of degenerate pivots, and Bland's rule ends every such run.
The dual optimum u is the certificate; the primal optimum is read off
the reduced costs of the artificial columns, the exact prices of the
final basis.  Every optimal solve is re-verified against the
strong-duality identities before it is returned.

Statuses come from the dual.  An unbounded phase II means the LP is
infeasible.  A failed phase I means the dual is infeasible, so the LP is
unbounded or infeasible, and the same LP with a zero objective tells
which: its dual {Aᵀu = 0, u >= 0} is feasible (u = 0), and unbounded
exactly when the LP is infeasible.

All arithmetic is on Python ints.  The LP is cleared to integer rows
over one common denominator once (LinearProgram.integer_form).  A
tableau row is one list of ints equal to the true row times a positive
factor, and that factor is the row's entry under its basic column (1 in
the true row), so a basic value is the right-hand side over that entry.
The reduced-cost row is a list of ints `on` over a positive `oscale`.
A pivot on the entry p > 0 at (r, c) replaces every other row R by
p·R − R[c]·R_r and divides out its content (the gcd of its entries), so
rows stay primitive and no entry ever needs a gcd of its own.  Positive
factors change no sign and no ratio: Dantzig's rule compares `on`
directly, and the ratio test and the stall check compare cross-products,
so the pivot sequence, the primal, the dual and the tight set are the
ones exact rational arithmetic gives.  Verification runs in integer dot
products over the same integer form.

Sign convention for certificates: on OPTIMAL, the dual u satisfies
u >= 0, Aᵀu = -c and u·b = -value (the standard dual of the
minimization form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .errors import InternalError
from .linalg import RMatrix, int_dot, over_denominator, primitive

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_STALL_SWITCH = 24
_MAX_PIVOTS = 500_000

#: Running counters; the acceptance suite asserts that every optimal solve
#: performed anywhere in the process passed the exact duality checks.
SOLVE_STATS = {"solves": 0, "optimal": 0, "duality_verified": 0}


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple[Fraction, ...]
    constraint_matrix: RMatrix
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.objective) != self.constraint_matrix.cols:
            raise ValueError("objective length does not match constraint columns")
        if len(self.rhs) != self.constraint_matrix.rows:
            raise ValueError("rhs length does not match constraint rows")

    @cached_property
    def integer_form(self) -> tuple[list[list[int]], list[int], int]:
        """(M, beta, D): integer rows and right-hand sides over the least
        common denominator D > 0 of all entries, [A | b] = [M | beta] / D."""
        A = self.constraint_matrix
        D = lcm(*(x.denominator for x in A.entries),
                *(x.denominator for x in self.rhs))
        flat = [x.numerator * (D // x.denominator) for x in A.entries]
        M = [flat[i * A.cols:(i + 1) * A.cols] for i in range(A.rows)]
        beta = [x.numerator * (D // x.denominator) for x in self.rhs]
        return M, beta, D


def make_lp(objective: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> LinearProgram:
    """Convenience builder coercing plain numbers to Fractions."""
    return LinearProgram(
        objective=tuple(Fraction(x) for x in objective),
        constraint_matrix=RMatrix.from_rows(rows),
        rhs=tuple(Fraction(x) for x in rhs),
    )


@dataclass(frozen=True)
class LPSolution:
    """status plus, when OPTIMAL: exact value, a primal optimum, the dual
    certificate (one weight per constraint) and the set of tight rows.
    pivots counts the simplex iterations of every phase and tableau."""

    status: str
    value: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    tight_set: frozenset[int] = frozenset()
    pivots: int = 0


def _eliminate(row: list[int], p: int, f: int, support) -> list[int]:
    """(p·row - f·R) / gcd(p, f) for p > 0, with R given by its nonzero
    entries (support: (index, entry) pairs), so zero entries of R cost
    one multiplication at most.  row is updated in place when its factor
    p / gcd(p, f) is 1."""
    g = gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    if p != 1:
        row = [p * a for a in row]
    for j, b in support:
        row[j] -= f * b
    return row


class _DualTableau:
    """Standard-form tableau of the dual  Aᵀu = -c, u >= 0: one column per
    constraint row of the LP, one equality row (with its artificial) per
    variable, negated where -c_j < 0 so the artificial starts basic.
    Integer rows are scaled through their basic entries, the objective row
    is priced out over the basis, and pivoting follows Dantzig's rule, with
    Bland's rule through runs of degenerate pivots."""

    def __init__(self, lp: LinearProgram):
        M, _, D = lp.integer_form
        n_u = len(M)
        self.nrows = n_eq = lp.constraint_matrix.cols
        self.width = n_u + n_eq + 1
        self.RHS = self.width - 1
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.sigma: list[int] = []
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
        self.on: list[int] = []
        self.oscale = 1
        self.bland = False
        self.stall = 0
        self.pivots = 0

    def set_objective(self, on: list[int], oscale: int) -> None:
        """Install the cost row on / oscale (oscale > 0) and price out the
        current basis."""
        self.on = on
        self.oscale = oscale
        self.bland = False
        self.stall = 0
        for r in range(self.nrows):
            if on[self.basis[r]] != 0:
                self._price_out(r, self.basis[r])

    def _price_out(self, r: int, c: int) -> None:
        """Clear the reduced cost of column c with row r, whose entry p at c
        is positive: on/oscale - (on[c]/oscale)(R/p) = (p·on - on[c]·R)/(p·oscale)."""
        R = self.rows[r]
        p = R[c]
        f = self.on[c]
        on = _eliminate(self.on, p, f, [(j, b) for j, b in enumerate(R) if b])
        scale = self.oscale * (p // gcd(p, f))  # the factor _eliminate applied
        g = gcd(gcd(*on), scale)
        if g > 1:
            on = [x // g for x in on]
            scale //= g
        self.on = on
        self.oscale = scale

    def _entering(self) -> int | None:
        on = self.on
        if self.bland:
            for j in range(self.width - 1):
                if on[j] < 0 and j not in self.forbidden:
                    return j
            return None
        best = None
        best_v = 0
        for j in range(self.width - 1):
            v = on[j]
            if v < best_v and j not in self.forbidden:
                best, best_v = j, v
        return best

    def _leaving(self, c: int) -> int | None:
        """Minimum ratio rhs / entry over positive entries of column c (the
        row factor cancels), ties to the lowest basic variable."""
        best = None
        best_num = best_den = 0
        best_var = -1
        RHS = self.RHS
        for i, row in enumerate(self.rows):
            a = row[c]
            if a > 0:
                num = row[RHS]
                if best is None:
                    take = True
                else:
                    lhs = num * best_den
                    rhs = best_num * a
                    take = lhs < rhs or (lhs == rhs and self.basis[i] < best_var)
                if take:
                    best, best_num, best_den, best_var = i, num, a, self.basis[i]
        return best

    def pivot(self, r: int, c: int) -> None:
        rows = self.rows
        R = rows[r]
        p = R[c]
        if p < 0:
            R = rows[r] = [-x for x in R]
            p = -p
        support = [(j, b) for j, b in enumerate(R) if b]
        for i in range(self.nrows):
            if i != r:
                row = rows[i]
                f = row[c]
                if f != 0:
                    rows[i] = primitive(_eliminate(row, p, f, support))
        if self.on[c] != 0:
            self._price_out(r, c)
        self.basis[r] = c

    def run(self) -> str:
        RHS = self.RHS
        while True:
            c = self._entering()
            if c is None:
                return OPTIMAL
            r = self._leaving(c)
            if r is None:
                return UNBOUNDED
            before_num, before_scale = self.on[RHS], self.oscale
            self.pivot(r, c)
            self.pivots += 1
            if self.pivots > _MAX_PIVOTS:
                raise InternalError("simplex pivot budget exhausted")
            if self.on[RHS] * before_scale == before_num * self.oscale:
                self.stall += 1
                if self.stall >= _STALL_SWITCH:
                    self.bland = True
            else:
                self.stall = 0
                self.bland = False

    def objective_value(self) -> Fraction:
        return -Fraction(self.on[self.RHS], self.oscale)

    def basic_value(self, r: int) -> Fraction:
        row = self.rows[r]
        return Fraction(row[self.RHS], row[self.basis[r]])

    def clear_artificials(self, real_cols: int) -> None:
        """Pivot basic artificials (all at zero) onto real columns when possible.

        A row whose real part vanished entirely is a redundant constraint;
        its artificial stays basic at zero and can never interfere again.
        """
        for r in range(self.nrows):
            if self.basis[r] >= real_cols:
                for c in range(real_cols):
                    if self.rows[r][c] != 0:
                        self.pivot(r, c)
                        break


def _run_dual(lp: LinearProgram) -> tuple[_DualTableau, str | None]:
    """Phase I and phase II on the dual of lp: the tableau and the status of
    phase II, or None when phase I finds the dual infeasible."""
    m, d = lp.constraint_matrix.rows, lp.constraint_matrix.cols
    tab = _DualTableau(lp)
    on = [0] * tab.width
    on[m:m + d] = [1] * d
    tab.set_objective(on, 1)
    if tab.run() != OPTIMAL:
        raise InternalError("phase I cannot be unbounded")
    if tab.objective_value() != 0:
        return tab, None
    tab.clear_artificials(m)
    _, beta, D = lp.integer_form
    tab.set_objective(beta + [0] * (d + 1), D)
    return tab, tab.run()


def solve(lp: LinearProgram) -> LPSolution:
    """Solve the LP; on OPTIMAL the returned certificate is exact and verified."""
    SOLVE_STATS["solves"] += 1
    m, d = lp.constraint_matrix.rows, lp.constraint_matrix.cols
    tab, status = _run_dual(lp)
    if status is None:
        # The dual is infeasible; the zero-objective LP tells infeasible
        # from unbounded (see the module docstring).
        check, status = _run_dual(LinearProgram((Fraction(0),) * d,
                                                lp.constraint_matrix, lp.rhs))
        return LPSolution(status=INFEASIBLE if status == UNBOUNDED else UNBOUNDED,
                          pivots=tab.pivots + check.pivots)
    if status == UNBOUNDED:
        return LPSolution(status=INFEASIBLE, pivots=tab.pivots)

    zero = Fraction(0)
    u = [zero] * m
    for r in range(tab.nrows):
        if tab.basis[r] < m:
            u[tab.basis[r]] = tab.basic_value(r)
    # Basis prices pi solve pi·B = c_B; the reduced cost of the artificial
    # of equality row j is -pi_j, and v_j = sigma_j·pi_j solves A_r·v = b_r
    # for every basic column r (and v_j = 0 for a basic artificial): the
    # unique primal optimum of this basis.
    primal = tuple(Fraction(-tab.sigma[j] * tab.on[m + j], tab.oscale)
                   for j in range(d))
    value = sum((cj * vj for cj, vj in zip(lp.objective, primal)), zero)
    return _finish(lp, value, primal, tuple(u), tab.pivots)


def _finish(lp: LinearProgram, value, primal, dual, pivots: int = 0) -> LPSolution:
    M, beta, _ = lp.integer_form
    x, x_den = over_denominator(primal)
    # A_i·v <= b_i  is  M_i·x <= beta_i·x_den  after scaling by D·x_den > 0.
    lhs = [int_dot(row, x) for row in M]
    tight = frozenset(i for i, (s, b) in enumerate(zip(lhs, beta)) if s == b * x_den)
    _verify_certificate(lp, value, primal, dual, lhs, tight)
    SOLVE_STATS["optimal"] += 1
    return LPSolution(status=OPTIMAL, value=value, primal=primal,
                      dual=dual, tight_set=tight, pivots=pivots)


def _verify_certificate(lp, value, primal, dual, lhs, tight) -> None:
    """Exact optimality verification: feasibility, dual feasibility,
    complementary slackness, the dual equation, strong duality and the
    primal value, all in integers over lp.integer_form.  lhs[i] is M_i·x
    for the primal cleared to x / x_den.  Failure means a solver bug,
    never a property of the input."""
    M, beta, D = lp.integer_form
    d = lp.constraint_matrix.cols
    x, x_den = over_denominator(primal)
    u, u_den = over_denominator(dual)
    c, c_den = over_denominator(lp.objective)
    for i in range(len(M)):
        if lhs[i] > beta[i] * x_den:
            raise InternalError(f"primal infeasibility on row {i}")
        if u[i] < 0:
            raise InternalError(f"negative dual weight on row {i}")
        if u[i] > 0 and i not in tight:
            raise InternalError(f"complementary slackness broken on row {i}")
    # Aᵀu = -c  is  c_den·Σ u_i M_ij = -c_j·D·u_den; only the support of u counts.
    support = [i for i in range(len(M)) if u[i]]
    for j in range(d):
        if c_den * sum(u[i] * M[i][j] for i in support) != -c[j] * D * u_den:
            raise InternalError(f"dual equation broken in column {j}")
    v_num, v_den = value.numerator, value.denominator
    if v_den * int_dot(u, beta) != -v_num * D * u_den:
        raise InternalError("strong duality violated")
    if v_den * int_dot(c, x) != v_num * c_den * x_den:
        raise InternalError("primal value mismatch")
    SOLVE_STATS["duality_verified"] += 1
