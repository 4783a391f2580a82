"""Exact rational simplex for  minimize c·v  subject to  A·v <= b,  v free.

Free variables are split v = v+ - v-; rows with negative right-hand side
get artificial variables and a phase-I solve.  Entering columns follow
Dantzig's rule (most negative reduced cost, ties to the lowest index)
until a run of degenerate pivots is detected, after which the solver
switches permanently to Bland's rule, which guarantees termination.  The
dual vector is read off the final reduced-cost row under the slack
columns, giving an exact complementary-slackness certificate; every
optimal solve is re-verified against the strong-duality identities
before it is returned.

Wide systems (many constraints over few variables, the shape of the
operator-norm grids) are automatically solved through the dual in
standard form instead: one equality row per original variable, one
nonnegative column per original constraint.  The basis then has d+1
entries instead of one per row, and the primal optimum is recovered from
the exact basis prices.  Both paths produce the same certificate format
and run the same verification.

Sign convention for certificates: on OPTIMAL, the dual u satisfies
u >= 0, Aᵀu = -c and u·b = -value (the standard dual of the
minimization form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import InternalError
from .linalg import RMatrix, dot, solve_linear

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

# Consecutive degenerate pivots tolerated before switching to Bland's rule.
_STALL_SWITCH = 24
_MAX_PIVOTS = 500_000
# Constraint/variable ratio beyond which the dual path takes over.
_DUAL_PATH_RATIO = 3

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
    certificate (one weight per constraint) and the set of tight rows."""

    status: str
    value: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    tight_set: frozenset[int] = frozenset()


# A tableau row is a pair of equal-length lists of Python ints (numerators
# and denominators) kept in lowest terms with positive denominators; a zero
# entry is stored as 0/1.  These two in-place operations are the entire
# inner loop of the simplex, so they are written against plain ints
# instead of Fraction objects.

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


class _PivotCore:
    """Shared full-tableau machinery: rows as parallel num/den lists, an
    objective row priced out over the basis, Dantzig-then-Bland pivoting."""

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


class _Tableau(_PivotCore):
    """Inequality-form tableau: columns are the split variables, one slack
    per row, artificials where the normalized right-hand side was negative."""

    def __init__(self, lp: LinearProgram):
        A = lp.constraint_matrix
        self.lp = lp
        self.m = m = A.rows
        self.d = d = A.cols
        sigma = [1 if lp.rhs[i] >= 0 else -1 for i in range(m)]
        self.sigma = sigma
        art_rows = [i for i in range(m) if sigma[i] < 0]
        self.art_cols = {row: 2 * d + m + idx for idx, row in enumerate(art_rows)}
        self._init_core(m, 2 * d + m + len(art_rows) + 1)
        for i in range(m):
            rn = [0] * self.width
            rd = [1] * self.width
            s = sigma[i]
            for j in range(d):
                a = A.at(i, j)
                if a:
                    num = a.numerator if s > 0 else -a.numerator
                    rn[j] = num
                    rd[j] = a.denominator
                    rn[d + j] = -num
                    rd[d + j] = a.denominator
            rn[2 * d + i] = s
            b = lp.rhs[i] if s > 0 else -lp.rhs[i]
            rn[self.RHS] = b.numerator
            rd[self.RHS] = b.denominator
            self.rows_n.append(rn)
            self.rows_d.append(rd)
            self.basis.append(2 * d + i if s > 0 else self.art_cols[i])
        # Artificial columns never (re-)enter the basis; sound because any
        # feasible point extends with all artificials at zero.
        self.forbidden = frozenset(self.art_cols.values())


class _StdTableau(_PivotCore):
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


def solve(lp: LinearProgram, method: str | None = None) -> LPSolution:
    """Solve the LP; on OPTIMAL the returned certificate is exact and verified.

    method picks the tableau shape: "rows" (inequality form), "dual"
    (standard form over the dual) or None to choose by aspect ratio.
    Results are identical either way.
    """
    SOLVE_STATS["solves"] += 1
    if method is None:
        wide = lp.constraint_matrix.rows >= _DUAL_PATH_RATIO * (lp.constraint_matrix.cols + 2)
        method = "dual" if wide else "rows"
    if method == "dual":
        return _solve_via_dual(lp)
    if method != "rows":
        raise ValueError(f"unknown method {method!r}")
    return _solve_rows(lp)


def _solve_rows(lp: LinearProgram) -> LPSolution:
    tab = _Tableau(lp)
    m, d = tab.m, tab.d

    if tab.art_cols:
        tab.set_objective({col: Fraction(1) for col in tab.art_cols.values()})
        status = tab.run()
        if status != OPTIMAL:
            raise InternalError("phase I cannot be unbounded")
        if tab.objective_value() != 0:
            return LPSolution(status=INFEASIBLE)
        tab.clear_artificials(2 * d + m)

    costs: dict[int, Fraction] = {}
    for j, cj in enumerate(lp.objective):
        if cj:
            costs[j] = cj
            costs[d + j] = -cj
    tab.set_objective(costs)
    status = tab.run()
    if status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED)

    basic_value: dict[int, Fraction] = {}
    for r in range(m):
        basic_value[tab.basis[r]] = Fraction(tab.rows_n[r][tab.RHS],
                                             tab.rows_d[r][tab.RHS])
    zero = Fraction(0)
    primal = tuple(basic_value.get(j, zero) - basic_value.get(d + j, zero)
                   for j in range(d))
    value = tab.objective_value()
    dual = tuple(Fraction(tab.on[2 * d + i], tab.od[2 * d + i]) for i in range(m))
    return _finish(lp, value, primal, dual)


def _solve_via_dual(lp: LinearProgram) -> LPSolution:
    """Wide-system path: solve  min b·u, Aᵀu = -c, u >= 0  and recover the
    primal optimum from the exact prices of the final basis."""
    A = lp.constraint_matrix
    m, d = A.rows, A.cols
    columns = [A.row(r) for r in range(m)]
    rhs_eq = [-cj for cj in lp.objective]
    tab = _StdTableau(columns, rhs_eq)

    tab.set_objective({col: Fraction(1) for col in range(tab.n_u, tab.n_u + d)})
    if tab.run() != OPTIMAL:
        raise InternalError("phase I cannot be unbounded")
    if tab.objective_value() != 0:
        # Dual infeasible: the original is unbounded or infeasible; the
        # inequality path tells which.  Rare, and never hit by norm grids.
        return _solve_rows(lp)
    tab.clear_artificials(tab.n_u)

    tab.set_objective({r: lp.rhs[r] for r in range(m) if lp.rhs[r]})
    if tab.run() == UNBOUNDED:
        return LPSolution(status=INFEASIBLE)

    zero = Fraction(0)
    u = [zero] * m
    price_rows = []
    price_rhs = []
    for r in range(tab.nrows):
        var = tab.basis[r]
        if var < m:
            u[var] = Fraction(tab.rows_n[r][tab.RHS], tab.rows_d[r][tab.RHS])
            price_rows.append(columns[var])
            price_rhs.append(lp.rhs[var])
        else:
            unit = [zero] * d
            unit[var - m] = Fraction(tab.sigma[var - m])
            price_rows.append(tuple(unit))
            price_rhs.append(zero)
    y = solve_linear(RMatrix.from_rows(price_rows), price_rhs)
    if y is None:
        raise InternalError("singular optimal basis")
    primal = tuple(y)
    value = dot(lp.objective, primal)
    return _finish(lp, value, primal, tuple(u))


def _finish(lp: LinearProgram, value, primal, dual) -> LPSolution:
    A = lp.constraint_matrix
    m = A.rows
    row_values = [dot(A.row(i), primal) for i in range(m)]
    tight = frozenset(i for i in range(m) if row_values[i] == lp.rhs[i])
    _verify_certificate(lp, value, primal, dual, row_values, tight)
    SOLVE_STATS["optimal"] += 1
    return LPSolution(status=OPTIMAL, value=value, primal=primal,
                      dual=dual, tight_set=tight)


def _verify_certificate(lp, value, primal, dual, row_values, tight) -> None:
    """Exact optimality verification: feasibility, dual feasibility,
    strong duality and complementary slackness.  Failure means a solver
    bug, never a property of the input."""
    m = lp.constraint_matrix.rows
    d = lp.constraint_matrix.cols
    for i in range(m):
        if row_values[i] > lp.rhs[i]:
            raise InternalError(f"primal infeasibility on row {i}")
        if dual[i] < 0:
            raise InternalError(f"negative dual weight on row {i}")
        if dual[i] > 0 and i not in tight:
            raise InternalError(f"complementary slackness broken on row {i}")
    A = lp.constraint_matrix
    for j in range(d):
        lhs = sum((dual[i] * A.at(i, j) for i in range(m)), Fraction(0))
        if lhs != -lp.objective[j]:
            raise InternalError(f"dual equation broken in column {j}")
    if dot(dual, lp.rhs) != -value:
        raise InternalError("strong duality violated")
    if dot(lp.objective, primal) != value:
        raise InternalError("primal value mismatch")
    SOLVE_STATS["duality_verified"] += 1

