"""The LP layer is the load-bearing wall: everything above it trusts the
returned optima and certificates.  Alongside the fixed examples, random
instances are compared against a brute-force vertex-enumeration oracle.
The integer tableau is compared with the rational one it replaced (kept
in ``oracles.py``): optimal solutions pivot for pivot, and every status
(optimal, infeasible, unbounded) against the inequality-form tableau
there.  With Bland's rule forced after one degenerate pivot, the
integer tableau leaves it again on progress and still agrees with the
rational tableaux, which keep it, in status and value.  The rational
tableau's two row operations are checked against
Fraction arithmetic, on small entries and on entries far beyond machine
words.  Each of the six verification identities is shown to reject a
certificate that breaks it, also under ``python -O``.
"""

import itertools
from collections import Counter
import subprocess
import sys
from fractions import Fraction

import pytest

from minproj import simplex
from minproj.errors import InternalError
from minproj.linalg import RMatrix, dot, int_dot, solve_linear
from minproj.simplex import (INFEASIBLE, OPTIMAL, SOLVE_STATS, UNBOUNDED,
                             _finish, _verify_certificate, solve)
from oracles import (lp_rhs, make_lp, row_axpy, scale_row,
                     solve_by_fraction_tableau, solve_on_face)

F = Fraction


def _check_certificate(lp, sol):
    """Independent re-derivation of the optimality proof from the solution."""
    A, b, c = lp.constraint_matrix, lp_rhs(lp), lp.objective
    m = A.rows
    for i in range(m):
        assert dot(A.row(i), sol.primal) <= b[i]
        assert sol.dual[i] >= 0
    for j in range(A.cols):
        assert sum(sol.dual[i] * A.at(i, j) for i in range(m)) == -c[j]
    assert dot(sol.dual, b) == -sol.value
    assert dot(c, sol.primal) == sol.value


def test_box_minimum():
    lp = make_lp([1, 1], [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == -2
    assert sol.primal == (F(-1), F(-1))
    assert sol.tight_set == frozenset({1, 3})
    _check_certificate(lp, sol)


def test_infeasible():
    lp = make_lp([1], [[1], [-1]], [-1, -2])
    assert solve(lp).status == INFEASIBLE


def test_unbounded():
    lp = make_lp([1], [[1]], [1])
    assert solve(lp).status == UNBOUNDED


def test_degenerate_overdetermined_corner():
    # Several redundant hyperplanes through the same optimal corner.
    rows = [[-1, 0], [0, -1], [-1, -1], [-2, -1], [-1, -2], [1, 1]]
    lp = make_lp([1, 1], rows, [0, 0, 0, 0, 0, 5])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == 0
    assert sol.primal == (F(0), F(0))
    _check_certificate(lp, sol)


def _lcg_stream(seed):
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


def _random_bounded_lp(seed, d, extra_rows):
    g = _lcg_stream(seed)
    rows = []
    rhs = []
    for j in range(d):            # a box keeps every instance bounded
        e = [0] * d
        e[j] = 1
        rows.append(list(e))
        rhs.append(4)
        rows.append([-x for x in e])
        rhs.append(4)
    for _ in range(extra_rows):
        rows.append([next(g) % 7 - 3 for _ in range(d)])
        rhs.append(next(g) % 6)   # zero is feasible
    c = [next(g) % 9 - 4 for _ in range(d)]
    return make_lp(c, rows, rhs)


def _vertex_enumeration_minimum(lp):
    A, b, c = lp.constraint_matrix, lp_rhs(lp), lp.objective
    m, d = A.rows, A.cols
    best = None
    for subset in itertools.combinations(range(m), d):
        sub = RMatrix.from_rows([A.row(i) for i in subset])
        x = solve_linear(sub, [b[i] for i in subset])
        if x is None:
            continue
        if all(dot(A.row(i), x) <= b[i] for i in range(m)):
            v = dot(c, x)
            if best is None or v < best:
                best = v
    return best


@pytest.mark.parametrize("d", [2, 3])
def test_random_lps_match_vertex_oracle(d):
    for seed in range(15):
        lp = _random_bounded_lp(1000 * d + seed, d, 5)
        sol = solve(lp)
        assert sol.status == OPTIMAL
        _check_certificate(lp, sol)
        assert sol.value == _vertex_enumeration_minimum(lp)


def test_row_permutation_invariance():
    lp = _random_bounded_lp(7, 3, 6)
    base = solve(lp)
    order = list(range(0, 12, 2)) + list(range(1, 12, 2))
    permuted = make_lp(
        lp.objective,
        [lp.constraint_matrix.row(i) for i in order],
        [lp_rhs(lp)[i] for i in order])
    other = solve(permuted)
    assert other.value == base.value
    assert {order[i] for i in other.tight_set} == set(base.tight_set)


def test_solve_on_face():
    lp = make_lp([1, 0], [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    first = solve(lp)
    assert first.value == -1          # the whole edge x = -1 is optimal
    sub = solve_on_face(lp, first.value, [0, 1])
    assert sub.status == OPTIMAL
    assert sub.primal == (F(-1), F(-1))
    sub2 = solve_on_face(lp, first.value, [0, -1])
    assert sub2.primal == (F(-1), F(1))
    off = solve_on_face(lp, F(-2), [0, 1])
    assert off.status == INFEASIBLE


def test_stats_count_verified_solves():
    before = dict(SOLVE_STATS)
    solve(make_lp([1], [[1], [-1]], [2, 0]))
    after = dict(SOLVE_STATS)
    assert after["solves"] == before["solves"] + 1
    assert after["optimal"] == before["optimal"] + 1
    assert after["duality_verified"] == before["duality_verified"] + 1


def _random_lp(seed, m, d):
    """Small integer entries, right-hand sides and costs of both signs:
    infeasible, unbounded and optimal instances all occur."""
    g = _lcg_stream(seed)
    rows = [[next(g) % 7 - 3 for _ in range(d)] for _ in range(m)]
    rhs = [next(g) % 7 - 3 for _ in range(m)]
    c = [next(g) % 7 - 3 for _ in range(d)]
    return make_lp(c, rows, rhs)


def _random_feasible_lp(seed, m, d):
    """Zero is feasible, and raising the last variable keeps every row
    feasible: optimal or unbounded, as the costs decide."""
    g = _lcg_stream(seed)
    rows = [[next(g) % 7 - 3 for _ in range(d - 1)] + [-(next(g) % 4)] for _ in range(m)]
    rhs = [next(g) % 6 for _ in range(m)]
    c = [next(g) % 7 - 3 for _ in range(d)]
    return make_lp(c, rows, rhs)


def _oracle_lps():
    """Narrow (fewer than 3(d + 2) rows) and wide LPs, each kind with
    optimal, infeasible and unbounded instances."""
    lps = [_random_bounded_lp(1000 * d + seed, d, 5) for d in (2, 3) for seed in range(15)]
    lps += [_random_bounded_lp(seed, 2, 6) for seed in range(12)]
    lps += [_random_bounded_lp(5000 + 100 * d + seed, d, 14) for d in (2, 3) for seed in range(8)]
    lps += [_random_lp(100 * m + 10 * d + seed, m, d)
            for m in (1, 2, 3, 5, 7, 12) for d in (1, 2, 3) for seed in range(8)]
    lps += [_random_feasible_lp(7000 + 100 * m + 10 * d + seed, m, d)
            for m in (12, 16) for d in (2, 3) for seed in range(8)]
    lps += [
        make_lp([1, 1], [[-1, 0], [0, -1], [-1, -1], [-2, -1], [-1, -2], [1, 1]],
                [0, 0, 0, 0, 0, 5]),
        make_lp([1], [[1], [-1]], [-1, -2]),
        make_lp([1], [[1]], [1]),
        make_lp([F(1, 3), F(-2, 7)], [[F(1, 2), F(5, 3)], [F(-3, 4), 1], [0, F(-1, 9)]],
                [F(7, 5), F(2, 3), F(1, 6)]),
    ]
    return lps


def test_integer_tableau_matches_fraction_tableau_on_random_lps():
    # every status and optimal value equal those of the rational
    # inequality-form tableau, which decides them independently; an optimal
    # solution equals the rational dual tableau's whole: value, primal,
    # dual, tight set and pivot count
    seen = Counter()
    for lp in _oracle_lps():
        sol = solve(lp)
        rows = solve_by_fraction_tableau(lp, method="rows")
        assert sol.status == rows.status
        if sol.status == OPTIMAL:
            assert sol.value == rows.value
            assert sol == solve_by_fraction_tableau(lp)
            _check_certificate(lp, sol)
        A = lp.constraint_matrix
        seen[sol.status, A.rows >= 3 * (A.cols + 2)] += 1
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


def test_bland_mode_keeps_the_oracle_status_and_value(monkeypatch):
    # With one degenerate pivot enough to switch to Bland's rule, the
    # integer tableau switches back at every strict improvement, and every
    # new objective starts with Dantzig's rule, while the rational tableaux
    # keep their own threshold and stay with Bland's rule once they switch;
    # statuses and optimal values still agree
    seen = set()
    entering = simplex._DualTableau._entering
    set_objective = simplex._DualTableau.set_objective

    def spy_entering(tab):
        if tab.bland:
            seen.add("entered")
            tab.was_bland = True
        elif getattr(tab, "was_bland", False):
            seen.add("left")
        return entering(tab)

    def spy_set_objective(tab, on, oscale):
        set_objective(tab, on, oscale)
        assert not tab.bland and tab.stall == 0
        tab.was_bland = False

    monkeypatch.setattr(simplex, "_STALL_SWITCH", 1)
    monkeypatch.setattr(simplex._DualTableau, "_entering", spy_entering)
    monkeypatch.setattr(simplex._DualTableau, "set_objective", spy_set_objective)
    modes = Counter()
    for lp in _oracle_lps():
        seen.clear()
        sol = solve(lp)
        for method in ("dual", "rows"):
            other = solve_by_fraction_tableau(lp, method=method)
            assert (sol.status, sol.value) == (other.status, other.value)
        if sol.status == OPTIMAL:
            _check_certificate(lp, sol)
        modes.update(seen)
    assert modes["entered"] >= 10 and modes["left"] >= 10, modes


def _finish_lp():
    """min x1  s.t.  x1 <= 1, -x1 <= 0, x2 <= 1, -x2 <= 0: value 0, attained
    on the edge x1 = 0, with the dual weight 1 on row 1."""
    return make_lp([1, 0], [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])


@pytest.mark.parametrize("primal, dual, value, message", [
    ((F(2), F(0)), (0, 1, 0, 0), 0, "primal infeasibility on row 0"),
    ((F(0), F(0)), (0, 1, 0, -1), 0, "negative dual weight on row 3"),
    ((F(1, 2), F(0)), (0, 1, 0, 0), 0, "complementary slackness broken on row 1"),
    ((F(0), F(0)), (0, 2, 0, 0), 0, "dual equation broken in column 0"),
    ((F(0), F(0)), (0, 1, 0, 0), 1, "strong duality violated"),
])
def test_finish_rejects_each_broken_identity(primal, dual, value, message):
    lp = _finish_lp()
    assert _finish(lp, F(0), (F(0), F(1, 2)), (F(0), F(1), F(0), F(0))).status == OPTIMAL
    with pytest.raises(InternalError) as info:
        _finish(lp, F(value), primal, tuple(F(u) for u in dual))
    assert str(info.value) == message


def test_primal_value_check_is_live():
    # The primal value follows from the five checks before it, so only a
    # forged tight set reaches it: x1 = 1/2 claimed tight on row 1.
    lp = _finish_lp()
    primal = (F(1, 2), F(0))
    lhs = [int_dot(row, [1, 0]) for row in lp.matrix]
    with pytest.raises(InternalError, match="^primal value mismatch$"):
        _verify_certificate(lp, F(0), primal, (F(0), F(1), F(0), F(0)), lhs,
                            frozenset({1, 3}))


def test_finish_checks_survive_python_O():
    code = ("from fractions import Fraction as F\n"
            "from minproj.errors import InternalError\n"
            "from minproj.simplex import LinearProgram, _finish\n"
            "lp = LinearProgram((1, 0), ((1, 0), (-1, 0), (0, 1), (0, -1)),\n"
            "                   (1, 0, 1, 0), 1)\n"
            "try:\n"
            "    _finish(lp, F(1), (F(0), F(0)), (F(0), F(1), F(0), F(0)))\n"
            "except InternalError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "strong duality violated\n"


def _random_row(seed, length, bound):
    """Numerators and denominators of rationals p/q in lowest terms with
    |p| <= bound and 1 <= q <= bound."""
    state = seed
    num, den = [], []
    for _ in range(length):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        p = state % (2 * bound + 1) - bound
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        q = state % bound + 1
        f = F(p, q)
        num.append(f.numerator)
        den.append(f.denominator)
    return num, den


def _as_fractions(num, den):
    return [F(n, d) for n, d in zip(num, den)]


def _lowest_terms(values):
    return [v.numerator for v in values], [v.denominator for v in values]


def test_scale_row_matches_fraction():
    for seed in range(20):
        for bound in (7, 10**6, 2**40):
            num, den = _random_row(seed, 9, bound)
            expected = [v * F(-3, 7) for v in _as_fractions(num, den)]
            scale_row(num, den, -3, 7)
            assert (num, den) == _lowest_terms(expected)
            assert all(d > 0 for d in den)


def test_row_axpy_matches_fraction():
    for seed in range(20):
        for bound in (7, 10**6, 2**40):
            dn, dd = _random_row(seed, 9, bound)
            sn, sd = _random_row(seed + 1000, 9, bound)
            expected = [a - F(5, 3) * b for a, b in
                        zip(_as_fractions(dn, dd), _as_fractions(sn, sd))]
            row_axpy(dn, dd, sn, sd, 5, 3)
            assert (dn, dd) == _lowest_terms(expected)
            assert all(d > 0 for d in dd)


def test_axpy_zero_factor_is_noop():
    dn, dd = [1, -2, 0], [2, 3, 1]
    row_axpy(dn, dd, [5, 5, 5], [1, 1, 1], 0, 1)
    assert (dn, dd) == ([1, -2, 0], [2, 3, 1])


def test_cancellation_to_zero_normalizes():
    dn, dd = [3], [4]
    row_axpy(dn, dd, [3], [4], 1, 1)
    assert (dn, dd) == ([0], [1])
