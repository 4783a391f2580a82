"""The LP layer is the load-bearing wall: everything above it trusts the
returned optima and certificates.  Alongside the fixed examples, random
instances are compared against a brute-force vertex-enumeration oracle.
The revised dual simplex is compared with the full integer tableau it
replaced (kept in ``oracles.py``, with the same lexicographic ratio
test): the whole LPSolution, pivot count included, on random integer LPs
of every status, and on the lambda LPs of the l-inf^6 hyperplane and the
l1^5 2-plane of the benchmark.  The solver
reads an LP through six names alone (objective, beta, denominator, row,
row_values, entering): an LP that has only those solves as the
LinearProgram behind it.  The pair grid, the lambda LP, which costs one
row of each partner pair when it picks the entering column and reads
its rows through its rank-one factors, is compared with the dense LP
over every formed row (``oracles.dense_grid_lp``), pivot for pivot,
also on the three n = 6 shapes of the certify benchmark,
and its entering column is pinned on exact ties; it pairs its rows by
the space's dual_negation.  A solve started at a guessed basis keeps
the cold solve's value, and its primal where that is unique, on the
catalog's and seeded n = 4 to 6 lambda LPs; a start with dependent
columns, a negative weight or a point off the dual equation, and the
empty start, give the cold LPSolution, pivots included; and the l-inf^6
hyperplane started at its certificate runs no phase I.  It is also
compared with the rational tableau before that, which keeps the pivot
rules the solver had before its lexicographic ratio test (ratio ties to
the lowest basic variable, and Bland's rule after a run of degenerate
pivots): every status and optimal value, against its dual tableau and
its inequality-form tableau, also on random LPs whose ratio tests tie.
Beale's cycling example, started at its slack basis, ends optimal in 5
pivots, and cycles under the old rules with their switch to Bland's rule
disabled until the pivot budget runs out.  At every round, on those LPs
and on Beale's, each row's (rhs, entries in the columns of the phase's
starting basis) stays lexicographically positive, the invariant that
keeps a basis from repeating.  The rational
tableau's two row operations are checked against
Fraction arithmetic, on small entries and on entries far beyond machine
words.  Each of the six verification identities is shown to reject a
certificate that breaks it, also under ``python -O``.
"""

import itertools
import random
from collections import Counter
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minproj import simplex
from minproj.catalog import l1_ball, linf_ball, random_subspace
from minproj.certificates import cm_from_dual
from minproj.errors import InternalError
from minproj.geometry import Subspace
from minproj.linalg import RMatrix, int_dot, solve_linear
from minproj.projections import (build_operator_basis, build_pair_grid,
                                 face_dimension, projection_constant)
from minproj.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                             _finish, _verify_certificate, solve)
import oracles
from oracles import (dense_grid_lp, dot, fraction_phase_two, grid_rows, lp_rhs, make_lp,
                     row_axpy, rref_by_fractions, scale_row, solve_by_fraction_tableau,
                     solve_by_full_tableau, solve_on_face)

F = Fraction


def _check_certificate(lp, sol):
    """Independent re-derivation of the optimality proof from the solution."""
    A, b, c = lp.constraint_matrix, lp_rhs(lp), lp.objective
    m = A.rows
    for i in range(m):
        assert dot(A.row(i), sol.primal) <= b[i]
        assert sol.dual[i] >= 0
    for j in range(A.cols):
        assert sum(sol.dual[i] * A.row(i)[j] for i in range(m)) == -c[j]
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
    # inequality-form tableau, which decides them independently, and an
    # optimal value that of the rational dual tableau, whose ratio ties
    # go to the lowest basic variable; every solution equals the full
    # integer tableau's whole: value, primal, dual, tight set and pivot
    # count
    seen = Counter()
    for lp in _oracle_lps():
        sol = solve(lp)
        assert sol == solve_by_full_tableau(lp)
        rows = solve_by_fraction_tableau(lp, method="rows")
        assert sol.status == rows.status
        if sol.status == OPTIMAL:
            assert sol.value == rows.value == solve_by_fraction_tableau(lp).value
            _check_certificate(lp, sol)
        A = lp.constraint_matrix
        seen[sol.status, A.rows >= 3 * (A.cols + 2)] += 1
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


@st.composite
def integer_lps(draw):
    """Up to 10 rows over up to 4 variables: small integer rows and
    right-hand sides over a denominator of 1 to 3, and costs of both signs
    with small denominators, so optimal, infeasible and unbounded LPs
    all occur."""
    m = draw(st.integers(1, 10))
    d = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    return LinearProgram(
        objective=tuple(draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                                      min_size=d, max_size=d))),
        matrix=tuple(tuple(draw(st.lists(entries, min_size=d, max_size=d)))
                     for _ in range(m)),
        beta=tuple(draw(st.lists(entries, min_size=m, max_size=m))),
        denominator=draw(st.integers(1, 3)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lp=integer_lps())
def test_revised_dual_matches_full_tableau(lp):
    # the same LPSolution, status, value, primal, dual, tight set and
    # pivot count
    assert solve(lp) == solve_by_full_tableau(lp)


@st.composite
def degenerate_lps(draw):
    """LPs of integer_lps whose costs are mostly 0, so the dual's
    right-hand sides are mostly 0 and its ratio tests tie."""
    lp = draw(integer_lps())
    costs = st.sampled_from((0, 0, 0, 1, -1, F(1, 2)))
    return replace(lp, objective=tuple(draw(costs) for _ in lp.objective))


def test_lexicographic_rule_keeps_the_old_rules_status_and_value():
    # on random LPs whose ratio tests tie, the solver and the rational
    # dual tableau of the old rules (ties to the lowest basic variable,
    # Bland's rule after a run of degenerate pivots) reach the same
    # status and value, and the solver's optimum verifies; the ties are
    # counted off the solver's ratio tests
    tied = Counter()
    least_ratios = simplex._least_ratios

    def spy(rows, nums, dens):
        least = least_ratios(rows, nums, dens)
        tied["ratio ties"] += len(least) > 1
        return least

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lp=degenerate_lps())
    def check(lp):
        before = tied["ratio ties"]
        sol = solve(lp)
        tied["LPs"] += tied["ratio ties"] > before
        for method in ("dual", "rows"):
            other = solve_by_fraction_tableau(lp, method=method)
            assert (sol.status, sol.value) == (other.status, other.value)
        if sol.status == OPTIMAL:
            _check_certificate(lp, sol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_least_ratios", spy)
        check()
    assert tied["LPs"] >= 100, tied


# Beale's cycling example (Naval Res. Logist. Q. 2, 1955) as the dual of
# this LP: minimize -3/4 u3 + 20 u4 - 1/2 u5 + 6 u6 over u >= 0 with rows
# 0, 1, 2 its slacks.  From the slack basis, Dantzig's rule with ratio
# ties to the lowest basic variable cycles.
_BEALE = LinearProgram(
    objective=(0, 0, -1),
    matrix=((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 2, 0), (-32, -48, 0), (-4, -2, 4),
            (36, 12, 0)),
    beta=(0, 0, 0, -3, 80, -2, 24), denominator=4)


def test_beale_example_ends_optimal_from_its_slack_basis():
    sol = solve(_BEALE, (0, 1, 2))
    assert (sol.status, sol.value) == (OPTIMAL, F(5, 4))
    assert sol.pivots <= 5
    _check_certificate(_BEALE, sol)


def test_beale_example_cycles_under_the_old_rules_without_their_switch(monkeypatch):
    # the old rules end it only through their switch to Bland's rule;
    # with the switch past the pivot budget they run the budget out
    tab, status = fraction_phase_two(_BEALE, (0, 1, 2))
    assert (status, tab.objective_value()) == (OPTIMAL, F(-5, 4))
    monkeypatch.setattr(oracles, "_STALL_SWITCH", oracles._MAX_PIVOTS + 1)
    with pytest.raises(InternalError, match="^simplex pivot budget exhausted$"):
        fraction_phase_two(_BEALE, (0, 1, 2))


@pytest.mark.parametrize("rows, nums, least", [
    # 1/2 = 2/4 ties, and ties keep the order given
    ([0, 1, 2], [1, 2, 3], [0, 1]),
    # -1/2 < 0/1 < 3/1: a negative numerator is least
    ([2, 1, 0], [3, 0, -1], [0]),
    # one row
    ([1], [7], [1]),
])
def test_least_ratios_compares_by_cross_products(rows, nums, least):
    # dens is indexed by row, as the entering column's entries are
    dens = [2, 4, 1]
    assert simplex._least_ratios(rows, nums, dens) == least


def _lex_keys(tab):
    """Each row's (rhs, entries in the columns of start), on its row's
    scale: an artificial's entry is its own, a real column's one dot
    product."""
    return [[row[-1]] + [row[b - tab.m] if b >= tab.m else int_dot(row, tab._real_column(b))
                         for b in tab.start] for row in tab.rows]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lp=degenerate_lps())
def test_rows_stay_lexicographically_positive(lp):
    # the invariant the lexicographic ratio test keeps: at every round of
    # either phase, each row's (rhs, entries in the columns of B0) has a
    # positive first nonzero entry, so no basis repeats; also from
    # Beale's slack basis
    rounds = Counter()
    entering = simplex._RevisedDual._entering

    def checked(tab):
        for key in _lex_keys(tab):
            assert next(x for x in key if x) > 0, key
        rounds["checked"] += 1
        return entering(tab)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._RevisedDual, "_entering", checked)
        sol = solve(lp)
        assert solve(_BEALE, (0, 1, 2)).value == F(5, 4)
    assert rounds["checked"] > sol.pivots


@pytest.mark.parametrize("ball, n, k, shape", [
    (linf_ball, 6, 5, (384, 6)),
    (l1_ball, 5, 2, (160, 7)),
])
def test_benchmark_lambda_lps_match_full_tableau(ball, n, k, shape):
    # the lambda LPs of the l-inf^6 hyperplane and the l1^5 2-plane at the
    # benchmark's generator seed, the grid's factored LP exactly as the
    # full tableau solves its dense oracle LP
    space = ball(n)
    Y = random_subspace(n, k, 7)
    grid = build_pair_grid(space, build_operator_basis(space, Y))
    lp = dense_grid_lp(grid)
    assert (len(lp.matrix), len(lp.objective)) == shape
    assert len(grid.g_at) * len(grid.negation) == shape[0]
    sol = solve(grid)
    assert sol.status == OPTIMAL
    assert sol == solve_by_full_tableau(lp)


def _seeded_grid(ball, n, k, seed):
    space = ball(n)
    return build_pair_grid(space, build_operator_basis(space, random_subspace(n, k, seed)))


@pytest.mark.parametrize("ball, k, lam_is_one", [
    (linf_ball, 5, True),
    (l1_ball, 5, False),
    (l1_ball, 2, False),
])
def test_n6_lambda_lps_match_the_dense_oracle(ball, k, lam_is_one):
    # the three n = 6 shapes of the certify benchmark at generator seed 7:
    # the folded, factored grid gives the LPSolution of its dense oracle
    # LP, which prices every row, pivots included; the l-inf hyperplane
    # has lambda = 1
    grid = _seeded_grid(ball, 6, k, 7)
    sol = solve(grid)
    assert sol == solve(dense_grid_lp(grid))
    assert (sol.value == 1) == lam_is_one


def test_grid_pairs_its_rows_by_the_space():
    # the grid keeps the space's primal representatives and pairs its dual
    # vertices by the space's dual_negation: f_at negates at each
    # partner, and partner rows have bases that add up to 0 in every block;
    # rows_of finds the row of every pair
    for ball in (linf_ball, l1_ball):
        space = ball(3)
        grid = build_pair_grid(space, build_operator_basis(space, random_subspace(3, 2, 7)))
        neg, nd = grid.negation, len(grid.negation)
        assert neg is space.dual_negation
        assert tuple(grid.g_at) == space.primal_reps
        assert all(grid.f_at[neg[j]] == tuple(-a for a in grid.f_at[j]) for j in range(nd))
        assert all(grid.base_num[r] + grid.base_num[r - r % nd + neg[r % nd]] == 0
                   for r in range(len(grid.pairs)))
        # every pair's row is its own or its antipodal class's
        negp = space.primal_negation
        pairs = list(itertools.product(range(len(negp)), range(nd)))
        assert [grid.pairs[r] for r in grid.rows_of(pairs, negp)] == [
            (i, j) if i in grid.g_at else (negp[i], neg[j]) for i, j in pairs]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(ball=st.sampled_from([linf_ball, l1_ball]), n=st.integers(3, 6),
       k_index=st.integers(0, 4), seed=st.integers(0, 99))
def test_folded_pricing_keeps_every_pivot(ball, n, k_index, seed):
    # costing one row of each partner pair through the grid's factors
    # gives the LPSolution of costing every formed row, pivots included;
    # each row's partner, the row of the negated dual vertex in its
    # block, is its negation in the coefficients and the base
    grid = _seeded_grid(ball, n, 1 + k_index % (n - 1), seed)
    nd = len(grid.negation)
    rows = grid_rows(grid)
    assert all(rows[p] == tuple(-a for a in rows[r])
               and grid.base_num[p] == -grid.base_num[r]
               for r, p in ((r, r - r % nd + grid.negation[r % nd])
                            for r in range(len(grid.pairs))))
    assert solve(grid) == solve(dense_grid_lp(grid))


@pytest.mark.parametrize("basis, w, bf, dantzig", [
    # every row costs -D·w_t = -2: a tie of all eight rows
    ((1, 2), (0, 1), 0, 0),
    # every row costs +2: an optimum
    ((1, 2), (0, -1), 0, None),
    # costs (-1, 1, -2, 2, 1, -1, 2, -2): representative 2 ties with partner 7
    ((1, 2), (0, 0), 1, 2),
    # costs (1, -1, 1, -1, 0, 0, -1, 1, -1, 1, 0, 0, ...): partners 1 and 3
    # tie with representatives 6 and 8, and partner 1 is the lowest
    ((1, 1, 0), (0, 1, 0), 0, 1),
])
def test_grid_entering_is_pinned_on_exact_ties(basis, w, bf, dantzig):
    # the folded rule on the grid of a line in l-inf^n, pinned, and equal
    # to the rule on every formed row
    space = linf_ball(len(basis))
    grid = build_pair_grid(space, build_operator_basis(space, Subspace.from_basis([basis])))
    dense = dense_grid_lp(grid)
    assert grid.entering(list(w), bf) == dense.entering(list(w), bf) == dantzig


def _start_kind(lp, start):
    """The basic point of the start's columns in the dual  Aᵀu = -c,
    u >= 0, classified in Fractions, apart from the solver: "dependent"
    when the columns are, "misses" when no u on them solves Aᵀu = -c,
    "negative" when the one u that does has a negative weight, and
    "feasible" otherwise."""
    D, s = lp.denominator, len(start)
    reduced, pivots = rref_by_fractions(
        [[F(lp.row(r)[j], D) for r in start] + [-F(c)] for j, c in enumerate(lp.objective)])
    if pivots[:s] != list(range(s)):
        return "dependent"
    if s in pivots:
        return "misses"
    return "negative" if any(row[s] < 0 for row in reduced[:s]) else "feasible"


@pytest.fixture(scope="module")
def lambda_lps(analyzed):
    """(grid, whether its primal optimum is unique) of the lambda LP of
    every catalog case and of random_subspace(n, k, 7) in l-inf^n and
    l1^n, n = 4, 5, 6, k in {n - 1, 2}."""
    reports = {name: a.report for name, a in analyzed.items()}
    for n, ball, k in itertools.product((4, 5, 6), (linf_ball, l1_ball), (None, 2)):
        space = ball(n)
        report = projection_constant(space, random_subspace(n, k or n - 1, 7))
        face_dimension(report)
        reports[f"{ball.__name__}{n}-k{k or n - 1}"] = report
    return {name: (report.grid, report.face_dim == 0) for name, report in reports.items()}


def test_started_solve_keeps_the_value_and_the_unique_primal(lambda_lps):
    # From a start whose basic point is feasible, phase II ends at the
    # cold solve's value, and at its primal where that is unique; from
    # any other start the solve is the cold one, LPSolution and pivots
    # included.  The starts: the cold dual's support, in order and
    # reversed, and seeded random rows, one more than the d variables
    # (always dependent), d and fewer.
    rng = random.Random(7)
    kinds = Counter()
    for name, (grid, unique) in lambda_lps.items():
        cold = solve(grid)
        m, d = len(grid.beta), len(grid.objective)
        support = [r for r, u in enumerate(cold.dual) if u]
        starts = [support, support[::-1]] + [rng.sample(range(m), size)
                                             for size in (d, d, d - 1, 1, d + 1)]
        for start in starts:
            kind = _start_kind(grid, start)
            kinds[kind] += 1
            warm = solve(grid, start)
            if kind != "feasible":
                assert warm == cold, (name, start)
                continue
            assert (warm.status, warm.value) == (OPTIMAL, cold.value), (name, start)
            assert warm.primal == cold.primal or not unique, (name, start)
    assert set(kinds) == {"feasible", "dependent", "misses", "negative"}, kinds


def _start_of_kind(kind, lp, support):
    """A start of the kind on the LP whose cold dual has the support:
    the support with its first row repeated (dependent), the support
    less its last row (a certificate that lost a pair: the support's
    weights are the one solution over its columns, so the rest misses
    Aᵀu = -c), or the first of seeded random starts of one row per
    variable whose point has a negative weight."""
    if kind == "dependent":
        return support + support[:1]
    if kind == "misses":
        return support[:-1]
    m, d = len(lp.beta), len(lp.objective)
    rng = random.Random(7)
    return next(start for start in (rng.sample(range(m), d) for _ in range(1000))
                if _start_kind(lp, start) == kind)


# min v  s.t.  -v <= 0, v <= 5: the dual  -u0 + u1 = -1  has u1 = -1 on row
# 1 alone.
_TWO_ROWS = make_lp([1], [[-1], [1]], [0, 5])
_GRIDS = {"linf6-k5": _seeded_grid(linf_ball, 6, 5, 7),
          "l15-k2": _seeded_grid(l1_ball, 5, 2, 7)}


@pytest.mark.parametrize("lp, kind", [pytest.param(_TWO_ROWS, "negative",
                                                   id="two-rows-negative")] + [
    pytest.param(grid, kind, id=f"{name}-{kind}")
    for name, grid in _GRIDS.items() for kind in ("dependent", "negative", "misses")])
def test_a_start_that_is_no_start_gives_the_cold_solution(lp, kind):
    # a start with dependent columns, one whose basic point has a
    # negative weight, and one whose point misses Aᵀu = -c leave the
    # solve as it is with no start, pivots included; so does the empty one
    cold = solve(lp)
    support = [r for r, u in enumerate(cold.dual) if u]
    start = [1] if lp is _TWO_ROWS else _start_of_kind(kind, lp, support)
    assert _start_kind(lp, start) == kind
    assert solve(lp, start) == cold
    assert solve(lp, ()) == cold


def test_linf6_hyperplane_starts_at_its_certificate(monkeypatch):
    # The lambda LP of the l-inf^6 hyperplane (lambda = 1, 384 rows)
    # started at its own dual's two certificate pairs: no phase I, and
    # at most 6 pivots in all, the two of the start included, against
    # the 11 of the cold solve
    space, Y = linf_ball(6), random_subspace(6, 5, 7)
    report = projection_constant(space, Y)
    cm = cm_from_dual(report)
    start = report.grid.rows_of(cm.pairs, space.primal_negation)
    assert start == list(report.dual_rows)
    phases = []
    install = simplex._RevisedDual.set_objective

    def recorded(tab, phase):
        phases.append(phase)
        install(tab, phase)

    monkeypatch.setattr(simplex._RevisedDual, "set_objective", recorded)
    warm = solve(report.grid, start)
    assert phases == [2]
    cold = solve(report.grid)
    assert phases == [2, 1, 2]
    assert (warm.status, warm.value, warm.primal) == (OPTIMAL, 1, cold.primal)
    assert warm.pivots <= 6
    assert cold.pivots == 11


def test_solver_reads_only_the_lp_contract():
    # an object with the six names alone, its data and the methods of a
    # LinearProgram, solves as that LP in every status, the zero-objective
    # check of a failed phase I included
    statuses = Counter()
    for lp in _oracle_lps():
        sol = solve(SimpleNamespace(objective=lp.objective, beta=lp.beta,
                                    denominator=lp.denominator, row=lp.row,
                                    row_values=lp.row_values, entering=lp.entering))
        assert sol == solve(lp)
        statuses[sol.status] += 1
    assert len(statuses) == 3, statuses


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
    x, x_den = [1, 0], 2
    lhs = [int_dot(row, x) for row in lp.matrix]
    with pytest.raises(InternalError, match="^primal value mismatch$"):
        _verify_certificate(lp, F(0), x, x_den, (F(0), F(1), F(0), F(0)), lhs,
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
