import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minproj.errors import BudgetExceededError
from minproj.linalg import (DEFAULT_WORK_BUDGET, RMatrix, WorkBudget, cleared, int_dot,
                            integer_inverse, integer_nullspace, integer_row_rank,
                            integer_rref, over_denominator, reduce_row,
                            reduce_rows, solve_linear, subset_walk)

from oracles import (dot, integer_rank_in_place, integer_solve, inverse_by_fractions,
                     matadd, matmul, nullspace_by_fractions, rref_by_fractions,
                     solve_by_fractions, spanning_subsets_by_content,
                     subset_walk_by_leaves)

F = Fraction


def _lcg_stream(seed):
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


def _as_rows(result):
    """(rows, den) with the rows as tuples, the form linalg.cleared returns."""
    rows, den = result
    return tuple(map(tuple, rows)), den


def _random_matrix(seed, m, n, bound=6):
    g = _lcg_stream(seed)
    return RMatrix.from_rows([
        [F(next(g) % (2 * bound + 1) - bound, next(g) % 3 + 1) for _ in range(n)]
        for _ in range(m)])


def test_constructors_and_accessors():
    M = RMatrix.from_rows([[1, F(1, 2)], [0, 3]])
    assert (M.rows, M.cols) == (2, 2)
    assert M.entries == (F(1), F(1, 2), F(0), F(3))
    assert M.row(1) == (F(0), F(3))
    assert M.col(0) == (F(1), F(0))
    assert M.transpose().row(0) == (F(1), F(0))
    assert M.apply((2, 2)) == (F(3), F(6))
    with pytest.raises(ValueError):
        RMatrix.from_rows([[1, 2], [1]])


def test_matmul_and_dot():
    # the test helpers for products and sums of matrices
    A = RMatrix.from_rows([[1, 2], [3, 4]])
    B = RMatrix.from_rows([[0, 1], [1, 0]])
    assert matmul(A, B).row_list() == [(F(2), F(1)), (F(4), F(3))]
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert not any(matadd(A, A, F(-1)).entries)


def test_rank_agrees_with_rref_pivot_count():
    for seed in range(25):
        rows = cleared(_random_matrix(seed, 4, 6).row_list())[0]
        assert integer_row_rank(rows) == len(integer_rref(rows))
        assert integer_row_rank(rows) == integer_row_rank(list(zip(*rows)))


def test_rank_of_constructed_deficiency():
    for seed in range(10):
        A = _random_matrix(seed, 5, 2)
        B = _random_matrix(seed + 50, 2, 5)
        rows = cleared(matmul(A, B).row_list())[0]
        rank = integer_row_rank(rows)
        assert rank <= 2
        N, _ = integer_nullspace(rows, 5)
        assert len(N) == 5 - rank
        assert all(int_dot(row, v) == 0 for row in rows for v in N)


def test_rref_is_canonical():
    reduced = integer_rref([[2, 4], [1, 2]])
    assert [(p, [F(x, row[p]) for x in row]) for p, row in reduced] == [(0, [1, 2])]


def test_solve_and_inverse():
    for seed in range(15):
        rows = cleared(_random_matrix(seed, 4, 4).row_list())[0]
        inv = integer_inverse(rows, 4)
        if inv is None:
            assert integer_row_rank(rows) < 4
            continue
        H, D = inv
        assert [[int_dot(row, col) for col in zip(*H)] for row in rows] == [
            [D * (i == j) for j in range(4)] for i in range(4)]
        M = RMatrix.from_rows(rows)
        b = tuple(F(i + 1, 2) for i in range(4))
        x = solve_linear(M, b)
        assert x is not None
        assert M.apply(x) == b


def test_solve_detects_inconsistency():
    A = RMatrix.from_rows([[1, 0], [1, 0]])
    assert solve_linear(A, (F(1), F(2))) is None
    assert solve_linear(A, (F(1), F(1))) is not None
    assert integer_solve([[1, 0, 1, 1], [1, 0, 1, 2]], 2) is None
    assert integer_solve([[1, 0, 1, 2], [1, 0, 1, 2]], 2) == [[1, 2], [0, 0]]


def test_solve_with_no_rows_or_no_columns():
    # With no rows every v solves Av = b, and the free variables are zero;
    # with no columns only b = 0 is solved, by the empty vector
    assert solve_linear(RMatrix(0, 2, ()), []) == (F(0), F(0))
    assert solve_linear(RMatrix(0, 0, ()), []) == ()
    assert solve_linear(RMatrix(2, 0, ()), [F(0), F(0)]) == ()
    assert solve_linear(RMatrix(2, 0, ()), [F(0), F(1, 2)]) is None


def test_nullspace_vectors_annihilated():
    rows = [[1, 1, 1, 1], [1, -1, 0, 0]]
    N, C = integer_nullspace(rows, 4)
    assert len(N) == 2
    assert all(int_dot(row, v) == 0 for row in rows for v in N)
    assert integer_row_rank(N) == 2
    assert (N, C) == ([[-1, -1, 2, 0], [-1, -1, 0, 2]], 2)


_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)

_RATIONALS = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def rational_matrices(draw):
    """1-6 rows of 1-7 rational entries; some rows are then zeroed,
    repeated or negated, so zero rows, repeated rows and negative leading
    entries all come up."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_RATIONALS, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        edit = draw(st.sampled_from(("zero", "repeat", "negate")))
        if edit == "zero":
            rows[i] = [F(0)] * n
        elif edit == "repeat":
            rows[i] = list(rows[j])
        else:
            rows[i] = [-x for x in rows[j]]
    return RMatrix.from_rows(rows)


@_SETTINGS
@given(rational_matrices(), st.data())
def test_eliminations_agree_with_their_oracles(M, data):
    rows = M.row_list()
    ints, _ = cleared(rows)
    assert integer_row_rank(ints) == integer_rank_in_place(ints)
    expected, pivots = rref_by_fractions(rows)
    assert [(p, [F(x, row[p]) for x in row]) for p, row in integer_rref(ints)] == list(
        zip(pivots, expected))
    # the nullspace over its least common denominator, and with no rows
    # the unit vectors
    assert _as_rows(integer_nullspace(ints, M.cols)) == cleared(nullspace_by_fractions(M))
    assert integer_nullspace([], M.cols) == (
        [[int(i == j) for i in range(M.cols)] for j in range(M.cols)], 1)
    # a right-hand side in the column space and one drawn freely, alone
    # and as the two columns of one system
    x = data.draw(st.lists(_RATIONALS, min_size=M.cols, max_size=M.cols))
    bs = (M.apply(x), data.draw(st.lists(_RATIONALS, min_size=M.rows,
                                         max_size=M.rows)))
    solutions = [solve_by_fractions(M, b) for b in bs]
    for b, expected in zip(bs, solutions):
        assert solve_linear(M, b) == expected
    X = integer_solve([over_denominator(row + (b0, b1))[0]
                       for row, b0, b1 in zip(rows, *bs)], M.cols)
    if None in solutions:
        assert X is None
    else:
        assert [tuple(col) for col in zip(*X)] == solutions
    # the inverse of an integer square matrix: its first rows, each count
    # of them over their least common denominator
    s = min(M.rows, M.cols)
    square = [row[:s] for row in ints[:s]]
    Minv = inverse_by_fractions(RMatrix.from_rows(square))
    for count in range(s + 1):
        inv = integer_inverse(square, count)
        assert (None if inv is None else _as_rows(inv)) == (
            None if Minv is None else cleared(Minv[:count]))


@_SETTINGS
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(lambda v: v + [1]),
    min_size=1, max_size=8)))
def test_support_walk_agrees_with_content_reducer(columns):
    # At every size the walk yields the subsets whose span holds the target
    # [0; 1], by the content reducer and by the walk through every leaf,
    # less those under a spanning prefix: there a solution puts weight
    # zero on the columns after it.  Every subset that solves for the
    # target with w > 0 is among them.
    d = len(columns[0]) - 1
    target = [0] * d + [1]
    spanning = {}
    for size in range(1, min(d + 1, len(columns)) + 1):
        spanning[size] = list(spanning_subsets_by_content(columns, size))
        assert spanning[size] == [subset for subset, _, spans
                                  in subset_walk_by_leaves(columns, size, target)
                                  if spans]
        got = list(subset_walk(columns, size, d, WorkBudget(DEFAULT_WORK_BUDGET, "walk")))
        assert got == [subset for subset in spanning[size]
                       if not any(subset[:j] in spanning[j] for j in range(1, size))]
        for subset in spanning[size]:
            weights = solve_by_fractions(
                RMatrix.from_rows([columns[i] for i in subset]).transpose(), target)
            if all(w > 0 for w in weights):
                assert subset in got


def test_batch_step_is_one_reduce_row_step_per_row():
    # Rows carried below a first pivot (prev = 2), one zero and one
    # nonzero at the second pivot: the batch step gives what reduce_row
    # gives row by row, and every entry stays an integer minor
    rows = [[2, 1, 0], [4, 5, 1], [6, 3, 2], [2, 3, 5]]
    first = (0, rows[0])
    carried = reduce_rows(rows[1:], *first)
    assert carried == [reduce_row(r, [first]) for r in rows[1:]] == [
        [0, 6, 2], [0, 0, 4], [0, 4, 10]]
    second = (1, carried[0])
    assert reduce_rows(carried[1:], *second, 2) == [
        reduce_row(r, [first, second]) for r in rows[2:]] == [[0, 0, 12], [0, 0, 26]]


@_SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from((-2, -1, 0, 0, 0, 1, 2)),
                      min_size=n, max_size=n), min_size=1, max_size=7),
    st.integers(0, n))))
def test_subset_walk_agrees_with_brute_force(case):
    # Every subset T, in lexicographic order, whose heads (first `width`
    # entries) are dependent while its prefixes' heads are independent and
    # its rows are independent, and only those
    rows, width = case
    heads = [row[:width] for row in rows]
    for size in range(1, len(rows) + 1):
        subsets = list(itertools.combinations(range(len(rows)), size))
        expected = [
            T for T in subsets
            if all(integer_rank_in_place([heads[i] for i in T[:j]]) == j
                   for j in range(1, size))
            and integer_rank_in_place([heads[i] for i in T]) < size
            and integer_rank_in_place([rows[i] for i in T]) == size]
        assert list(subset_walk(rows, size, width,
                                WorkBudget(DEFAULT_WORK_BUDGET, "walk"))) == expected


def test_subset_walk_charges_the_rows_it_carries_and_groups():
    # Size 3 over four rows with heads of width 2: the root carries 3 rows
    # to the node (0,) and 2 to (1,), and each node groups the rows it
    # carries to decide its leaves, 3 + 3 + 2 + 2 = 10 row steps.  The
    # last charge, (1,) grouping its rows, comes after the leaves of (0,)
    # are yielded, so a budget of 9 stops the walk there.
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
    subsets = [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
    budget = WorkBudget(10, "walk")
    assert list(subset_walk(rows, 3, 2, budget)) == subsets
    assert budget.spent == 10
    walk = subset_walk(rows, 3, 2, WorkBudget(9, "walk"))
    assert [next(walk), next(walk)] == subsets[:2]
    with pytest.raises(BudgetExceededError,
                       match="^walk exceeded its work budget of 9 row steps$"):
        next(walk)
