from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minproj.linalg import (RMatrix, dot, integer_row_rank, integer_rows,
                            inverse, nullspace_basis, rank, rows_rank,
                            rref_rows, solve_linear, subset_walk)

from oracles import (integer_rank_in_place, inverse_by_fractions,
                     nullspace_by_fractions, rref_by_fractions,
                     solve_by_fractions, spanning_subsets_by_content)

F = Fraction


def _lcg_stream(seed):
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


def _random_matrix(seed, m, n, bound=6):
    g = _lcg_stream(seed)
    return RMatrix.from_rows([
        [F(next(g) % (2 * bound + 1) - bound, next(g) % 3 + 1) for _ in range(n)]
        for _ in range(m)])


def test_constructors_and_accessors():
    M = RMatrix.from_rows([[1, F(1, 2)], [0, 3]])
    assert (M.rows, M.cols) == (2, 2)
    assert M.at(0, 1) == F(1, 2)
    assert M.row(1) == (F(0), F(3))
    assert M.col(0) == (F(1), F(0))
    assert M.transpose().row(0) == (F(1), F(0))
    assert RMatrix.identity(3).apply((1, 2, 3)) == (F(1), F(2), F(3))
    assert RMatrix.zeros(2, 3).is_zero()
    with pytest.raises(ValueError):
        RMatrix.from_rows([[1, 2], [1]])


def test_matmul_and_dot():
    A = RMatrix.from_rows([[1, 2], [3, 4]])
    B = RMatrix.from_rows([[0, 1], [1, 0]])
    assert A.matmul(B).row_list() == [(F(2), F(1)), (F(4), F(3))]
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert A.add(A.scale(F(-1))).is_zero()


def test_rank_agrees_with_rref_pivot_count():
    for seed in range(25):
        M = _random_matrix(seed, 4, 6)
        _, pivots = rref_rows(M.row_list())
        assert rank(M) == len(pivots)
        assert rank(M) == rows_rank(M.row_list())
        assert rank(M.transpose()) == rank(M)


def test_rank_of_constructed_deficiency():
    for seed in range(10):
        A = _random_matrix(seed, 5, 2)
        B = _random_matrix(seed + 50, 2, 5)
        P = A.matmul(B)
        assert rank(P) <= 2
        N = nullspace_basis(P)
        assert N.cols == P.cols - rank(P)
        if N.cols:
            assert P.matmul(N).is_zero()


def test_rref_is_canonical():
    rows, pivots = rref_rows([[F(2), F(4)], [F(1), F(2)]])
    assert rows == [[F(1), F(2)], [F(0), F(0)]]
    assert pivots == [0]


def test_solve_and_inverse():
    for seed in range(15):
        M = _random_matrix(seed, 4, 4)
        Minv = inverse(M)
        if Minv is None:
            assert rank(M) < 4
            continue
        assert M.matmul(Minv).row_list() == RMatrix.identity(4).row_list()
        b = tuple(F(i + 1, 2) for i in range(4))
        x = solve_linear(M, b)
        assert x is not None
        assert M.apply(x) == b


def test_solve_detects_inconsistency():
    A = RMatrix.from_rows([[1, 0], [1, 0]])
    assert solve_linear(A, (F(1), F(2))) is None
    assert solve_linear(A, (F(1), F(1))) is not None


def test_nullspace_vectors_annihilated():
    M = RMatrix.from_rows([[1, 1, 1, 1], [1, -1, 0, 0]])
    N = nullspace_basis(M)
    assert N.cols == 2
    assert M.matmul(N).is_zero()
    assert rank(N) == 2


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
    assert rref_rows(rows) == rref_by_fractions(rows)
    assert integer_row_rank(integer_rows(rows)) == integer_rank_in_place(integer_rows(rows))
    assert nullspace_basis(M).transpose().row_list() == nullspace_by_fractions(M)
    # a right-hand side in the column space, and one drawn freely
    x = data.draw(st.lists(_RATIONALS, min_size=M.cols, max_size=M.cols))
    for b in (M.apply(x), data.draw(st.lists(_RATIONALS, min_size=M.rows,
                                             max_size=M.rows))):
        assert solve_linear(M, b) == solve_by_fractions(M, b)
    s = min(M.rows, M.cols)
    square = RMatrix.from_rows(row[:s] for row in rows[:s])
    Minv = inverse(square)
    assert (Minv if Minv is None else Minv.row_list()) == inverse_by_fractions(square)


@_SETTINGS
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(lambda v: v + [1]),
    min_size=1, max_size=8)))
def test_support_walk_agrees_with_content_reducer(columns):
    unit = [0] * (len(columns[0]) - 1) + [1]
    for size in range(1, min(len(columns[0]), len(columns)) + 1):
        assert ([subset for subset, _, spans in subset_walk(columns, size, unit)
                 if spans]
                == list(spanning_subsets_by_content(columns, size)))
