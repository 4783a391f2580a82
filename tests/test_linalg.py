from fractions import Fraction

import pytest

from minproj.linalg import (RMatrix, dot, inverse, nullspace_basis, rank,
                            rows_rank, rref_rows, solve_linear)

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
