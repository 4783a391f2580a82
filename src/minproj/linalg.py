"""Exact rational matrices: rank, nullspace, solve and echelon forms.

Everything runs over Fraction scalars.  Rank goes through fraction-free
(Bareiss) elimination on integer-cleared rows; the reduced row echelon
form used for nullspaces and solving works over rationals directly.
Pivoting is deterministic: first nonzero entry in column order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RMatrix:
    """Dense rational matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} does not match "
                f"{self.rows}x{self.cols}")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "RMatrix":
        materialized = [tuple(Fraction(x) for x in row) for row in rows]
        if not materialized:
            return cls(0, 0, ())
        width = len(materialized[0])
        if any(len(row) != width for row in materialized):
            raise ValueError("ragged rows")
        flat = tuple(x for row in materialized for x in row)
        return cls(len(materialized), width, flat)

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls(n, n, tuple(
            _ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RMatrix":
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "RMatrix":
        return RMatrix(self.cols, self.rows, tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols) for i in range(self.rows)))

    def apply(self, vec: Sequence[Fraction]) -> Vector:
        """Matrix-vector product M v."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        return tuple(
            sum((self.entries[i * self.cols + j] * vec[j]
                 for j in range(self.cols)), _ZERO)
            for i in range(self.rows))

    def matmul(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            for j in range(other.cols):
                acc = _ZERO
                for t in range(self.cols):
                    acc += self.entries[base + t] * other.entries[t * other.cols + j]
                out.append(acc)
        return RMatrix(self.rows, other.cols, tuple(out))

    def scale(self, factor: Fraction) -> "RMatrix":
        return RMatrix(self.rows, self.cols,
                       tuple(factor * x for x in self.entries))

    def add(self, other: "RMatrix") -> "RMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shapes disagree")
        return RMatrix(self.rows, self.cols, tuple(
            a + b for a, b in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("vector lengths disagree")
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Dot product of two integer vectors."""
    return sum(map(mul, u, v))


def over_denominator(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers w and the least denominator d > 0 with v = w / d."""
    v = [x if isinstance(x, Fraction) else Fraction(x) for x in v]
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Clear denominators row by row (row scaling preserves row space)."""
    return [over_denominator(row)[0] for row in rows]


def integer_row_rank(rows: list[list[int]]) -> int:
    """Rank of integer rows via fraction-free Bareiss elimination."""
    work = [row[:] for row in rows if any(row)]
    if not work:
        return 0
    nrows = len(work)
    ncols = len(work[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        for i in range(r + 1, nrows):
            factor = work[i][c]
            row_i = work[i]
            row_r = work[r]
            for j in range(c, ncols):
                row_i[j] = (piv * row_i[j] - factor * row_r[j]) // prev
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def rows_rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """Rank of a family of rational row vectors."""
    return integer_row_rank(integer_rows(rows))


def rank(M: RMatrix) -> int:
    return rows_rank(M.row_list())


def rref_rows(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    work = [list(Fraction(x) for x in row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        if piv != 1:
            work[r] = [x / piv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def nullspace_basis(M: RMatrix) -> RMatrix:
    """Basis of {v : Mv = 0} as matrix columns (cols = nullity)."""
    reduced, pivots = rref_rows(M.row_list())
    pivot_set = set(pivots)
    free_cols = [c for c in range(M.cols) if c not in pivot_set]
    basis_cols = []
    for free in free_cols:
        v = [_ZERO] * M.cols
        v[free] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free]
        basis_cols.append(v)
    entries = tuple(basis_cols[j][i]
                    for i in range(M.cols) for j in range(len(basis_cols)))
    return RMatrix(M.cols, len(basis_cols), entries)


def solve_linear(A: RMatrix, b: Sequence[Fraction]) -> Vector | None:
    """Some exact solution of Av = b, or None when the system is infeasible."""
    if len(b) != A.rows:
        raise ValueError(f"rhs length {len(b)} != rows {A.rows}")
    augmented = [list(A.row(i)) + [Fraction(b[i])] for i in range(A.rows)]
    reduced, pivots = rref_rows(augmented)
    if A.cols in pivots:
        return None
    v = [_ZERO] * A.cols
    for r, pc in enumerate(pivots):
        v[pc] = reduced[r][A.cols]
    return tuple(v)


def inverse(M: RMatrix) -> RMatrix | None:
    """Exact inverse, or None if singular."""
    if M.rows != M.cols:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    augmented = [list(M.row(i)) + [_ONE if i == j else _ZERO for j in range(n)]
                 for i in range(n)]
    reduced, pivots = rref_rows(augmented)
    if list(pivots) != list(range(n)):
        return None
    return RMatrix.from_rows([row[n:] for row in reduced[:n]])
