"""Exact rational matrices: rank, nullspace, solve and echelon forms.

Matrices hold Fraction scalars, but there is one elimination, and it runs
in integers: reduce_row, a fraction-free (Bareiss) step over rows cleared
to integers.  The rank folds it over the rows; the reduced row echelon
form behind nullspaces, solves and inverses folds it too, clears above
each pivot in integers and builds Fractions only at the end.  Pivots are
deterministic: each row in turn, at its first nonzero entry after
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def cleared(vectors: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The vectors as integer lists over one common denominator d > 0, the
    least one: vectors[i] = rows[i] / d."""
    flat, den = over_denominator([x for v in vectors for x in v])
    width = len(vectors[0]) if vectors else 0
    if width == 0:
        return [[] for _ in vectors], den
    return [flat[i:i + width] for i in range(0, len(flat), width)], den


def primitive(row: list[int]) -> list[int]:
    """The row divided by its content (a positive divisor: signs stay)."""
    g = gcd(*row)
    return row if g == 1 else [x // g for x in row]


def integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Clear denominators row by row (row scaling preserves row space)."""
    return [over_denominator(row)[0] for row in rows]


def reduce_row(vec: Sequence[int], rows: Iterable[tuple[int, Sequence[int]]],
               prev: int = 1) -> list[int]:
    """vec reduced against echelon rows (pivot, row) by fraction-free
    (Bareiss) steps: vec <- (a·vec - vec[pivot]·row) / prev, with a the
    row's pivot entry and prev the pivot entry of the row before it.

    Each row must be zero at the pivots of the rows before it and must
    itself be the reduction of its source row against them; the division
    is then exact, and every entry is a minor of the source rows.  prev is
    the pivot entry of the row before rows[0] when vec is already reduced
    through it."""
    for pivot, row in rows:
        a = row[pivot]
        c = vec[pivot]
        if c:
            vec = [(a * x - c * y) // prev for x, y in zip(vec, row)]
        else:
            vec = [a * x // prev for x in vec]
        prev = a
    return vec


def _echelon(rows: Iterable[Sequence[int]], full: int) -> list[tuple[int, list[int]]]:
    """Echelon rows (pivot, row) of integer rows, each reduced by
    reduce_row against the ones before it and kept when nonzero; stops
    once `full` rows are kept."""
    echelon: list[tuple[int, list[int]]] = []
    for row in rows:
        if len(echelon) == full:
            break
        row = reduce_row(row, echelon)
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is not None:
            echelon.append((pivot, row))
    return echelon


def integer_row_rank(rows: list[list[int]]) -> int:
    """Rank of integer rows: reduce_row folded over them, stopping at full
    column rank."""
    return len(_echelon(rows, len(rows[0]))) if rows else 0


def rows_rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """Rank of a family of rational row vectors."""
    return integer_row_rank(integer_rows(rows))


def rank(M: RMatrix) -> int:
    return rows_rank(M.row_list())


def rref_rows(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Rows are cleared to integers and brought to echelon form by
    reduce_row.  Each echelon row is then reduced against the rows after
    it, which finishes a fraction-free Gauss-Jordan elimination: every
    row ends zero at the other pivots.  One Fraction per entry divides by
    the row's pivot entry; zero rows follow."""
    work = integer_rows(rows)
    if not work:
        return [], []
    ncols = len(work[0])
    echelon = _echelon(work, ncols)
    reduced = sorted((pivot, reduce_row(row, echelon[i + 1:], row[pivot]))
                     for i, (pivot, row) in enumerate(echelon))
    out = [[Fraction(x, row[pivot]) for x in row] for pivot, row in reduced]
    out += [[_ZERO] * ncols for _ in range(len(work) - len(out))]
    return out, [pivot for pivot, _ in reduced]


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
