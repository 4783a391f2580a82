"""Exact rational matrices and the one integer elimination under them.

There is one elimination, and it runs in integers: reduce_row, a
fraction-free (Bareiss) step over integer rows.  The rank and
independent_rows fold it over the rows (complement_coordinates folds it
over given rows and then the unit vectors, for the coordinates that
complete them to a basis); the reduced row echelon form
(integer_rref) folds it too and clears above each pivot, and the
nullspace, the inverse and solve_linear are read off its rows.  Pivots
are deterministic: each row in turn, at its first nonzero entry after
reduction.  subset_walk, behind the general-position check and the
minimal-support search, folds it down a depth-first walk over subsets,
as one batch step per node (reduce_rows: the step of reduce_row against
one echelon row, applied to every row the node carries on).  The walk
stops two levels above the leaves: there the carried rows are
grouped by direction (parallel classes), and a leaf, the prefix plus two
carried rows, is dependent exactly when the second row is zero or
parallel to the first, so no step is taken for the last level.  The
walk yields the qualifying subsets alone, in lexicographic order.  Both
walks run on one WorkBudget, in row steps, which the walk charges as it
goes and which stops it with BudgetExceededError.

Fractions are formed only at the edges.  Rational input is cleared to
integer rows (over_denominator, cleared); a nullspace or an inverse comes
back as integer rows over their least common denominator, and only
solve_linear returns Fractions.  RMatrix is the public value type of
operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


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


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Dot product of two integer vectors."""
    return sum(map(mul, u, v))


def over_denominator(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers w and the least denominator d > 0 with v = w / d.  Ints
    and Fractions are read as they are, anything else through Fraction()."""
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def cleared(vectors: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The vectors as integer rows over their least common denominator
    d > 0, vectors[i] = rows[i] / d, each row as long as its vector."""
    flat, den = over_denominator([x for v in vectors for x in v])
    entries = iter(flat)
    return tuple(tuple(islice(entries, len(v))) for v in vectors), den


def primitive(row: list[int]) -> list[int]:
    """The row divided by its content (a positive divisor: signs stay)."""
    g = gcd(*row)
    return row if g == 1 else [x // g for x in row]


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


def reduce_rows(vecs: Iterable[Sequence[int]], pivot: int, row: Sequence[int],
                prev: int = 1) -> list[list[int]]:
    """reduce_row's one step against the echelon row (pivot, row), on
    each of vecs: the batch step of subset_walk, which carries many rows
    down one level.  A vec zero at the pivot is only rescaled, by
    row[pivot] / prev."""
    a = row[pivot]
    out = []
    for vec in vecs:
        c = vec[pivot]
        if c:
            out.append([(a * x - c * y) // prev for x, y in zip(vec, row)])
        else:
            out.append([a * x // prev for x in vec])
    return out


def _pivot(row: Sequence[int]) -> int | None:
    """Index of the first nonzero entry, or None."""
    for j, x in enumerate(row):
        if x:
            return j
    return None


def _echelon(rows: Iterable[Sequence[int]], full: int
             ) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """The indices of the kept rows and their echelon rows (pivot, row):
    each integer row is reduced by reduce_row against the ones kept
    before it and kept when nonzero, until `full` rows are kept."""
    kept: list[int] = []
    echelon: list[tuple[int, list[int]]] = []
    for i, row in enumerate(rows):
        if len(echelon) == full:
            break
        row = reduce_row(row, echelon)
        pivot = _pivot(row)
        if pivot is not None:
            kept.append(i)
            echelon.append((pivot, row))
    return kept, echelon


def independent_rows(rows: Iterable[Sequence[int]], full: int) -> list[int]:
    """The indices of the first integer rows, at most `full` of them, that
    are independent of the rows kept before them."""
    return _echelon(rows, full)[0]


def complement_coordinates(rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """The coordinates J, ascending, whose unit vectors e_J complete the
    independent integer rows of length n to a basis of R^n: the first
    ones that independent_rows keeps over the rows and then e_0, e_1, ...
    The rows must be independent, so that all of them are kept."""
    k = len(rows)
    units = ([int(i == j) for i in range(n)] for j in range(n))
    return [i - k for i in independent_rows([*rows, *units], n)[k:]]


#: The work budget of one subset search (the general-position check, or
#: the minimal-support search), in row steps: see WorkBudget.
DEFAULT_WORK_BUDGET = 2 * 10 ** 5


class WorkBudget:
    """A deterministic budget of work, in row steps, that a subset search
    charges as it goes.  subset_walk charges one step for each row that a
    reduce_rows step carries to a child node, and one for each row that a
    node two levels above the leaves groups by direction (_leaves); the
    support search charges each subset the walk yields too, by its size
    (certificates.minimal_support_cm).  A charge is made before its
    work, and raises BudgetExceededError once the steps charged exceed
    `units`: a budget equal to a search's total completes it, and one
    step less stops it, at the same point on every run.  `what` names
    the search in the error; `spent` starts a budget that goes on from
    another one."""

    __slots__ = ("units", "what", "spent")

    def __init__(self, units: int, what: str, spent: int = 0):
        self.units = units
        self.what = what
        self.spent = spent

    def charge(self, steps: int) -> None:
        self.spent += steps
        if self.spent > self.units:
            raise BudgetExceededError(
                f"{self.what} exceeded its work budget of {self.units} row steps")


def subset_walk(rows: Sequence[Sequence[int]], size: int, width: int,
                budget: WorkBudget) -> Iterator[tuple[int, ...]]:
    """The index subsets T of `size` >= 1 integer rows, in lexicographic
    order, whose rows are independent while their heads, the first
    `width` entries, are dependent and the heads of every proper prefix
    of T are not.

    A depth-first walk finds them.  A node carries the rows after its
    prefix, each already reduced against the prefix's echelon rows, and
    a child reduces the rows it carries on with one batch step
    (reduce_rows) against its new row.  The walk
    descends only through prefixes whose heads are independent, so every
    pivot lies in the heads: a child whose carried head is zero cuts its
    subtree.  A carried row is then its row modulo the prefix's span, and
    its head the row's head modulo the span of the prefix's heads.

    The walk stops two levels above the leaves.  At a node of size - 2
    rows (the root when size <= 2), every leaf below it is the prefix
    plus two of its carried rows a < b, and one pass over them decides
    all of those leaves (_leaves).  The leaf qualifies exactly when a's
    carried head is nonzero, b's is zero or parallel to it, and b's
    carried row is nonzero and not parallel to a's.  So the node groups
    its carried rows by the direction of their heads, and compares whole
    rows only inside a group or against a zero head.  For size 1 the root
    decides the leaves (a,): a's head is zero and its row is not.

    The walk charges budget (WorkBudget) before each batch step, for the
    rows it carries, and before each node decides its leaves, for the
    rows it groups, so its work is bounded by the budget and not by the
    number of subsets.
    """
    def walk(prefix, indices, rows, prev):
        depth = len(prefix) + 1
        if depth >= size - 1:
            budget.charge(len(rows))
            yield from _leaves(prefix, indices, rows, size - len(prefix), width)
            return
        for pos in range(len(rows) - size + depth):
            row = rows[pos]
            pivot = _pivot(row)
            if pivot is None or pivot >= width:
                continue
            carried = rows[pos + 1:]
            budget.charge(len(carried))
            yield from walk(prefix + (indices[pos],), indices[pos + 1:],
                            reduce_rows(carried, pivot, row, prev), row[pivot])

    return walk((), range(len(rows)), rows, 1)


def _leaves(prefix: tuple[int, ...], indices: Sequence[int],
            rows: Sequence[Sequence[int]], left: int,
            width: int) -> Iterator[tuple[int, ...]]:
    """The qualifying subsets of subset_walk made of the prefix and `left`
    (1 or 2) of the node's carried rows, in lexicographic order."""
    if left == 1:
        hits = [(a,) for a, row in enumerate(rows)
                if not any(row[:width]) and any(row)]
    else:
        heads = [_direction(row[:width]) for row in rows]
        groups: dict[tuple[int, ...] | None, list[int]] = {}
        for pos, head in enumerate(heads):
            groups.setdefault(head, []).append(pos)
        zeros = groups.pop(None, [])
        pairs = [pair for group in groups.values() for pair in combinations(group, 2)]
        pairs += [(a, b) for b in zeros for a in range(b) if heads[a] is not None]
        pairs.sort()
        whole = {pos: _direction(rows[pos]) for pos in {p for pair in pairs for p in pair}}
        hits = [(a, b) for a, b in pairs
                if whole[b] is not None and whole[b] != whole[a]]
    for hit in hits:
        yield prefix + tuple(indices[p] for p in hit)


def _direction(row: Sequence[int]) -> tuple[int, ...] | None:
    """The primitive multiple of the row whose first nonzero entry is
    positive, or None for a zero row: rows are parallel exactly when
    their directions are equal."""
    g = gcd(*row)
    if not g:
        return None
    for x in row:
        if x:
            break
    return tuple([y // g for y in row] if x > 0 else [-y // g for y in row])


def integer_row_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows: reduce_row folded over them, stopping at full
    column rank."""
    return len(_echelon(rows, len(rows[0]))[1]) if rows else 0


def integer_rref(rows: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """The nonzero rows of the reduced row echelon form of integer rows,
    fraction-free: (pivot, row) sorted by pivot, row zero at the other
    pivots, so that row / row[pivot] is the reduced row."""
    if not rows:
        return []
    _, echelon = _echelon(rows, len(rows[0]))
    return sorted((pivot, reduce_row(row, echelon[i + 1:], row[pivot]))
                  for i, (pivot, row) in enumerate(echelon))


def _common_denominator(reduced: Iterable[tuple[int, list[int]]]) -> int:
    """The least common denominator of the entries of the reduced rows
    row / row[pivot]: per row, the pivot entry over the row's content."""
    return lcm(*(abs(row[pivot]) // gcd(*row) for pivot, row in reduced))


def integer_nullspace(rows: Sequence[Sequence[int]],
                      width: int) -> tuple[list[list[int]], int]:
    """A basis of {z : row·z = 0 for every row} of integer rows of length
    width, as integer vectors over their least common denominator C
    (vector q of the basis is basis[q] / C).  It is the basis that the
    reduced row echelon form gives: one vector per free index f, 1 at f
    and -row[f] / row[pivot] at each pivot; with no rows, the unit
    vectors."""
    reduced = integer_rref(rows)
    C = _common_denominator(reduced)
    pivots = {pivot for pivot, _ in reduced}
    basis = []
    for f in range(width):
        if f not in pivots:
            vec = [0] * width
            vec[f] = C
            for pivot, row in reduced:
                vec[pivot] = -row[f] * C // row[pivot]
            basis.append(vec)
    return basis, C


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int] | None:
    """M^-1, M the square matrix of integer rows, as integer rows over
    their least common denominator; None when M is singular.  M^-1 is
    read off the reduced row echelon form of [M | I], whose pivots are
    then the n columns of M."""
    n = len(rows)
    reduced = integer_rref([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(rows)])
    if [pivot for pivot, _ in reduced] != list(range(n)):
        return None
    D = _common_denominator(reduced)
    return [[x * D // row[pivot] for x in row[n:]] for pivot, row in reduced], D


def solve_linear(A: RMatrix, b: Sequence[Fraction]) -> Vector | None:
    """Some exact solution of Av = b, with the free variables zero, or None
    when the system is infeasible, read off integer_rref of the rows of
    [A | b], each cleared over its own denominator: None when a pivot
    lies in the b column, else row[-1] / row[pivot] at each pivot."""
    if len(b) != A.rows:
        raise ValueError(f"rhs length {len(b)} != rows {A.rows}")
    reduced = integer_rref([over_denominator(A.row(i) + (b[i],))[0]
                            for i in range(A.rows)])
    if reduced and reduced[-1][0] == A.cols:
        return None
    v = [_ZERO] * A.cols
    for pivot, row in reduced:
        v[pivot] = Fraction(row[-1], row[pivot])
    return tuple(v)
