"""Polyhedral normed spaces, their duals, subspaces and general position.

A space is given by the vertex list of its unit ball (both signs stored
explicitly) together with the vertex list of the dual ball; the dual
side can be computed exactly from the primal side by an incremental
double-description polar computation.  Norms and operator norms then
reduce to finite maxima over these vertex lists.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (InternalError, NotExtremeError, NotFullDimensionalError,
                     NotSymmetricError, SubsetBudgetExceededError)
from .linalg import (RMatrix, Vector, cleared, dot, int_dot,
                     integer_row_rank, integer_rows, inverse, nullspace_basis,
                     over_denominator, primitive, reduce_row, rows_rank)

_ONE = Fraction(1)
# Default budget of general_position_check: subsets visited, spans and
# kernels together.
DEFAULT_GP_CAP = 10 ** 6


def _as_vector(values: Sequence) -> Vector:
    return tuple(Fraction(x) for x in values)


# ---------------------------------------------------------------------------
# extremality and the polar dual


def polar_dual(vertices: Sequence[Sequence]) -> tuple[Vector, ...]:
    """Vertices of {f : f·v <= 1 for every listed v}, exactly.

    Incremental double description in integers (see _double_description).
    The result is sorted, so equal inputs give identical output.  A
    listed point that is not extreme gives a redundant halfspace and no
    facet; from_vertices reads each point's extremality off the polar
    vertices tight at it, with no LP (see _first_non_vertex).
    """
    verts = [_as_vector(v) for v in vertices]
    if not verts:
        raise NotFullDimensionalError("empty vertex list")
    if any(len(v) != len(verts[0]) for v in verts):
        raise ValueError("inconsistent vector lengths")
    return _vertices_of(_double_description(
        verts, "vertex", "vertices do not span the ambient space"))


@dataclass(frozen=True)
class _Polar:
    """The polar's points as primitive homogeneous integer vectors (P, h),
    h > 0, standing for P / h, each with its tight mask: bit 2p (2p + 1)
    is set when the point is tight at +u_p (-u_p), u_p the p-th antipodal
    pair of listed points.  bits holds, per listed point, the bit that
    stands for it (None for the zero vector)."""

    points: list[list[int]]
    tights: list[int]
    bits: list[int | None]


def _vertices_of(polar: _Polar) -> tuple[Vector, ...]:
    return tuple(sorted(tuple(Fraction(x, X[-1]) for x in X[:-1])
                        for X in polar.points))


def _double_description(verts: Sequence[Vector], label: str,
                        flat_message: str) -> _Polar:
    """The polar of the listed points, which must be nonempty, of one
    length n, and symmetric (else NotSymmetricError "<label> v has no
    negation in the list") and full-dimensional (else
    NotFullDimensionalError(flat_message)).

    Each listed point is cleared once to u = w / s (w integer, s > 0, s
    least), and the pair (w, s) keys the symmetry check and the pairing
    of u with -u.  Each point of the polytope is kept as a primitive
    homogeneous integer vector (P, h), h > 0, standing for P / h, so its
    slack against u is the integer w·P - s·h (negative inside, zero on
    the boundary).  The start is the parallelotope cut out by n
    independent pairs: with the inverse of their matrix cleared to M / D,
    its 2ⁿ vertices are M·σ over D for the sign vectors σ.  Each further
    pair is inserted as one step: the polytope is symmetric, so the new
    vertices are the cuts a_j·(P_i, h_i) - a_i·(P_j, h_j) of the edges
    (i, j) that cross u·x = 1, each divided by its content, together with
    their negations, and a vertex is dropped when |u·x| > 1.  Two
    vertices span an edge when the listed points tight at both have rank
    n - 1 (an integer rank of the cleared rows).  Fractions are formed
    only for the result.  The polar of the 7-cube (128 points, 64 pairs)
    takes about 20 ms on one core of a 2-core Xeon host, against 0.34 s
    in Fraction arithmetic.

    A cut of an edge lies strictly inside it, where exactly the pairs
    tight along the whole edge are tight, so every final mask is the
    point's exact tight set over all listed pairs.
    """
    n = len(verts[0])
    keys = []
    for v in verts:
        w, s = over_denominator(v)
        keys.append((tuple(w), s))
    present = set(keys)
    for v, (w, s) in zip(verts, keys):
        if (tuple(-x for x in w), s) not in present:
            raise NotSymmetricError(f"{label} {v} has no negation in the list")

    # One representative u per antipodal pair, in order of first
    # occurrence; bit 2p of a tight mask stands for +u_p, bit 2p+1 for -u_p.
    # The zero vector is never tight and cuts nothing.
    bit_of: dict[tuple, int | None] = {}
    reps: list[Vector] = []
    cleared: list[tuple[list[int], int]] = []
    for v, key in zip(verts, keys):
        if key not in bit_of:
            w, s = key
            if any(w):
                bit_of[key] = 2 * len(reps)
                bit_of[(tuple(-x for x in w), s)] = 2 * len(reps) + 1
                reps.append(v)
                cleared.append((list(w), s))
            else:
                bit_of[key] = None
    rows = [w for w, _ in cleared]

    # The first n independent pairs, by one fraction-free pass.
    chosen: list[int] = []
    echelon: list[tuple[int, list[int]]] = []
    for p, w in enumerate(rows):
        row = reduce_row(w, echelon)
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is not None:
            echelon.append((pivot, row))
            chosen.append(p)
            if len(chosen) == n:
                break
    if len(chosen) < n:
        raise NotFullDimensionalError(flat_message)

    Vinv = inverse(RMatrix.from_rows([reps[p] for p in chosen]))
    if Vinv is None:
        raise InternalError("independent vertices give a singular system")
    flat, D = over_denominator(Vinv.entries)
    M = [flat[i * n:(i + 1) * n] for i in range(n)]
    points: list[list[int]] = []
    tights: list[int] = []
    for signs in itertools.product((1, -1), repeat=n):
        points.append(primitive([int_dot(row, signs) for row in M] + [D]))
        tights.append(sum(1 << (2 * p + (sign < 0))
                          for p, sign in zip(chosen, signs)))

    even = sum(1 << (2 * p) for p in range(len(reps)))
    edge: dict[int, bool] = {}

    def spans_edge(mask: int) -> bool:
        """Whether the listed points of a tight mask have rank n - 1."""
        if mask.bit_count() < n - 1:
            return False
        if mask not in edge:
            tight_rows = []
            rest = mask
            while rest:
                low = rest & -rest
                tight_rows.append(rows[(low.bit_length() - 1) >> 1])
                rest ^= low
            edge[mask] = integer_row_rank(tight_rows) == n - 1
        return edge[mask]

    started = set(chosen)
    for p, (w, s) in enumerate(cleared):
        if p in started:
            continue
        plus, minus = 1 << (2 * p), 1 << (2 * p + 1)
        slack_row = w + [-s]
        slacks = [int_dot(slack_row, X) for X in points]
        inside = [i for i, a in enumerate(slacks) if a < 0]
        new_points: list[list[int]] = []
        new_tights: list[int] = []
        for j, aj in enumerate(slacks):
            if aj <= 0:
                continue
            Xj, tj = points[j], tights[j]
            for i in inside:
                common = tights[i] & tj
                if spans_edge(common):
                    ai = slacks[i]
                    cut = primitive([aj * x - ai * y
                                     for x, y in zip(points[i], Xj)])
                    mask = common | plus
                    new_points += (cut, [-x for x in cut[:-1]] + cut[-1:])
                    new_tights += (mask, ((mask & even) << 1)
                                   | ((mask >> 1) & even))
        # Keep |u·x| <= 1; the slack against -u is -w·P - s·h = -a - 2·s·h.
        for X, mask, a in zip(points, tights, slacks):
            b = -a - 2 * s * X[-1]
            if a <= 0 and b <= 0:
                new_points.append(X)
                new_tights.append(mask | (plus if a == 0 else 0)
                                  | (minus if b == 0 else 0))
        points, tights = new_points, new_tights

    return _Polar(points, tights, [bit_of[key] for key in keys])


def _first_non_vertex(polar: _Polar, n: int) -> int | None:
    """Index of the first listed point that is not a vertex of their hull
    Q, or None.

    Q is cut out by the polar vertices, and a listed point p of Q is a
    vertex exactly when the polar vertices tight at it have rank n (none
    are tight at the zero vector), and a duplicated point is never a
    vertex.  The tight polar vertices are read off the masks; -p has the
    negated ones, so one integer rank serves both points of a pair.  No
    LP.
    """
    counts = Counter(polar.bits)
    rank_of: dict[int | None, int] = {None: 0}
    for i, bit in enumerate(polar.bits):
        pair = None if bit is None else bit >> 1
        if pair not in rank_of:
            rank_of[pair] = integer_row_rank(
                [X[:-1] for X, mask in zip(polar.points, polar.tights)
                 if mask >> bit & 1])
        if counts[bit] > 1 or rank_of[pair] < n:
            return i
    return None


# ---------------------------------------------------------------------------
# spaces and subspaces


@dataclass(frozen=True)
class PolyhedralSpace:
    """Unit-ball vertex list and dual-ball vertex list of a polyhedral norm."""

    dim: int
    primal_vertices: tuple[Vector, ...]
    dual_vertices: tuple[Vector, ...]

    @classmethod
    def from_vertices(cls, vertices: Sequence[Sequence],
                      dual_vertices: Sequence[Sequence] | None = None,
                      validate: bool = True) -> "PolyhedralSpace":
        """Build a space, validating symmetry, full dimension and extremality.

        The polar dual is computed exactly, with one symmetry check, and
        each primal vertex is proved extreme by the rank of the polar
        vertices tight at it, read off the polar's tight masks, with no
        LP.  A supplied dual list must then be exactly the polar vertex
        set, in any order; the list is kept in the order given.  With
        validate=False a supplied list is taken as it is.
        """
        primal = tuple(_as_vector(v) for v in vertices)
        if not primal:
            raise NotFullDimensionalError("empty vertex list")
        n = len(primal[0])
        if any(len(v) != n for v in primal):
            raise ValueError("inconsistent vector lengths")
        if validate:
            dd = _double_description(primal, "primal vertex",
                                     "vertices do not span the space")
            polar = _vertices_of(dd)
            i = _first_non_vertex(dd, n)
            if i is not None:
                raise NotExtremeError(
                    f"primal vertex {i} is a convex combination of the others")
        elif dual_vertices is None:
            polar = polar_dual(primal)
        dual = (polar if dual_vertices is None
                else tuple(_as_vector(f) for f in dual_vertices))
        if validate and sorted(dual) != list(polar):
            raise NotExtremeError("supplied dual vertices are not the polar vertex set")
        return cls(dim=n, primal_vertices=primal, dual_vertices=dual)

    @cached_property
    def primal_cleared(self) -> tuple[list[list[int]], int]:
        """The primal vertices as integer rows over one common denominator."""
        return cleared(self.primal_vertices)

    @cached_property
    def dual_cleared(self) -> tuple[list[list[int]], int]:
        """The dual vertices as integer rows over one common denominator."""
        return cleared(self.dual_vertices)

    @cached_property
    def primal_negation(self) -> tuple[int, ...]:
        """Index of -v for each primal vertex v."""
        return _negation(self.primal_cleared[0])

    @cached_property
    def dual_negation(self) -> tuple[int, ...]:
        return _negation(self.dual_cleared[0])

    @cached_property
    def primal_class_reps(self) -> tuple[int, ...]:
        """One index per antipodal vertex pair (first occurrence)."""
        return tuple(i for i, j in enumerate(self.primal_negation) if i < j)

    @cached_property
    def dual_class_reps(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.dual_negation) if i < j)


def _negation(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Index of the row -r for each row r, keyed on the integer rows (over
    one common denominator, -v clears to the negated row of v)."""
    index = {tuple(row): i for i, row in enumerate(rows)}
    return tuple(index[tuple(-x for x in row)] for row in rows)


def norm_eval(space: PolyhedralSpace, x: Sequence) -> Fraction:
    """The norm of x: max over dual vertices f of f·x."""
    vec = _as_vector(x)
    if len(vec) != space.dim:
        raise ValueError(f"vector length {len(vec)} != dimension {space.dim}")
    return max(dot(f, vec) for f in space.dual_vertices)


@dataclass(frozen=True)
class Subspace:
    """Proper subspace with an explicit basis and annihilator.

    basis has k independent columns spanning Y; annihilator has n-k
    independent columns of functionals vanishing on Y.
    """

    ambient_dim: int
    basis: RMatrix
    annihilator: RMatrix

    def __post_init__(self):
        n, k = self.ambient_dim, self.basis.cols
        if not 1 <= k <= n - 1:
            raise ValueError(f"subspace dimension {k} must be in [1, {n - 1}]")
        if self.basis.rows != n or self.annihilator.rows != n:
            raise ValueError("basis/annihilator row count must equal ambient dimension")
        if self.annihilator.cols != n - k:
            raise ValueError("annihilator must have n-k columns")
        if not self.basis.transpose().matmul(self.annihilator).is_zero():
            raise ValueError("annihilator does not vanish on the basis")
        if rows_rank(self.basis.transpose().row_list()) != k:
            raise ValueError("basis columns are dependent")
        if rows_rank(self.annihilator.transpose().row_list()) != n - k:
            raise ValueError("annihilator columns are dependent")

    @classmethod
    def from_basis(cls, vectors: Sequence[Sequence]) -> "Subspace":
        rows = [_as_vector(v) for v in vectors]
        if not rows:
            raise ValueError("empty basis")
        n = len(rows[0])
        if rows_rank(rows) != len(rows):
            raise ValueError("basis vectors are linearly dependent")
        basis = RMatrix.from_rows(rows).transpose()
        annihilator = nullspace_basis(RMatrix.from_rows(rows))
        return cls(ambient_dim=n, basis=basis, annihilator=annihilator)

    @classmethod
    def from_kernel(cls, functionals: Sequence[Sequence]) -> "Subspace":
        """Subspace cut out as the joint kernel of the given functionals."""
        rows = [_as_vector(f) for f in functionals]
        if not rows:
            raise ValueError("empty functional list")
        basis_cols = nullspace_basis(RMatrix.from_rows(rows))
        return cls.from_basis(basis_cols.transpose().row_list())

    @property
    def dim(self) -> int:
        return self.basis.cols

    def basis_vectors(self) -> list[Vector]:
        return self.basis.transpose().row_list()

    def annihilator_functionals(self) -> list[Vector]:
        return self.annihilator.transpose().row_list()

    def contains(self, vector: Sequence) -> bool:
        vec = _as_vector(vector)
        return all(dot(g, vec) == 0 for g in self.annihilator_functionals())


# ---------------------------------------------------------------------------
# general position


@dataclass(frozen=True)
class GeneralPositionReport:
    in_general_position: bool
    witness_kind: str | None = None  # "span" | "kernel"
    witness: tuple[int, ...] | None = None
    spans_checked: int = 0
    kernels_checked: int = 0


def general_position_check(space: PolyhedralSpace, Y: Subspace,
                           subset_cap: int = DEFAULT_GP_CAP) -> GeneralPositionReport:
    """Check the maximal-joint-span condition of Y against every vertex span
    and every intersection of dual-vertex kernels.

    A candidate subspace Z is the span of a vertex subset T or the joint
    kernel of a dual-vertex subset F (one representative per antipodal
    pair); Y passes when dim(Y + Z) = min(dim Y + dim Z, n) for all of
    them.  Only subsets that can fail first are enumerated: spans of at
    most n-k vertices and kernels of at most k functionals.  A failing
    span of more vectors contains a failing independent subset of n-k of
    them, or is spanned by a smaller independent subset; kernels follow
    by duality, with k and n-k swapped.

    Within these sizes the condition is one rank comparison per subset.
    With A the annihilator and B the basis of Y, dim(Y + span T) =
    k + rank(v·A, v in T) and dim(Y + ker F) = n - rank F +
    rank(f·B, f in F), so T (or F) passes exactly when its projected
    rows have the rank of its raw rows.

    Returns the first violating index set as witness.  Enumeration order:
    spans by (size, lexicographic indices), then kernels likewise.
    spans_checked and kernels_checked count the subsets visited, and
    subset_cap bounds their sum.
    """
    n = space.dim
    k = Y.dim
    span, spans_checked = _first_failing_subset(
        space.primal_vertices, space.primal_class_reps,
        Y.annihilator_functionals(), n - k, 0, subset_cap, "vertex-span")
    if span is not None:
        return GeneralPositionReport(False, "span", span, spans_checked, 0)
    kernel, kernels_checked = _first_failing_subset(
        space.dual_vertices, space.dual_class_reps, Y.basis_vectors(), k,
        spans_checked, subset_cap, "kernel")
    if kernel is not None:
        return GeneralPositionReport(False, "kernel", kernel,
                                     spans_checked, kernels_checked)
    return GeneralPositionReport(True, None, None, spans_checked, kernels_checked)


def _first_failing_subset(vectors: Sequence[Vector], reps: Sequence[int],
                          directions: Sequence[Vector], max_size: int,
                          spent: int, subset_cap: int,
                          what: str) -> tuple[tuple[int, ...] | None, int]:
    """First subset T of reps, by (size <= max_size, lexicographic), whose
    rows v·d (d in directions) have lower rank than its rows v, and the
    number of subsets visited.  Rows are cleared to integers once; the raw
    rank is computed only when the projected rank is below |T|.  Raises
    once spent plus the subsets visited exceeds subset_cap."""
    raw = dict(zip(reps, integer_rows(vectors[i] for i in reps)))
    projected = dict(zip(reps, integer_rows(
        [dot(vectors[i], d) for d in directions] for i in reps)))
    checked = 0
    for size in range(1, min(max_size, len(reps)) + 1):
        for subset in itertools.combinations(reps, size):
            checked += 1
            if spent + checked > subset_cap:
                raise SubsetBudgetExceededError(
                    f"{what} enumeration exceeded cap {subset_cap}")
            rank = integer_row_rank([projected[i] for i in subset])
            if rank < size and rank != integer_row_rank([raw[i] for i in subset]):
                return subset, checked
    return None, checked
