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
from .linalg import (RMatrix, Vector, dot, integer_row_rank, integer_rows,
                     inverse, nullspace_basis, over_denominator, rows_rank)

_ONE = Fraction(1)
# Default budget of general_position_check: subsets visited, spans and
# kernels together.
DEFAULT_GP_CAP = 10 ** 6


def _as_vector(values: Sequence) -> Vector:
    return tuple(Fraction(x) for x in values)


def _neg(v: Vector) -> Vector:
    return tuple(-x for x in v)


# ---------------------------------------------------------------------------
# extremality and the polar dual


def polar_dual(vertices: Sequence[Sequence]) -> tuple[Vector, ...]:
    """Vertices of {f : f·v <= 1 for every listed v}, exactly.

    Incremental double description: start from the parallelotope cut out
    by n independent vertex pairs, then insert the remaining vertices as
    halfspaces, cutting crossed edges.  Intended for small dimensions
    (n <= 6).  The result is sorted, so equal inputs give identical
    output.  A listed point that is not extreme gives a redundant
    halfspace and no facet; from_vertices reads each point's extremality
    off the polar vertices tight at it, with no LP (see _check_extreme).
    """
    verts = [_as_vector(v) for v in vertices]
    if not verts:
        raise NotFullDimensionalError("empty vertex list")
    n = len(verts[0])
    if any(len(v) != n for v in verts):
        raise ValueError("inconsistent vector lengths")
    vertex_set = set(verts)
    for v in verts:
        if _neg(v) not in vertex_set:
            raise NotSymmetricError(f"vertex {v} has no negation in the list")
    if rows_rank(verts) != n:
        raise NotFullDimensionalError("vertices do not span the ambient space")

    index_of: dict[Vector, int] = {}
    for i, v in enumerate(verts):
        index_of.setdefault(v, i)

    # Greedy independent subset for the bounded initial polytope.
    chosen: list[int] = []
    for i, v in enumerate(verts):
        if rows_rank([verts[j] for j in chosen] + [v]) > len(chosen):
            chosen.append(i)
            if len(chosen) == n:
                break
    Vinv = inverse(RMatrix.from_rows([verts[i] for i in chosen]))
    if Vinv is None:
        raise InternalError("independent vertices give a singular system")
    points: list[Vector] = []
    tights: list[set[int]] = []
    for signs in itertools.product((1, -1), repeat=n):
        points.append(Vinv.apply(signs))
        tight = set()
        for pos, i in enumerate(chosen):
            tight.add(i if signs[pos] == 1 else index_of[_neg(verts[i])])
        tights.append(tight)

    handled = set(chosen) | {index_of[_neg(verts[i])] for i in chosen}
    for idx, w in enumerate(verts):
        if idx in handled:
            continue
        handled.add(idx)
        values = [dot(w, p) for p in points]
        inside = [i for i, val in enumerate(values) if val < 1]
        boundary = [i for i, val in enumerate(values) if val == 1]
        outside = [i for i, val in enumerate(values) if val > 1]
        for i in boundary:
            tights[i].add(idx)
        if not outside:
            continue
        new_points: dict[Vector, set[int]] = {}
        for i in inside:
            for j in outside:
                common = tights[i] & tights[j]
                if len(common) < n - 1:
                    continue
                if rows_rank([verts[t] for t in common]) != n - 1:
                    continue
                u, x = points[i], points[j]
                theta = (1 - values[i]) / (values[j] - values[i])
                cut = tuple(a + theta * (b - a) for a, b in zip(u, x))
                tight = common | {idx}
                if cut in new_points:
                    new_points[cut] |= tight
                else:
                    new_points[cut] = tight
        keep_points = [points[i] for i in inside + boundary]
        keep_tights = [tights[i] for i in inside + boundary]
        for cut, tight in new_points.items():
            keep_points.append(cut)
            keep_tights.append(tight)
        points, tights = keep_points, keep_tights

    return tuple(sorted(points))


def _first_non_vertex(points: Sequence[Vector],
                      facets: Sequence[Vector]) -> int | None:
    """Index of the first point that is not a vertex of
    Q = {x : f·x <= 1 for f in facets}, or None; every point must lie in Q.

    A point p of Q is a vertex exactly when the facets tight at it
    (f·p = 1) have rank n, and a duplicated point is never a vertex.  One
    integer dot pass and one integer rank per point; no LP.
    """
    n = len(points[0])
    counts = Counter(points)
    cleared = [over_denominator(f) for f in facets]
    for i, p in enumerate(points):
        p_num, p_den = over_denominator(p)
        tight = [f for f, f_den in cleared
                 if sum(a * b for a, b in zip(f, p_num)) == f_den * p_den]
        if counts[p] > 1 or integer_row_rank(tight) < n:
            return i
    return None


def _check_extreme(points: Sequence[Vector], facets: Sequence[Vector],
                   side: str) -> None:
    """Raise NotExtremeError for the first point that is not a vertex of
    the ball cut out by the facets.  When the facets are the vertices of
    the polar of the points' hull, that is the first point that is a
    convex combination of the others (or a duplicate)."""
    i = _first_non_vertex(points, facets)
    if i is not None:
        raise NotExtremeError(
            f"{side} vertex {i} is a convex combination of the others")


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

        The polar dual is computed exactly, and each primal vertex is
        proved extreme by the rank of the polar vertices tight at it, with
        no LP.  A supplied dual list must then be exactly the polar vertex
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
            present = set(primal)
            for v in primal:
                if _neg(v) not in present:
                    raise NotSymmetricError(f"primal vertex {v} has no negation in the list")
            if rows_rank(primal) != n:
                raise NotFullDimensionalError("vertices do not span the space")
        if dual_vertices is None or validate:
            polar = polar_dual(primal)
            if validate:
                _check_extreme(primal, polar, "primal")
        dual = (polar if dual_vertices is None
                else tuple(_as_vector(f) for f in dual_vertices))
        if validate and sorted(dual) != list(polar):
            raise NotExtremeError("supplied dual vertices are not the polar vertex set")
        return cls(dim=n, primal_vertices=primal, dual_vertices=dual)

    @cached_property
    def primal_negation(self) -> tuple[int, ...]:
        """Index of -v for each primal vertex v."""
        index = {v: i for i, v in enumerate(self.primal_vertices)}
        return tuple(index[_neg(v)] for v in self.primal_vertices)

    @cached_property
    def dual_negation(self) -> tuple[int, ...]:
        index = {f: i for i, f in enumerate(self.dual_vertices)}
        return tuple(index[_neg(f)] for f in self.dual_vertices)

    @cached_property
    def primal_class_reps(self) -> tuple[int, ...]:
        """One index per antipodal vertex pair (first occurrence)."""
        return tuple(i for i, j in enumerate(self.primal_negation) if i < j)

    @cached_property
    def dual_class_reps(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.dual_negation) if i < j)


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
