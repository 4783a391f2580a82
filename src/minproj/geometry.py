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

from .errors import (BudgetExceededError, InternalError, NotExtremeError,
                     NotFullDimensionalError, NotSymmetricError)
from .linalg import (Vector, cleared, dot, independent_rows, int_dot,
                     integer_inverse, integer_nullspace, integer_row_rank,
                     over_denominator, primitive, subset_walk)
from .rational import format_rational

# Default budget of general_position_check: subsets counted, spans and
# kernels together.
DEFAULT_GP_CAP = 10 ** 6


def _as_vector(values: Sequence) -> Vector:
    """The values as a tuple of Fractions; a Fraction is kept as it is."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


# ---------------------------------------------------------------------------
# extremality and the polar dual


def polar_dual(vertices: Sequence[Sequence]) -> tuple[Vector, ...]:
    """Vertices of {f : f·v <= 1 for every listed v}, exactly.

    Incremental double description in integers, its edges read off the
    tight masks with no rank (see _double_description).  The result is
    sorted, so equal inputs give identical output.  A listed point that
    is not extreme gives a redundant halfspace and no facet;
    from_vertices reads each point's extremality off the polar vertices
    tight at it, with no LP (see _first_non_vertex).
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
    independent pairs: their matrix is diag(s)^-1·W, so with W^-1 = M / D
    its 2ⁿ vertices are M·(s σ) over D for the sign vectors σ.  Each further
    pair is inserted as one step: the polytope is symmetric, so the new
    vertices are the cuts a_j·(P_i, h_i) - a_i·(P_j, h_j) of the edges
    (i, j) that cross u·x = 1, each divided by its content, together with
    their negations, and a vertex is dropped when |u·x| > 1.

    Edges come from the tight masks alone, by the combinatorial test of
    Fukuda and Prodon ("Double description method revisited", LNCS 1120,
    1996): two vertices span an edge exactly when their common mask has
    at least n - 1 bits and no third vertex's mask contains it.  The
    vertices tight on every constraint the two share are those of the
    smallest face holding both, and a face with two vertices is an edge.
    The test is exact because each step keeps the points equal to the
    vertex set of the current polytope and each mask equal to its point's
    tight set over the pairs inserted so far: a cut lies strictly inside
    its edge, where exactly the pairs tight along the whole edge are
    tight, and a kept vertex gains the bits of the new pair it lies on.
    No rank is taken, and Fractions are formed only for the result.  The
    polar of the 7-cube (128 points, 64 pairs) takes about 8 ms on one
    core of a 2-core Xeon host, against 21 ms with one integer rank of
    the tight points per edge test.
    """
    n = len(verts[0])
    keys = []
    for v in verts:
        w, s = over_denominator(v)
        keys.append((tuple(w), s))
    present = set(keys)
    for v, (w, s) in zip(verts, keys):
        if (tuple(-x for x in w), s) not in present:
            raise NotSymmetricError(
                f"{label} ({', '.join(map(format_rational, v))}) has no negation "
                "in the list")

    # One representative u per antipodal pair, in order of first
    # occurrence; bit 2p of a tight mask stands for +u_p, bit 2p+1 for -u_p.
    # The zero vector is never tight and cuts nothing.
    bit_of: dict[tuple, int | None] = {}
    cleared: list[tuple[list[int], int]] = []
    for key in keys:
        if key not in bit_of:
            w, s = key
            if any(w):
                bit_of[key] = 2 * len(cleared)
                bit_of[(tuple(-x for x in w), s)] = 2 * len(cleared) + 1
                cleared.append((list(w), s))
            else:
                bit_of[key] = None
    rows = [w for w, _ in cleared]

    # The first n independent pairs, by one fraction-free pass.
    chosen = independent_rows(rows, n)
    if len(chosen) < n:
        raise NotFullDimensionalError(flat_message)

    inv = integer_inverse([rows[p] for p in chosen], n)
    if inv is None:
        raise InternalError("independent vertices give a singular system")
    M, D = inv
    scales = [cleared[p][1] for p in chosen]
    points: list[list[int]] = []
    tights: list[int] = []
    for signs in itertools.product((1, -1), repeat=n):
        scaled = [s * sign for s, sign in zip(scales, signs)]
        points.append(primitive([int_dot(row, scaled) for row in M] + [D]))
        tights.append(sum(1 << (2 * p + (sign < 0))
                          for p, sign in zip(chosen, signs)))

    even = sum(1 << (2 * p) for p in range(len(cleared)))
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
                if common.bit_count() >= n - 1 and not any(
                        t & common == common and k != i and k != j
                        for k, t in enumerate(tights)):
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


def _first_non_vertex(polar: _Polar) -> int | None:
    """Index of the first listed point that is not a vertex of their hull
    Q, or None.

    Q is cut out by the polar vertices, so the polar vertices tight at a
    listed point p are the facets of Q through p, and the AND of their
    masks holds the listed points on every one of those facets: the
    listed points of the smallest face of Q holding p.  That face is the
    hull of the listed points in it, so p is a vertex exactly when the
    AND is p's own bit.  An interior point has no tight polar vertex,
    and the AND of no mask (all bits) is never one bit.  The zero vector
    has no bit, and a duplicated point is never a vertex.  No rank and
    no LP.
    """
    counts = Counter(polar.bits)
    for i, bit in enumerate(polar.bits):
        if bit is None or counts[bit] > 1:
            return i
        face = -1
        for mask in polar.tights:
            if mask >> bit & 1:
                face &= mask
        if face != 1 << bit:
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
        each primal vertex is proved extreme off the polar's tight masks
        alone: the polar vertices tight at it share no other listed
        point (see _first_non_vertex), with no rank and no LP.  A
        supplied dual list must then be exactly the polar vertex set, in
        any order; the list is kept in the order given.  With
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
            i = _first_non_vertex(dd)
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
    """Proper subspace Y of R^n with an explicit basis and annihilator, in
    integers: the k independent basis vectors are basis_num / basis_den
    and the n - k independent functionals vanishing on Y are
    annihilator_num / annihilator_den, each family over its least common
    denominator.  basis_vectors, annihilator_functionals and contains are
    the Fraction views.
    """

    ambient_dim: int
    basis_num: tuple[tuple[int, ...], ...]
    basis_den: int
    annihilator_num: tuple[tuple[int, ...], ...]
    annihilator_den: int

    def __post_init__(self):
        n, k = self.ambient_dim, self.dim
        if not 1 <= k <= n - 1:
            raise ValueError(f"subspace dimension {k} must be in [1, {n - 1}]")
        if any(len(v) != n for v in self.basis_num + self.annihilator_num):
            raise ValueError("basis/annihilator row count must equal ambient dimension")
        if len(self.annihilator_num) != n - k:
            raise ValueError("annihilator must have n-k columns")
        if any(int_dot(y, g) for y in self.basis_num for g in self.annihilator_num):
            raise ValueError("annihilator does not vanish on the basis")
        if integer_row_rank(self.basis_num) != k:
            raise ValueError("basis columns are dependent")
        if integer_row_rank(self.annihilator_num) != n - k:
            raise ValueError("annihilator columns are dependent")

    @classmethod
    def from_basis(cls, vectors: Sequence[Sequence]) -> "Subspace":
        return cls._spanned_by(*_cleared_family(vectors))

    @classmethod
    def from_kernel(cls, functionals: Sequence[Sequence]) -> "Subspace":
        """Subspace cut out as the joint kernel of the given functionals."""
        rows, _ = _cleared_family(functionals)
        if not rows:
            raise ValueError("empty functional list")
        return cls._spanned_by(*integer_nullspace(rows, len(rows[0])))

    @classmethod
    def _spanned_by(cls, basis: list[list[int]], den: int) -> "Subspace":
        """The subspace with basis vectors basis / den, its annihilator
        the integer nullspace of the basis."""
        if not basis:
            raise ValueError("empty basis")
        if integer_row_rank(basis) != len(basis):
            raise ValueError("basis vectors are linearly dependent")
        n = len(basis[0])
        annihilator, a_den = integer_nullspace(basis, n)
        return cls(ambient_dim=n, basis_num=tuple(map(tuple, basis)), basis_den=den,
                   annihilator_num=tuple(map(tuple, annihilator)),
                   annihilator_den=a_den)

    @property
    def dim(self) -> int:
        return len(self.basis_num)

    def basis_vectors(self) -> list[Vector]:
        return [tuple(Fraction(x, self.basis_den) for x in y) for y in self.basis_num]

    def annihilator_functionals(self) -> list[Vector]:
        return [tuple(Fraction(x, self.annihilator_den) for x in g)
                for g in self.annihilator_num]

    def contains(self, vector: Sequence) -> bool:
        vec = _as_vector(vector)
        return all(dot(g, vec) == 0 for g in self.annihilator_functionals())


def _cleared_family(vectors: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Rational vectors of one length as integer rows over their least
    common denominator."""
    rows = [_as_vector(v) for v in vectors]
    if any(len(v) != len(rows[0]) for v in rows):
        raise ValueError("ragged rows")
    return cleared(rows)


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
    rows have the rank of its raw rows.  Both ranks are read off one
    subset walk over the raw rows carried in lockstep with the projected
    ones, which decides the last two levels of each size at once (see
    _first_failing_subset); no rank is taken per subset.

    Returns the first violating index set as witness.  Enumeration order:
    spans by (size, lexicographic indices), then kernels likewise.
    spans_checked and kernels_checked count the subsets in that order up
    to the witness, or all of them, and subset_cap bounds their sum.  The
    walk counts a subtree it cuts, and the leaves a node decides at once,
    by binomials, so the counts and the budget are those of a walk
    through every subset.
    """
    n = space.dim
    k = Y.dim
    span, spans_checked = _first_failing_subset(
        space.primal_cleared[0], space.primal_class_reps, Y.annihilator_num,
        n - k, 0, subset_cap, "vertex-span")
    if span is not None:
        return GeneralPositionReport(False, "span", span, spans_checked, 0)
    kernel, kernels_checked = _first_failing_subset(
        space.dual_cleared[0], space.dual_class_reps, Y.basis_num, k,
        spans_checked, subset_cap, "kernel")
    if kernel is not None:
        return GeneralPositionReport(False, "kernel", kernel,
                                     spans_checked, kernels_checked)
    return GeneralPositionReport(True, None, None, spans_checked, kernels_checked)


def _first_failing_subset(vectors: Sequence[Sequence[int]], reps: Sequence[int],
                          directions: Sequence[Sequence[int]], max_size: int,
                          spent: int, subset_cap: int,
                          what: str) -> tuple[tuple[int, ...] | None, int]:
    """First subset T of reps, by (size <= max_size, lexicographic), whose
    rows v·d (d in directions) have lower rank than its rows v, and the
    number of subsets counted up to it.  Raises once spent plus the
    subsets counted exceeds subset_cap.

    vectors and directions are integer rows, each family cleared over one
    denominator: a positive factor on all vectors, or on all directions,
    changes no rank.  Each size is one linalg.subset_walk over the rows
    [v·d | v], whose heads are the projected rows v·d.  A head is a linear
    image of its row, so the rows [v·d | v] of a subset have the rank of
    its raw rows.

    The first failure T is raw-independent: a dependent one has an
    independent subset with the same span, which fails too and comes
    first.  Every proper subset of T passes and is raw-independent, so
    its projected rows are independent.  So T's projected rows are
    dependent, its prefixes' are not, and its raw rows are independent:
    it is a subset the walk yields, and every subset the walk yields
    fails.  At a node two rows short of the size, a leaf's projected rows
    are dependent when its two carried heads are parallel (or the second
    is zero), and its raw rows independent when the two carried rows are
    not parallel: the raw rows ride along in the same reduce_row steps,
    and no rank is taken per leaf.  The walk's counts, of cut subtrees
    and of a node's leaves by binomials, are charged as it yields them,
    so the counts and the budget error are those of a walk through every
    subset.
    """
    rows = [[int_dot(v, d) for d in directions] + list(v)
            for v in (vectors[i] for i in reps)]
    checked = 0
    for size in range(1, min(max_size, len(reps)) + 1):
        for passed, subset in subset_walk(rows, size, len(directions)):
            checked += passed
            if spent + checked > subset_cap:
                raise BudgetExceededError(
                    f"{what} enumeration exceeded cap {subset_cap}")
            if subset is not None:
                return tuple(reps[i] for i in subset), checked
    return None, checked
