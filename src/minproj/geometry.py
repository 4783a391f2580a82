"""Polyhedral normed spaces, their duals, subspaces and general position.

A space is given by the vertex list of its unit ball (both signs stored
explicitly) together with the vertex list of the dual ball; the dual
side can be computed exactly from the primal side by an incremental
double-description polar computation, which holds one vertex of each
antipodal pair.  Every space, validated or not, pairs each vertex of
each list with its negation when it is built, and refuses a list whose
pairing is not an involution without fixed points.  Norms and operator
norms then reduce to finite maxima of |value| over one vertex of each
pair.

Each list is held as integer rows over one denominator, the least common
one of all its vertices, not one per vertex: the input is cleared once,
the double description runs on those rows and hands the polar back the
same way, and the Fraction vertex lists are views formed on demand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from typing import Sequence

from .errors import (InputFormatError, InternalError, NotExtremeError,
                     NotFullDimensionalError, NotSymmetricError)
from .linalg import (DEFAULT_WORK_BUDGET, Vector, WorkBudget, cleared,
                     complement_coordinates, independent_rows, int_dot,
                     integer_inverse, integer_nullspace, over_denominator,
                     primitive, subset_walk)
from .rational import format_rational


# A vertex list: integer rows, all over one denominator held beside them.
Rows = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# extremality and the polar dual


def polar_dual(vertices: Sequence[Sequence]) -> tuple[Vector, ...]:
    """Vertices of {f : f·v <= 1 for every listed v}, exactly, for any
    symmetric full-dimensional point list: interior points, the zero
    vector and repeats included.

    Incremental double description in integers on the listed points
    cleared over one denominator, its edges read off the tight masks with
    no rank (see _double_description).  The result is sorted, so equal
    inputs give identical output.  A listed point that is not extreme
    gives a redundant halfspace and no facet; from_vertices reads each
    point's extremality off the polar vertices tight at it, with no LP
    (see _first_non_vertex).
    """
    return _fraction_rows(*_vertices_of(_double_description(*_point_rows(vertices))))


@dataclass(frozen=True)
class _Polar:
    """The polar's points as primitive homogeneous integer vectors (P, h),
    h > 0, standing for P / h, each with its tight mask: bit 2p (2p + 1)
    is set when the point is tight at +u_p (-u_p), u_p the p-th antipodal
    pair of listed points.  bits holds, per listed point, the bit that
    stands for it (None for the zero vector), and negation the listed
    points' pairing (_negation), which the symmetry check formed."""

    points: list[list[int]]
    tights: list[int]
    bits: list[int | None]
    negation: tuple[int, ...]


def _vertices_of(polar: _Polar) -> tuple[Rows, int]:
    """The polar's vertices as sorted integer rows over H, the lcm of the
    points' h.  A primitive (P, h) has least denominator h, so H is the
    least common denominator of the vertices; every row is over the one
    H > 0, so integer order is the order of the Fraction vertices."""
    H = lcm(*(X[-1] for X in polar.points))
    rows = []
    for X in polar.points:
        q = H // X[-1]
        rows.append(tuple(X[:-1]) if q == 1 else tuple(q * x for x in X[:-1]))
    return tuple(sorted(rows)), H


def _double_description(rows: Rows, den: int) -> _Polar:
    """The polar of the listed points rows[i] / den, which must be
    nonempty, of one length n, and symmetric (else NotSymmetricError
    "primal vertex v has no negation in the list") and full-dimensional
    (else NotFullDimensionalError "vertices do not span the space").

    All points share the one denominator den > 0, so a point u = w / den
    and -u are the rows w and -w, and the integer row keys the symmetry
    check and the pairing of u with -u.  Each point of the polytope is
    kept as a primitive homogeneous integer vector (P, h), h > 0, standing
    for P / h, so its slack against u is the integer w·P - den·h
    (negative inside, zero on the boundary).  The polytope is symmetric,
    and only one point of each antipodal pair is kept: the partner of
    (P, h) is (-P, h), its mask the kept one with bits 2p and 2p + 1
    exchanged, and its slack against u is -a - 2·den·h when the kept
    point's is a.  The start is the parallelotope cut out by n
    independent pairs: their matrix is W / den, so with W^-1 = M / D its
    vertices are M·(den σ) over D for the sign vectors σ, and the 2ⁿ⁻¹
    with σ_0 = + are built by doubling, adding ±den·M[:, c] column by
    column.  Each further pair is inserted as one step, with one slack
    per kept point: the new vertices are the cuts a_j·(P_i, h_i) -
    a_i·(P_j, h_j) of the edges (i, j) between the polytope's vertices,
    partners included, that cross u·x = 1, each divided by its content,
    and each stands for itself and its negation, the cut across
    -u·x = 1; a pair is dropped when |u·x| > 1.  The partners are added
    at the end.  Scaling a row w by a positive factor changes no point,
    mask or cut: every point is primitive, and the factor cancels in its
    content.

    Edges come from the tight masks alone, by the combinatorial test of
    Fukuda and Prodon ("Double description method revisited", LNCS 1120,
    1996): two vertices span an edge exactly when their common mask has
    at least n - 1 bits and no third vertex's mask contains it.  The
    vertices tight on every constraint the two share are those of the
    smallest face holding both, and a face with two vertices is an edge.
    The test is exact because after each step the kept points and their
    partners are the vertex set of the current polytope and each mask is
    its point's tight set over the pairs inserted so far: a cut lies
    strictly inside its edge, where exactly the pairs tight along the
    whole edge are tight, and a kept vertex gains the bits of the new pair
    it lies on.  No rank is taken, and no Fraction is formed.
    """
    n = len(rows[0])
    negation = _negation(rows, den, "primal")

    # One representative u per antipodal pair, in order of first
    # occurrence; bit 2p of a tight mask stands for +u_p, bit 2p+1 for -u_p.
    # The zero vector is never tight and cuts nothing.
    bit_of: dict[tuple[int, ...], int | None] = {}
    reps: list[list[int]] = []
    for w in rows:
        if w not in bit_of:
            if any(w):
                bit_of[w] = 2 * len(reps)
                bit_of[tuple(-x for x in w)] = 2 * len(reps) + 1
                reps.append(list(w))
            else:
                bit_of[w] = None

    # The first n independent pairs, by one fraction-free pass.
    chosen = independent_rows(reps, n)
    if len(chosen) < n:
        raise NotFullDimensionalError("vertices do not span the space")

    inv = integer_inverse([reps[p] for p in chosen], n)
    if inv is None:
        raise InternalError("independent vertices give a singular system")
    M, D = inv
    even = sum(1 << (2 * p) for p in range(len(reps)))

    def partner(X: list[int]) -> list[int]:
        """The point (-P, h) of the point (P, h)."""
        return [-x for x in X[:-1]] + X[-1:]

    def swapped(masks: list[int]) -> list[int]:
        """The masks of the partners: bits 2p and 2p + 1 exchanged."""
        return [((t & even) << 1) | ((t >> 1) & even) for t in masks]

    # One vertex of each antipodal pair of the parallelotope, the sign
    # vectors with σ_0 = +, by doubling over the chosen pairs' columns.
    columns = [[den * x for x in column] for column in zip(*M)]
    sums, tights = [columns[0]], [1 << (2 * chosen[0])]
    for p, column in zip(chosen[1:], columns[1:]):
        sums = [w for v in sums for w in ([s + x for s, x in zip(v, column)],
                                          [s - x for s, x in zip(v, column)])]
        tights = [t | bit for t in tights for bit in (1 << (2 * p), 2 << (2 * p))]
    points = [primitive(v + [D]) for v in sums]

    started = set(chosen)
    for p, w in enumerate(reps):
        if p in started:
            continue
        plus, minus = 1 << (2 * p), 1 << (2 * p + 1)
        slack_row = w + [-den]
        count = len(points)
        # The slacks against u of the kept vertices, then of their
        # partners -X = (-P, h): -w·P - den·h = -a - 2·den·h.
        slacks = [int_dot(slack_row, X) for X in points]
        slacks += [-a - 2 * den * X[-1] for a, X in zip(slacks, points)]
        masks = tights + swapped(tights)

        def vertex(i: int) -> list[int]:
            return points[i] if i < count else partner(points[i - count])

        inside = [i for i, a in enumerate(slacks) if a < 0]
        new_points: list[list[int]] = []
        new_tights: list[int] = []
        for j, aj in enumerate(slacks):
            if aj <= 0:
                continue
            Xj, tj = vertex(j), masks[j]
            for i in inside:
                common = masks[i] & tj
                if common.bit_count() >= n - 1 and not any(
                        t & common == common and k != i and k != j
                        for k, t in enumerate(masks)):
                    ai = slacks[i]
                    new_points.append(primitive([aj * x - ai * y
                                                 for x, y in zip(vertex(i), Xj)]))
                    new_tights.append(common | plus)
        # Keep |u·x| <= 1.
        for X, mask, a, b in zip(points, tights, slacks, slacks[count:]):
            if a <= 0 and b <= 0:
                new_points.append(X)
                new_tights.append(mask | (plus if a == 0 else 0)
                                  | (minus if b == 0 else 0))
        points, tights = new_points, new_tights

    points += [partner(X) for X in points]
    tights += swapped(tights)
    return _Polar(points, tights, [bit_of[w] for w in rows], negation)


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
    """Unit-ball vertex list and dual-ball vertex list of a polyhedral norm,
    in integers: each list is a tuple of integer rows over one common
    denominator, the least one of all its vertices (primal_cleared,
    dual_cleared).  primal_vertices and dual_vertices are the Fraction
    views.  The space owns each list's pairing, primal_negation and
    dual_negation, the index of -v for each vertex v (see _negation):
    every space is refused when it is built unless both are involutions
    without fixed points, and no later stage checks them again.  A zero
    row is its own negation, and a repeated row r sends the negation of
    -r to r's last occurrence, so the first index not paired back to
    itself is the first zero or repeated row, a NotExtremeError as
    validation reports it (_first_non_vertex).  pairing is the primal
    list's _negation when the caller has formed it, as from_vertices
    has when the double description ran, so the list is paired once; it
    is checked as one formed here would be."""

    dim: int
    primal_cleared: tuple[Rows, int]
    dual_cleared: tuple[Rows, int]
    primal_negation: tuple[int, ...] = field(init=False)
    dual_negation: tuple[int, ...] = field(init=False)
    pairing: InitVar[tuple[int, ...] | None] = None

    def __post_init__(self, pairing):
        for kind, cleared, negation in (("primal", self.primal_cleared, pairing),
                                        ("dual", self.dual_cleared, None)):
            if negation is None:
                negation = _negation(*cleared, kind)
            if (i := next((i for i, j in enumerate(negation)
                           if j == i or negation[j] != i), None)) is not None:
                raise NotExtremeError(
                    f"{kind} vertex {i} is a convex combination of the others")
            object.__setattr__(self, f"{kind}_negation", negation)

    @classmethod
    def from_vertices(cls, vertices: Sequence[Sequence],
                      dual_vertices: Sequence[Sequence] | None = None,
                      validate: bool = True) -> "PolyhedralSpace":
        """Build a space, validating symmetry, full dimension and extremality.

        The polar dual is computed exactly, with one symmetry check,
        whose pairing of the primal list the space keeps, and each
        primal vertex is proved extreme off the polar's tight masks
        alone: the polar vertices tight at it share no other listed
        point (see _first_non_vertex), with no rank and no LP.  A
        supplied dual list must then be exactly the polar vertex set, in
        any order; the list is kept in the order given.  With
        validate=False a supplied list is taken as it is, and a missing
        one is the polar with no extremality check; either way the space
        still checks the pairing of both lists, so a missing negation, a
        zero row or a repeated row is refused.

        Entries may be ints, Fractions or anything Fraction() takes.
        Each list is cleared once, and a supplied dual list is compared
        with the polar as sorted rows over its least common denominator.
        """
        primal = rows, den = _point_rows(vertices)
        pairing = None
        if validate or dual_vertices is None:
            dd = _double_description(rows, den)
            pairing = dd.negation
            polar = _vertices_of(dd)
            if validate and (i := _first_non_vertex(dd)) is not None:
                raise NotExtremeError(
                    f"primal vertex {i} is a convex combination of the others")
        if dual_vertices is None:
            dual = polar
        else:
            dual = cleared(dual_vertices)
            if validate and (tuple(sorted(dual[0])), dual[1]) != polar:
                raise NotExtremeError(
                    "supplied dual vertices are not the polar vertex set")
        return cls(dim=len(rows[0]), primal_cleared=primal, dual_cleared=dual,
                   pairing=pairing)

    @cached_property
    def primal_vertices(self) -> tuple[Vector, ...]:
        """The primal vertices as Fractions, a view of primal_cleared."""
        return _fraction_rows(*self.primal_cleared)

    @cached_property
    def dual_vertices(self) -> tuple[Vector, ...]:
        """The dual vertices as Fractions, a view of dual_cleared."""
        return _fraction_rows(*self.dual_cleared)

    @cached_property
    def primal_reps(self) -> tuple[int, ...]:
        """One primal vertex of each antipodal pair: the indices i with
        i < primal_negation[i], in order."""
        return tuple(i for i, j in enumerate(self.primal_negation) if i < j)

    @cached_property
    def dual_reps(self) -> tuple[int, ...]:
        """One dual vertex of each antipodal pair, likewise."""
        return tuple(i for i, j in enumerate(self.dual_negation) if i < j)


def _negation(rows: Rows, den: int, kind: str) -> tuple[int, ...]:
    """Index of the last row -r for each row r, keyed on the integer rows
    (over one common denominator, -v clears to the negated row of v).  A
    row whose negation is not listed is a NotSymmetricError naming the
    first such vertex."""
    index = {row: i for i, row in enumerate(rows)}
    try:
        return tuple(index[tuple(-x for x in row)] for row in rows)
    except KeyError:
        row = next(row for row in rows if tuple(-x for x in row) not in index)
        vertex = ", ".join(format_rational(Fraction(x, den)) for x in row)
        raise NotSymmetricError(
            f"{kind} vertex ({vertex}) has no negation in the list") from None


def _point_rows(vectors: Sequence[Sequence]) -> tuple[Rows, int]:
    """A nonempty point list of one length n >= 1, cleared (linalg.cleared)."""
    rows, den = cleared(vectors)
    if not rows:
        raise NotFullDimensionalError("empty vertex list")
    if any(len(v) != len(rows[0]) for v in rows):
        raise InputFormatError("inconsistent vector lengths")
    if not rows[0]:
        raise InputFormatError("vectors have no entries")
    return rows, den


def _fraction_rows(rows: Rows, den: int) -> tuple[Vector, ...]:
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def norm_eval(space: PolyhedralSpace, x: Sequence) -> Fraction:
    """The norm of x: max over dual vertices f of f·x, in integers, read
    as |f·x| over one dual vertex of each antipodal pair (dual_reps)."""
    if len(x) != space.dim:
        raise ValueError(f"vector length {len(x)} != dimension {space.dim}")
    vec, den = over_denominator(x)
    F, df = space.dual_cleared
    return Fraction(max(abs(int_dot(F[i], vec)) for i in space.dual_reps), den * df)


@dataclass(frozen=True)
class Subspace:
    """Proper subspace Y of R^n given by its basis, in integers: the k
    independent basis vectors are basis_num / basis_den, over their least
    common denominator.  The n - k functionals vanishing on Y are
    computed when Y is built, as annihilator_num / annihilator_den: the
    integer nullspace of the basis (linalg.integer_nullspace), so they
    vanish on the basis and are independent by construction, and the
    basis is independent exactly when there are n - k of them.
    basis_vectors, annihilator_functionals and contains are the Fraction
    views.
    """

    basis_num: Rows
    basis_den: int
    annihilator_num: Rows = field(init=False)
    annihilator_den: int = field(init=False)

    def __post_init__(self):
        basis = tuple(map(tuple, self.basis_num))
        if not basis:
            raise InputFormatError("empty basis")
        n, k = len(basis[0]), len(basis)
        if any(len(y) != n for y in basis):
            raise InputFormatError("ragged rows")
        annihilator, den = integer_nullspace(basis, n)
        if len(annihilator) != n - k:
            raise InputFormatError("basis vectors are linearly dependent")
        self.check_dimension(n, k)
        object.__setattr__(self, "basis_num", basis)
        object.__setattr__(self, "annihilator_num", tuple(map(tuple, annihilator)))
        object.__setattr__(self, "annihilator_den", den)

    @staticmethod
    def check_dimension(n: int, k: int) -> None:
        """Raise InputFormatError unless R^n has proper subspaces of
        dimension k."""
        if n == 1:
            raise InputFormatError("a 1-dimensional space has no proper subspace")
        if not 1 <= k <= n - 1:
            raise InputFormatError(f"subspace dimension {k} must be in [1, {n - 1}]")

    @classmethod
    def from_basis(cls, vectors: Sequence[Sequence]) -> "Subspace":
        return cls(*cleared(vectors))

    @classmethod
    def from_kernel(cls, functionals: Sequence[Sequence]) -> "Subspace":
        """Subspace cut out as the joint kernel of the given functionals."""
        rows, _ = cleared(functionals)
        if not rows:
            raise InputFormatError("empty functional list")
        if any(len(g) != len(rows[0]) for g in rows):
            raise InputFormatError("ragged rows")
        return cls(*integer_nullspace(rows, len(rows[0])))

    @property
    def ambient_dim(self) -> int:
        return len(self.basis_num[0])

    def check_ambient(self, n: int) -> None:
        """Raise ValueError unless Y is a subspace of R^n."""
        if self.ambient_dim != n:
            raise ValueError(f"a subspace of R^{self.ambient_dim} in a space "
                             f"of dimension {n}")

    @property
    def dim(self) -> int:
        return len(self.basis_num)

    def basis_vectors(self) -> list[Vector]:
        return [tuple(Fraction(x, self.basis_den) for x in y) for y in self.basis_num]

    def annihilator_functionals(self) -> list[Vector]:
        return [tuple(Fraction(x, self.annihilator_den) for x in g)
                for g in self.annihilator_num]

    def contains(self, vector: Sequence) -> bool:
        if len(vector) != self.ambient_dim:
            raise ValueError("vector lengths disagree")
        vec, _ = over_denominator(vector)
        return not any(int_dot(g, vec) for g in self.annihilator_num)


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
                           budget: int = DEFAULT_WORK_BUDGET) -> GeneralPositionReport:
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
    subset walk over rows n entries wide, [v·A | v_J] or [f·B | f_J]:
    the projected row, then the coordinates J that complete the
    directions to a basis of R^n (linalg.complement_coordinates).  Such
    a row is the raw row under an invertible linear map, so it has the
    raw row's rank, and the walk decides the last two levels of each
    size at once (see _first_failing_subset); no rank is taken per
    subset.  They are the rows [v·d | v] with the coordinates outside J
    dropped, which the rest of each row determines, so every step, cut,
    yielded subset and witness is that of the walk over [v·d | v].

    Returns the first violating index set as witness.  Enumeration order:
    spans by (size, lexicographic indices), then kernels likewise.
    spans_checked and kernels_checked count the subsets in that order up
    to the witness, or all of them: the witness's position in that
    order, read off its indices (see _first_failing_subset), so the
    counts are those of a walk through every subset.  budget bounds the
    work of the walks, spans and kernels together, in the row steps of
    linalg.WorkBudget; past it the check raises BudgetExceededError.  Y
    must be a subspace of R^n (Subspace.check_ambient).
    """
    n = space.dim
    Y.check_ambient(n)
    k = Y.dim
    spans = WorkBudget(budget, "vertex-span enumeration")
    span, spans_checked = _first_failing_subset(
        space.primal_cleared[0], space.primal_reps, Y.annihilator_num, n - k, spans)
    if span is not None:
        return GeneralPositionReport(False, "span", span, spans_checked, 0)
    kernel, kernels_checked = _first_failing_subset(
        space.dual_cleared[0], space.dual_reps, Y.basis_num, k,
        WorkBudget(budget, "kernel enumeration", spans.spent))
    if kernel is not None:
        return GeneralPositionReport(False, "kernel", kernel,
                                     spans_checked, kernels_checked)
    return GeneralPositionReport(True, None, None, spans_checked, kernels_checked)


def _first_failing_subset(vectors: Sequence[Sequence[int]], reps: Sequence[int],
                          directions: Sequence[Sequence[int]], max_size: int,
                          budget: WorkBudget) -> tuple[tuple[int, ...] | None, int]:
    """First subset T of reps, by (size <= max_size, lexicographic), whose
    rows v·d (d in directions) have lower rank than its rows v, and the
    number of subsets counted up to it, or of all of them when there is
    none.  The walks charge budget, which raises once they run past it.

    vectors and directions are integer rows, each family cleared over one
    denominator: a positive factor on all vectors, or on all directions,
    changes no rank.  Each size is one linalg.subset_walk over the rows
    [v·d | v_J] (_walk_rows), whose heads are the projected rows v·d.  J
    completes the directions to a basis of R^n, so v -> (v·d, v_J) is
    invertible and the rows of a subset have the rank of its raw rows.

    The rows are n entries wide, where the rows [v·d | v] that carry the
    whole raw row are 2n - k (spans) or n + k (kernels), and the walk
    over them takes the same steps and yields the same subsets.  They
    are the rows [v·d | v] with the coordinates outside J dropped, and
    the walk pivots only in the heads, so each kept entry is the same
    Bareiss minor and every division stays exact.  A dropped coordinate
    is a linear function of the head and v_J, in every carried row as
    in every row, so a carried row is zero, or parallel to another, in
    both walks alike.

    The first failure T is raw-independent: a dependent one has an
    independent subset with the same span, which fails too and comes
    first.  Every proper subset of T passes and is raw-independent, so
    its projected rows are independent.  So T's projected rows are
    dependent, its prefixes' are not, and its raw rows are independent:
    it is a subset the walk yields, and every subset the walk yields
    fails.  At a node two rows short of the size, a leaf's projected rows
    are dependent when its two carried heads are parallel (or the second
    is zero), and its raw rows independent when the two carried rows are
    not parallel: the tails v_J ride along in the same reduce_row steps,
    and no rank is taken per leaf.

    The count is the witness's position in (size, lexicographic) order,
    in closed form (the combinatorial number system): with m = len(reps)
    and the witness at positions t_0 < ... < t_{s-1}, the subsets of its
    size after it are those that agree with it before some i and take a
    larger position there, sum_i C(m - 1 - t_i, s - i) of them, so it is
    the sum of C(m, s') over s' <= s less that.  With no witness, the
    count is the sum of C(m, s) over every size walked.
    """
    rows = _walk_rows(vectors, reps, directions)
    m = len(rows)
    checked = 0
    for size in range(1, min(max_size, m) + 1):
        checked += comb(m, size)
        for subset in subset_walk(rows, size, len(directions), budget):
            after = sum(comb(m - 1 - t, size - i) for i, t in enumerate(subset))
            return tuple(reps[i] for i in subset), checked - after
    return None, checked


def _walk_rows(vectors: Sequence[Sequence[int]], reps: Sequence[int],
               directions: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows [v·d | v_J] of _first_failing_subset, one per index of
    reps, J the coordinates that complete the directions to a basis of
    R^n."""
    J = complement_coordinates(directions, len(directions[0]))
    return [[int_dot(v, d) for d in directions] + [v[j] for j in J]
            for v in (vectors[i] for i in reps)]
