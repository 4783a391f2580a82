"""Chalmers-Metcalf certificates: convex combinations T = sum a_i x_i (x) f_i
over norming pairs that annihilate L_Y(X, Y).

A valid certificate leaves Y invariant, is norming for every minimal
projection, and its trace restricted to Y equals the projection
constant, which makes it an exact optimality witness for lambda(Y, X).
The LP dual of the projection solve is one such certificate; a
minimum-support one is found by exact linear solves over subsets of the
implicit pairs, smallest subsets first, with dependent subsets pruned
by integer elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import (CertificateInvalidError, InternalError,
                     RankGapViolationError, SupportBudgetExceededError)
from .geometry import PolyhedralSpace, Subspace
from .linalg import (RMatrix, Vector, dot, integer_rows, reduce_row, rows_rank,
                     solve_linear)
from .projections import (MinProjReport, OperatorBasis, OperatorPoint,
                          build_operator_basis)

#: Largest candidate set the minimal-support search enumerates by default.
DEFAULT_SUPPORT_CAP = 24


@dataclass(frozen=True)
class CMFunctional:
    """pairs (vertex index, dual index) with weights.  The defining
    invariants (strictly positive weights summing to one, distinct pairs)
    are judged by verify_cm rather than at construction, so third-party
    certificates can be loaded and reported on instead of rejected."""

    pairs: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.pairs) != len(self.weights):
            raise ValueError("pairs and weights must have equal length")
        if not self.pairs:
            raise ValueError("empty certificate")


@dataclass(frozen=True)
class CMVerdict:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def cm_operator(space: PolyhedralSpace, cm: CMFunctional) -> RMatrix:
    """The matrix of T = sum a_i x_i (x) f_i."""
    n = space.dim
    entries = [[Fraction(0)] * n for _ in range(n)]
    for (pi, dj), a in zip(cm.pairs, cm.weights):
        x = space.primal_vertices[pi]
        f = space.dual_vertices[dj]
        for r in range(n):
            if x[r]:
                ax = a * x[r]
                for c in range(n):
                    entries[r][c] += ax * f[c]
    return RMatrix.from_rows(entries)


def _coordinates_in_y(Y: Subspace, T: RMatrix) -> list[Vector | None]:
    """T(y) in Y's basis for each basis vector y of Y, by exact solves;
    None where T(y) leaves Y."""
    return [solve_linear(Y.basis, T.apply(y)) for y in Y.basis_vectors()]


def _trace(coords: list[Vector | None]) -> Fraction | None:
    """Trace of T|_Y from _coordinates_in_y; None when T does not map Y
    into Y."""
    if None in coords:
        return None
    return sum((c[b] for b, c in enumerate(coords)), Fraction(0))


def trace_on_subspace(space: PolyhedralSpace, Y: Subspace,
                      cm: CMFunctional) -> Fraction | None:
    """trace of T restricted to Y, via exact solves in Y's basis;
    None when T does not map Y into Y."""
    return _trace(_coordinates_in_y(Y, cm_operator(space, cm)))


def verify_cm(space: PolyhedralSpace, Y: Subspace, cm: CMFunctional,
              lam: Fraction, P: OperatorPoint,
              basis: OperatorBasis | None = None) -> CMVerdict:
    """Exact check of the certificate: weight sanity plus the four defining
    conditions -- (1) vanishing on every basis operator of L_Y(X, Y),
    (2) T(Y) contained in Y, (3) every pair norming for P, (4) trace of
    T|_Y equal to lam.

    Both (1) and (3) read the values f(L_q x) of each pair from
    OperatorBasis.pair_values, with no operator matrix applied:
    sum_i a_i f_i(L_q x_i) for (1), and f(P x) = f(P0 x) + sum_q c_q f(L_q x)
    for (3).  (2) and (4) share one exact solve per basis vector y of Y,
    T(y) in Y's basis, with T built once."""
    violations: list[str] = []
    n_p = len(space.primal_vertices)
    n_d = len(space.dual_vertices)
    for pi, dj in cm.pairs:
        if not (0 <= pi < n_p and 0 <= dj < n_d):
            violations.append(f"weights: pair ({pi}, {dj}) out of range")
            return CMVerdict(ok=False, violations=tuple(violations))
    if len(set(cm.pairs)) != len(cm.pairs):
        violations.append("weights: duplicate pairs")
    if any(a <= 0 for a in cm.weights):
        violations.append("weights: non-positive weight")
    total = sum(cm.weights, Fraction(0))
    if total != 1:
        violations.append(f"weights: sum is {total}, not 1")

    if basis is None:
        basis = build_operator_basis(space, Y)
    values = [basis.pair_values(space.primal_vertices[pi], space.dual_vertices[dj])
              for pi, dj in cm.pairs]
    for q in range(len(basis.basis_ops)):
        s = sum((a * v[q] for a, v in zip(cm.weights, values)), Fraction(0))
        if s != 0:
            violations.append(f"vanishing: basis operator {q} gives {s}")
            break

    coords = _coordinates_in_y(Y, cm_operator(space, cm))
    if None in coords:
        violations.append(f"invariance: T(basis vector {coords.index(None)}) leaves Y")

    P0 = basis.base_projection
    for (pi, dj), v in zip(cm.pairs, values):
        value = (dot(space.dual_vertices[dj], P0.apply(space.primal_vertices[pi]))
                 + dot(v, P.coefficients))
        if value != lam:
            violations.append(
                f"norming: pair ({pi}, {dj}) gives {value}, expected {lam}")
            break

    trace = _trace(coords)
    if trace is None:
        violations.append("trace: undefined, T does not map Y into Y")
    elif trace != lam:
        violations.append(f"trace: {trace} differs from {lam}")

    return CMVerdict(ok=not violations, violations=tuple(violations))


def cm_from_dual(report: MinProjReport) -> CMFunctional:
    """Certificate from the positive LP dual weights; the weights of an
    exact dual already sum to one.  Verified before being returned."""
    items = sorted(report.dual_certificate.items())
    if not items:
        raise CertificateInvalidError("empty dual certificate")
    total = sum((w for _, w in items), Fraction(0))
    cm = CMFunctional(pairs=tuple(p for p, _ in items),
                      weights=tuple(w / total for _, w in items))
    verdict = verify_cm(report.space, report.subspace, cm, report.lam,
                        report.witness, basis=report.basis)
    if not verdict.ok:
        raise CertificateInvalidError("; ".join(verdict.violations))
    return cm


def minimal_support_cm(space: PolyhedralSpace, Y: Subspace,
                       candidate_pairs: Iterable[tuple[int, int]],
                       lam: Fraction, max_candidates: int = DEFAULT_SUPPORT_CAP,
                       *, witness: OperatorPoint,
                       basis: OperatorBasis | None = None) -> tuple[CMFunctional, int]:
    """Smallest-support certificate over the candidate pairs.

    Each pair p contributes the column [v_p; 1], where v_p lists its
    values on the basis operators of L_Y(X, Y); a subset is a valid
    support exactly when [v_p; 1]·w = [0; 1] has a solution w > 0.
    Subsets are visited by cardinality, then lexicographically, and the
    first valid one is returned, so it has globally minimal support over
    the candidate set.  A smallest support has linearly independent
    columns (Caratheodory: a dependent one could be shrunk, and smaller
    sizes come first), so sizes beyond k(n-k) + 1 are never tried and
    every dependent subset can be skipped.

    Each size is one depth-first walk over the sorted candidates (see
    _independent_spanning_subsets): the columns are cleared to integers
    once, and a step reduces the new column against its prefix's echelon
    rows by linalg.reduce_row, the fraction-free step behind every rank
    and solve.  A column that reduces to zero makes the prefix dependent
    and prunes its whole subtree.  A full-size subset is a candidate only
    when the target [0; 1], reduced against the same rows, vanishes; only
    then are the weights, unique by independence, solved exactly and
    tested for w > 0.  The hit is verified with witness, a minimal
    projection, before it is returned.  basis, when given, must be
    build_operator_basis(space, Y).
    """
    candidates = sorted(set(candidate_pairs))
    if not candidates:
        raise CertificateInvalidError("no candidate pairs to search")
    if len(candidates) > max_candidates:
        raise SupportBudgetExceededError(
            f"{len(candidates)} candidate pairs exceed the cap of {max_candidates}")

    if basis is None:
        basis = build_operator_basis(space, Y)
    d = len(basis.basis_ops)
    columns = [basis.pair_values(space.primal_vertices[pi], space.dual_vertices[dj])
               + (Fraction(1),) for pi, dj in candidates]
    integer_columns = integer_rows(columns)
    target = (Fraction(0),) * d + (Fraction(1),)

    for size in range(1, min(d + 1, len(candidates)) + 1):
        for subset in _independent_spanning_subsets(integer_columns, size):
            weights = solve_linear(
                RMatrix.from_rows(columns[i] for i in subset).transpose(), target)
            if weights is None:
                raise InternalError(
                    "the target reduces to zero but the support system is infeasible")
            if any(w <= 0 for w in weights):
                continue
            cm = CMFunctional(pairs=tuple(candidates[i] for i in subset),
                              weights=weights)
            check = verify_cm(space, Y, cm, lam, witness, basis=basis)
            if not check.ok:
                raise CertificateInvalidError(
                    "subset search produced an invalid certificate: "
                    + "; ".join(check.violations))
            return cm, size
    raise CertificateInvalidError("no valid certificate over the candidate pairs")


def _independent_spanning_subsets(columns: list[list[int]],
                                  size: int) -> Iterator[tuple[int, ...]]:
    """Index tuples of `size` linearly independent integer columns whose
    span holds the last unit vector, in lexicographic order.

    Depth-first: a node holds its prefix's echelon rows (pivot, row), each
    the linalg.reduce_row reduction of its column against the rows before
    it.  A column reduced to zero lies in the prefix's span, so every
    subset through it is dependent and is skipped.  A node one short of
    `size` reduces the target against its prefix once; a full-size subset
    spans the target exactly when one more step, against its last row,
    leaves zero.
    """
    last = len(columns) - size
    unit = [0] * (len(columns[0]) - 1) + [1]

    def walk(start, prefix, rows):
        depth = len(prefix)
        if depth + 1 == size:
            target = reduce_row(unit, rows)
            prev = rows[-1][1][rows[-1][0]] if rows else 1
        for i in range(start, last + depth + 1):
            row = reduce_row(columns[i], rows)
            pivot = next((p for p, x in enumerate(row) if x), None)
            if pivot is None:
                continue
            if depth + 1 < size:
                yield from walk(i + 1, prefix + (i,), rows + [(pivot, row)])
            elif not any(reduce_row(target, [(pivot, row)], prev)):
                yield prefix + (i,)

    return walk(0, (), [])


def cm_rank_gap(space: PolyhedralSpace, Y: Subspace, cm: CMFunctional,
                lam: Fraction | None = None) -> tuple[int, int]:
    """Rank of the certificate functionals in X* versus the rank of their
    restrictions to Y.  When lam > 1 is supplied, a missing strict drop
    raises RankGapViolationError: the restricted rank is always strictly
    smaller in that regime, so equality signals an implementation bug."""
    fs = [space.dual_vertices[dj] for _, dj in cm.pairs]
    rank_full = rows_rank(fs)
    restricted = [tuple(dot(f, y) for y in Y.basis_vectors()) for f in fs]
    rank_restricted = rows_rank(restricted)
    if lam is not None and lam > 1 and rank_restricted >= rank_full:
        raise RankGapViolationError(
            f"restricted rank {rank_restricted} does not drop below {rank_full}")
    return rank_full, rank_restricted
