"""Ready-made balls and subspaces: coordinate spaces, the mixed-norm
family, the named cases with known constants, and seeded rational
subspaces for genericity experiments."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputFormatError
from .geometry import PolyhedralSpace, Subspace

_ONE = Fraction(1)


def _cross_vertices(n: int) -> list[tuple[int, ...]]:
    return [tuple(sign * (i == j) for j in range(n))
            for i in range(n) for sign in (1, -1)]


def _cube_vertices(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((1, -1), repeat=n))


@lru_cache(maxsize=None)
def l1_ball(n: int) -> PolyhedralSpace:
    """Cross-polytope ball with the cube as dual ball."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return PolyhedralSpace.from_vertices(_cross_vertices(n),
                                         dual_vertices=_cube_vertices(n))


@lru_cache(maxsize=None)
def linf_ball(n: int) -> PolyhedralSpace:
    """Cube ball with the cross-polytope as dual ball."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return PolyhedralSpace.from_vertices(_cube_vertices(n),
                                         dual_vertices=_cross_vertices(n))


@lru_cache(maxsize=None)
def mixed_ball(n: int, k: int) -> PolyhedralSpace:
    """Unit ball of max(|x_1|+...+|x_{n-k+2}|, |x_{n-k+3}|, ..., |x_n|).

    Vertices are products of a cross-polytope vertex on the first block
    with a sign pattern on the rest; duals are cube vertices on the first
    block padded with zeros, plus the coordinate functionals of the
    second block.  k = 2 degenerates to the plain l1 ball.
    """
    if not 2 <= k <= n - 1:
        raise ValueError("k must satisfy 2 <= k <= n-1")
    head = n - k + 2
    tail = n - head
    primal = [hv + tv for hv in _cross_vertices(head)
              for tv in itertools.product((1, -1), repeat=tail)]
    dual = [hv + (0,) * tail for hv in _cube_vertices(head)]
    dual += [(0,) * head + ev for ev in _cross_vertices(tail)]
    return PolyhedralSpace.from_vertices(primal, dual_vertices=dual)


@dataclass(frozen=True)
class CaseExpectation:
    lam: Fraction
    face_dim: int
    note: str


@dataclass(frozen=True)
class NamedCase:
    name: str
    space: PolyhedralSpace
    subspace: Subspace
    expected: CaseExpectation


def _unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(n))


def ker_sum(n: int) -> tuple[NamedCase, NamedCase]:
    """The hyperplane ker(x_1+...+x_n) in l1^n and in linf^n: lambda =
    2 - 2/n, with a unique minimal projection."""
    lam, Y = 2 - Fraction(2, n), Subspace.from_kernel([(1,) * n])
    return tuple(NamedCase(
        name=f"ker-sum-{ball}-n{n}", space=space, subspace=Y,
        expected=CaseExpectation(lam, 0, "hyperplane constant 2 - 2/n"))
        for ball, space in (("l1", l1_ball(n)), ("linf", linf_ball(n))))


def coordinate_span(n: int) -> NamedCase:
    """The span of the last two coordinates in l1^n: lambda = 1, with the
    whole operator slice optimal, of dimension k(n-k) for k = 2."""
    k = 2
    return NamedCase(
        name=f"coordinate-span-l1-n{n}-k{k}", space=l1_ball(n),
        subspace=Subspace.from_basis([_unit(n, j) for j in range(n - k, n)]),
        expected=CaseExpectation(
            _ONE, k * (n - k), "norm-1 projections fill the whole slice"))


def mixed_extremal(n: int) -> NamedCase:
    """The mixed ball of k = 3 with Y cutting its first block: lambda =
    4/3 and face dimension k(n-k) - 2, the largest possible when
    lambda > 1."""
    k = 3
    funcs = [(1, 1, 1) + (0,) * (n - 3)] + [_unit(n, j) for j in range(3, n - k + 2)]
    return NamedCase(
        name=f"mixed-extremal-n{n}-k{k}",
        space=mixed_ball(n, k), subspace=Subspace.from_kernel(funcs),
        expected=CaseExpectation(
            Fraction(4, 3), k * (n - k) - 2,
            "largest face dimension possible when lambda > 1"))


def partial_sum(n: int, k: int) -> NamedCase:
    """ker(x_1+...+x_k) in linf^n: lambda = 2 - 2/k and face dimension
    n - k."""
    return NamedCase(
        name=f"partial-sum-linf-n{n}-k{k}",
        space=linf_ball(n), subspace=Subspace.from_kernel([(1,) * k + (0,) * (n - k)]),
        expected=CaseExpectation(
            2 - Fraction(2, k), n - k,
            "face dimension equals the number of free coordinates"))


def first_coordinate(n: int) -> NamedCase:
    """The mixed ball of k = 3 with Y = {x_1 = 0}: lambda = 1 and face
    dimension n - 2."""
    return NamedCase(
        name=f"first-coordinate-mixed-n{n}",
        space=mixed_ball(n, 3), subspace=Subspace.from_kernel([_unit(n, 0)]),
        expected=CaseExpectation(_ONE, n - 2, "norm-1 hyperplane with face dimension n - 2"))


def paper_cases() -> tuple[NamedCase, ...]:
    """The five families above, each at n in {3,4,5} where it is
    defined: ker-sum, coordinate-span, mixed-extremal (n = 4, 5),
    partial-sum (k = 3 for n = 4, 5 and k = 4 for n = 5) and
    first-coordinate (n = 4, 5)."""
    return (*(case for n in (3, 4, 5) for case in ker_sum(n)),
            *(coordinate_span(n) for n in (3, 4, 5)),
            *(mixed_extremal(n) for n in (4, 5)),
            *(partial_sum(n, k) for n, k in ((4, 3), (5, 3), (5, 4))),
            *(first_coordinate(n) for n in (4, 5)))


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class _Stream:
    """64-bit linear congruential stream; top bits are the output."""

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _LCG_MASK
        self._next()

    def _next(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return self.state >> 33

    def rational(self) -> Fraction:
        p = self._next() % 201 - 100
        q = self._next() % 10 + 1
        return Fraction(p, q)


def random_subspace(n: int, k: int, seed: int) -> Subspace:
    """Deterministic pseudorandom k-dimensional subspace of R^n with
    entries p/q, |p| <= 100, 1 <= q <= 10; the same seed always produces
    the same subspace, and rank-deficient draws are redrawn."""
    Subspace.check_dimension(n, k)
    stream = _Stream(seed)
    while True:
        rows = [tuple(stream.rational() for _ in range(n)) for _ in range(k)]
        try:
            return Subspace.from_basis(rows)
        except InputFormatError:  # the rows are dependent
            continue
