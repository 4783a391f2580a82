"""Ready-made balls and subspaces: coordinate spaces, the mixed-norm
family, the named cases with known constants, and seeded rational
subspaces for genericity experiments."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geometry import PolyhedralSpace, Subspace
from .linalg import Vector, cleared, integer_row_rank

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _cross_vertices(n: int) -> list[Vector]:
    out = []
    for i in range(n):
        e = [_ZERO] * n
        e[i] = _ONE
        out.append(tuple(e))
        out.append(tuple(-x for x in e))
    return out


def _cube_vertices(n: int) -> list[Vector]:
    return [tuple(Fraction(s) for s in signs)
            for signs in itertools.product((1, -1), repeat=n)]


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
              for tv in itertools.product((_ONE, -_ONE), repeat=tail)]
    dual = [hv + (_ZERO,) * tail for hv in _cube_vertices(head)]
    for i in range(tail):
        e = [_ZERO] * tail
        e[i] = _ONE
        dual.append((_ZERO,) * head + tuple(e))
        dual.append((_ZERO,) * head + tuple(-x for x in e))
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


def _ker(functionals) -> Subspace:
    return Subspace.from_kernel(functionals)


def paper_cases() -> tuple[NamedCase, ...]:
    """All named constructions with their known constants, n in {3,4,5}:

    - ker-sum: the hyperplane ker(x_1+...+x_n) in l1 and linf,
      lambda = 2 - 2/n with a unique minimal projection;
    - coordinate-span: the span of the last two coordinates in l1,
      lambda = 1 with the full operator slice optimal;
    - mixed-extremal: the mixed ball with Y cutting the first block,
      lambda = 4/3 and face dimension k(n-k) - 2;
    - partial-sum: ker(x_1+...+x_k) in linf^n, lambda = 2 - 2/k and
      face dimension n - k;
    - first-coordinate: the mixed ball with Y = {x_1 = 0}, lambda = 1
      and face dimension n - 2.
    """
    cases: list[NamedCase] = []

    for n in (3, 4, 5):
        lam = 2 - Fraction(2, n)
        ones = (1,) * n
        cases.append(NamedCase(
            name=f"ker-sum-l1-n{n}",
            space=l1_ball(n), subspace=_ker([ones]),
            expected=CaseExpectation(lam, 0, "hyperplane constant 2 - 2/n"),
        ))
        cases.append(NamedCase(
            name=f"ker-sum-linf-n{n}",
            space=linf_ball(n), subspace=_ker([ones]),
            expected=CaseExpectation(lam, 0, "hyperplane constant 2 - 2/n"),
        ))

    for n in (3, 4, 5):
        k = 2
        basis = []
        for j in range(n - k, n):
            e = [0] * n
            e[j] = 1
            basis.append(tuple(e))
        cases.append(NamedCase(
            name=f"coordinate-span-l1-n{n}-k2",
            space=l1_ball(n), subspace=Subspace.from_basis(basis),
            expected=CaseExpectation(
                _ONE, k * (n - k), "norm-1 projections fill the whole slice"),
        ))

    for n in (4, 5):
        k = 3
        head = n - k + 2
        funcs = [(1, 1, 1) + (0,) * (n - 3)]
        for j in range(3, head):
            e = [0] * n
            e[j] = 1
            funcs.append(tuple(e))
        cases.append(NamedCase(
            name=f"mixed-extremal-n{n}-k3",
            space=mixed_ball(n, k), subspace=_ker(funcs),
            expected=CaseExpectation(
                Fraction(4, 3), k * (n - k) - 2,
                "largest face dimension possible when lambda > 1"),
        ))

    for n, k in ((4, 3), (5, 3), (5, 4)):
        f = (1,) * k + (0,) * (n - k)
        cases.append(NamedCase(
            name=f"partial-sum-linf-n{n}-k{k}",
            space=linf_ball(n), subspace=_ker([f]),
            expected=CaseExpectation(
                2 - Fraction(2, k), n - k,
                "face dimension equals the number of free coordinates"),
        ))

    for n in (4, 5):
        e1 = (1,) + (0,) * (n - 1)
        cases.append(NamedCase(
            name=f"first-coordinate-mixed-n{n}",
            space=mixed_ball(n, 3), subspace=_ker([e1]),
            expected=CaseExpectation(_ONE, n - 2, "norm-1 hyperplane with face dimension n - 2"),
        ))

    return tuple(cases)


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
    if not 1 <= k <= n - 1:
        raise ValueError("k must satisfy 1 <= k <= n-1")
    stream = _Stream(seed)
    while True:
        rows = [tuple(stream.rational() for _ in range(n)) for _ in range(k)]
        if integer_row_rank(cleared(rows)[0]) == k:
            return Subspace.from_basis(rows)
