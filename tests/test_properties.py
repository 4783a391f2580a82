"""Property-based checks of general position on random symmetric polytopes.

A ball is the convex hull of a few small-integer points and their
negations in dimension n <= 4; its extreme points are read off the
double polar, so the space is built from vertices alone, as a user
would supply it.  Subspaces have small-integer bases of every dimension
1..n-1.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from minproj.geometry import (PolyhedralSpace, Subspace,
                              general_position_check, polar_dual)
from minproj.linalg import rows_rank

from oracles import general_position_exhaustive

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.filter_too_much,
                                            HealthCheck.too_slow])


def _vectors(n, count):
    return st.lists(st.tuples(*[st.integers(-2, 2)] * n).filter(any),
                    min_size=count, max_size=count)


@st.composite
def spaces_with_subspaces(draw):
    n = draw(st.integers(2, 4))
    points = draw(_vectors(n, draw(st.integers(n, n + 1))))
    assume(rows_rank(points) == n)
    symmetric = sorted(set(points) | {tuple(-x for x in p) for p in points})
    space = PolyhedralSpace.from_vertices(polar_dual(polar_dual(symmetric)))
    k = draw(st.integers(1, n - 1))
    basis = draw(_vectors(n, k))
    assume(rows_rank(basis) == k)
    return space, basis


def _verdict(report):
    return report.in_general_position, report.witness_kind, report.witness


@_SETTINGS
@given(spaces_with_subspaces())
def test_general_position_agrees_with_exhaustive_oracle(case):
    space, basis = case
    Y = Subspace.from_basis(basis)
    assert (_verdict(general_position_check(space, Y))
            == _verdict(general_position_exhaustive(space, Y)))


@_SETTINGS
@given(spaces_with_subspaces(), st.data())
def test_general_position_invariant_under_change_of_basis(case, data):
    space, basis = case
    k = len(basis)
    mix = data.draw(_vectors(k, k))
    assume(rows_rank(mix) == k)
    mixed = [tuple(sum(c * b[i] for c, b in zip(row, basis))
                   for i in range(space.dim)) for row in mix]
    assert (general_position_check(space, Subspace.from_basis(mixed))
            == general_position_check(space, Subspace.from_basis(basis)))
