"""The exact face and support computations against the loop-of-LPs
algorithms they replaced (kept in ``oracles.py``), on every catalog case
and on seeded subspaces of l-inf^4 and l1^4."""

from types import SimpleNamespace

import pytest

from minproj.catalog import l1_ball, linf_ball, random_subspace
from minproj.certificates import minimal_support_cm
from minproj.errors import SupportBudgetExceededError
from minproj.projections import (OperatorPoint, face_dimension, norming_pairs,
                                 operator_norm, projection_constant)

from oracles import face_dimension_per_row, minimal_support_by_lp


@pytest.fixture(scope="module")
def cases(analyzed):
    out = dict(analyzed)
    for tag, ball in (("linf", linf_ball), ("l1", l1_ball)):
        space = ball(4)
        for k in (3, 2):
            Y = random_subspace(4, k, 7)
            report = projection_constant(space, Y)
            face_dim, implicit = face_dimension(space, Y, report)
            out[f"seed7-{tag}4-k{k}"] = SimpleNamespace(
                case=SimpleNamespace(space=space, subspace=Y),
                report=report, face_dim=face_dim, implicit=implicit)
    assert len(out) == 20
    return out


def test_face_matches_per_row_oracle(cases):
    for name, a in cases.items():
        space, Y, report = a.case.space, a.case.subspace, a.report
        face_dim, implicit, oracle_interior = face_dimension_per_row(report)
        assert (a.face_dim, a.implicit) == (face_dim, implicit), name
        # both interiors are minimal projections normed by exactly the
        # implicit pairs, though they need not be the same point
        for point in (report.interior, OperatorPoint(oracle_interior)):
            assert operator_norm(space, report.basis.realize(point)) == report.lam
            assert norming_pairs(space, Y, point, report.lam,
                                 grid=report.grid) == implicit, name


def test_support_matches_subset_lp_oracle(cases):
    capped = []
    for name, a in cases.items():
        space, Y, lam = a.case.space, a.case.subspace, a.report.lam
        try:
            expected = minimal_support_by_lp(space, Y, a.implicit)
        except SupportBudgetExceededError:
            with pytest.raises(SupportBudgetExceededError):
                minimal_support_cm(space, Y, a.implicit, lam,
                                   witness=a.report.interior)
            capped.append(name)
            continue
        cm, size = minimal_support_cm(space, Y, a.implicit, lam,
                                      witness=a.report.interior)
        assert (cm.pairs, cm.weights) == expected, name
        assert size == len(expected[0])
    assert capped == ["coordinate-span-l1-n5-k2", "first-coordinate-mixed-n5"]
