"""The exact face, maximal-norming, support, general-position,
extremality, certificate-verification and simplex computations against
the algorithms they replaced (kept in ``oracles.py``): on every catalog
case, on seeded subspaces of l-inf^n and l1^n, on kernels of small
integer functionals, and on vertex lists with non-extreme or duplicated
points.  The projection constant of three hyperplanes of l-inf^7 is
checked against Blatter and Cheney's closed form, with no LP."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from minproj.catalog import (l1_ball, linf_ball, mixed_ball, paper_cases,
                             random_subspace)
import minproj.projections as projections
from minproj.certificates import CMFunctional, cm_from_dual, minimal_support_cm, verify_cm
from minproj.errors import BudgetExceededError, NotExtremeError
from minproj.geometry import (PolyhedralSpace, Subspace,
                              general_position_check, polar_dual)
from minproj.linalg import integer_row_rank
from minproj.projections import (OperatorPoint, face_dimension,
                                 max_norming_projection, norming_pairs,
                                 operator_norm, projection_constant)

from minproj.simplex import solve
import oracles
from oracles import (budget_outcome, face_dimension_by_rounds,
                     face_dimension_by_vertices, face_dimension_per_row, first_non_extreme,
                     general_position_by_leaf_walk, general_position_exhaustive,
                     linf_hyperplane_lambda,
                     max_norming_by_greedy, minimal_support_by_lp,
                     minimal_support_by_solve, solve_by_fraction_tableau,
                     verify_cm_by_apply)

# Large enough for every candidate set below: lifts the support-search cap.
NO_CAP = 10 ** 3


@pytest.fixture(scope="module")
def cases(analyzed):
    out = dict(analyzed)
    for tag, ball in (("linf", linf_ball), ("l1", l1_ball)):
        space = ball(4)
        for k in (3, 2):
            Y = random_subspace(4, k, 7)
            report = projection_constant(space, Y)
            face_dim, implicit = face_dimension(report)
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
            assert norming_pairs(report, point) == implicit, name


def test_face_matches_rounds_oracle(cases):
    # Starting from the lambda dual's support gives the face that Gordan
    # rounds from no implicit row give, relative-interior point included:
    # the catalog, the seeded n = 4 and n = 5 inputs, faces of dimension
    # 0 to 6
    runs = [(a.report, a.face_dim, a.implicit) for a in cases.values()]
    for ball in (linf_ball, l1_ball):
        for k in (4, 2):
            space, Y = ball(5), random_subspace(5, k, 7)
            report = projection_constant(space, Y)
            runs.append((report, *face_dimension(report)))
    for report, face_dim, implicit in runs:
        assert (face_dim, implicit, report.interior.coefficients) == \
            face_dimension_by_rounds(report)
    assert {face_dim for _, face_dim, _ in runs} == {0, 1, 2, 3, 4, 6}


def test_face_dimension_matches_vertex_enumeration(analyzed):
    # every catalog case with k(n-k) = 2: the optimal face's vertices, each
    # solved from two grid rows at lambda, span a face of the same dimension
    names = [name for name, a in analyzed.items()
             if a.case.subspace.dim * (a.case.space.dim - a.case.subspace.dim) == 2]
    assert sorted(names) == ["coordinate-span-l1-n3-k2", "ker-sum-l1-n3",
                             "ker-sum-linf-n3"]
    for name in names:
        assert face_dimension_by_vertices(analyzed[name].report) == \
            analyzed[name].face_dim, name


def test_integer_tableau_matches_fraction_tableau(cases, monkeypatch):
    # lambda LPs of the 16 catalog cases and the four seeded n = 4 grids,
    # and every Gordan-round LP of their face stages, from the dual's
    # support and from no implicit row (the rounds oracle): the whole
    # solution equals the rational dual tableau's, and the status and
    # value equal the rational inequality-form tableau's
    rounds, oracle_rounds = [], []

    def recording(into):
        def record(lp):
            into.append(lp)
            return solve(lp)
        return record

    monkeypatch.setattr(projections, "solve", recording(rounds))
    monkeypatch.setattr(oracles, "solve", recording(oracle_rounds))
    for a in cases.values():
        face_dimension(a.report)
        face_dimension_by_rounds(a.report)
    monkeypatch.undo()
    assert len(oracle_rounds) >= len(cases)
    # each round from the dual's support is one of the oracle's rounds
    assert rounds and all(lp in oracle_rounds for lp in rounds)
    for lp in [a.report.grid.lp for a in cases.values()] + rounds + oracle_rounds:
        sol = solve(lp)
        assert sol == solve_by_fraction_tableau(lp)
        rows = solve_by_fraction_tableau(lp, method="rows")
        assert (sol.status, sol.value) == (rows.status, rows.value)


def _tampered(a, cm):
    """(label, certificate, projection): a valid certificate and variants
    of it that break the weights, the vanishing, the invariance, the
    norming and the trace checks (a single-pair certificate survives the
    renormalized perturbation)."""
    interior = a.report.interior
    raw = [w + (Fraction(1, 1000) if i == 0 else 0) for i, w in enumerate(cm.weights)]
    total = sum(raw)
    yield "valid", cm, interior
    yield "perturbed", CMFunctional(cm.pairs, tuple(w / total for w in raw)), interior
    yield "tampered", CMFunctional(cm.pairs, (Fraction(1, 1000),) + cm.weights[1:]), interior
    yield "shifted", cm, OperatorPoint(tuple(c + 1 for c in interior.coefficients))
    negp = a.case.space.primal_negation
    yield "negated", CMFunctional(tuple((negp[i], j) for i, j in cm.pairs),
                                  cm.weights), interior


def test_verify_cm_matches_apply_oracle(cases):
    failing = set()
    for name, a in cases.items():
        space, Y, report = a.case.space, a.case.subspace, a.report
        for label, cm, point in _tampered(a, cm_from_dual(report)):
            verdict = verify_cm(space, Y, cm, report.lam, point, basis=report.basis)
            assert verdict == verify_cm_by_apply(space, Y, cm, report.lam, point,
                                                 basis=report.basis), (name, label)
            assert verdict.ok or label != "valid", name
            failing.update(v.split(":")[0] for v in verdict.violations)
    assert failing == {"weights", "vanishing", "invariance", "norming", "trace"}


def _tight_rank(report, point):
    """Rank of the grid rows [coefs_r, -1] tight at (point, lambda)."""
    grid = report.grid
    return integer_row_rank([grid.coefs_num[r] + (-grid.denominator,)
                             for r in grid.tight_rows(point.coefficients, report.lam)])


def test_max_norming_vertex_matches_greedy_oracle(cases):
    # l1^2 onto a coordinate axis: the optimal face is the segment
    # c in [-1, 1], whose inner points are normed by 2 pairs only; the LP
    # witness is a vertex of the face in every case, here an endpoint
    # normed by 4 pairs
    segment = {}
    for j in range(2):
        space, Y = l1_ball(2), Subspace.from_basis([[1 - j, j]])
        segment[f"l1-2-axis{j}"] = SimpleNamespace(
            case=SimpleNamespace(space=space, subspace=Y),
            report=projection_constant(space, Y))
    counts = {}
    for name, a in {**cases, **segment}.items():
        space, Y, report = a.case.space, a.case.subspace, a.report
        d = len(report.witness.coefficients)
        assert _tight_rank(report, report.witness) == d + 1, name
        point, count = max_norming_projection(report)
        assert point == report.witness, name
        assert len(norming_pairs(report, point)) == count, name
        _, greedy_count = max_norming_by_greedy(space, Y, report)
        assert count == greedy_count, name
        counts[name] = count
    assert len(counts) == 22
    assert [counts[name] for name in segment] == [4, 4]
    assert (min(counts.values()), max(counts.values())) == (3, 80)


def test_support_matches_subset_lp_oracle(cases):
    capped = []
    for name, a in cases.items():
        try:
            expected = minimal_support_by_lp(a.case.space, a.case.subspace,
                                             a.implicit)
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                minimal_support_cm(a.report)
            capped.append(name)
            continue
        cm, size = minimal_support_cm(a.report)
        assert (cm.pairs, cm.weights) == expected, name
        assert size == len(expected[0])
    assert capped == ["coordinate-span-l1-n5-k2", "first-coordinate-mixed-n5"]


@pytest.fixture(scope="module")
def seeded_analyze():
    """The inputs of the seeded-analyze benchmark: random_subspace(n, k, 7)
    in l-inf^n and l1^n for n = 4, 5 and k in {n-1, 2}, on spaces whose
    polar is computed, as the CLI builds them from a vertex list."""
    out = {}
    for n, (tag, ball) in itertools.product((4, 5), (("linf", linf_ball),
                                                     ("l1", l1_ball))):
        space = PolyhedralSpace.from_vertices(ball(n).primal_vertices)
        for k in (n - 1, 2):
            Y = random_subspace(n, k, 7)
            report = projection_constant(space, Y)
            _, implicit = face_dimension(report)
            out[f"{tag}{n}-k{k}"] = (space, Y, report, implicit)
    return out


def _assert_support_matches_solve(space, Y, report, implicit, label):
    expected = minimal_support_by_solve(space, Y, implicit, max_candidates=NO_CAP)
    cm, size = minimal_support_cm(report, max_candidates=NO_CAP)
    assert (cm.pairs, cm.weights) == expected, label
    assert size == len(expected[0]), label
    return size


def test_support_matches_solve_oracle_on_catalog(analyzed):
    sizes = {name: _assert_support_matches_solve(
                 a.case.space, a.case.subspace, a.report, a.implicit, name)
             for name, a in analyzed.items()}
    assert len(sizes) == 16
    # the two cases beyond the default cap of 24 candidates
    assert sizes["coordinate-span-l1-n5-k2"] == 1
    assert sizes["first-coordinate-mixed-n5"] == 1


def test_support_matches_solve_oracle_on_seeded_subspaces(seeded_analyze):
    capped = []
    for name, (space, Y, report, implicit) in seeded_analyze.items():
        size = _assert_support_matches_solve(space, Y, report, implicit, name)
        if len(set(implicit)) > 24:
            capped.append((name, len(set(implicit)), size))
    assert capped == [("linf5-k2", 32, 4)]


def _verdict(report):
    return report.in_general_position, report.witness_kind, report.witness


def _assert_gp_matches(space, Y, label):
    expected = general_position_exhaustive(space, Y)
    got = general_position_check(space, Y)
    assert _verdict(got) == _verdict(expected), label
    return got


def test_general_position_matches_exhaustive_on_catalog(analyzed):
    failing = 0
    for name, a in analyzed.items():
        got = _assert_gp_matches(a.case.space, a.case.subspace, name)
        failing += not got.in_general_position
    assert failing == 14


def test_general_position_matches_exhaustive_on_seeded_subspaces():
    for n, (tag, ball) in itertools.product((3, 4), (("linf", linf_ball),
                                                     ("l1", l1_ball))):
        for k in range(1, n):
            for seed in (1, 2, 7):
                _assert_gp_matches(ball(n), random_subspace(n, k, seed),
                                   f"{tag}{n} k={k} seed={seed}")


def test_general_position_matches_exhaustive_on_integer_kernels():
    functionals = [f for n, values in ((3, (-1, 0, 1, 2)), (4, (-1, 0, 1)))
                   for f in itertools.product(values, repeat=n)
                   if any(f) and next(x for x in f if x) > 0]
    functionals.append((2, 1, 1, 1))
    failing = set()
    for functional in functionals:
        n = len(functional)
        for tag, ball in (("linf", linf_ball), ("l1", l1_ball)):
            got = _assert_gp_matches(ball(n), Subspace.from_kernel([functional]),
                                     f"{tag}{n} ker {functional}")
            if not got.in_general_position:
                failing.add((tag, functional))
    assert ("linf", (1, 1, 1, 1)) in failing
    assert ("l1", (1, 1, 1)) in failing
    assert ("linf", (2, 1, 1, 1)) not in failing


def test_general_position_matches_leaf_walk_on_sweep(analyzed):
    # The whole report and the budget errors at four caps, by the walk
    # that decides two levels at once and by the walk through every leaf:
    # the catalog, seeded subspaces of l-inf^n and l1^n for n = 3 to 5,
    # and kernels of small integer functionals on l-inf^4 and l1^4
    inputs = [(a.case.space, a.case.subspace) for a in analyzed.values()]
    inputs += [(ball(n), random_subspace(n, k, seed))
               for n in (3, 4, 5) for ball in (linf_ball, l1_ball)
               for k in range(1, n) for seed in (1, 2, 7)]
    inputs += [(ball(4), Subspace.from_kernel([f]))
               for f in itertools.product((-1, 0, 1, 2), repeat=4)
               if any(f) and next(x for x in f if x) > 0
               for ball in (linf_ball, l1_ball)]
    failing = 0
    for space, Y in inputs:
        report = general_position_check(space, Y)
        assert report == general_position_by_leaf_walk(space, Y), (space.dim, Y)
        total = report.spans_checked + report.kernels_checked
        for cap in (total, total - 1, total // 2, total // 3):
            assert (budget_outcome(general_position_check, space, Y, cap)
                    == budget_outcome(general_position_by_leaf_walk, space, Y, cap))
        failing += not report.in_general_position
    assert (len(inputs), failing) == (410, 328)


def _assert_validation_matches(vertices, label):
    """from_vertices accepts exactly when every point passes the LP oracle,
    and otherwise names the oracle's first failing index; with the polar
    computed and with the polar supplied as the dual list."""
    failing = first_non_extreme(vertices)
    duals = polar_dual(vertices)
    for supplied in (None, duals):
        if failing is None:
            PolyhedralSpace.from_vertices(vertices, dual_vertices=supplied)
            continue
        with pytest.raises(NotExtremeError) as info:
            PolyhedralSpace.from_vertices(vertices, dual_vertices=supplied)
        assert str(info.value) == (
            f"primal vertex {failing} is a convex combination of the others"), label
    return failing


def _pm(*points):
    """Each point followed by its negation."""
    return [q for p in points for q in (tuple(map(Fraction, p)),
                                        tuple(-Fraction(x) for x in p))]


def test_extremality_matches_lp_oracle_on_catalog_balls():
    balls = {f"{tag}{n}": ball(n).primal_vertices
             for n in (2, 3, 4) for tag, ball in (("linf", linf_ball),
                                                  ("l1", l1_ball))}
    balls.update({f"mixed{n}-{k}": mixed_ball(n, k).primal_vertices
                  for n, k in ((4, 3), (5, 3), (5, 4))})
    for case in paper_cases():
        balls.setdefault(case.name, case.space.primal_vertices)
    for label, vertices in balls.items():
        assert _assert_validation_matches(vertices, label) is None


def test_extremality_matches_lp_oracle_with_non_extreme_points():
    cube2, cross2 = linf_ball(2).primal_vertices, l1_ball(2).primal_vertices
    cube3, cross3 = linf_ball(3).primal_vertices, l1_ball(3).primal_vertices
    half = Fraction(1, 2)
    cases = {
        "cross2 + half e1": (list(cross2) + _pm((half, 0)), 4),
        "half e1 + cross2": (_pm((half, 0)) + list(cross2), 0),
        "cross2 + zero": (list(cross2) + [(Fraction(0),) * 2], 4),
        "cube2 + edge midpoint": (list(cube2) + _pm((1, 0)), 4),
        "cube3 + face centre": (_pm((0, 0, 1)) + list(cube3), 0),
        "cube3 + interior": (list(cube3[:4]) + _pm((half, half, 0))
                             + list(cube3[4:]), 4),
        "cross3 + edge midpoint": (list(cross3[:2]) + _pm((half, half, 0))
                                   + list(cross3[2:]), 2),
        "cross3 + facet point": (list(cross3) + _pm((Fraction(1, 3),) * 3), 6),
    }
    for label, (vertices, first) in cases.items():
        assert _assert_validation_matches(vertices, label) == first, label


def test_extremality_matches_lp_oracle_with_duplicates():
    cross2, cube3 = l1_ball(2).primal_vertices, linf_ball(3).primal_vertices
    half = Fraction(1, 2)
    cases = {
        "cross2 twice": (list(cross2) * 2, 0),
        "cross2 + e2 again": (list(cross2) + _pm((0, 1)), 2),
        "cube3 + last pair again": (list(cube3) + list(cube3[-2:]), 6),
        "duplicate before a non-extreme point": (
            list(cross2) + _pm((half, 0)) + _pm((1, 0)), 0),
        "non-extreme point before a duplicate": (
            _pm((0, half)) + list(cross2) + _pm((0, 1)), 0),
    }
    for label, (vertices, first) in cases.items():
        assert _assert_validation_matches(vertices, label) == first, label


@pytest.mark.parametrize("f, lam", [
    ((2, -1, -2, 4, -4, 0, -5), Fraction(1553, 993)),
    ((-5, -5, 5, 3, -5, 1, 5), Fraction(29300, 17501)),
    ((7, 1, 1, -1, 1, 1, 1), Fraction(1)),
])
def test_linf7_hyperplanes_match_closed_form(f, lam):
    # n = 7: the only check of lambda there that does not go through the
    # simplex
    assert linf_hyperplane_lambda(f) == lam
    assert projection_constant(linf_ball(7), Subspace.from_kernel([f])).lam == lam


def test_closed_form_on_the_sum_functional():
    # the value the catalog pins for its ker-sum-linf cases
    for n in range(2, 9):
        assert linf_hyperplane_lambda((1,) * n) == 2 - Fraction(2, n)
        assert linf_hyperplane_lambda((-3,) * n) == 2 - Fraction(2, n)
