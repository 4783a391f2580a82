"""The exact face, maximal-norming, support, general-position,
extremality, certificate-verification and simplex computations against
the algorithms they replaced (kept in ``oracles.py``): on every catalog
case, on seeded subspaces of l-inf^n and l1^n, on kernels of small
integer functionals, and on vertex lists with non-extreme or duplicated
points.  The projection constant of three hyperplanes of l-inf^7 is
checked against Blatter and Cheney's closed form, with no LP.  A spy
pins that the support search walks no subset when the lambda dual's
pairs are all the implicit ones.  certify on certificates whose pairs do
not fix the projection matches its route with the lambda LP solved from
scratch (``certify_by_cold_lp``), whether its start is skipped, taken
or refused, once lambda decides a certificate that fails norming
alone."""

import itertools
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from minproj.catalog import (l1_ball, linf_ball, mixed_ball, paper_cases,
                             random_subspace)
import minproj.certificates as certificates
import minproj.geometry as geometry
import minproj.projections as projections
from minproj import simplex
from minproj.certificates import (CMFunctional, certify_cm, cm_from_dual,
                                  minimal_support_cm, verify_cm)
from minproj.errors import BudgetExceededError, NotExtremeError
from minproj.geometry import (PolyhedralSpace, Subspace, _walk_rows,
                              general_position_check, polar_dual)
from minproj.linalg import DEFAULT_WORK_BUDGET, WorkBudget, integer_row_rank, subset_walk
from minproj.projections import (OperatorPoint, face_dimension,
                                 max_norming_projection, norming_pairs,
                                 operator_norm, pair_rows, projection_constant)

from minproj.simplex import solve
import oracles
from oracles import (certify_by_cold_lp, decided_by_lambda, dense_grid_lp,
                     face_dimension_by_rounds,
                     face_dimension_by_vertices, face_dimension_per_row, first_non_extreme,
                     general_position_by_leaf_walk, general_position_exhaustive,
                     general_position_rows_by_raw_vectors,
                     linf_hyperplane_lambda,
                     max_norming_by_greedy, minimal_support_by_lp,
                     minimal_support_by_solve, projection_normed_by_full_rank,
                     realize_by_fractions,
                     solve_by_fraction_tableau, solve_by_full_tableau, verify_cm_by_apply,
                     work_edge)

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
            assert operator_norm(space, realize_by_fractions(report.basis, point)) == report.lam
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
    # lambda LPs of the 16 catalog cases and the four seeded n = 4 grids
    # (the factored grid LP solved, its dense oracle LP read by the
    # tableaux), and every Gordan-round LP of their face stages, from the dual's
    # support and from no implicit row (the rounds oracle): the whole
    # solution equals the full integer tableau's, and the status and
    # value equal those of the rational dual and inequality-form
    # tableaux, which keep the pivot rules before the lexicographic
    # ratio test
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
    lps = [(a.report.grid, dense_grid_lp(a.report.grid)) for a in cases.values()]
    for lp, dense in lps + [(lp, lp) for lp in rounds + oracle_rounds]:
        sol = solve(lp)
        assert sol == solve_by_full_tableau(dense)
        for method in ("dual", "rows"):
            other = solve_by_fraction_tableau(dense, method=method)
            assert (sol.status, sol.value) == (other.status, other.value)


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
            failing |= verdict.failed
    assert failing == {"weights", "vanishing", "invariance", "norming", "trace"}


def _tight_rank(report, point):
    """Rank of the grid rows [coefs_r, -1] tight at (point, lambda)."""
    grid = report.grid
    return integer_row_rank([grid.row(r)
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
    # every case, the two with 32 and 56 candidate pairs included, is
    # searched to its end within the default work budget
    for name, a in cases.items():
        expected = minimal_support_by_lp(a.case.space, a.case.subspace, a.implicit)
        cm, size = minimal_support_cm(a.report)
        assert (cm.pairs, cm.weights) == expected, name
        assert size == len(expected[0])


@pytest.fixture(scope="module")
def seeded_analyze():
    """random_subspace(n, k, 7) in l-inf^n and l1^n for n = 4, 5, 6 and k
    in {n-1, 2}, on spaces whose polar is computed, as the CLI builds them
    from a vertex list: at n = 4 and 5 the inputs of the seeded-analyze
    benchmark."""
    out = {}
    for n, (tag, ball) in itertools.product((4, 5, 6), (("linf", linf_ball),
                                                        ("l1", l1_ball))):
        space = PolyhedralSpace.from_vertices(ball(n).primal_vertices)
        for k in (n - 1, 2):
            Y = random_subspace(n, k, 7)
            report = projection_constant(space, Y)
            _, implicit = face_dimension(report)
            out[f"{tag}{n}-k{k}"] = (space, Y, report, implicit)
    return out


def _assert_support_matches_solve(space, Y, report, implicit, label):
    expected = minimal_support_by_solve(space, Y, implicit)
    cm, size = minimal_support_cm(report)
    assert (cm.pairs, cm.weights) == expected, label
    assert size == len(expected[0]), label
    return size


def test_support_matches_solve_oracle_on_catalog(analyzed):
    sizes = {name: _assert_support_matches_solve(
                 a.case.space, a.case.subspace, a.report, a.implicit, name)
             for name, a in analyzed.items()}
    assert len(sizes) == 16
    # the two cases with the most candidate pairs, 32 and 56
    assert sizes["coordinate-span-l1-n5-k2"] == 1
    assert sizes["first-coordinate-mixed-n5"] == 1


# The largest n = 6 candidate set the solve oracle runs on: it solves
# every subset up to the first support, and took 40 s on the 24
# candidates of the l1^6 hyperplane.
_N6_ORACLE_CAP = 16


def test_support_matches_solve_oracle_on_seeded_subspaces(seeded_analyze):
    compared, uncompared = [], []
    for name, (space, Y, report, implicit) in seeded_analyze.items():
        if space.dim == 6 and len(implicit) > _N6_ORACLE_CAP:
            uncompared.append(name)
            continue
        size = _assert_support_matches_solve(space, Y, report, implicit, name)
        compared.append((len(set(implicit)), name, size))
    # the most candidate pairs compared: the l-inf^5 2-plane of seeded-analyze
    assert max(compared) == (32, "linf5-k2", 4)
    assert uncompared == ["linf6-k5", "linf6-k2", "l16-k5"]


def test_support_walk_runs_exactly_when_the_dual_is_not_the_implicit_set(
        analyzed, seeded_analyze, spy):
    # When the implicit rows are the lambda dual's rows, the dual is the
    # only certificate over them, and the search returns it with no walk;
    # otherwise it walks.  The general-position verdict goes in as
    # analyze passes it, so where the paper's bound applies the search
    # starts at n.  Every case completes both within the default budget.
    calls = spy(certificates, "subset_walk")
    reports = {name: a.report for name, a in analyzed.items()}
    reports.update((name, report) for name, (_, _, report, _) in seeded_analyze.items())
    skipped = []
    for name, report in reports.items():
        gp = general_position_check(report.space, report.subspace)
        before = calls["subset_walk"]
        cm, size = minimal_support_cm(report, in_general_position=gp.in_general_position)
        unique = report.implicit_rows == report.dual_rows
        assert (calls["subset_walk"] == before) == unique, name
        if unique:
            assert cm == cm_from_dual(report), name
            assert size == len(report.dual_rows), name
            skipped.append(name)
    assert skipped == [
        "ker-sum-l1-n3", "ker-sum-linf-n3", "ker-sum-l1-n4", "ker-sum-linf-n4",
        "ker-sum-l1-n5", "ker-sum-linf-n5",
        "linf4-k3", "l14-k2", "linf5-k4", "l15-k2", "l16-k2"]


def test_general_position_rows_walk_as_the_raw_rows_do(analyzed, seeded_analyze):
    # The n-wide rows [v·d | v_J] give the walk events of the rows
    # [v·d | v] at every size the check walks, spans and kernels, whether
    # or not an earlier size fails
    inputs = [(name, a.case.space, a.case.subspace) for name, a in analyzed.items()]
    inputs += [(name, space, Y) for name, (space, Y, _, _) in seeded_analyze.items()]
    for name, space, Y in inputs:
        n, k = space.dim, Y.dim
        for vectors, reps, directions, max_size in (
                (space.primal_cleared[0], space.primal_reps,
                 Y.annihilator_num, n - k),
                (space.dual_cleared[0], space.dual_reps, Y.basis_num, k)):
            rows = _walk_rows(vectors, reps, directions)
            raw = general_position_rows_by_raw_vectors(vectors, reps, directions)
            assert [len(row) for row in rows] == [n] * len(reps), name
            for size in range(1, min(max_size, len(reps)) + 1):
                narrow, wide = (WorkBudget(DEFAULT_WORK_BUDGET, "walk") for _ in "ab")
                assert (list(subset_walk(rows, size, len(directions), narrow))
                        == list(subset_walk(raw, size, len(directions), wide))), (name, size)
                assert narrow.spent == wide.spent, (name, size)


def _one_lp_certificates(report):
    """(label, certificate, lambda_c): the lambda dual's certificate at
    lambda and at lambda + 1, the same with its first pair's weight
    split with that pair's antipodal twin (x_{negp[i]}, f_{negd[j]}),
    a valid certificate whose two pairs share one grid row, so its start
    is dependent, the same split with the pair itself, a duplicate, and
    tampered ones claimed at their value
    at P0, sum_i a_i f_i(P0 x_i), where the trace check passes: one
    weight raised and the weights renormalized, the first weight
    negated, the last pair replaced by its functional's negation, the
    first of the grid pairs off the implicit rows of the largest value
    at the relative interior added at weight 0, and that pair beside
    its functional's negation at equal weights, T = 0, whose rows give
    a feasible start of value 0.  The last two hold a pair off the
    implicit rows, whose value at the relative interior, which a
    norming violation reads, depends on the point."""
    space, cm = report.space, cm_from_dual(report)
    negd = space.dual_negation

    def claimed(label, pairs, weights):
        _, base, D = pair_rows(space, report.basis, pairs)
        return label, CMFunctional(tuple(pairs), tuple(weights)), \
            sum(w * b for w, b in zip(weights, base)) / D

    yield "valid", cm, report.lam
    yield "wrong-lambda", cm, report.lam + 1
    (i, j), half = cm.pairs[0], cm.weights[0] / 2
    yield ("split", CMFunctional((*cm.pairs, (space.primal_negation[i], negd[j])),
                                 (half, *cm.weights[1:], half)), report.lam)
    yield ("duplicated", CMFunctional((*cm.pairs, (i, j)), (half, *cm.weights[1:], half)),
           report.lam)
    raised = [cm.weights[0] + Fraction(1, 1000), *cm.weights[1:]]
    yield claimed("perturbed", cm.pairs, [w / sum(raised) for w in raised])
    yield claimed("negative", cm.pairs, [-cm.weights[0], *cm.weights[1:]])
    (i, j) = cm.pairs[-1]
    yield claimed("replaced", [*cm.pairs[:-1], (i, negd[j])], cm.weights)
    implicit = set(report.implicit_rows)
    values = report.grid.value_numerators(report.interior.coefficients)[0]
    _, r = max((v, -r) for r, v in enumerate(values) if r not in implicit)
    (i, j) = report.grid.pairs[-r]
    yield claimed("zero-weight", [*cm.pairs, (i, j)], [*cm.weights, Fraction(0)])
    yield claimed("balanced", [(i, j), (i, negd[j])], [Fraction(1, 2)] * 2)


def test_one_lp_route_matches_the_cold_lp_oracle(analyzed, seeded_analyze, monkeypatch):
    # certify_cm on certificates whose pairs do not determine the
    # projection gives the (lambda, verdict) of the route that solved
    # the lambda LP from scratch, whether its start is skipped (the
    # certificate is no feasible dual point of value lambda_c), accepted,
    # or refused by the solver and the solve run from scratch, with
    # lambda deciding one that fails norming alone (decided_by_lambda);
    # the optimal face, when it is reached, is that of the solve from
    # scratch, the fixture's report
    starts = Counter()
    started, settled = simplex._started_dual, certificates.face_dimension
    faces = []

    def counted(lp, start):
        tab = started(lp, start)
        starts["accepted" if tab is not None else "refused"] += 1
        return tab

    def face(report):
        faces.append((report.witness, report.dual_rows))
        return settled(report)

    monkeypatch.setattr(simplex, "_started_dual", counted)
    monkeypatch.setattr(certificates, "face_dimension", face)
    reports = {name: a.report for name, a in analyzed.items()}
    reports.update((name, report) for name, (_, _, report, _) in seeded_analyze.items())
    labels = Counter()
    for name, report in reports.items():
        space, Y, basis = report.space, report.subspace, report.basis
        for label, cm, lam in _one_lp_certificates(report):
            if projection_normed_by_full_rank(pair_rows(space, basis, cm.pairs),
                                              space, basis, lam)[0]:
                continue
            tried = sum(starts.values())
            expected = decided_by_lambda(*certify_by_cold_lp(space, Y, cm, lam), lam)
            assert certify_cm(space, Y, cm, lam) == expected, (name, label)
            assert set(faces) <= {(report.witness, report.dual_rows)}, (name, label)
            faces.clear()
            if sum(starts.values()) == tried:
                starts["skipped"] += 1
            labels[label] += 1
    assert set(labels) == {"valid", "wrong-lambda", "split", "duplicated", "perturbed",
                           "negative", "replaced", "zero-weight", "balanced"}, labels
    assert set(starts) == {"accepted", "refused", "skipped"}, starts


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
    # The whole report, by the walk that decides two levels at once and by
    # the walk through every leaf, and the check's work edge:
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
        edge = work_edge(geometry, general_position_check, space, Y)
        assert general_position_check(space, Y, budget=edge) == report
        with pytest.raises(BudgetExceededError):
            general_position_check(space, Y, budget=edge - 1)
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
