"""Output checks of the pipeline benchmark, run outside the timed region.

Each report is re-proved with library calls instead of being compared
with a stored answer: the emitted projection must fix the subspace, map
into it and have operator norm lambda, and every emitted certificate must
pass ``verify_cm`` against that projection.  ``certify`` must say VALID
and report the lambda of the certificate it was given.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _space(document: dict):
    from minproj.geometry import PolyhedralSpace, polar_dual

    vertices = [tuple(Fraction(x) for x in v) for v in document["vertices"]]
    duals = document.get("dual_vertices")
    if duals is None:
        duals = polar_dual(vertices)
    return PolyhedralSpace.from_vertices(vertices, dual_vertices=duals, validate=False)


def _certificate(data: dict):
    from minproj.certificates import CMFunctional

    pairs = tuple((p["vertex"], p["functional"]) for p in data["pairs"])
    weights = tuple(Fraction(p["weight"]) for p in data["pairs"])
    return CMFunctional(pairs=pairs, weights=weights), Fraction(data["lambda"])


def _operator_point(space, subspace, matrix):
    """Coordinates of the emitted projection over the operator basis that
    the CLI used (the basis depends only on the space and the subspace)."""
    from minproj.linalg import RMatrix, solve_linear
    from minproj.projections import OperatorPoint, build_operator_basis

    basis = build_operator_basis(space, subspace)
    target = [a - b for a, b in zip(matrix.entries, basis.base_projection.entries)]
    columns = RMatrix.from_rows([op.entries for op in basis.basis_ops]).transpose()
    coefficients = solve_linear(columns, target)
    if coefficients is None:
        return basis, None
    return basis, OperatorPoint(coefficients)


def check_analyze(case, report: dict) -> list[str]:
    from minproj.certificates import verify_cm
    from minproj.geometry import Subspace
    from minproj.linalg import RMatrix
    from minproj.projections import operator_norm

    problems = []
    lam = Fraction(report["lambda"])
    space = _space(case.document)
    subspace = Subspace.from_basis(
        [tuple(Fraction(x) for x in b) for b in report["subspace_basis"]])
    matrix = RMatrix.from_rows(
        [[Fraction(x) for x in row] for row in report["minimal_projection"]])
    for y in subspace.basis_vectors():
        if matrix.apply(y) != y:
            problems.append("minimal_projection does not fix the subspace")
            break
    if any(not subspace.contains(matrix.col(j)) for j in range(matrix.cols)):
        problems.append("minimal_projection does not map into the subspace")
    norm = operator_norm(space, matrix)
    if norm != lam:
        problems.append(f"operator norm of minimal_projection is {norm}, not {lam}")

    basis, point = _operator_point(space, subspace, matrix)
    if point is None:
        problems.append("minimal_projection is not in the projection slice")
        return problems
    certificates = [("cm_certificate", report["cm_certificate"])]
    if isinstance(report["support_search"], dict):
        certificates.append(("support_search", report["support_search"]["certificate"]))
        if report["support_search"]["size"] != len(certificates[-1][1]["pairs"]):
            problems.append("support_search size does not match its certificate")
    for key, data in certificates:
        cm, cert_lam = _certificate(data)
        if cert_lam != lam:
            problems.append(f"{key} lambda {cert_lam} != {lam}")
        verdict = verify_cm(space, subspace, cm, lam, point, basis=basis)
        if not verdict.ok:
            problems.append(f"{key} rejected: {'; '.join(verdict.violations)}")
    return problems


def check_certify(case, result: dict) -> list[str]:
    problems = []
    if result.get("ok") is not True:
        problems.append(f"certificate not VALID: {result.get('violations')}")
    if not all(result.get("checks", {}).values()):
        problems.append(f"failed checks: {result.get('checks')}")
    for key in ("lambda", "computed_lambda"):
        if Fraction(result[key]) != case.certificate_lambda:
            problems.append(f"{key} {result[key]} != {case.certificate_lambda}")
    return problems


def check_output(case, text: str) -> list[str]:
    """Problems found in one emitted report (empty when it is correct)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        if case.argv[0] == "certify":
            return check_certify(case, data)
        return check_analyze(case, data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
