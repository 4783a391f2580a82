"""JSON input and output.

Spaces, subspaces and certificates travel as JSON with every number
written as an exact rational string ("p/q" or "p"); plain integers are
accepted too.  Float literals anywhere in an input document are rejected
with a message naming the offending field, so no approximation can leak
into the exact pipeline.  Decimal approximations appear only in output,
under keys that say so.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .certificates import CMFunctional
from .errors import InputFormatError
from .geometry import PolyhedralSpace, Subspace
from .linalg import RMatrix
from .rational import format_rational, parse_rational


class _FloatLiteral(str):
    """Marker for a float token found while parsing; reported, never used."""


def load_document(text: str) -> object:
    """Parse a JSON document, tagging float literals for later rejection."""
    try:
        return json.loads(text, parse_float=_FloatLiteral,
                          parse_constant=_FloatLiteral)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _rational_at(value: object, path: str) -> Fraction:
    if isinstance(value, _FloatLiteral):
        raise InputFormatError(
            f"{path}: float literal {value} is not allowed; "
            f"write a rational string like \"3/2\"")
    try:
        return parse_rational(value)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def _vector_at(value: object, path: str, length: int) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise InputFormatError(f"{path}: expected a list of rationals")
    if len(value) != length:
        raise InputFormatError(
            f"{path}: expected {length} entries, got {len(value)}")
    return tuple(_rational_at(v, f"{path}[{i}]") for i, v in enumerate(value))


def _vector_list_at(value: object, path: str, length: int) -> list[tuple[Fraction, ...]]:
    if not isinstance(value, list) or not value:
        raise InputFormatError(f"{path}: expected a non-empty list of vectors")
    return [_vector_at(v, f"{path}[{i}]", length) for i, v in enumerate(value)]


def _index_at(value: object, path: str, bound: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{path}: expected an integer index")
    if not 0 <= value < bound:
        raise InputFormatError(
            f"{path}: index {value} out of range [0, {bound})")
    return value


def parse_space_document(data: object) -> tuple[PolyhedralSpace, Subspace | None]:
    """Build a validated space (and subspace, when present) from parsed JSON.

    Schema: {"dim": n, "vertices": [["p/q", ...], ...],
             "dual_vertices": optional, "subspace_basis": optional}.
    Validation failures (asymmetry, non-extreme vertex, bad basis) bubble
    up from the geometry layer.
    """
    if not isinstance(data, dict):
        raise InputFormatError("top level: expected a JSON object")
    if "dim" not in data:
        raise InputFormatError("missing required field \"dim\"")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputFormatError("dim: expected a positive integer")
    if "vertices" not in data:
        raise InputFormatError("missing required field \"vertices\"")
    vertices = _vector_list_at(data["vertices"], "vertices", dim)
    duals = None
    if data.get("dual_vertices") is not None:
        duals = _vector_list_at(data["dual_vertices"], "dual_vertices", dim)
    space = PolyhedralSpace.from_vertices(vertices, dual_vertices=duals)
    subspace = None
    if data.get("subspace_basis") is not None:
        rows = _vector_list_at(data["subspace_basis"], "subspace_basis", dim)
        subspace = Subspace.from_basis(rows)
    return space, subspace


def vector_json(vec) -> list[str]:
    return [format_rational(Fraction(x)) for x in vec]


def matrix_json(matrix: RMatrix) -> list[list[str]]:
    return [vector_json(row) for row in matrix.row_list()]


def certificate_json(cm: CMFunctional, lam: Fraction) -> dict:
    return {
        "lambda": format_rational(lam),
        "pairs": [
            {"vertex": i, "functional": j, "weight": format_rational(w)}
            for (i, j), w in zip(cm.pairs, cm.weights)
        ],
    }


def parse_certificate_document(data: object, space: PolyhedralSpace
                               ) -> tuple[CMFunctional, Fraction]:
    """Read a certificate file and range-check its indices against a space."""
    if not isinstance(data, dict):
        raise InputFormatError("certificate: expected a JSON object")
    if "lambda" not in data:
        raise InputFormatError("certificate: missing required field \"lambda\"")
    lam = _rational_at(data["lambda"], "lambda")
    entries = data.get("pairs")
    if not isinstance(entries, list) or not entries:
        raise InputFormatError("pairs: expected a non-empty list")
    pairs = []
    weights = []
    n_primal = len(space.primal_vertices)
    n_dual = len(space.dual_vertices)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InputFormatError(f"pairs[{i}]: expected an object")
        for key in ("vertex", "functional", "weight"):
            if key not in entry:
                raise InputFormatError(f"pairs[{i}]: missing field \"{key}\"")
        pairs.append((_index_at(entry["vertex"], f"pairs[{i}].vertex", n_primal),
                      _index_at(entry["functional"], f"pairs[{i}].functional", n_dual)))
        weights.append(_rational_at(entry["weight"], f"pairs[{i}].weight"))
    return CMFunctional(pairs=tuple(pairs), weights=tuple(weights)), lam


def dumps(obj: object) -> str:
    """Canonical serialization: fixed key order, two-space indent, final
    newline — byte-identical for equal inputs."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"
