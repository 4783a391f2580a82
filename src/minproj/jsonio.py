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
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputFormatError
from .geometry import PolyhedralSpace, Subspace
from .rational import format_ratio, format_rational, parse_rational


class _FloatLiteral(str):
    """Marker for a float token found while parsing; reported, never used."""


class _LongIntLiteral(str):
    """Marker for an integer token with more digits than int() converts
    (sys.get_int_max_str_digits()); a rational field reads it as the
    rational string it spells, and rejects it with that string's message."""


def _parse_int(token: str) -> int | _LongIntLiteral:
    try:
        return int(token)
    except ValueError:
        return _LongIntLiteral(token)


def load_document(text: str) -> object:
    """Parse a JSON document, tagging float literals and over-long integer
    literals for later rejection.  A document nested deeper than the
    parser's recursion limit is malformed input too."""
    try:
        return json.loads(text, parse_float=_FloatLiteral, parse_int=_parse_int,
                          parse_constant=_FloatLiteral)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise InputFormatError(
            "invalid JSON: arrays and objects are nested too deeply") from None


def _rational_at(value: object, path: str) -> Fraction:
    if isinstance(value, _FloatLiteral):
        raise InputFormatError(
            f"{path}: float literal {value} is not allowed; "
            f"write a rational string like \"3/2\"")
    try:
        return parse_rational(value)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


# An integer token in ASCII digits with no blank, which int() reads as
# parse_rational does; every other string goes through parse_rational.
_INTEGER_TOKEN = re.compile(r"[+-]?[0-9]+")
# Integer tokens joined by commas.  An entry holding a comma itself can
# match too, and int() refuses it.
_INTEGER_VECTOR = re.compile(r"[+-]?[0-9]+(?:,[+-]?[0-9]+)*")


def _entry_at(value: object, path: str, i: int) -> int | Fraction:
    """Entry i of the vector at path: an integer token as an int, anything
    else through _rational_at, with the same value or the same message."""
    if type(value) is str and _INTEGER_TOKEN.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    return _rational_at(value, f"{path}[{i}]")


def _vector_at(value: object, path: str, length: int) -> tuple[int | Fraction, ...]:
    """The list at path as a vector of the given length.  JSON ints and
    integer strings are read straight to ints; no Fraction is formed for
    them.  A vector of integer strings alone is matched by one regex and
    read by one map(int, ...); any other takes the per-entry path."""
    if not isinstance(value, list):
        raise InputFormatError(f"{path}: expected a list of rationals")
    if len(value) != length:
        raise InputFormatError(
            f"{path}: expected {length} entries, got {len(value)}")
    try:
        if _INTEGER_VECTOR.fullmatch(",".join(value)):
            return tuple(map(int, value))
    except (TypeError, ValueError):  # an entry that is no string, or not an int
        pass
    return tuple(v if type(v) is int else _entry_at(v, path, i)
                 for i, v in enumerate(value))


def _vector_list_at(value: object, path: str, length: int
                    ) -> list[tuple[int | Fraction, ...]]:
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


def matrix_json(rows: Iterable[Sequence[int]], den: int) -> list[list[str]]:
    """Integer rows over one denominator den > 0, as the rows of
    rationals they stand for."""
    return [[format_ratio(x, den) for x in row] for row in rows]


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
    # Imported here, not at the top: only this function builds a
    # certificate, and a client that only reads and writes spaces should
    # not load the solver stages behind certificates.
    from .certificates import CMFunctional

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
    n_primal = len(space.primal_cleared[0])
    n_dual = len(space.dual_cleared[0])
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
