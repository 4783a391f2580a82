import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minproj.catalog import paper_cases
from minproj.certificates import CMFunctional
from minproj.errors import InputFormatError
from minproj.jsonio import (_rational_at, _vector_at, certificate_json, dumps,
                            load_document, parse_certificate_document,
                            parse_space_document)

from oracles import space_json

F = Fraction

LINF3 = """
{
  "dim": 3,
  "vertices": [["1","1","1"],["1","1","-1"],["1","-1","1"],["1","-1","-1"],
               ["-1","1","1"],["-1","1","-1"],["-1","-1","1"],["-1","-1","-1"]],
  "subspace_basis": [["1","-1","0"],["0","1","-1"]]
}
"""


def test_space_document_round_trip():
    space, subspace = parse_space_document(load_document(LINF3))
    assert space.dim == 3
    assert subspace.dim == 2
    again, sub2 = parse_space_document(space_json(space, subspace))
    assert again.primal_vertices == space.primal_vertices
    assert again.dual_vertices == space.dual_vertices
    assert sub2 == subspace


def test_paper_cases_export_round_trip():
    for case in paper_cases():
        doc = space_json(case.space, case.subspace)
        text = dumps(doc)
        space, subspace = parse_space_document(load_document(text))
        assert space.primal_vertices == case.space.primal_vertices
        assert space.dual_vertices == case.space.dual_vertices
        assert subspace == case.subspace


def test_float_rejection_names_field():
    doc = json.loads(LINF3)
    doc["vertices"][2][1] = 0.5
    with pytest.raises(InputFormatError, match=r"vertices\[2\]\[1\]"):
        parse_space_document(load_document(json.dumps(doc)))
    doc2 = json.loads(LINF3)
    doc2["subspace_basis"][0][0] = 1.25
    with pytest.raises(InputFormatError, match=r"subspace_basis\[0\]\[0\]"):
        parse_space_document(load_document(json.dumps(doc2)))


def test_nan_and_infinity_rejected():
    with pytest.raises(InputFormatError, match="vertices"):
        parse_space_document(load_document(
            '{"dim": 1, "vertices": [[NaN], [Infinity]]}'))


def test_integer_past_the_conversion_limit_names_field():
    doc = json.loads(LINF3)
    doc["vertices"][3][2] = "1/" + "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(InputFormatError, match=r"^vertices\[3\]\[2\]: .* digits$"):
        parse_space_document(load_document(json.dumps(doc)))


def test_decimal_string_rejected():
    doc = json.loads(LINF3)
    doc["vertices"][0][0] = "1.5"
    with pytest.raises(InputFormatError, match="malformed rational"):
        parse_space_document(load_document(json.dumps(doc)))


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.pop("dim"), "dim"),
    (lambda d: d.pop("vertices"), "vertices"),
    (lambda d: d.update(dim=True), "dim"),
    (lambda d: d.update(dim=0), "dim"),
    (lambda d: d.update(vertices=[]), "vertices"),
    (lambda d: d["vertices"][0].append("1"), r"vertices\[0\]"),
    (lambda d: d.update(subspace_basis="nope"), "subspace_basis"),
])
def test_schema_errors(mutate, msg):
    doc = json.loads(LINF3)
    mutate(doc)
    with pytest.raises(InputFormatError, match=msg):
        parse_space_document(doc)


def test_bad_json_reports_position():
    with pytest.raises(InputFormatError, match="line 1"):
        load_document('{"dim": ')


def test_certificate_round_trip():
    space, _ = parse_space_document(load_document(LINF3))
    cm = CMFunctional(pairs=((1, 2), (2, 1), (3, 5)),
                      weights=(F(1, 3), F(1, 3), F(1, 3)))
    doc = certificate_json(cm, F(4, 3))
    back, lam = parse_certificate_document(json.loads(dumps(doc)), space)
    assert back == cm
    assert lam == F(4, 3)
    assert dumps(certificate_json(back, lam)) == dumps(doc)


def test_certificate_index_errors():
    space, _ = parse_space_document(load_document(LINF3))
    doc = {"lambda": "4/3",
           "pairs": [{"vertex": 99, "functional": 0, "weight": "1"}]}
    with pytest.raises(InputFormatError, match=r"pairs\[0\].vertex"):
        parse_certificate_document(doc, space)
    doc["pairs"][0] = {"vertex": 0, "functional": -1, "weight": "1"}
    with pytest.raises(InputFormatError, match=r"pairs\[0\].functional"):
        parse_certificate_document(doc, space)
    doc["pairs"][0] = {"vertex": 0, "functional": 0}
    with pytest.raises(InputFormatError, match="weight"):
        parse_certificate_document(doc, space)
    with pytest.raises(InputFormatError, match="lambda"):
        parse_certificate_document({"pairs": []}, space)


def test_dumps_deterministic_and_newline_terminated():
    doc = space_json(paper_cases()[0].space)
    assert dumps(doc) == dumps(doc)
    assert dumps(doc).endswith("\n")


_LONG = "9" * (sys.get_int_max_str_digits() + 1)

# JSON tokens as written in a document: int, float and constant literals,
# and strings, among them integer strings with a sign, blanks, "_",
# non-ASCII digits or more digits than int() converts.
_NAMED_TOKENS = (
    ["0", "-7", "true", "false", "null", "1.5", "-0.0", "1e3", "NaN",
     "Infinity", "-Infinity", _LONG, "-" + _LONG]
    + [json.dumps(text) for text in (
        "+1", "-0", " 7 ", "7\n", "1_000", "\u0661\u0662", "2/4", "-6/4", "1/0",
        "", "+", "0x10", _LONG, "-" + _LONG, "1/" + _LONG)])
_TOKENS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from(_NAMED_TOKENS),
    st.text("0123456789+-/ _.e\u0661\n", max_size=6).map(json.dumps),
)


def _read_entry_by_entry(value, path):
    """The vector as it was read before integer tokens were taken straight
    to ints: every entry through parse_rational, with its field path."""
    return tuple(_rational_at(v, f"{path}[{i}]") for i, v in enumerate(value))


def _outcome(read, value):
    try:
        return "value", read(value, "vertices[2]")
    except InputFormatError as exc:
        return "error", str(exc)


def _check_tokens(tokens):
    # Integer tokens are read straight to ints and every other token as
    # before: the vector accepts and rejects what parse_rational does, with
    # equal values and the same message and field path
    value = load_document(f"[{', '.join(tokens)}]")
    ours = _outcome(lambda v, path: _vector_at(v, path, len(v)), value)
    assert ours == _outcome(_read_entry_by_entry, value)
    if ours[0] == "value":
        for v, x in zip(value, ours[1]):
            integer = type(v) is int or (
                type(v) is str and re.fullmatch(r"[+-]?[0-9]+", v))
            assert type(x) is (int if integer else Fraction), (v, x)
    return ours


@pytest.mark.parametrize("token", _NAMED_TOKENS, ids=lambda t: t[:12])
def test_each_named_token_reads_as_parse_rational_reads_it(token):
    _check_tokens([token])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_TOKENS, min_size=1, max_size=4))
def test_vector_tokens_read_as_parse_rational_reads_them(tokens):
    _check_tokens(tokens)
