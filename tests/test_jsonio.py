import json
from fractions import Fraction

import pytest

from minproj.catalog import paper_cases
from minproj.certificates import CMFunctional
from minproj.errors import InputFormatError
from minproj.jsonio import (certificate_json, dumps, load_document,
                            parse_certificate_document, parse_space_document)

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
    assert sub2.basis.row_list() == subspace.basis.row_list()


def test_paper_cases_export_round_trip():
    for case in paper_cases():
        doc = space_json(case.space, case.subspace)
        text = dumps(doc)
        space, subspace = parse_space_document(load_document(text))
        assert space.primal_vertices == case.space.primal_vertices
        assert space.dual_vertices == case.space.dual_vertices
        assert subspace.basis.row_list() == case.subspace.basis.row_list()


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
