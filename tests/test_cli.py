"""End-to-end command-line checks: subprocess runs for the entry point,
byte determinism and environment handling, in-process runs (faster) for
the flag and exit-code matrix, and a property that runs mutated
documents through four commands."""

import contextlib
import copy
import functools
import io
import itertools
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import minproj.certificates as certificates
import minproj.cli as cli
import minproj.geometry as geometry
import minproj.projections as projections
from minproj.catalog import l1_ball, linf_ball, paper_cases, random_subspace
from minproj.geometry import Subspace
from minproj.jsonio import certificate_json, dumps, vector_json
from minproj.rational import parse_rational

from oracles import space_json

LINF3 = {
    "dim": 3,
    "vertices": [["1", "1", "1"], ["1", "1", "-1"], ["1", "-1", "1"],
                 ["1", "-1", "-1"], ["-1", "1", "1"], ["-1", "1", "-1"],
                 ["-1", "-1", "1"], ["-1", "-1", "-1"]],
    "subspace_basis": [["1", "-1", "0"], ["0", "1", "-1"]],
}

L1_3 = {
    "dim": 3,
    "vertices": [["1", "0", "0"], ["-1", "0", "0"], ["0", "1", "0"],
                 ["0", "-1", "0"], ["0", "0", "1"], ["0", "0", "-1"]],
}


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(LINF3))
    return str(path)


def _run(args, interpreter_flags=()):
    return subprocess.run([sys.executable, *interpreter_flags, "-m", "minproj", *args],
                          capture_output=True, text=True)


def _reparse_all_rationals(obj):
    if isinstance(obj, str):
        if obj not in ("skipped",) and not obj.startswith("1.") and "." not in obj:
            parse_rational(obj)
    elif isinstance(obj, list):
        for v in obj:
            _reparse_all_rationals(v)
    elif isinstance(obj, dict):
        for key, v in obj.items():
            if not key.endswith("_approx") and key not in (
                    "witness_kind", "verdict", "name"):
                _reparse_all_rationals(v)


def test_analyze_report(space_file, capsys):
    assert cli.main(["analyze", "--input", space_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == "4/3"
    assert report["lambda_approx"] == "1.33333333333"
    assert report["face_dim"] == 0
    assert report["minimal_projection"] == [
        ["2/3", "-1/3", "-1/3"], ["-1/3", "2/3", "-1/3"], ["-1/3", "-1/3", "2/3"]]
    assert len(report["norming_pairs"]) == 3
    assert report["support_search"]["size"] == 3
    assert report["general_position"]["in_general_position"] is True
    weights = [parse_rational(p["weight"])
               for p in report["cm_certificate"]["pairs"]]
    assert sum(weights) == 1
    _reparse_all_rationals(report["minimal_projection"])
    _reparse_all_rationals(report["subspace_basis"])


def test_analyze_byte_determinism(space_file, tmp_path):
    first = _run(["analyze", "--input", space_file])
    second = _run(["analyze", "--input", space_file])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    out_file = tmp_path / "report.json"
    third = _run(["analyze", "--input", space_file, "--output", str(out_file)])
    assert third.returncode == 0
    assert out_file.read_text() == first.stdout


def test_analyze_same_report_under_optimize_flag(tmp_path):
    # The face and support invariants raise explicitly, so they still run
    # (and the report is unchanged) when python -O strips asserts.
    case = next(c for c in paper_cases() if c.name == "partial-sum-linf-n4-k3")
    path = tmp_path / "case.json"
    path.write_text(json.dumps(space_json(case.space, case.subspace)))
    plain = _run(["analyze", "--input", str(path)])
    optimized = _run(["analyze", "--input", str(path)], interpreter_flags=["-O"])
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert json.loads(plain.stdout)["face_dim"] > 0
    assert optimized.stdout == plain.stdout


def test_analyze_float_input(tmp_path, capsys):
    doc = json.loads(json.dumps(LINF3))
    doc["vertices"][1][2] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "vertices[1][2]" in err and "float" in err


def test_analyze_duplicate_vertex(tmp_path, capsys):
    doc = dict(L1_3, vertices=L1_3["vertices"] + [["1", "0", "0"], ["-1", "0", "0"]],
               subspace_basis=[["0", "0", "1"]])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--input", str(path)]) == 2
    assert "convex combination" in capsys.readouterr().err


def test_analyze_non_extreme_vertex(tmp_path, capsys):
    # (1/2, 1/2, 0) and its negation sit on edges of the octahedron
    half = [["1/2", "1/2", "0"], ["-1/2", "-1/2", "0"]]
    doc = dict(L1_3, vertices=L1_3["vertices"][:3] + half + L1_3["vertices"][3:],
               subspace_basis=[["0", "0", "1"]])
    path = tmp_path / "inner.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: primal vertex 3 is a convex combination of the others\n")


def test_analyze_rejects_incomplete_dual_list(tmp_path, capsys):
    # the cube minus +-(1, 1, 1) as the duals of l1^3: only the comparison
    # with the computed polar rejects it
    cube = [[str(s) for s in signs] for signs in itertools.product((1, -1), repeat=3)
            if abs(sum(signs)) != 3]
    doc = dict(L1_3, dual_vertices=cube, subspace_basis=[["1", "2", "3"], ["0", "1", "-1"]])
    path = tmp_path / "short-duals.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: supplied dual vertices are not the polar vertex set\n")


def test_analyze_requires_subspace_or_seed(tmp_path, capsys):
    path = tmp_path / "l1.json"
    path.write_text(json.dumps(L1_3))
    assert cli.main(["analyze", "--input", str(path)]) == 2
    assert "subspace_basis" in capsys.readouterr().err
    assert cli.main(["analyze", "--input", str(path), "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["subspace_dim"] == 2
    assert parse_rational(report["lambda"]) >= 1


@pytest.mark.parametrize("command", [["analyze"], ["general-position"],
                                     ["certify", "cert.json"]])
def test_seed_on_a_line_is_malformed_input(tmp_path, capsys, command):
    # --seed asks for a random hyperplane, and R^1 has none; the user gave
    # no k, so the error names the space
    path = tmp_path / "line.json"
    path.write_text('{"dim": 1, "vertices": [["1"], ["-1"]]}')
    assert cli.main(command + ["--input", str(path), "--seed", "3"]) == 2
    assert capsys.readouterr() == (
        "", "error: a 1-dimensional space has no proper subspace\n")


@pytest.mark.parametrize("command", [["analyze"], ["general-position"],
                                     ["certify", "cert.json"]])
def test_subspace_of_a_line_is_malformed_input(tmp_path, capsys, command):
    # R^1 has no proper subspace, so a subspace_basis on a line is refused
    # with the message of the seeded route
    path = tmp_path / "line.json"
    path.write_text('{"dim": 1, "vertices": [["1"], ["-1"]], '
                    '"subspace_basis": [["1"]]}')
    assert cli.main(command + ["--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: a 1-dimensional space has no proper subspace\n")


def test_missing_input_flag(capsys):
    assert cli.main(["analyze"]) == 2
    assert "--input" in capsys.readouterr().err


def test_paper_suite_all_pass():
    result = _run(["paper-suite", "--table"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all pass" in result.stdout
    assert "FAIL" not in result.stdout
    assert result.stdout.count("PASS") == 16


def test_paper_suite_json_rows_sorted(capsys):
    assert cli.main(["paper-suite", "--only", "ker-sum"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [r["name"] for r in payload["rows"]]
    assert names == sorted(names)
    assert len(names) == 6
    assert payload["all_pass"] is True


def test_paper_suite_empty_selection_warns(capsys):
    assert cli.main(["paper-suite", "--only", "zzz"]) == 0
    captured = capsys.readouterr()
    assert "no catalog cases selected" in captured.err
    assert json.loads(captured.out)["rows"] == []


def test_paper_suite_detects_tampered_expectation(monkeypatch, capsys):
    def tampered():
        out = []
        for case in paper_cases():
            if case.name == "partial-sum-linf-n5-k3":
                case = replace(case,
                               expected=replace(case.expected, lam=Fraction(5, 4)))
            out.append(case)
        return tuple(out)

    monkeypatch.setattr(cli, "paper_cases", tampered)
    assert cli.main(["paper-suite", "--only", "partial-sum", "--table"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    for line in out.splitlines():
        if "partial-sum-linf-n5-k3" in line:
            assert "FAIL" in line and "5/4" in line


def test_certify_round_trip(space_file, tmp_path, capsys):
    assert cli.main(["analyze", "--input", space_file]) == 0
    report = json.loads(capsys.readouterr().out)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(report["cm_certificate"]))
    assert cli.main(["certify", str(cert), "--input", space_file]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is True
    assert all(verdict["checks"].values())
    assert set(verdict["checks"]) == {
        "weights", "vanishing", "invariance", "norming", "trace"}


def test_certify_bad_weight_sum(space_file, tmp_path, capsys):
    assert cli.main(["analyze", "--input", space_file]) == 0
    report = json.loads(capsys.readouterr().out)
    cert_doc = report["cm_certificate"]
    cert_doc["pairs"][0]["weight"] = "7/30"   # total now 9/10
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(cert_doc))
    assert cli.main(["certify", str(cert), "--input", space_file,
                     "--table"]) == 1
    out = capsys.readouterr().out
    assert "weights    FAIL" in out
    assert "sum is 9/10" in out
    assert "certificate INVALID" in out


def test_certify_out_of_range_index(space_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "lambda": "4/3",
        "pairs": [{"vertex": 42, "functional": 0, "weight": "1"}]}))
    assert cli.main(["certify", str(cert), "--input", space_file]) == 2
    assert "out of range" in capsys.readouterr().err


def test_certify_rejects_a_bound_below_lambda(tmp_path, capsys):
    # (x, f) and (x, -f) at weights 1/2 make T = 0, which passes every
    # check that T decides alone at lambda_c = 0: it proves lambda >= 0,
    # and the ker-sum plane of l-inf^3 has lambda 4/3, so it certifies
    # nothing, whatever its pairs give at a minimal projection
    case = next(c for c in paper_cases() if c.name == "ker-sum-linf-n3")
    path, cert = tmp_path / "space.json", tmp_path / "cert.json"
    path.write_text(json.dumps(space_json(case.space, case.subspace)))
    cert.write_text(json.dumps({"lambda": "0", "pairs": [
        {"vertex": 0, "functional": j, "weight": "1/2"}
        for j in (0, case.space.dual_negation[0])]}))
    assert cli.main(["certify", str(cert), "--input", str(path)]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert (verdict["ok"], verdict["computed_lambda"]) == (False, "4/3")
    assert [name for name, ok in verdict["checks"].items() if not ok] == ["norming"]
    assert cli.main(["certify", str(cert), "--input", str(path), "--table"]) == 1
    out = capsys.readouterr().out
    assert "norming    FAIL" in out
    assert "below lambda 4/3" in out
    assert "certificate INVALID" in out


def test_general_position_command(space_file, capsys):
    assert cli.main(["general-position", "--input", space_file]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["in_general_position"] is True
    assert verdict["spans_checked"] == 4


@pytest.mark.parametrize("case, table", [
    (None, "general position  yes\nspans checked     4\nkernels checked   6\n"),
    ("partial-sum-linf-n5-k3", "general position  no\nwitness kernel  [0, 2, 4]\n"
                               "spans checked     16\nkernels checked   16\n"),
], ids=["linf-n3", "partial-sum-linf-n5-k3"])
def test_general_position_table(space_file, tmp_path, capsys, case, table):
    path = space_file
    if case is not None:
        named = next(c for c in paper_cases() if c.name == case)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(space_json(named.space, named.subspace)))
    assert cli.main(["general-position", "--input", str(path), "--table"]) == 0
    assert capsys.readouterr() == (table, "")


@pytest.mark.parametrize("space, Y, verdict", [
    # four cube vertices span a plane through the seeded line: the
    # witness comes after the 16 + 120 + 560 subsets of sizes 1 to 3 and
    # 192 of size 4
    (linf_ball(5), random_subspace(5, 1, 7),
     {"in_general_position": False, "witness_kind": "span",
      "witness": [0, 3, 6, 9], "spans_checked": 889, "kernels_checked": 0}),
    # the line lies in the span of e3 and e4, the last pair of the 4
    # vertex pairs: 4 + 6 subsets
    (l1_ball(4), Subspace.from_basis([(0, 0, 1, 2)]),
     {"in_general_position": False, "witness_kind": "span",
      "witness": [4, 6], "spans_checked": 10, "kernels_checked": 0}),
    # the plane holds e1, the joint kernel of the last pair of dual
    # vertices e2*, e3*: 3 + 3 kernels after the 4 spans
    (linf_ball(3), Subspace.from_basis([(1, 0, 0), (0, 1, 2)]),
     {"in_general_position": False, "witness_kind": "kernel",
      "witness": [2, 4], "spans_checked": 4, "kernels_checked": 6}),
    # no witness: every span of at most 4 of the 16 vertex pairs, and
    # each of the 5 dual pairs
    (linf_ball(5), random_subspace(5, 1, 1),
     {"in_general_position": True, "witness_kind": None, "witness": None,
      "spans_checked": 16 + 120 + 560 + 1820, "kernels_checked": 5}),
], ids=["linf5-seed7-line", "l14-last-pair", "linf3-last-kernel", "linf5-seed1-line"])
def test_general_position_counts_up_to_the_witness(tmp_path, capsys, space, Y, verdict):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(space_json(space, Y)))
    assert cli.main(["general-position", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == verdict


def test_polar_table(tmp_path, capsys):
    # one line per dual vertex, in the sorted order of the JSON report
    path = tmp_path / "l1.json"
    path.write_text(json.dumps(L1_3))
    assert cli.main(["polar", "--input", str(path), "--table"]) == 0
    assert capsys.readouterr() == ("".join(
        f"{a} {b} {c}\n" for a, b, c in itertools.product((-1, 1), repeat=3)), "")


def test_polar_command_round_trips(tmp_path, capsys):
    path = tmp_path / "l1.json"
    path.write_text(json.dumps(L1_3))
    assert cli.main(["polar", "--input", str(path)]) == 0
    polar1 = json.loads(capsys.readouterr().out)
    assert len(polar1["vertices"]) == 8
    back = tmp_path / "polar.json"
    back.write_text(json.dumps(polar1))
    assert cli.main(["polar", "--input", str(back)]) == 0
    polar2 = json.loads(capsys.readouterr().out)
    original = {tuple(v) for v in L1_3["vertices"]}
    assert {tuple(v) for v in polar2["vertices"]} == original


def test_deeply_nested_input_is_malformed(tmp_path):
    # json.loads raises RecursionError on it: malformed input, exit 2, not
    # a traceback with exit 1, the mismatch code
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    result = _run(["polar", "--input", str(path)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: invalid JSON: arrays and objects are nested too deeply\n")


def test_polar_prints_integers_past_the_conversion_limit(tmp_path, capsys):
    # the polar of ±(A/B, 1), ±(1, B/A9), with A = 1 then 2,500 threes and
    # B = 2,500 sevens then 1, has integers of about 10,000 digits, past
    # sys.get_int_max_str_digits(): a valid document, printed exactly
    a, b = "1" + "3" * 2500, "7" * 2500 + "1"
    vertices = [[f"{a}/{b}", "1"], ["1", f"{b}/{a}9"]]
    vertices += [["-" + x for x in v] for v in vertices]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "vertices": vertices}))
    assert cli.main(["polar", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    duals = geometry.polar_dual([[parse_rational(x) for x in v] for v in vertices])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = dumps({"dim": 2, "vertices": [[str(x) for x in v] for v in duals]})
    finally:
        sys.set_int_max_str_digits(limit)
    assert captured.out == expected
    assert max(len(x) for v in json.loads(captured.out)["vertices"] for x in v) > limit


@pytest.mark.parametrize("literal", ["1" * 5000, "-" + "1" * 5000],
                         ids=["positive", "negative"])
def test_long_integer_literal_names_its_field(tmp_path, capsys, literal):
    # an integer literal past sys.get_int_max_str_digits() is rejected as
    # the same digits in a rational string are, with the field named
    path = tmp_path / "long.json"
    path.write_text('{"dim": 1, "vertices": [[%s], [-1]]}' % literal)
    assert cli.main(["polar", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: vertices[0][0]: rational string of {len(literal)} characters: "
        f"an integer in it has more than {sys.get_int_max_str_digits()} digits\n")


def test_skip_support_search(space_file, capsys):
    assert cli.main(["analyze", "--input", space_file,
                     "--skip-support-search"]) == 0
    assert json.loads(capsys.readouterr().out)["support_search"] == "skipped"


def test_subset_cap_flag_is_unrecognized(space_file, capsys):
    # the support search's one stop is its work budget: analyze takes no
    # candidate cap
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--input", space_file, "--subset-cap", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --subset-cap 2" in captured.err


SUPPORT_STOP = "warning: support search exceeded its work budget of 3 row steps\n"
GP_STOP = "warning: vertex-span enumeration exceeded its work budget of 3 row steps\n"


@pytest.fixture
def small_gp_cap(monkeypatch):
    """The CLI's general-position check with a budget of 3 row steps,
    which every seeded input below runs past among its one-vertex spans."""
    monkeypatch.setattr(cli, "general_position_check", functools.partial(
        geometry.general_position_check, budget=3))


@pytest.fixture
def small_support_budget(monkeypatch):
    """The CLI's support search with a budget of 3 row steps, which the
    l-inf^5 2-plane's walk runs past at once."""
    monkeypatch.setattr(cli, "minimal_support_cm", functools.partial(
        certificates.minimal_support_cm, budget=3))


def _seeded_input(tmp_path, ball, n, k):
    path = tmp_path / f"seeded-n{n}-k{k}.json"
    path.write_text(json.dumps(space_json(ball(n), random_subspace(n, k, 7))))
    return str(path)


@pytest.mark.parametrize("ball, n, k, flags, small_support, stderr", [
    # the support search finds its certificate; only general position stops
    (l1_ball, 4, 3, [], False, GP_STOP),
    # the l-inf^5 2-plane's 32 candidate pairs are searched within the
    # default work budget: the search finds its support, of size 4
    (linf_ball, 5, 2, [], False, GP_STOP),
    # a skipped search is no budget stop, and prints no warning
    (linf_ball, 5, 2, ["--skip-support-search"], False, GP_STOP),
    # with a tiny budget both stages stop, and warn in the order of the
    # report's fields
    (linf_ball, 5, 2, [], True, SUPPORT_STOP + GP_STOP),
], ids=["l1-n4-k3", "linf-n5-k2", "linf-n5-k2-skip-support",
        "linf-n5-k2-support-budget"])
def test_budget_stops_give_a_partial_report(tmp_path, capsys, small_gp_cap, request,
                                            ball, n, k, flags, small_support, stderr):
    # one rule for both budgeted stages: a warning line, "skipped" in the
    # stage's field, the rest of the report, and exit 3
    if small_support:
        request.getfixturevalue("small_support_budget")
    path = _seeded_input(tmp_path, ball, n, k)
    assert cli.main(["analyze", "--input", path, *flags]) == 3
    captured = capsys.readouterr()
    assert captured.err == stderr
    report = json.loads(captured.out)
    assert report["general_position"] == "skipped"
    if flags or small_support:
        assert report["support_search"] == "skipped"
    else:
        assert report["support_search"]["size"] == 4
    assert parse_rational(report["lambda"]) >= 1


def test_support_search_starts_at_one_when_general_position_stops(
        tmp_path, capsys, monkeypatch, request):
    # the l1^4 hyperplane has lambda > 1 in general position: the search
    # starts at n = 4 when general position finishes, and at 1 when it
    # stops at its budget, with the same support either way
    starts = []

    def search(report, in_general_position, dual):
        starts.append(in_general_position)
        return certificates.minimal_support_cm(report, in_general_position, dual)

    monkeypatch.setattr(cli, "minimal_support_cm", search)
    path = _seeded_input(tmp_path, l1_ball, 4, 3)
    assert cli.main(["analyze", "--input", path]) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["general_position"]["in_general_position"]
    assert parse_rational(full["lambda"]) > 1
    request.getfixturevalue("small_gp_cap")
    assert cli.main(["analyze", "--input", path]) == 3
    capped = json.loads(capsys.readouterr().out)
    assert capped["general_position"] == "skipped"
    assert capped["support_search"] == full["support_search"]
    assert starts == [True, False]


def test_norming_pairs_are_listed_ascending(tmp_path, capsys):
    # face_dimension hands the implicit pairs over as a set; the report
    # lists them ascending, in the JSON and in the table
    path = _seeded_input(tmp_path, linf_ball, 4, 3)
    assert cli.main(["analyze", "--input", path]) == 0
    pairs = [tuple(p) for p in json.loads(capsys.readouterr().out)["norming_pairs"]]
    assert len(pairs) == 4
    assert pairs == sorted(pairs)
    assert cli.main(["analyze", "--input", path, "--table"]) == 0
    assert ("norming pairs " + " ".join(f"({i},{j})" for i, j in pairs)
            in capsys.readouterr().out.splitlines())


def test_general_position_budget_stop_is_an_error(tmp_path, capsys, small_gp_cap):
    path = _seeded_input(tmp_path, l1_ball, 4, 3)
    assert cli.main(["general-position", "--input", path]) == 3
    assert capsys.readouterr() == (
        "", "error: vertex-span enumeration exceeded its work budget of 3 row steps\n")


@pytest.mark.parametrize("cap", ["2", "-1", "banana"])
def test_subset_cap_environment_is_read_by_no_command(space_file, tmp_path, capsys,
                                                     monkeypatch, cap):
    # configuration is the parsed arguments alone: with MINPROJ_SUBSET_CAP
    # set, every command gives the bytes, stderr and exit code it gives
    # with it unset
    assert cli.main(["analyze", "--input", space_file]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(json.loads(capsys.readouterr().out)["cm_certificate"]))
    commands = [["analyze", "--input", space_file],
                ["analyze", "--input", space_file, "--table"],
                ["polar", "--input", space_file],
                ["certify", str(cert), "--input", space_file],
                ["general-position", "--input", space_file],
                ["paper-suite", "--only", "ker-sum-l1-n3"]]

    def outcomes():
        return [(cli.main(argv), *capsys.readouterr()) for argv in commands]

    monkeypatch.delenv("MINPROJ_SUBSET_CAP", raising=False)
    unset = outcomes()
    monkeypatch.setenv("MINPROJ_SUBSET_CAP", cap)
    assert outcomes() == unset
    assert [code for code, _, _ in unset] == [0] * len(commands)


@pytest.mark.parametrize("flag", [["--only", "ker"], ["--skip-support-search"],
                                  ["--seed", "1"], ["--input", "space.json"]])
def test_support_flags_belong_to_analyze(space_file, capsys, flag):
    # each command declares only the flags its handler reads: the support
    # flag belongs to analyze, --only to paper-suite, --seed to the
    # commands that resolve a subspace, and --input to every command but
    # paper-suite
    readers = {"--only": ("paper-suite",), "--seed": ("general-position",),
               "--input": ("polar", "general-position")}
    for command in ("polar", "general-position", "paper-suite"):
        if command in readers.get(flag[0], ()):
            continue
        argv = [command, *flag] if command == "paper-suite" else [
            command, "--input", space_file, *flag]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_polar_command_computes_the_polar_once(tmp_path, capsys, monkeypatch):
    # validation computes the polar; the command prints it sorted.  Every
    # polar, through polar_dual or validation, is one double description
    calls = []
    original = geometry._double_description

    def counting(rows, den):
        calls.append(len(rows))
        return original(rows, den)

    monkeypatch.setattr(geometry, "_double_description", counting)
    path = tmp_path / "l1.json"
    path.write_text(json.dumps(L1_3))
    assert cli.main(["polar", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert calls == [6]
    expected = {"dim": 3, "vertices": [vector_json(v) for v in geometry.polar_dual(
        [tuple(parse_rational(x) for x in v) for v in L1_3["vertices"]])]}
    assert out == dumps(expected)
    # the polar of the polar is the input ball, in sorted order, byte for byte
    back = tmp_path / "polar.json"
    back.write_text(out)
    assert cli.main(["polar", "--input", str(back)]) == 0
    assert capsys.readouterr().out == dumps(
        {"dim": 3, "vertices": sorted(L1_3["vertices"],
                                      key=lambda v: [parse_rational(x) for x in v])})


def _count_builds(spy):
    """Spy on build_operator_basis and build_pair_grid wherever they are
    called; the returned Counter counts the calls of each."""
    for module in (projections, certificates):
        for name in ("build_operator_basis", "build_pair_grid"):
            counts = spy(module, name)
    return counts


def test_analyze_builds_operator_basis_once(space_file, capsys, spy):
    # every stage after the lambda solve reads the basis and the grid
    # from its report
    counts = _count_builds(spy)
    assert cli.main(["analyze", "--input", space_file]) == 0
    assert json.loads(capsys.readouterr().out)["support_search"]["size"] == 3
    assert counts == {"build_operator_basis": 1, "build_pair_grid": 1}


@pytest.mark.parametrize("route", ["no-lp", "one-lp", "tampered", "out-of-range"])
def test_certify_builds_basis_and_grid_once(tmp_path, capsys, spy, route):
    # certify_cm's routes (no LP, one LP, the optimal face) share one
    # operator basis; the pair grid is built once for the lambda LP, and
    # not at all on the no-LP route, which reads the solved projection's
    # norm off the vertex lists.  The CLI refuses an out-of-range pair
    # while parsing, so that certificate goes to certify_cm directly
    ball, k = (linf_ball, 2) if route == "one-lp" else (l1_ball, 3)
    space, Y = ball(4), random_subspace(4, k, 7)
    report = projections.projection_constant(space, Y)
    cm = certificates.cm_from_dual(report)
    if route == "tampered":
        cm = certificates.CMFunctional(cm.pairs, (Fraction(1, 1000),) + cm.weights[1:])
    counts = _count_builds(spy)
    if route == "out-of-range":
        cm = certificates.CMFunctional(((len(space.primal_vertices), 0),), (Fraction(1),))
        _, verdict = certificates.certify_cm(space, Y, cm, report.lam)
        assert not verdict.ok
    else:
        path, cert = tmp_path / "space.json", tmp_path / "cert.json"
        path.write_text(json.dumps(space_json(space, Y)))
        cert.write_text(dumps(certificate_json(cm, report.lam)))
        code = cli.main(["certify", str(cert), "--input", str(path)])
        assert code == (1 if route == "tampered" else 0)
        capsys.readouterr()
    assert counts["build_operator_basis"] == 1
    assert counts["build_pair_grid"] == (0 if route == "no-lp" else 1)


@pytest.mark.parametrize("ball, k", [(linf_ball, 2), (l1_ball, 3)])
def test_no_stage_builds_the_fraction_vertex_lists(tmp_path, capsys, monkeypatch,
                                                   ball, k):
    # analyze, certify (its no-LP or one-LP route, and the optimal face for
    # a tampered certificate) and general-position read the vertex lists
    # only as integer rows; with both Fraction views raising, every output
    # is the same, on a document with its dual list and on one without
    space, Y = ball(4), random_subspace(4, k, 7)
    report = projections.projection_constant(space, Y)
    cm = certificates.cm_from_dual(report)
    tampered = certificates.CMFunctional(cm.pairs,
                                         (Fraction(1, 1000),) + cm.weights[1:])
    doc = space_json(space, Y)
    argvs = []
    for name, document in (("supplied", doc),
                           ("computed", dict(doc, dual_vertices=None))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        argvs += [["analyze", "--input", str(path)],
                  ["general-position", "--input", str(path)]]
        for label, certificate in (("valid", cm), ("tampered", tampered)):
            cert = tmp_path / f"{label}.json"
            cert.write_text(dumps(certificate_json(certificate, report.lam)))
            argvs.append(["certify", str(cert), "--input", str(path)])
    expected = []
    for argv in argvs:
        expected.append((cli.main(argv), capsys.readouterr()))
    assert {code for code, _ in expected} <= {0, 1}

    def unbuilt(self):
        raise AssertionError("a Fraction vertex list was built")

    for view in ("primal_vertices", "dual_vertices"):
        monkeypatch.setattr(geometry.PolyhedralSpace, view, property(unbuilt))
    for argv, before in zip(argvs, expected):
        assert (cli.main(argv), capsys.readouterr()) == before, argv


def test_no_stage_forms_the_dense_grid_rows(tmp_path, capsys, monkeypatch, spy):
    # analyze, paper-suite and certify on each of its routes read the pair
    # grid through its rank-one factors: no LP on the l1^6 2-plane, one LP
    # on the l-inf^6 hyperplane (lambda = 1) and the optimal face for a
    # wrong lambda_c (exit 1).  With the Fraction constraint_matrix (read
    # by the benchmark's tracer alone) raising, every output and exit code
    # is the same
    argvs, routes = [], []
    for ball, k in ((linf_ball, 2), (l1_ball, 3)):
        path = tmp_path / f"{ball.__name__}4-k{k}.json"
        path.write_text(json.dumps(space_json(ball(4), random_subspace(4, k, 7))))
        argvs.append(["analyze", "--input", str(path)])
    argvs.append(["paper-suite"])
    for route, ball, k, wrong in (("no-lp", l1_ball, 2, False),
                                  ("one-lp", linf_ball, 5, False),
                                  ("face", linf_ball, 5, True)):
        space, Y = ball(6), random_subspace(6, k, 7)
        report = projections.projection_constant(space, Y)
        path, cert = tmp_path / f"{route}.json", tmp_path / f"{route}.cert.json"
        path.write_text(json.dumps(space_json(space, Y)))
        lam = report.lam + 1 if wrong else report.lam
        cert.write_text(dumps(certificate_json(certificates.cm_from_dual(report), lam)))
        argvs.append(["certify", str(cert), "--input", str(path)])
        routes.append((route, report.lam))
    assert [lam == 1 for _, lam in routes] == [False, True, True]
    expected = []
    counts = spy(certificates, "build_pair_grid")
    for argv in argvs:
        expected.append((cli.main(argv), capsys.readouterr()))
    assert [code for code, _ in expected] == [0, 0, 0, 0, 0, 1]
    assert counts["build_pair_grid"] == 2  # the one-LP and the face route

    def unbuilt(self):
        raise AssertionError("the dense grid rows were formed")

    monkeypatch.setattr(projections.PairGrid, "constraint_matrix", property(unbuilt))
    for argv, before in zip(argvs, expected):
        assert (cli.main(argv), capsys.readouterr()) == before, argv


@pytest.mark.parametrize("command", ["analyze", "paper-suite"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_is_malformed_input(space_file, tmp_path, capsys,
                                              command, target):
    # exit 1 means a mismatch; a path that cannot be written is exit 2
    # with one error line, as an unreadable input is
    output = tmp_path / "missing" / "report.json" if target == "missing-directory" \
        else tmp_path
    argv = [command, "--output", str(output)]
    if command == "analyze":
        argv += ["--input", space_file]
    else:
        argv += ["--only", "ker-sum-linf-n3"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {output}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing", "directory", "utf-16"])
def test_unreadable_input_is_malformed_input(tmp_path, capsys, target):
    # a missing file, a directory, and a document that is not UTF-8 text
    path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
            "utf-16": tmp_path / "utf16.json"}[target]
    if target == "utf-16":
        path.write_bytes(json.dumps(L1_3).encode("utf-16"))  # starts ff fe
    assert cli.main(["analyze", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert captured.err.count("\n") == 1


def test_analyze_table_output(space_file, capsys):
    assert cli.main(["analyze", "--input", space_file, "--table"]) == 0
    out = capsys.readouterr().out
    assert "lambda        4/3 (approx 1.33333333333)" in out
    assert "face dim      0" in out
    assert "general pos   yes" in out


def test_internal_failure_exits_4(space_file, capsys, monkeypatch):
    # a failed invariant check, not bad input: exit 4 with one line
    monkeypatch.setattr(projections, "integer_inverse", lambda rows, count: None)
    assert cli.main(["analyze", "--input", space_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("error, line", [
    (ZeroDivisionError("simulated bug"), "ZeroDivisionError: simulated bug"),
    (KeyError("simulated bug"), "KeyError: 'simulated bug'"),
    (ValueError("simulated bug"), "ValueError: simulated bug"),
])
@pytest.mark.parametrize("command, stage", [
    (["analyze"], "projection_constant"),
    (["general-position"], "general_position_check"),
    (["polar"], "matrix_json"),
])
def test_any_other_exception_exits_4(space_file, capsys, monkeypatch, error, line,
                                     command, stage):
    # an exception that no input check raises can only come from a bug:
    # exit 4 with one line naming its type, never a traceback with exit 1;
    # input checks raise MinprojErrors, so a plain ValueError is a bug too
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, stage, broken)
    assert cli.main(command + ["--input", space_file]) == 4
    assert capsys.readouterr() == ("", f"internal error: {line}\n")


@pytest.mark.parametrize("failure", ["dual", "support-hit", "no-support"])
def test_pipeline_certificate_failure_exits_4(tmp_path, capsys, monkeypatch, failure):
    # analyze hands cm_from_dual and minimal_support_cm only its own solve,
    # so a certificate they reject is an internal failure, not bad input.
    # The seeded l1^4 hyperplane has 6 implicit pairs over 4 dual ones, so
    # the support search walks: "support-hit" rejects the verification of
    # the walk's hit, and "no-support" finds none.  "dual" rejects the
    # l1^3 2-plane's lambda dual
    path = tmp_path / "l1.json"
    if failure != "dual":
        path.write_text(json.dumps(space_json(l1_ball(4), random_subspace(4, 3, 7))))
    else:
        path.write_text(json.dumps(dict(L1_3, subspace_basis=[["1", "-1", "0"],
                                                              ["0", "1", "-1"]])))
    original = certificates.verify_cm
    calls = []

    def rejecting(*args, **kwargs):
        calls.append(args)
        if failure == "dual" or len(calls) > 1:
            return certificates.CMVerdict(("trace: simulated bug",))
        return original(*args, **kwargs)

    walked = []

    def no_positive_weights(heads):
        walked.append(heads)
        return None

    if failure == "no-support":
        monkeypatch.setattr(certificates, "_support_weights", no_positive_weights)
    else:
        monkeypatch.setattr(certificates, "verify_cm", rejecting)
    assert cli.main(["analyze", "--input", str(path)]) == 4
    assert bool(walked) == (failure == "no-support")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == {
        "dual": "internal error: trace: simulated bug\n",
        "support-hit": "internal error: subset search produced an invalid "
                       "certificate: trace: simulated bug\n",
        "no-support": "internal error: no valid certificate over the candidate pairs\n",
    }[failure]


@pytest.mark.parametrize("ball, n, k", [(linf_ball, 4, 3), (l1_ball, 4, 2),
                                        (linf_ball, 5, 4), (l1_ball, 5, 2)])
def test_a_dual_only_certificate_is_verified_once(tmp_path, capsys, monkeypatch,
                                                  ball, n, k):
    # On these seeded inputs the lambda dual is the only certificate over
    # the implicit pairs and the relative-interior point is the witness:
    # cm_from_dual verifies it there, and the support search hands the
    # same certificate back with no second verify_cm
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_json(ball(n), random_subspace(n, k, 7))))
    calls = []
    original = certificates.verify_cm

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(certificates, "verify_cm", counting)
    assert cli.main(["analyze", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["support_search"]["certificate"] == report["cm_certificate"]
    assert len(calls) == 1


def test_reused_parser_gives_the_bytes_of_a_fresh_one(space_file, tmp_path, capsys,
                                                     small_support_budget):
    # the parser is built once per process; calls in a row with different
    # flags, each flag before a call without it, print what a freshly
    # built parser makes them print, a budget stop (exit 3) among them.
    # The l-inf^3 plane's support search runs no walk, so the small
    # budget stops only the l-inf^5 2-plane's
    assert cli.main(["analyze", "--input", space_file]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(json.loads(capsys.readouterr().out)["cm_certificate"]))
    commands = [
        ["analyze", "--input", space_file, "--table"],
        ["analyze", "--input", space_file, "--skip-support-search"],
        ["analyze", "--input", _seeded_input(tmp_path, linf_ball, 5, 2)],
        ["analyze", "--input", space_file],
        ["certify", str(cert), "--input", space_file, "--table"],
        ["certify", str(cert), "--input", space_file],
    ]

    def outcome(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [outcome(argv) for argv in commands]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in commands:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 3, 0, 0, 0]
    assert len(set(reused)) == len(commands)


# Documents of n <= 3 that every command accepts, and a certificate of
# the first, which analyze emits for it.
_BASE_DOCUMENTS = (
    LINF3,
    dict(L1_3, subspace_basis=[["1", "-1", "0"], ["0", "1", "-1"]]),
    {"dim": 2, "vertices": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]],
     "dual_vertices": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
     "subspace_basis": [["1", "2"]]},
)
_BASE_CERTIFICATE = {"lambda": "4/3", "pairs": [
    {"vertex": 1, "functional": 2, "weight": "1/3"},
    {"vertex": 2, "functional": 1, "weight": "1/3"},
    {"vertex": 3, "functional": 5, "weight": "1/3"}]}

# Most replacements are small rationals and indices, which keep a
# document well formed, so that the commands run on it, or tokens a
# parser must refuse; the rest are any JSON value.
_LEAVES = (st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | st.floats()
           | st.text(max_size=4))
_VALUES = (st.sampled_from((0, 1, 2, 3, 5, "0", "1", "-1", "2", "-2", "1/2",
                            "-1/3", "3/2", "4/3"))
           | st.sampled_from(("", "1/0", "0/0", "2/-3", "1e3", "0x1", " 1", "+1",
                              "1\n2", "\u00bd", "1.5", "NaN", True, -1, 10 ** 30))
           | st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                          | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                          max_leaves=6))


def _paths(value, path=()):
    """Every path into a JSON value below the value itself, each with
    whether it leads to a leaf."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield path + (key,), not isinstance(inner, (dict, list))
        yield from _paths(inner, path + (key,))


@st.composite
def _mutated(draw, document, within=()):
    """The document's text after one or two edits inside the part at path
    `within`, then sometimes cut short or given a byte that is not UTF-8.
    An edit replaces a leaf (most often), removes or doubles a key or list
    entry, or puts any JSON value in place of a part."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(("leaf",) * 3 + ("remove", "double", "value")))
        paths = [path for path, leaf in _paths(doc)
                 if path[:len(within)] == within and (leaf or edit != "leaf")]
        if not paths:  # `within` was removed by the edit before
            continue
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if edit in ("leaf", "value"):
            parent[key] = draw(_VALUES)
        elif edit == "remove":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], copy.deepcopy(parent[key])]
    text = json.dumps(doc).encode()
    tail = draw(st.sampled_from(("keep",) * 8 + ("cut", "byte")))
    if tail == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif tail == "byte":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff" + text[at:]
    return text


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_documents_exit_0_to_3_with_one_line_messages(tmp_path_factory, data):
    # A mutated space document through analyze, polar, general-position
    # and certify, or a mutated certificate through certify, is judged as
    # input: the exit code is 0 to 3 (1 is a certificate that fails
    # verification), never a bug's 4, and stderr holds only "error: " and
    # "warning: " lines.  Some mutations touch the subspace alone, so
    # that the commands run past parsing.
    directory = tmp_path_factory.mktemp("mutated")
    space, cert = directory / "space.json", directory / "cert.json"
    target = data.draw(st.sampled_from(("space", "subspace", "certificate")))
    document = data.draw(st.sampled_from(_BASE_DOCUMENTS))
    if target == "certificate":
        space.write_text(json.dumps(LINF3))
        cert.write_bytes(data.draw(_mutated(_BASE_CERTIFICATE)))
        argvs = [["certify", str(cert), "--input", str(space)]]
    else:
        within = ("subspace_basis",) if target == "subspace" else ()
        space.write_bytes(data.draw(_mutated(document, within)))
        cert.write_text(json.dumps(_BASE_CERTIFICATE))
        argvs = [[command, "--input", str(space)]
                 for command in ("analyze", "polar", "general-position")]
        argvs.append(["certify", str(cert), "--input", str(space)])
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        for line in err.getvalue().splitlines():
            assert line.startswith(("error: ", "warning: ")), (argv, line)
