"""Report bytes pinned by SHA-256 digest.

Every exact method in the pipeline can be replaced by another that gives
the same answers; these digests make sure the replacement also gives the
same bytes.  They cover the full ``analyze`` JSON (including the emitted
``minimal_projection`` and ``cm_certificate``, which depend on the pivot
sequence of the simplex: Dantzig's rule with the lexicographic ratio
test) of the 16 catalog cases and of the eight seeded n = 4 and n = 5
inputs of the pipeline benchmark (cube and cross-polytope, hyperplane and
2-plane, ``random_subspace`` at generator seed 7, primal vertices only so
the CLI computes the polar), plus ``certify`` on one valid and one
tampered certificate of the seeded l1^4 hyperplane.  ``certify`` also
runs, in JSON and ``--table``, on eight more tampered certificates of
that hyperplane (the last claims three of its pairs at lambda 1, below
the true lambda) and on the valid certificate of the seeded l-inf^4
2-plane, whose pairs leave the minimal projection undetermined (rank 2
of 4), so it is settled by the LP, and on the valid certificate of the
seeded l-inf^6 hyperplane, whose two pairs leave it undetermined too
(lambda = 1): its LP starts at the certificate's own rows and skips
phase I, and its digest was taken before the LP had a start.  The
l-inf^5 2-plane's support search walks 32 candidate pairs to a support
of size 4 within the default work budget.  ``polar`` runs on primal-only
documents of l-inf^8, l1^8 and mixed_ball(5, 3), whose polar the double
description computes.

The digests hash the exit code, standard output and standard error of
each run.  Nine pinned runs also run in child interpreters, plain and
under ``python -O``, which must print the same bytes with the same exit
code: ``analyze`` on the seeded l1^4 hyperplane and on the seeded l-inf^5
2-plane (its support found by the subset walk), ``general-position`` on
the partial-sum 3-plane of l-inf^5, and ``certify`` on the valid
certificates of the seeded l1^4 hyperplane (no LP), l-inf^4 2-plane
(one LP) and l-inf^6 hyperplane (one started LP), on the small-weight
tampered one (the optimal face) and on the three pairs claimed at
lambda 1 (the no-LP point rejected by its norm, then the optimal
face), and ``polar`` on l-inf^8.  To
print the table after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import minproj.cli as cli
from minproj.catalog import (l1_ball, linf_ball, mixed_ball, paper_cases,
                             random_subspace)
from minproj.jsonio import vector_json

from oracles import space_json

SEED = 7
CERTIFIED = "seeded-l1-n4-k3"
RANK_DEFICIENT = "seeded-linf-n4-k2"
LAMBDA_ONE = "seeded-linf-n6-k5"

GOLDEN = {
    "analyze/ker-sum-l1-n3": "f243c0df0d7917b5a2fd2e595bef69a1bdafca4d1ca11700a4dc85ab4ad14b5f",
    "analyze/ker-sum-linf-n3": "a144cc9aae6d41224123f41370b13b3d2c2623192db53f5deee008a009772227",
    "analyze/ker-sum-l1-n4": "4aeef2d52ef337d3722ccb070a33da19e674d0bfaad59ecc0cfbc0f964de5c3e",
    "analyze/ker-sum-linf-n4": "1695f2a48909d0083aedb0eca9250053cc5b26d72f1e64cdb0768a46f7374afa",
    "analyze/ker-sum-l1-n5": "d73e8fc4b3d9500b157bd1d39f894482743819bc2f9155411389634cae31fadc",
    "analyze/ker-sum-linf-n5": "4624d9d30bbfceb2225bb52b619cd46aad16622860edd061e005bcbf0c20958f",
    "analyze/coordinate-span-l1-n3-k2": "a744feb44f3bb5554817234563ce5335456547d9db50ed16f7ef219b6fc0f960",
    "analyze/coordinate-span-l1-n4-k2": "ff6dcf40038ec9dd831e25931873f3a03aacf5dec566462cd218e25982e81014",
    "analyze/coordinate-span-l1-n5-k2": "2578328c61827c321f8a75ce0da13f378cb531952df6a8d7ab6d55598a6f803f",
    "analyze/mixed-extremal-n4-k3": "6197997a25ef2b81d6f02b239c1c8f897face87af1de1154e26e43798ee83a3d",
    "analyze/mixed-extremal-n5-k3": "19c5b9deb22f674874d582d63a43555a2b30f1e8155be36fcb2c89af6157e92c",
    "analyze/partial-sum-linf-n4-k3": "300119a1d442b5aceec998827c5889cca5ffdebe77fffd1895124ca663168349",
    "analyze/partial-sum-linf-n5-k3": "0f92bf92a529cd790079aa763f72dd23ea9f10615d847edeb62d05e13013d8c4",
    "analyze/partial-sum-linf-n5-k4": "be9e1838f7dd2cf954d394c25d1b8251899bb10eaa21d60735ee367067eec8bb",
    "analyze/first-coordinate-mixed-n4": "713c9ad8732a3489713fd0291f70878a3d95f3787c318127ccff27c6820bfced",
    "analyze/first-coordinate-mixed-n5": "8f08e12fb94dd33e41aaf0f45a48c3bd062035afadfa5d9f2e2a126d6f856d33",
    "analyze/seeded-linf-n4-k3": "f9721986d7dc4ccad8b18bddc018cf378c531420c105ad6fd22b4ada6311fb56",
    "analyze/seeded-linf-n4-k2": "741a68ceeefb4a7097234330eb3bf700a5ca4eeac64a45ca172d3bdbce6c2644",
    "certify/seeded-linf-n4-k2-valid/json": "19f54cdb201c57490f74febfb241c5c045920c820f28be2561eacc0baa5fcd76",
    "certify/seeded-linf-n4-k2-valid/table": "9b520fe713d3e6cd7b913d7749fd4d744d41cdf923053008d3f8f8b3bb8baa1d",
    "analyze/seeded-l1-n4-k3": "d50a14e93457258be1dcc703b3703d597ed6ea619543fa849da02dfe7d60e506",
    "certify/seeded-l1-n4-k3-valid": "3ad55cf3f5b673879723c1aa8ef0b1bd3450a3b6fcc6ef0554786811b54d17f3",
    "certify/seeded-l1-n4-k3-tampered": "137486a4feafc3cad9f6b52973a4e3b25d9f969359ec4d00f9a3c0328aac2721",
    "certify/seeded-l1-n4-k3-small-weight/json": "137486a4feafc3cad9f6b52973a4e3b25d9f969359ec4d00f9a3c0328aac2721",
    "certify/seeded-l1-n4-k3-small-weight/table": "01e4b1d73ddfd76e7ae207f8a6bb95a40c65be46a33cb2384c9d0f1765de6f83",
    "certify/seeded-l1-n4-k3-lambda-7-3/json": "3b4838a11838e4e7112e0fd08d27dbd235795ae244545faa395e61d289ac647b",
    "certify/seeded-l1-n4-k3-lambda-7-3/table": "cec9006b8851c0c739bf01b1f3ed237a9f5f01199e66966f024f245222942b23",
    "certify/seeded-l1-n4-k3-lambda-1-2/json": "0d5e247bc2906dded6ad2c03f5ad5dfe118f16df9b4c91ec46227fe7ecfc0972",
    "certify/seeded-l1-n4-k3-lambda-1-2/table": "e1da76abda81fe560e0cfb09fdebd0ba799d3463cc99737d930700843207caf6",
    "certify/seeded-l1-n4-k3-last-functional-0/json": "edcba4d2049cef1d29b738e29d8b1e44063b21cece08acab49c85f521f97a0d6",
    "certify/seeded-l1-n4-k3-last-functional-0/table": "777e8c59db03b88982416dc3f0a902391165d1c6de72cf6edaa78c69813f32a6",
    "certify/seeded-l1-n4-k3-extra-pair/json": "6499ade711cea0477870032f510e1193f59ba23de3c34eed8af36017f144f8c2",
    "certify/seeded-l1-n4-k3-extra-pair/table": "324225f91e068ae0ad635f5e8f5e6c680d4de77f760fec2b938075480e9df036",
    "certify/seeded-l1-n4-k3-single-pair/json": "d8f36237dab97c1e7040381f4d264bb7216526e5ddc4777058ce56e50114355b",
    "certify/seeded-l1-n4-k3-single-pair/table": "f9df99b9321d259f53c2992583d62e867d6a44d2f4d5de0f444105bd86def779",
    "certify/seeded-l1-n4-k3-duplicated-pair/json": "f030a2dca6b14c21bcc4c789e69a9d69bb815c4aa521a5048e494f03d2a27655",
    "certify/seeded-l1-n4-k3-duplicated-pair/table": "6eb47ffcd859833dfed9886da52439b31f41c2a89b00171930dbaa9baee74538",
    "certify/seeded-l1-n4-k3-three-pairs-lambda-1/json": "8e769310c6108cbedfc563162d7752353d2470d4f9eb7483eed526c373afe4e4",
    "certify/seeded-l1-n4-k3-three-pairs-lambda-1/table": "d0061b494f4b682b1ee0720d3c27cd5a1efa62ed6fb0eed8003409e9f1d10775",
    "analyze/seeded-l1-n4-k2": "ff3d54785ef2b851a20604e2d871e08d68c2da631d1ed68ad42758142f2a3d61",
    "analyze/seeded-linf-n5-k4": "87043baabbe316e449a1370e2f18f132823c095bdbce0eacfb7aa7b55ffe3a00",
    "analyze/seeded-linf-n5-k2": "e9186502ae90fecb98ca9715442a3f0f4d8f48ba494d658ac667a97438050843",
    "analyze/seeded-l1-n5-k4": "87f00550feddd178a116240a3050e64af597cdb90d3442fc03b715a93bd83c7e",
    "analyze/seeded-l1-n5-k2": "8ce3dd4b56118e1a66aefdb5dcbb0a0b4bd14cad2a95b913b7acb7960d549d66",
    "certify/seeded-linf-n6-k5-valid/json": "19f54cdb201c57490f74febfb241c5c045920c820f28be2561eacc0baa5fcd76",
    "certify/seeded-linf-n6-k5-valid/table": "9b520fe713d3e6cd7b913d7749fd4d744d41cdf923053008d3f8f8b3bb8baa1d",
    "polar/linf-n8": "baa6aabcec54ea0b1c174ea9835e193384663b9f01b96d8897e144198a82a787",
    "polar/l1-n8": "12291cbaefb8e0d4706ef9acaf4840138216744c3c9446d3ca90e0301c13825c",
    "polar/mixed-n5-k3": "2e5ccf11874741c3d0859a7f015e59f10b1e66f628d648d79f77b455db7b4394",
}

# stdout of general-position on the partial-sum 3-plane of l-inf^5
GENERAL_POSITION_DIGEST = "96649fbaa94847624c4dd494e096628fd714a6625496b4d7372101818e4d0aea"


def _seeded_documents(n):
    cube = [list(v) for v in itertools.product((1, -1), repeat=n)]
    cross = [[s if j == i else 0 for j in range(n)] for i in range(n) for s in (1, -1)]
    for ball, verts in (("linf", cube), ("l1", cross)):
        for k in (n - 1, 2):
            subspace = random_subspace(n, k, SEED)
            yield f"seeded-{ball}-n{n}-k{k}", {
                "dim": n,
                "vertices": [vector_json(v) for v in verts],
                "subspace_basis": [vector_json(b) for b in subspace.basis_vectors()],
            }


def _polar_documents():
    """Primal-only documents of three balls: the CLI computes their polar."""
    for name, space in (("linf-n8", linf_ball(8)), ("l1-n8", l1_ball(8)),
                        ("mixed-n5-k3", mixed_ball(5, 3))):
        yield name, {"dim": space.dim,
                     "vertices": [vector_json(v) for v in space.primal_vertices]}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _runs(tmp_path):
    """(name, (exit code, stdout, stderr)) of every pinned run, in order."""
    documents = [(case.name, space_json(case.space, case.subspace))
                 for case in paper_cases()]
    documents += list(_seeded_documents(4))
    documents += list(_seeded_documents(5))
    for name, doc in documents:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        result = _run(["analyze", "--input", str(path)])
        yield f"analyze/{name}", result
        if name == CERTIFIED:
            cert = json.loads(result[1])["cm_certificate"]
            tampered = _tampered(cert)
            for label, doc in (("valid", cert),
                               ("tampered", tampered["small-weight"])):
                cert_path = tmp_path / f"{label}.certificate.json"
                cert_path.write_text(json.dumps(doc))
                yield f"certify/{name}-{label}", _run(
                    ["certify", str(cert_path), "--input", str(path)])
            for label, doc in tampered.items():
                yield from _certify_runs(tmp_path, f"{name}-{label}", doc, path)
        if name == RANK_DEFICIENT:
            cert = json.loads(result[1])["cm_certificate"]
            yield from _certify_runs(tmp_path, f"{name}-valid", cert, path)
    path = tmp_path / f"{LAMBDA_ONE}.json"
    path.write_text(json.dumps(dict(_seeded_documents(6))[LAMBDA_ONE]))
    cert = json.loads(_run(["analyze", "--input", str(path)])[1])["cm_certificate"]
    yield from _certify_runs(tmp_path, f"{LAMBDA_ONE}-valid", cert, path)
    for name, doc in _polar_documents():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        yield f"polar/{name}", _run(["polar", "--input", str(path)])


def _tampered(cert):
    """Eight invalid variants of a certificate document, by label.  The
    last keeps three pairs, whose rows have full rank k(n-k) = 3, and
    claims lambda_c = 1, below the true lambda: certify solves the one
    projection they norm at 1, rejects it by its norm, and goes through
    the optimal face."""
    pairs = cert["pairs"]
    return {
        "small-weight": {**cert, "pairs": [{**pairs[0], "weight": "1/1000"}]
                         + pairs[1:]},
        "lambda-7-3": {**cert, "lambda": "7/3"},
        "lambda-1-2": {**cert, "lambda": "1/2"},
        "last-functional-0": {**cert, "pairs": pairs[:-1]
                              + [{**pairs[-1], "functional": 0}]},
        "extra-pair": {**cert, "pairs": pairs
                       + [{"vertex": 0, "functional": 0, "weight": "1/1000"}]},
        "single-pair": {**cert, "pairs": [{**pairs[0], "weight": "1"}]},
        "duplicated-pair": {**cert, "pairs": pairs + pairs[:1]},
        "three-pairs-lambda-1": {"lambda": "1", "pairs": [
            {**pair, "weight": "1/3"} for pair in pairs[:3]]},
    }


def _certify_runs(tmp_path, label, cert, path):
    """certify on one certificate document, in JSON and as a table."""
    cert_path = tmp_path / "certificate.json"
    cert_path.write_text(json.dumps(cert))
    for fmt in ("json", "table"):
        yield f"certify/{label}/{fmt}", _run(
            ["certify", str(cert_path), "--input", str(path), f"--{fmt}"])


def _digest(result) -> str:
    code, out, err = result
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


@pytest.mark.parametrize("command, case, certificate, pinned", [
    pytest.param("analyze", CERTIFIED, None, "analyze/seeded-l1-n4-k3",
                 id="analyze"),
    # the support search walks its 32 candidate pairs to a support of 4
    pytest.param("analyze", "seeded-linf-n5-k2", None, "analyze/seeded-linf-n5-k2",
                 id="analyze-support-walk"),
    # the partial-sum 3-plane of l-inf^5 fails general position with a
    # kernel witness of three dual vertices, which the subset walk finds
    # among the leaves that one node decides at once
    pytest.param("general-position", "partial-sum-linf-n5-k3", None, None,
                 id="general-position"),
    # the valid certificate's pairs determine the projection: no LP
    pytest.param("certify", CERTIFIED, "valid", "certify/seeded-l1-n4-k3-valid",
                 id="certify-no-lp"),
    # pairs of rank 2 of 4: one LP
    pytest.param("certify", RANK_DEFICIENT, "valid",
                 "certify/seeded-linf-n4-k2-valid/json", id="certify-one-lp"),
    # lambda = 1 from two pairs: the one LP, started at the certificate
    pytest.param("certify", LAMBDA_ONE, "valid",
                 "certify/seeded-linf-n6-k5-valid/json", id="certify-one-lp-started"),
    # an invalid certificate: the optimal face
    pytest.param("certify", CERTIFIED, "small-weight",
                 "certify/seeded-l1-n4-k3-tampered", id="certify-tampered"),
    # pairs of full rank claimed below lambda: the solved projection's
    # norm exceeds the claim, so the optimal face
    pytest.param("certify", CERTIFIED, "three-pairs-lambda-1",
                 "certify/seeded-l1-n4-k3-three-pairs-lambda-1/json",
                 id="certify-no-lp-rejected"),
    # the polar of the 8-cube, computed by the double description
    pytest.param("polar", "linf-n8", None, "polar/linf-n8", id="polar"),
])
def test_optimized_interpreter_gives_the_same_bytes(tmp_path, command, case,
                                                    certificate, pinned):
    # The invariants raise explicitly, so python -m minproj under python -O,
    # which strips asserts, runs the same checks and prints the pinned bytes
    documents = {c.name: space_json(c.space, c.subspace) for c in paper_cases()}
    documents.update(_seeded_documents(4))
    documents.update(_seeded_documents(5))
    documents.update(_seeded_documents(6))
    documents.update(_polar_documents())
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(documents[case]))
    argv = [command, "--input", str(path)]
    if certificate is not None:
        cert = json.loads(_run(["analyze", "--input", str(path)])[1])["cm_certificate"]
        cert_path = tmp_path / "certificate.json"
        cert_path.write_text(json.dumps(
            cert if certificate == "valid" else _tampered(cert)[certificate]))
        argv.insert(1, str(cert_path))
    plain, optimized = [
        subprocess.run([sys.executable, *flags, "-m", "minproj", *argv],
                       capture_output=True, text=True) for flags in ((), ("-O",))]
    if pinned is None:
        assert plain.returncode == 0, plain.stderr
        report = json.loads(plain.stdout)
        assert (report["witness_kind"], report["witness"]) == ("kernel", [0, 2, 4])
        assert hashlib.sha256(plain.stdout.encode()).hexdigest() == GENERAL_POSITION_DIGEST
    else:
        assert _digest((plain.returncode, plain.stdout, plain.stderr)) == GOLDEN[pinned]
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout


def test_report_bytes_match_golden_digests(tmp_path):
    got = {name: _digest(result) for name, result in _runs(tmp_path)}
    assert list(got) == list(GOLDEN)
    mismatched = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert not mismatched, f"report bytes changed: {mismatched}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, result in _runs(Path(tmp)):
            print(f'    "{name}": "{_digest(result)}",')
