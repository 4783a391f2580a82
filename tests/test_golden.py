"""Report bytes pinned by SHA-256 digest.

Every exact method in the pipeline can be replaced by another that gives
the same answers; these digests make sure the replacement also gives the
same bytes.  They cover the full ``analyze`` JSON (including the emitted
``minimal_projection``, which depends on the pivot sequence of the
simplex) of the 16 catalog cases and of the eight seeded n = 4 and n = 5
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
    "analyze/ker-sum-l1-n3": "9fc72e2238e1ff01b42450b1c1af7813407675c2dfcffc5da5c94512407d2614",
    "analyze/ker-sum-linf-n3": "424bc46f7650b4f2486825c5673537417bcef69bcd55c3a3878dca5cf3dbd768",
    "analyze/ker-sum-l1-n4": "4645359076a7598343419d6297a1934f0cd2c88ee6d4a84f177e94001ca750f3",
    "analyze/ker-sum-linf-n4": "ea12073898922a00d13c79ebc82caf4a3b873d2eb5a792aa8fbb33d684379544",
    "analyze/ker-sum-l1-n5": "5a38ff49b90a1e2db8fe6dfb646541c708d2e37c60f7682586fc347a7d271cae",
    "analyze/ker-sum-linf-n5": "682489d8feaf4c38e97ce7aaf102c4c310df1095365f6dc23b82d241fd99c0d1",
    "analyze/coordinate-span-l1-n3-k2": "6284d7d1e779d970b41b5b9c8b9bc7268a0a770354a9656648ffc4241251aa63",
    "analyze/coordinate-span-l1-n4-k2": "ebcc01847fc0846a007731fe19e17219ae4dd9a8fdd1883c0f741bf1eefab031",
    "analyze/coordinate-span-l1-n5-k2": "c5a693c4f195f61c7d58f516584397362fa48b06fd79da157ba32ca01a676aae",
    "analyze/mixed-extremal-n4-k3": "c21d62eba9100b89f37fa65e14fbfcbdea0eb90526a71940aeeee27789daeb81",
    "analyze/mixed-extremal-n5-k3": "9632b8a49665ec1455fa0c926779c0a6e3c36332d6cf9050c50466b3042f3b35",
    "analyze/partial-sum-linf-n4-k3": "36b50221e74a3f0d62421efa028d682304d3c7b607a18be6de1f917e5c422465",
    "analyze/partial-sum-linf-n5-k3": "c6bb1dade88506ce237dffb2d7a5860ba1c2630ce64f677ba7db4d07a1af085c",
    "analyze/partial-sum-linf-n5-k4": "738b25e2925e531c40129976c113b2471fd7cd6c0a6de0a17789cc3c9efabc45",
    "analyze/first-coordinate-mixed-n4": "25cd6532984164c4155379d30b092b611d5e0f94d8d5c13f7971a3ed4470f2bd",
    "analyze/first-coordinate-mixed-n5": "5de2f6d84bf99751f536a2b3f801553c774db4eb624bfe3c5c984f4c4e3257c2",
    "analyze/seeded-linf-n4-k3": "0abdb9eaa90ce27f4f26aa75853166e5f5abce892df1a04447104cdd86ca1e96",
    "analyze/seeded-linf-n4-k2": "94d2b323e9d85fdf6aff3f6f9cbf44a619e7f4e372be2503c948cf40a0b1884c",
    "certify/seeded-linf-n4-k2-valid/json": "19f54cdb201c57490f74febfb241c5c045920c820f28be2561eacc0baa5fcd76",
    "certify/seeded-linf-n4-k2-valid/table": "9b520fe713d3e6cd7b913d7749fd4d744d41cdf923053008d3f8f8b3bb8baa1d",
    "analyze/seeded-l1-n4-k3": "b00af86c15696f8237ee68475a2c7cc1c2195a44b0c09976748a9f0eee623312",
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
    "analyze/seeded-l1-n4-k2": "f7859d8694d418253699a38d4a4cb010a53899f0c226954b58fe03d794584659",
    "analyze/seeded-linf-n5-k4": "904a514d238ee1aded50828f30cde7a71a91d3d949e070080145d01e0a5e5e6d",
    "analyze/seeded-linf-n5-k2": "6b124b57ae6821fe570e8b7ed7f1a0eaf22b067a0a79fbd7c44c301329dc250c",
    "analyze/seeded-l1-n5-k4": "ddb295a448b99b14df04a25d76150e4c01cd66b0627889b0abbcc9f36144110d",
    "analyze/seeded-l1-n5-k2": "d898c4c528309c70a3f9925403315460ba3ecdbf35f81e44ee2189d3f09caf2e",
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
