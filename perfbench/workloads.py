"""Inputs of the pipeline benchmark: one list of CLI cases per workload.

Every case is a minproj command line plus the JSON files it reads.  The
files are written at set-up time, so the program sees only generated
JSON, exactly as a CLI user would hand it over.

Run as a script, this module is one set-up: a fresh interpreter that
imports minproj, writes the workload's input files and certificates into
a directory, and lists the cases in ``cases.json`` there:

    python3 perfbench/workloads.py --workload seeded-analyze --out DIR

The subspaces come from ``random_subspace`` at a fixed generator seed.
The workload seed given on the benchmark's command line does not pick
them: the cost of a case moves by up to 10x between generator seeds (an
n = 6 pass took 9 s at generator seed 2 and 23 s at seed 7 on a 2-core
x86 host), which would swamp any run-to-run comparison.  Seed 7 is the
reference subspace of the ROADMAP baseline; its l-inf^5 2-plane is one
of the inputs that stop at the support-search cap.  The workload seed
sets the order in which the cases run within each pass.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("seeded-analyze", "n6-certify")

# Generator seed of the random subspaces (see the module docstring).
GENERATOR_SEED = 7
# The l-inf^6 2-plane (another lambda = 1 face of 5-8 s) is left out to
# keep a run of n6-certify near half a minute.
N6_SHAPES = (("linf", 5), ("l1", 5), ("l1", 2))
MANIFEST = "cases.json"


@dataclass(frozen=True)
class Case:
    """One CLI invocation of a workload and what its output is checked against."""

    name: str
    argv: tuple[str, ...]
    document: dict
    certificate_lambda: Fraction | None = None


def _cube(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((1, -1), repeat=n))


def _cross(n: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        out.append(tuple(e))
        out.append(tuple(-x for x in e))
    return out


_BALLS = {"linf": _cube, "l1": _cross}


def _random_documents(n: int, shapes):
    """(name, document, subspace, vertices) for each (ball, k) in shapes;
    documents carry primal vertices only, so the CLI computes the polar."""
    from minproj.catalog import random_subspace
    from minproj.jsonio import vector_json

    for ball, k in shapes:
        verts = _BALLS[ball](n)
        subspace = random_subspace(n, k, GENERATOR_SEED)
        doc = {
            "dim": n,
            "vertices": [vector_json(v) for v in verts],
            "subspace_basis": [vector_json(b) for b in subspace.basis_vectors()],
        }
        yield f"{ball}{n}-k{k}-g{GENERATOR_SEED}", doc, subspace, verts


def _seeded(workdir: Path) -> list[dict]:
    from minproj.jsonio import dumps

    entries = []
    for n in (4, 5):
        shapes = [(ball, k) for ball in _BALLS for k in (n - 1, 2)]
        for name, doc, _, _ in _random_documents(n, shapes):
            path = workdir / f"{name}.json"
            path.write_text(dumps(doc))
            entries.append({"name": name, "argv": ["analyze", "--input", str(path)],
                            "input": str(path)})
    return entries


def _n6(workdir: Path) -> list[dict]:
    """Certificates are built here with library calls, on a space whose
    dual list is the sorted polar, the order the CLI itself computes."""
    from minproj.certificates import cm_from_dual
    from minproj.geometry import PolyhedralSpace, polar_dual
    from minproj.jsonio import certificate_json, dumps
    from minproj.projections import projection_constant

    entries = []
    for name, doc, subspace, verts in _random_documents(6, N6_SHAPES):
        space = PolyhedralSpace.from_vertices(verts, dual_vertices=polar_dual(verts),
                                              validate=False)
        report = projection_constant(space, subspace)
        cert = certificate_json(cm_from_dual(report), report.lam)
        path = workdir / f"{name}.json"
        cert_path = workdir / f"{name}.certificate.json"
        path.write_text(dumps(doc))
        cert_path.write_text(dumps(cert))
        entries.append({"name": name,
                        "argv": ["certify", str(cert_path), "--input", str(path)],
                        "input": str(path), "certificate_lambda": str(report.lam)})
    return entries


_GENERATORS = {"seeded-analyze": _seeded, "n6-certify": _n6}


def build(workload: str, workdir: Path) -> None:
    """Write the workload's input files and its case list under workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    entries = _GENERATORS[workload](workdir)
    (workdir / MANIFEST).write_text(json.dumps(entries, indent=1) + "\n")


def load(workdir: Path) -> list[Case]:
    """The cases that ``build`` listed under workdir."""
    cases = []
    for entry in json.loads((workdir / MANIFEST).read_text()):
        lam = entry.get("certificate_lambda")
        cases.append(Case(
            name=entry["name"],
            argv=tuple(entry["argv"]),
            document=json.loads(Path(entry["input"]).read_text()),
            certificate_lambda=Fraction(lam) if lam is not None else None,
        ))
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    build(args.workload, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
