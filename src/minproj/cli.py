"""Command-line front end.

Subcommands: analyze (full report for one space/subspace), paper-suite
(recompute every named case and diff against its expected values),
general-position (just the genericity check), polar (dual vertices of an
input ball), certify (check a certificate file against a space).

Exit codes: 0 success, 1 mismatch or failed verification, 2 malformed
input, 3 enumeration budget exceeded (a partial report is still
emitted), 4 internal failure (an invariant of the computation broke).
All vertex/functional indices in reports are 0-based and refer to the
order in which vertices are stored on the space.  Output is
byte-identical for identical inputs and flags.

certify reads the certificate as a Chalmers-Metcalf bound: if its
weights, vanishing, invariance and trace checks pass, every projection
has sum_i a_i f_i(P x_i) = lambda_c, so lambda >= lambda_c, and any
projection of norm at most lambda_c closes the gap.  When the
certificate's pairs determine a projection, that one is solved for and
checked against the whole pair grid, with no LP; otherwise one lambda
LP supplies the projection.  Only a certificate that fails there goes
through the optimal face, and its report is the one the full pipeline
gives (certificates.certify_cm).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .catalog import paper_cases, random_subspace
from .certificates import (DEFAULT_SUPPORT_CAP, certify_cm, cm_from_dual,
                           minimal_support_cm)
from .errors import (InputFormatError, InternalError, MinprojError,
                     SubsetBudgetExceededError, SupportBudgetExceededError)
from .geometry import PolyhedralSpace, Subspace, general_position_check
from .jsonio import (certificate_json, dumps, load_document, matrix_json,
                     parse_certificate_document, parse_space_document,
                     vector_json)
from .projections import face_dimension, projection_constant
from .rational import approx_decimal, format_rational

_CHECK_NAMES = ("weights", "vanishing", "invariance", "norming", "trace")


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    certificate_path: str | None = None
    output: str | None = None
    seed: int | None = None
    subset_cap: int | None = None
    skip_support_search: bool = False
    table: bool = False
    only: str | None = None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None


def _load_space_file(path: str | None):
    if path is None:
        raise InputFormatError("this command requires --input PATH")
    return parse_space_document(load_document(_read_text(path)))


def _resolve_subspace(space: PolyhedralSpace, subspace: Subspace | None,
                      seed: int | None) -> Subspace:
    if subspace is not None:
        return subspace
    if seed is not None:
        return random_subspace(space.dim, space.dim - 1, seed)
    raise InputFormatError(
        "input has no subspace_basis; supply one or pass --seed N "
        "for a random hyperplane")


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        Path(cfg.output).write_text(text)
    else:
        sys.stdout.write(text)


def _gp_json(gp) -> dict:
    return {
        "in_general_position": gp.in_general_position,
        "witness_kind": gp.witness_kind,
        "witness": list(gp.witness) if gp.witness is not None else None,
        "spans_checked": gp.spans_checked,
        "kernels_checked": gp.kernels_checked,
    }


def _cmd_analyze(cfg: RunConfig) -> int:
    cap, source = cfg.subset_cap, "--subset-cap"
    if cap is None:
        source = "MINPROJ_SUBSET_CAP"
        try:
            cap = int(os.environ.get(source, DEFAULT_SUPPORT_CAP))
        except ValueError:
            raise InputFormatError(f"{source} must be an integer") from None
    if cap < 0:
        raise InputFormatError(f"{source} must be non-negative, not {cap}")
    space, subspace = _load_space_file(cfg.input_path)
    subspace = _resolve_subspace(space, subspace, cfg.seed)

    report = projection_constant(space, subspace)
    face_dim, implicit = face_dimension(space, subspace, report)
    cm = cm_from_dual(report)

    exit_code = 0
    if cfg.skip_support_search:
        support: object = "skipped"
    else:
        try:
            small, size = minimal_support_cm(
                space, subspace, implicit, report.lam,
                max_candidates=cap, witness=report.interior,
                basis=report.basis)
            support = {"size": size,
                       "certificate": certificate_json(small, report.lam)}
        except SupportBudgetExceededError as exc:
            print(f"warning: {exc}", file=sys.stderr)
            support = "skipped"
            exit_code = 3

    try:
        gp: object = _gp_json(general_position_check(space, subspace))
    except SubsetBudgetExceededError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        gp = "skipped"
        exit_code = 3

    out = {
        "dim": space.dim,
        "subspace_dim": subspace.dim,
        "subspace_basis": [vector_json(b) for b in subspace.basis_vectors()],
        "lambda": format_rational(report.lam),
        "lambda_approx": approx_decimal(report.lam),
        "face_dim": face_dim,
        "minimal_projection": matrix_json(report.basis.realize(report.interior)),
        "norming_pairs": [list(p) for p in implicit],
        "cm_certificate": certificate_json(cm, report.lam),
        "support_search": support,
        "general_position": gp,
    }
    if cfg.table:
        lines = [
            f"dim           {space.dim}",
            f"subspace dim  {subspace.dim}",
            f"lambda        {out['lambda']} (approx {out['lambda_approx']})",
            f"face dim      {face_dim}",
            "norming pairs " + " ".join(f"({i},{j})" for i, j in implicit),
            "cm weights    " + " ".join(
                f"({i},{j})={format_rational(w)}"
                for (i, j), w in zip(cm.pairs, cm.weights)),
            "support size  " + (str(support["size"])
                                if isinstance(support, dict) else "skipped"),
            "general pos   " + (("yes" if gp["in_general_position"] else "no")
                                if isinstance(gp, dict) else "skipped"),
        ]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, dumps(out))
    return exit_code


def _cmd_paper_suite(cfg: RunConfig) -> int:
    cases = [c for c in paper_cases()
             if cfg.only is None or c.name.startswith(cfg.only)]
    if not cases:
        print("warning: no catalog cases selected", file=sys.stderr)
    rows = []
    all_pass = True
    for case in sorted(cases, key=lambda c: c.name):
        report = projection_constant(case.space, case.subspace)
        face_dim, _ = face_dimension(case.space, case.subspace, report)
        if case.expected is None:
            verdict = "PASS"
            expected_lam = expected_fd = None
        else:
            expected_lam = format_rational(case.expected.lam)
            expected_fd = case.expected.face_dim
            ok = (report.lam == case.expected.lam
                  and face_dim == case.expected.face_dim)
            verdict = "PASS" if ok else "FAIL"
            all_pass = all_pass and ok
        rows.append({
            "name": case.name,
            "lambda": format_rational(report.lam),
            "expected_lambda": expected_lam,
            "face_dim": face_dim,
            "expected_face_dim": expected_fd,
            "verdict": verdict,
        })
    if cfg.table:
        width = max((len(r["name"]) for r in rows), default=4)
        lines = [f"{'case':<{width}}  lambda  expected  fd  expected  verdict"]
        for r in rows:
            lines.append(
                f"{r['name']:<{width}}  {r['lambda']:<6}  "
                f"{r['expected_lambda'] or '-':<8}  {r['face_dim']:<2}  "
                f"{str(r['expected_face_dim'] if r['expected_face_dim'] is not None else '-'):<8}  "
                f"{r['verdict']}")
        lines.append(f"{'all pass' if all_pass else 'FAILURES PRESENT'}")
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, dumps({"rows": rows, "all_pass": all_pass}))
    return 0 if all_pass else 1


def _cmd_general_position(cfg: RunConfig) -> int:
    space, subspace = _load_space_file(cfg.input_path)
    subspace = _resolve_subspace(space, subspace, cfg.seed)
    try:
        gp = general_position_check(space, subspace)
    except SubsetBudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if cfg.table:
        verdict = "yes" if gp.in_general_position else "no"
        lines = [f"general position  {verdict}"]
        if gp.witness is not None:
            lines.append(f"witness {gp.witness_kind}  {list(gp.witness)}")
        lines.append(f"spans checked     {gp.spans_checked}")
        lines.append(f"kernels checked   {gp.kernels_checked}")
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, dumps(_gp_json(gp)))
    return 0


def _cmd_polar(cfg: RunConfig) -> int:
    space, _ = _load_space_file(cfg.input_path)
    duals = sorted(space.dual_vertices)  # validated: the polar, up to order
    out = {"dim": space.dim, "vertices": [vector_json(v) for v in duals]}
    if cfg.table:
        lines = [" ".join(vector_json(v)) for v in duals]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, dumps(out))
    return 0


def _cmd_certify(cfg: RunConfig) -> int:
    space, subspace = _load_space_file(cfg.input_path)
    subspace = _resolve_subspace(space, subspace, cfg.seed)
    cm, lam = parse_certificate_document(
        load_document(_read_text(cfg.certificate_path)), space)

    computed_lambda, verdict = certify_cm(space, subspace, cm, lam)
    checks = {name: not any(v.startswith(name + ":") for v in verdict.violations)
              for name in _CHECK_NAMES}
    if cfg.table:
        lines = [f"{name:<10} {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items()]
        for violation in verdict.violations:
            lines.append(f"  {violation}")
        lines.append(f"certificate {'VALID' if verdict.ok else 'INVALID'}")
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, dumps({
            "lambda": format_rational(lam),
            "computed_lambda": format_rational(computed_lambda),
            "checks": checks,
            "violations": list(verdict.violations),
            "ok": verdict.ok,
        }))
    return 0 if verdict.ok else 1


_HANDLERS = {
    "analyze": _cmd_analyze,
    "paper-suite": _cmd_paper_suite,
    "general-position": _cmd_general_position,
    "polar": _cmd_polar,
    "certify": _cmd_certify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minproj",
        description="Exact minimal-projection analysis of polyhedral normed spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", metavar="PATH",
                       help="space/subspace JSON file")
        p.add_argument("--output", metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, metavar="N",
                       help="when the input has no subspace_basis, analyze the "
                            "seeded random hyperplane instead")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="table", action="store_false",
                         help="JSON output (default)")
        fmt.add_argument("--table", dest="table", action="store_true",
                         help="plain-text output")
        p.set_defaults(table=False)

    analyze = sub.add_parser("analyze", help="full report for one space/subspace")
    common(analyze)
    analyze.add_argument("--subset-cap", type=int, metavar="N",
                         help="largest support-search candidate set to enumerate "
                              f"(default {DEFAULT_SUPPORT_CAP}; env MINPROJ_SUBSET_CAP)")
    analyze.add_argument("--skip-support-search", action="store_true",
                         help="omit the minimal-support certificate search")
    suite = sub.add_parser("paper-suite",
                           help="recompute every named case against expected values")
    common(suite)
    suite.add_argument("--only", metavar="PREFIX",
                       help="restrict to cases whose name starts with PREFIX")
    common(sub.add_parser("general-position", help="genericity check only"))
    common(sub.add_parser("polar", help="dual vertices of the input ball"))
    certify = sub.add_parser("certify",
                             help="verify a certificate file against a space")
    certify.add_argument("certificate", metavar="CERT",
                         help="certificate JSON file")
    common(certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        input_path=args.input,
        certificate_path=getattr(args, "certificate", None),
        output=args.output,
        seed=args.seed,
        subset_cap=getattr(args, "subset_cap", None),
        skip_support_search=getattr(args, "skip_support_search", False),
        table=args.table,
        only=getattr(args, "only", None),
    )
    try:
        return _HANDLERS[cfg.command](cfg)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (MinprojError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
