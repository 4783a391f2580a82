"""Command-line front end: one argparse subparser and one handler per
command, with the parsed arguments as the only configuration.

Commands: analyze (full report for one space/subspace), paper-suite
(recompute every named case and diff against its expected values),
general-position (just the genericity check), polar (dual vertices of an
input ball), certify (check a certificate file against a space).  Each
subparser declares only the flags its handler reads.

Exit codes, set in main except for analyze's partial report: 0 success,
1 mismatch or failed verification, 2 malformed input (any other
MinprojError: a document that is not UTF-8 text or not valid, or an
unwritable --output), 3 enumeration budget exceeded (analyze still
emits a partial report), 4 internal failure (an InternalError: an
invariant of the computation broke, such as a certificate built from
the pipeline's own solve failing verification; or any other exception
that escapes a command, a plain ValueError included, reported as
"internal error: <type>: <message>").  All
vertex/functional indices in reports are 0-based and refer to the order
in which vertices are stored on the space.
Output is byte-identical for identical inputs and flags.

The budget: the general-position check and the minimal-support search
each run on linalg.DEFAULT_WORK_BUDGET row steps of their subset walk
(linalg.WorkBudget), a deterministic count of the work done, so a stop
falls at the same point on every run.  It is their one stop, and no
flag or environment variable sets it.  A stage that runs out prints
one "warning: <message>" line, reports "skipped" in its field, and
analyze exits 3 with the rest of the report; general-position exits 3
with one "error:" line.

certify reports the computed lambda and the verdict of
certificates.certify_cm, by the routes it lists: a certificate that
passes every check but norming is valid exactly when lambda equals its
trace, and any other is judged at the relative interior of the optimal
face.
Its checks object has one entry per name of certificates.CHECKS, false
for the checks the verdict failed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .catalog import paper_cases, random_subspace
from .certificates import CHECKS, certify_cm, cm_from_dual, minimal_support_cm
from .errors import (BudgetExceededError, InputFormatError, InternalError,
                     MinprojError)
from .geometry import PolyhedralSpace, Subspace, general_position_check
from .jsonio import (certificate_json, dumps, load_document, matrix_json,
                     parse_certificate_document, parse_space_document)
from .projections import face_dimension, projection_constant
from .rational import approx_decimal, format_rational


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None


def _read_space(args: argparse.Namespace) -> tuple[PolyhedralSpace, Subspace | None]:
    """The space of the --input document and its subspace_basis, or None."""
    if args.input is None:
        raise InputFormatError("this command requires --input PATH")
    return parse_space_document(load_document(_read_text(args.input)))


def _space_and_subspace(args: argparse.Namespace) -> tuple[PolyhedralSpace, Subspace]:
    """The space of --input and its subspace_basis, else the seeded random
    hyperplane of --seed."""
    space, subspace = _read_space(args)
    if subspace is not None:
        return space, subspace
    if args.seed is None:
        raise InputFormatError(
            "input has no subspace_basis; supply one or pass --seed N "
            "for a random hyperplane")
    return space, random_subspace(space.dim, space.dim - 1, args.seed)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {args.output}: {exc}") from None
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


def _cmd_analyze(args: argparse.Namespace) -> int:
    space, subspace = _space_and_subspace(args)

    report = projection_constant(space, subspace)
    face_dim, implicit = face_dimension(report)
    norming = sorted(implicit)
    cm = cm_from_dual(report)

    stops = {}

    def within_budget(field, stage):
        """stage(), or "skipped" when its subset enumeration runs out of
        budget: the report goes on, and the stop's warning is printed
        once every stage has run, in the order of the report's fields."""
        try:
            return stage()
        except BudgetExceededError as exc:
            stops[field] = exc
            return "skipped"

    # General position runs first: its verdict lets the support search
    # skip the sizes that cannot hold a certificate.
    gp = within_budget("general_position",
                       lambda: _gp_json(general_position_check(space, subspace)))

    def support_search() -> dict:
        small, size = minimal_support_cm(
            report, dual=cm,
            in_general_position=isinstance(gp, dict) and gp["in_general_position"])
        return {"size": size, "certificate": certificate_json(small, report.lam)}

    support = ("skipped" if args.skip_support_search
               else within_budget("support_search", support_search))

    projection, den = report.interior_cleared
    out = {
        "dim": space.dim,
        "subspace_dim": subspace.dim,
        "subspace_basis": matrix_json(subspace.basis_num, subspace.basis_den),
        "lambda": format_rational(report.lam),
        "lambda_approx": approx_decimal(report.lam),
        "face_dim": face_dim,
        "minimal_projection": matrix_json(projection.row_list(), den),
        "norming_pairs": [list(p) for p in norming],
        "cm_certificate": certificate_json(cm, report.lam),
        "support_search": support,
        "general_position": gp,
    }
    for field in out:
        if field in stops:
            print(f"warning: {stops[field]}", file=sys.stderr)
    if args.table:
        lines = [
            f"dim           {space.dim}",
            f"subspace dim  {subspace.dim}",
            f"lambda        {out['lambda']} (approx {out['lambda_approx']})",
            f"face dim      {face_dim}",
            "norming pairs " + " ".join(f"({i},{j})" for i, j in norming),
            "cm weights    " + " ".join(
                f"({i},{j})={format_rational(w)}"
                for (i, j), w in zip(cm.pairs, cm.weights)),
            "support size  " + (str(support["size"])
                                if isinstance(support, dict) else "skipped"),
            "general pos   " + (("yes" if gp["in_general_position"] else "no")
                                if isinstance(gp, dict) else "skipped"),
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, dumps(out))
    return 3 if stops else 0


def _cmd_paper_suite(args: argparse.Namespace) -> int:
    cases = [c for c in paper_cases()
             if args.only is None or c.name.startswith(args.only)]
    if not cases:
        print("warning: no catalog cases selected", file=sys.stderr)
    rows = []
    all_pass = True
    for case in sorted(cases, key=lambda c: c.name):
        report = projection_constant(case.space, case.subspace)
        face_dim, _ = face_dimension(report)
        ok = (report.lam == case.expected.lam
              and face_dim == case.expected.face_dim)
        all_pass = all_pass and ok
        rows.append({
            "name": case.name,
            "lambda": format_rational(report.lam),
            "expected_lambda": format_rational(case.expected.lam),
            "face_dim": face_dim,
            "expected_face_dim": case.expected.face_dim,
            "verdict": "PASS" if ok else "FAIL",
        })
    if args.table:
        width = max((len(r["name"]) for r in rows), default=4)
        lines = [f"{'case':<{width}}  lambda  expected  fd  expected  verdict"]
        for r in rows:
            lines.append(
                f"{r['name']:<{width}}  {r['lambda']:<6}  "
                f"{r['expected_lambda']:<8}  {r['face_dim']:<2}  "
                f"{r['expected_face_dim']:<8}  "
                f"{r['verdict']}")
        lines.append(f"{'all pass' if all_pass else 'FAILURES PRESENT'}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, dumps({"rows": rows, "all_pass": all_pass}))
    return 0 if all_pass else 1


def _cmd_general_position(args: argparse.Namespace) -> int:
    gp = general_position_check(*_space_and_subspace(args))
    if args.table:
        verdict = "yes" if gp.in_general_position else "no"
        lines = [f"general position  {verdict}"]
        if gp.witness is not None:
            lines.append(f"witness {gp.witness_kind}  {list(gp.witness)}")
        lines.append(f"spans checked     {gp.spans_checked}")
        lines.append(f"kernels checked   {gp.kernels_checked}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, dumps(_gp_json(gp)))
    return 0


def _cmd_polar(args: argparse.Namespace) -> int:
    space, _ = _read_space(args)
    # validated: the polar, up to order; the rows share one denominator
    # den > 0, so sorted rows are sorted vertices
    rows, den = space.dual_cleared
    duals = matrix_json(sorted(rows), den)
    out = {"dim": space.dim, "vertices": duals}
    if args.table:
        lines = [" ".join(v) for v in duals]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, dumps(out))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    space, subspace = _space_and_subspace(args)
    cm, lam = parse_certificate_document(
        load_document(_read_text(args.certificate)), space)

    computed_lambda, verdict = certify_cm(space, subspace, cm, lam)
    checks = {name: name not in verdict.failed for name in CHECKS}
    if args.table:
        lines = [f"{name:<10} {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items()]
        for violation in verdict.violations:
            lines.append(f"  {violation}")
        lines.append(f"certificate {'VALID' if verdict.ok else 'INVALID'}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, dumps({
            "lambda": format_rational(lam),
            "computed_lambda": format_rational(computed_lambda),
            "checks": checks,
            "violations": list(verdict.violations),
            "ok": verdict.ok,
        }))
    return 0 if verdict.ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main call can reuse it.  Each command declares
    only the flags its handler reads, and binds the handler."""
    parser = argparse.ArgumentParser(
        prog="minproj",
        description="Exact minimal-projection analysis of polyhedral normed spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *, space=True, seed=True):
        p = sub.add_parser(name, help=help)
        if space:
            p.add_argument("--input", metavar="PATH",
                           help="space/subspace JSON file")
        p.add_argument("--output", metavar="PATH",
                       help="write the report here instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, metavar="N",
                           help="when the input has no subspace_basis, analyze the "
                                "seeded random hyperplane instead")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="table", action="store_false",
                         help="JSON output (default)")
        fmt.add_argument("--table", dest="table", action="store_true",
                         help="plain-text output")
        p.set_defaults(handler=handler, table=False)
        return p

    analyze = command("analyze", _cmd_analyze, "full report for one space/subspace")
    analyze.add_argument("--skip-support-search", action="store_true",
                         help="omit the minimal-support certificate search")
    suite = command("paper-suite", _cmd_paper_suite,
                    "recompute every named case against expected values",
                    space=False, seed=False)
    suite.add_argument("--only", metavar="PREFIX",
                       help="restrict to cases whose name starts with PREFIX")
    command("general-position", _cmd_general_position, "genericity check only")
    command("polar", _cmd_polar, "dual vertices of the input ball", seed=False)
    certify = command("certify", _cmd_certify,
                      "verify a certificate file against a space")
    certify.add_argument("certificate", metavar="CERT",
                         help="certificate JSON file")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line; the exit-code contract of the module
    docstring.  An InternalError, such as cm_from_dual or
    minimal_support_cm rejecting a certificate of the pipeline's own
    solve, exits 4, and so does any exception that is no MinprojError,
    a plain ValueError included: input is judged by MinprojErrors, so it
    can only come from a bug, and its line names its type."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MinprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
