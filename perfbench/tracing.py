"""Span tracer for the pipeline benchmark's traced run.

The tracer wraps public functions at each minproj module boundary from
outside the package: it rebinds every module-level name (and class
attribute) that refers to a listed function, so calls made through
``from .simplex import solve`` style imports are seen too, and puts the
originals back afterwards.  No minproj source changes.

Two kinds of wrapper:

- ``span``: records one span (id, parent, case, sample, name, start, end)
  per call, kept in memory and written out at the end of the run;
- ``leaf``: for the hot inner calls (linear algebra, kernel row
  operations) one span per call would dominate both the trace and its
  cost, so calls, seconds and row entries are summed into the enclosing
  span instead.  A leaf called from inside another leaf passes through
  uncounted, so only calls that cross into the layer are counted.

A listed name that no longer exists is reported as absent, not an error,
so the tracer keeps working when a later change deletes a function.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module under minproj, attribute, kind).  "Class.method" wraps a classmethod.
WRAPPED = (
    ("cli", "main", "span"),
    ("jsonio", "load_document", "span"),
    ("jsonio", "parse_space_document", "span"),
    ("jsonio", "parse_certificate_document", "span"),
    ("jsonio", "certificate_json", "span"),
    ("jsonio", "matrix_json", "span"),
    ("jsonio", "dumps", "span"),
    ("geometry", "PolyhedralSpace.from_vertices", "span"),
    ("geometry", "Subspace.from_basis", "span"),
    ("geometry", "is_extreme", "span"),
    ("geometry", "polar_dual", "span"),
    ("geometry", "general_position_check", "span"),
    ("projections", "build_operator_basis", "span"),
    ("projections", "build_pair_grid", "span"),
    ("projections", "projection_constant", "span"),
    ("projections", "face_dimension", "span"),
    ("certificates", "cm_from_dual", "span"),
    ("certificates", "minimal_support_cm", "span"),
    ("certificates", "verify_cm", "span"),
    ("simplex", "solve", "span"),
    ("simplex", "solve_on_face", "span"),
    ("linalg", "rows_rank", "leaf"),
    ("linalg", "rank", "leaf"),
    ("linalg", "integer_row_rank", "leaf"),
    ("linalg", "canonical_span", "leaf"),
    ("linalg", "nullspace_basis", "leaf"),
    ("linalg", "solve_linear", "leaf"),
    ("linalg", "inverse", "leaf"),
    ("linalg", "rref_rows", "leaf"),
    ("_kernel", "row_axpy", "leaf"),
    ("_kernel", "scale_row", "leaf"),
)

# Pipeline stages: a solve is attributed to the nearest enclosing stage,
# and a stage's own time excludes the stages nested in it.
STAGES = frozenset({
    "jsonio.parse_space_document", "jsonio.parse_certificate_document",
    "geometry.polar_dual", "projections.projection_constant",
    "projections.face_dimension", "certificates.cm_from_dual",
    "certificates.minimal_support_cm", "certificates.verify_cm",
    "geometry.general_position_check", "jsonio.dumps",
})


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return "kernel" if module == "_kernel" else module


class _Span:
    __slots__ = ("id", "parent", "name", "stage", "start", "end", "child_s",
                 "stage_child_s", "leaves", "extra")

    def __init__(self, span_id, parent, name, stage):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.stage = stage
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.stage_child_s = 0.0
        self.leaves = None
        self.extra = None


def _max_bits(solution) -> int:
    values = []
    if solution.value is not None:
        values.append(solution.value)
    values.extend(solution.primal or ())
    values.extend(solution.dual or ())
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _observe(name, args, result):
    """Counts taken from a call's arguments and result."""
    if name == "simplex.solve":
        A = args[0].constraint_matrix
        return {"entries": A.rows * A.cols,
                "optimal": int(result.status == "OPTIMAL"),
                "max_bits": _max_bits(result)}
    if name == "geometry.general_position_check":
        return {"subsets": result.spans_checked + result.kernels_checked}
    if name == "projections.build_pair_grid":
        return {"rows": len(result.pairs)}
    if name == "certificates.minimal_support_cm":
        return {"found": 1}
    return None


class Tracer:
    """Installs the wrappers, records spans while installed, and removes them."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.stage_stack: list[_Span] = []
        self.leaf_depth = 0
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.case_spans: dict[tuple[str, int], list[_Span]] = {}

    # -- installation -----------------------------------------------------

    def install(self, case: str, sample: int) -> None:
        """Wrap every listed function; spans go to (case, sample)."""
        self.absent = []
        self.spans = self.case_spans.setdefault((case, sample), [])
        modules = [m for n, m in list(sys.modules.items())
                   if n == "minproj" or n.startswith("minproj.")]
        for module_name, attr, kind in WRAPPED:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"minproj.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner = module
            *path, leaf_attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or leaf_attr not in vars(owner):
                self.absent.append(name)
                continue
            original = vars(owner)[leaf_attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, kind, original.__func__))
                self._patch(owner, leaf_attr, wrapped)
                continue
            wrapper = self._wrap(name, kind, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name, kind, func):
        call = self._call_leaf if kind == "leaf" else self._call_span

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return call(name, func, args, kwargs)
        return wrapper

    # -- recording ----------------------------------------------------------

    def _call_span(self, name, func, args, kwargs):
        if self.leaf_depth:
            return func(*args, **kwargs)
        parent = self.stack[-1] if self.stack else None
        is_stage = name in STAGES
        stage = name if is_stage else (parent.stage if parent else None)
        span = _Span(self._next_id, parent.id if parent else 0, name, stage)
        self._next_id += 1
        self.stack.append(span)
        if is_stage:
            self.stage_stack.append(span)
        span.start = perf_counter()
        try:
            result = func(*args, **kwargs)
            try:
                span.extra = _observe(name, args, result)
            except (AttributeError, IndexError, TypeError):
                span.extra = {"unobserved": 1}  # the call's signature changed
            return result
        finally:
            span.end = perf_counter()
            self.stack.pop()
            duration = span.end - span.start
            if parent is not None:
                parent.child_s += duration
            if is_stage:
                self.stage_stack.pop()
                if self.stage_stack:
                    self.stage_stack[-1].stage_child_s += duration
            self.spans.append(span)

    def _call_leaf(self, name, func, args, kwargs):
        if self.leaf_depth:
            return func(*args, **kwargs)
        self.leaf_depth += 1
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self.leaf_depth -= 1
            if self.stack:
                top = self.stack[-1]
                top.child_s += duration
                if top.leaves is None:
                    top.leaves = {}
                agg = top.leaves.get(name)
                if agg is None:
                    agg = top.leaves[name] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += duration
                if name.startswith("_kernel."):
                    agg[2] += len(args[0])

    # -- output ---------------------------------------------------------------

    def write(self, path) -> int:
        """Write every span as one JSON line; returns the number written."""
        count = 0
        with open(path, "w") as fh:
            for (case, sample), spans in self.case_spans.items():
                for s in spans:
                    fh.write(json.dumps({
                        "id": s.id, "parent": s.parent, "case": case,
                        "sample": sample, "name": s.name, "stage": s.stage,
                        "start": s.start, "end": s.end,
                        "self_s": s.end - s.start - s.child_s,
                        "leaves": s.leaves, "extra": s.extra,
                    }) + "\n")
                    count += 1
        return count


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics for one pass over the cases, and stage self times.

    Every case contributes the mean over its traced samples, so a run
    whose passes covered the cases unequally still reports one pass.
    """
    per_case: dict[str, list[dict]] = {}
    for (case, _), spans in tracer.case_spans.items():
        per_case.setdefault(case, []).append(_sample_totals(spans))
    totals: dict[str, float] = {}
    for samples in per_case.values():
        for key in set().union(*samples):
            mean = sum(s.get(key, 0) for s in samples) / len(samples)
            if key == "simplex.max_bits":
                totals[key] = max(totals.get(key, 0), max(s.get(key, 0) for s in samples))
            else:
                totals[key] = totals.get(key, 0) + mean
    stages = {k[len("stage:"):]: v for k, v in totals.items() if k.startswith("stage:")}
    t = totals.get

    def ratio(num, den):
        return t(num, 0) / t(den) if t(den) else 0.0

    metrics = {
        "geometry.general_position_s": t("dur:geometry.general_position_check", 0),
        "geometry.gp_subsets": t("gp_subsets", 0),
        "geometry.gp_distinct_ratio": ratio("gp_rank_tests", "gp_canonicalized"),
        "linalg.rank_calls": t("rank_calls", 0),
        "linalg.s": t("self:linalg", 0),
        "projections.lambda_s": t("dur:projections.projection_constant", 0),
        "projections.grid_rows": t("grid_rows", 0),
        "projections.face_s": t("dur:projections.face_dimension", 0),
        "projections.face_lps": t("lps:projections.face_dimension", 0),
        "certificates.support_s": t("dur:certificates.minimal_support_cm", 0),
        "certificates.support_lps": t("lps:certificates.minimal_support_cm", 0),
        "certificates.support_hit_ratio": ratio(
            "support_found", "lps:certificates.minimal_support_cm"),
        "certificates.verify_s": t("dur:certificates.verify_cm", 0),
        "certificates.verify_calls": t("calls:certificates.verify_cm", 0),
        "simplex.solve_calls": t("calls:simplex.solve", 0),
        "simplex.optimal_share": ratio("optimal", "calls:simplex.solve"),
        "simplex.tableau_entries": t("lp_entries", 0),
        "simplex.self_s": t("self:simplex", 0),
        "simplex.max_bits": t("simplex.max_bits", 0),
        "kernel.row_ops": t("kernel_ops", 0),
        "kernel.row_entries": t("kernel_entries", 0),
        "kernel.s": t("self:kernel", 0),
        "geometry.validate_s": (t("dur:geometry.PolyhedralSpace.from_vertices", 0)
                                - t("polar_in_validate", 0)),
        "geometry.is_extreme_calls": t("calls:geometry.is_extreme", 0),
        "geometry.polar_dual_s": t("dur:geometry.polar_dual", 0),
        "jsonio.self_s": t("self:jsonio", 0),
        "cli.self_s": t("self:cli", 0),
        "geometry.self_s": t("self:geometry", 0),
        "projections.self_s": t("self:projections", 0),
        "certificates.self_s": t("self:certificates", 0),
    }
    return metrics, stages


def _sample_totals(spans: list[_Span]) -> dict[str, float]:
    names = {s.id: s.name for s in spans}
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s in spans:
        duration = s.end - s.start
        add(f"dur:{s.name}", duration)
        add(f"calls:{s.name}", 1)
        add(f"self:{layer_of(s.name)}", duration - s.child_s)
        if s.name in STAGES:
            add(f"stage:{s.name}", duration - s.stage_child_s)
        if s.name == "geometry.polar_dual" and \
                names.get(s.parent) == "geometry.PolyhedralSpace.from_vertices":
            add("polar_in_validate", duration)
        extra = s.extra or {}
        if s.name == "simplex.solve":
            add(f"lps:{s.stage}", 1)
            add("lp_entries", extra.get("entries", 0))
            add("optimal", extra.get("optimal", 0))
            out["simplex.max_bits"] = max(out.get("simplex.max_bits", 0),
                                          extra.get("max_bits", 0))
        elif s.name == "geometry.general_position_check":
            add("gp_subsets", extra.get("subsets", 0))
        elif s.name == "projections.build_pair_grid":
            add("grid_rows", extra.get("rows", 0))
        elif s.name == "certificates.minimal_support_cm":
            add("support_found", extra.get("found", 0))
        for leaf, (calls, seconds, entries) in (s.leaves or {}).items():
            add(f"self:{layer_of(leaf)}", seconds)
            if leaf in ("linalg.rows_rank", "linalg.rank", "linalg.integer_row_rank"):
                add("rank_calls", calls)
            if leaf.startswith("_kernel."):
                add("kernel_ops", calls)
                add("kernel_entries", entries)
            if s.name == "geometry.general_position_check":
                if leaf == "linalg.rows_rank":
                    add("gp_rank_tests", calls)
                elif leaf == "linalg.canonical_span":
                    add("gp_canonicalized", calls)
    return out
