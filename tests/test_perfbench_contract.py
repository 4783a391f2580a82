"""The library calls the pipeline benchmark makes, run as it makes them.

perfbench/workloads.py builds its inputs with projection_constant,
cm_from_dual, polar_dual and from_vertices(..., validate=False), and
perfbench/checks.py re-proves every report with build_operator_basis,
RMatrix, solve_linear and verify_cm(..., basis=).  perfbench/tracing.py
wraps the pipeline's functions for the traced pass and reads
constraint_matrix off every LP handed to solve.  The three files are
loaded by path and used unchanged, so a change to any of those
signatures fails here rather than in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import minproj.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")
tracing = _load("tracing")


# Cases that stop at a budget (exit 3) and still emit a checked report:
# none, as every case is searched within the default work budget.
BUDGET_STOPS = {"seeded-analyze": set(), "n6-certify": set()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_cases_run_and_check(tmp_path, capsys, workload):
    workloads.build(workload, tmp_path)
    cases = workloads.load(tmp_path)
    assert cases
    codes = {}
    for case in cases:
        codes[case.name] = cli.main(list(case.argv))
        out = capsys.readouterr().out
        assert checks.check_output(case, out) == [], case.name
    assert codes == {name: 3 if name in BUDGET_STOPS[workload] else 0
                     for name in codes}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_checks_clean(tmp_path, capsys, workload):
    # one pass under the tracer, as perfbench/run.py --trace 1 makes it:
    # every case reports what it reports untraced and checks clean, and
    # every solve span counted its LP's constraint_matrix
    workloads.build(workload, tmp_path)
    tracer = tracing.Tracer()
    for case in workloads.load(tmp_path):
        code = cli.main(list(case.argv))
        untraced = capsys.readouterr().out
        tracer.install(case.name, 0)
        try:
            assert cli.main(list(case.argv)) == code, case.name
        finally:
            tracer.uninstall()
        out = capsys.readouterr().out
        assert out == untraced, case.name
        assert checks.check_output(case, out) == [], case.name
    solves = [span for spans in tracer.case_spans.values() for span in spans
              if span.name == "simplex.solve"]
    assert solves and all(span.extra["entries"] > 0 for span in solves)
