#!/usr/bin/env python3
"""Pipeline benchmark of minproj: the CLI driven in-process, one case at a time.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload seeded-analyze --seed 1 --seconds 40 --trace 0

Each case goes through ``minproj.cli.main`` exactly as a command line
would, so it pays for parsing, validation, the polar, lambda, the face,
certificates, general position and serialization.  One process, one
thread, closed loop: the next case starts when the previous one returns.

A run makes whole passes over the cases, each pass in an order drawn
from the seed: ``PASSES`` of them at 40 seconds, scaled with
``--seconds``, and at least two.  It sets the workload up
``SETUP_REPEATS`` times in all, a share of them before each pass and
outside its timing, each time in a fresh interpreter that imports
minproj and writes the input files and certificates (``workloads.py``),
and reports the median as ``setup_s``.  Outputs are checked after the
last pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead
runs every case once untraced and once under the span tracer
(``tracing.py``), prints the per-layer metrics of one pass and the
tracer's overhead, and writes the spans to ``perfbench/out``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every time in the end-to-end metrics is scaled to a reference host
speed, so that a shared host's slow stretches cancel: the run times a
fixed unit of rational arithmetic of its own (``calibrate.py``) before
and after every case and set-up, and every ``calibrate.TICK_S`` seconds
while a case runs, and multiplies each latency by
``calibrate.REFERENCE_S`` over the mean unit time around it.  The
sampling time is taken out of the latency.  The unscaled figures are
printed on the ``info`` line (``wall_clock``); the run's record keeps
every latency with its scale factor.

End-to-end metrics:

- setup_s: median of the set-ups (interpreter start-up, import, inputs
  and certificates);
- suite_s: sum over the cases of each case's median latency;
- reports_per_s: complete, checked reports per second, over the sum of
  all case latencies (the timed part of the passes);
- case_p50_s: median over the cases of each case's median latency.  The
  seeded workload's cases fall into a fast (n = 4) and a slow (n = 5)
  half, and a median over raw samples would average the slowest fast
  sample with the fastest slow one, two extremes;
- case_tail_s: latency at the highest percentile with ten samples above
  it (the maximum when there are fewer samples);
- completed_share: complete reports over attempts.  A budget stop
  (exit 3), any other non-zero exit and an exception escaping
  ``cli.main`` count as failed, each under its own reason;
- peak_rss_mb: peak resident memory of the process when the timed passes
  end (import and the CLI cases; the set-ups run in other processes and
  the output checks come later).

Metric names and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Set-ups are spread over the run, a share before each pass, because the
# speed of a shared host drifts over tens of seconds and set-ups taken
# back to back all land in one state of it.
SETUP_REPEATS = 6
# Untraced passes per workload in a 40-second run; a traced pass runs
# every case twice, so a traced run makes half as many.  The count
# depends only on --seconds, so every run of a workload has the same
# sample count and its order statistics stay comparable; a busy host
# lengthens the run instead.
PASSES = {"seeded-analyze": 4, "n6-certify": 2}
REFERENCE_SECONDS = 40
MIN_PASSES = 2
TAIL_ABOVE = 10


@dataclass
class Sample:
    latency: float
    reason: str  # "ok", "exit 3 (budget)", "exit 1", "exit 2", "uncaught <type>"
    output: str
    scale: float = 1.0  # host-speed factor while the case ran (calibrate.speed)

    @property
    def scaled(self) -> float:
        """Latency at the reference host speed."""
        return self.latency * self.scale


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _set_up(workload, workdir) -> tuple[float, float]:
    """Seconds one set-up takes in a fresh interpreter, and the same at
    the reference host speed."""
    shutil.rmtree(workdir, ignore_errors=True)
    command = [sys.executable, str(Path(workloads.__file__)),
               "--workload", workload, "--out", str(workdir)]
    before = calibrate.units()
    start = perf_counter()
    subprocess.run(command, check=True)
    seconds = perf_counter() - start
    return seconds, seconds * calibrate.speed(before + calibrate.units())


def _run_case(cli, case, sampler=None) -> Sample:
    """One CLI call; with a sampler, the host is sampled while it runs
    and the sampling time is taken out of the latency."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    gc.collect()
    if sampler is not None:
        sampler.arm()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(case.argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception as exc:  # an internal error escaping cli.main is a failure
        reason = f"uncaught {type(exc).__name__}"
    latency = perf_counter() - start
    if sampler is not None:
        sampler.disarm()
        latency -= sampler.overhead
    if reason is None:
        reason = {0: "ok", 3: "exit 3 (budget)"}.get(code, f"exit {code}")
    return Sample(latency, reason, "" if reason.startswith("uncaught") else out.getvalue())


def _run_pass(cli, cases, rng, samples, traced, tracer):
    """One pass in seeded order, appended to samples (and traced).
    Untraced, each case is scaled by the host speed sampled just before,
    during and just after it.  With a tracer, every case runs once
    untraced and then once traced, and nothing is scaled.  Returns the
    pass's wall time."""
    order = list(cases)
    rng.shuffle(order)
    start = perf_counter()
    if tracer is not None:
        for case in order:
            samples[case.name].append(_run_case(cli, case))
            tracer.install(case.name, len(traced[case.name]))
            try:
                traced[case.name].append(_run_case(cli, case))
            finally:
                tracer.uninstall()
        return perf_counter() - start
    with calibrate.Sampler() as sampler:
        before = calibrate.units()
        for case in order:
            sample = _run_case(cli, case, sampler)
            after = calibrate.units()
            sample.scale = calibrate.speed(before + sampler.samples + after)
            before = after
            samples[case.name].append(sample)
    return perf_counter() - start


def _check(cases, samples, traced):
    problems = []
    for case in cases:
        runs = samples[case.name] + traced[case.name]
        if len({(s.reason, s.output) for s in runs}) != 1:
            problems.append(f"{case.name}: report bytes or exit status differ across passes")
        first = runs[0]
        if first.reason in ("ok", "exit 3 (budget)", "exit 1") and first.output:
            problems += [f"{case.name}: {p}" for p in checks.check_output(case, first.output)]
    return problems


def _tail(latencies):
    """Latency at the highest percentile with TAIL_ABOVE samples above it
    (the maximum when there are fewer samples), its percentile and the
    number of samples above it."""
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_ABOVE - 1
    if index < 0:
        index = len(ordered) - 1
    above = len(ordered) - index - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), above


def _end_to_end(cases, samples, setup_s, peak_rss_mb, latency):
    """The end-to-end metrics, with latency(sample) as each sample's time."""
    every = [s for c in cases for s in samples[c.name]]
    complete = sum(s.reason == "ok" for s in every)
    per_case = [statistics.median(latency(s) for s in samples[c.name]) for c in cases]
    tail, percentile, above = _tail([latency(s) for s in every])
    metrics = {
        "setup_s": setup_s,
        "suite_s": sum(per_case),
        "reports_per_s": complete / sum(latency(s) for s in every),
        "case_p50_s": statistics.median(per_case),
        "case_tail_s": tail,
        "completed_share": complete / len(every),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"case_tail_s": f"p{percentile:.1f}, {above} samples above, {len(every)} samples"}
    return metrics, notes


def _failures(samples) -> dict[str, int]:
    counts: dict[str, int] = {}
    for runs in samples.values():
        for s in runs:
            if s.reason != "ok":
                counts[s.reason] = counts.get(s.reason, 0) + 1
    return counts


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "minproj" / "__init__.py").is_file():
        print(f"error: no minproj sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        tracer = tracing.Tracer() if args.trace else None
        passes = PASSES[args.workload] * args.seconds / REFERENCE_SECONDS
        passes = max(1, round(passes / 2)) if tracer else max(MIN_PASSES, round(passes))
        setups_per_pass = -(-SETUP_REPEATS // passes)

        setups = [_set_up(args.workload, workdir)]
        cases = workloads.load(workdir)
        import minproj
        from minproj import cli

        rng = random.Random(args.seed)
        samples = {c.name: [] for c in cases}
        traced = {c.name: [] for c in cases}
        elapsed = 0.0
        for index in range(passes):
            while len(setups) < setups_per_pass * (index + 1):
                setups.append(_set_up(args.workload, workdir))
            elapsed += _run_pass(cli, cases, rng, samples, traced, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = _check(cases, samples, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(v) for v in samples.values()) + sum(len(v) for v in traced.values())
    failures = _failures(samples)
    for reason, count in _failures(traced).items():
        failures[reason] = failures.get(reason, 0) + count
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "generator_seed": workloads.GENERATOR_SEED,
        "kernel": getattr(minproj, "KERNEL_IMPLEMENTATION", "absent"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cases": len(cases),
        "passes": passes,
        "timed_s": elapsed,
        "setup_runs_s": setups,
        "failures": failures,
    }
    for problem in problems:
        print(f"check failed: {problem}")

    if tracer is None:
        metrics, notes = _end_to_end(cases, samples, statistics.median(s for _, s in setups),
                                     peak_rss_mb, lambda s: s.scaled)
        wall, _ = _end_to_end(cases, samples, statistics.median(w for w, _ in setups),
                              peak_rss_mb, lambda s: s.latency)
        info["wall_clock"] = wall
        result_metrics = _declared(spec["end_to_end"], metrics)
        for name, entry in result_metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}{note}")
    else:
        layer, stages = tracing.layer_metrics(tracer)
        untraced = sum(statistics.median(s.latency for s in samples[c.name]) for c in cases)
        with_trace = sum(statistics.median(s.latency for s in traced[c.name]) for c in cases)
        layer["trace.overhead_share"] = with_trace / untraced - 1
        info["absent"] = tracer.absent
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        info["spans_written"] = tracer.write(span_file)
        info["stage_self_s"] = stages
        result_metrics = _declared(spec["per_layer"], layer)
        for name, entry in result_metrics.items():
            print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
        for stage, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
            print(f"{args.workload} stage {stage} self {seconds:.4f} s")
        if tracer.absent:
            print(f"absent (reported as 0): {', '.join(tracer.absent)}")
    for reason, count in sorted(failures.items()):
        print(f"{args.workload} failures {reason}: {count}")
    print("info " + json.dumps(info))

    OUT.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": result_metrics,
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    latencies = {name: [s.latency for s in runs] for name, runs in samples.items()}
    scales = {name: [s.scale for s in runs] for name, runs in samples.items()}
    record.write_text(json.dumps({"info": info, "latencies_s": latencies, "scales": scales,
                                  "result": result},
                                 indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


def _declared(declared, values):
    """Every metric BENCHMARK.json declares, with its declared unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


if __name__ == "__main__":
    raise SystemExit(main())
