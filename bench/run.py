#!/usr/bin/env python3
"""The hyperfields benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py`` for how each job list is drawn):

  classify       CLI ``enumerate --order 4/5/6 --jobs 1``, some with ``--out``
  construct      CLI ``construct`` at orders 8-64, plus order 128
  verify_reject  CLI ``verify --report`` on corrupted documents, and products
  iso_pairs      library ``are_isomorphic`` on relabelled and different pairs

One client runs the jobs in a closed loop: each starts when the previous one
returns.  CLI jobs call ``hyperfields.cli.main(argv)`` in process with
stdout and stderr captured.  Every answer is checked after timing by
``checks.py``, which shares no code with the package.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the whole job list),
``job_p50_ms``, ``job_tail_ms`` (the 11th slowest job: the highest percentile
with ten jobs beyond it), ``setup_s`` (median over three processes of the
time from process start to the first timed job) and ``peak_rss_mb``.  The
times are scaled to a nominal machine speed measured alongside the jobs
(see ``speed.py``); the raw times are printed and kept in the run records.
``--trace 1`` runs the job list untraced, then twice with spans installed
by ``spans.py``, and prints per-layer metrics, the tracing overhead and
whether the deterministic counters agree between the two traced passes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every check passed.  Run files
(results and spans) go to ``bench/_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
TIME_LIMIT_S = 175.0
END_TO_END = (("wall_s", "s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"_s": "s", "_bytes": "bytes"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten jobs
    beyond it, which is the 11th slowest job; the slowest job when there
    are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metadata():
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "src_lines": src_lines}


# --- the worker process: set up, run the job list, check -----------------


def import_package():
    sys.path.insert(0, str(SRC))
    import hyperfields
    import hyperfields.cli  # noqa: F401  (CLI jobs call hyperfields.cli.main)

    if Path(hyperfields.__file__).resolve().parent != SRC / "hyperfields":
        raise SystemExit(f"error: imported hyperfields from {hyperfields.__file__}, "
                         f"not from {SRC}")
    return hyperfields


def execute(job, hf):
    """Run one job; ("raised", text) on an uncaught exception."""
    try:
        if job.argv:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = hf.cli.main(job.argv)
            return (rc, out.getvalue(), err.getvalue())
        return ("returned", hf.are_isomorphic(*job.pair))
    except Exception:
        return ("raised", traceback.format_exc(limit=3))


def check(job, outcome):
    """None for a right answer, else why it is wrong; a malformed answer
    that makes a check raise counts as wrong."""
    if outcome[0] == "raised":
        return "uncaught exception: " + outcome[1].strip().splitlines()[-1]
    try:
        if job.argv:
            return checks.CLI_CHECKS[job.kind](job.expect, *outcome)
        return checks.check_iso(job.expect, job.pair, outcome[1])
    except Exception as exc:
        return f"answer could not be checked: {type(exc).__name__}: {exc}"


def run_pass(jobs, hf, tracer=None):
    """Time every job, then check every answer and remove the job outputs.

    Untraced passes run under the speed probe: each job's raw time leaves
    out the probe's samples and its scaled time is at the nominal speed.
    """
    intervals, outcomes = [], []
    with contextlib.ExitStack() as stack:
        probe = stack.enter_context(speed.SpeedProbe()) if tracer is None else None
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            start = time.perf_counter()
            outcomes.append(execute(job, hf))
            intervals.append((start, time.perf_counter()))
    raw, scaled = [], []
    for start, end in intervals:
        raw.append(end - start - (probe.busy(start, end) if probe else 0.0))
        scaled.append(raw[-1] * (probe.scale(start, end) if probe else 1.0))
    failures = []
    for i, (job, outcome) in enumerate(zip(jobs, outcomes)):
        problem = check(job, outcome)
        if problem:
            failures.append(f"job {i} ({job.kind} {' '.join(job.argv)}): {problem}")
        for path in job.outputs:
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.unlink(path)
    labels = [job.label or " ".join(job.argv) for job in jobs]
    return {"wall_s": sum(scaled), "raw_wall_s": sum(raw), "latencies": scaled,
            "raw_latencies": raw, "failures": failures, "labels": labels}


def traced_pass(jobs, hf):
    tracer = spans.Tracer()
    spans.install(tracer, hf)
    try:
        result = run_pass(jobs, hf, tracer)
    finally:
        tracer.restore()
    return tracer, result


def worker(args):
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        hf = import_package()
        inputs = workloads.Inputs(workdir)
        jobs = workloads.build_jobs(args.workload, args.seed, args.seconds, inputs, hf)
        digest = inputs.digest()
        gc.collect()
        ready = time.monotonic()
        report = {"ready": ready, "digest": digest, "reference_s": speed.sample(30)}
        if args.role == "worker":
            report.update(run_jobs(args, jobs, hf))
        print(json.dumps(report), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_jobs(args, jobs, hf):
    plain = run_pass(jobs, hf)
    report = {"jobs": len(jobs), "kinds": Counter(job.kind for job in jobs), "passes": [plain],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if not args.trace:
        return report
    first_tracer, first = traced_pass(jobs, hf)
    second_tracer, second = traced_pass(jobs, hf)
    report["passes"] += [first, second]
    layers = spans.layer_metrics(first_tracer)
    again = spans.layer_metrics(second_tracer)
    report["counter_mismatches"] = [name for name in spans.DETERMINISTIC
                                    if layers[name] != again[name]]
    layers["trace.overhead_s"] = first["raw_wall_s"] - plain["raw_wall_s"]
    layers["trace.counters_reproduce"] = int(not report["counter_mismatches"])
    report["layers"] = layers
    report["enumerate_counts"] = [
        [int(jobs[i].argv[2]), *spans.job_counts(first_tracer, i)]
        for i in range(len(jobs)) if jobs[i].kind == "enumerate"]
    first_tracer.write(RUNS / f"{args.workload}-seed{args.seed}.spans.jsonl")
    return report


# --- the main process: start the set-up samples and the worker -----------


def run_child(args, role, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} process printed no report")
    report = json.loads(lines[-1])
    report["raw_setup_s"] = report["ready"] - start
    report["setup_s"] = report["raw_setup_s"] * speed.NOMINAL_S / report["reference_s"]
    return report


def shown(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def unit_of(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(args, samples):
    result = samples[-1]
    passes = result["passes"]
    plain = passes[0]
    latencies = plain["latencies"]
    tail_value, tail_pct = tail(latencies)
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = {s["digest"] for s in samples}
    setups = [s["setup_s"] for s in samples]
    meta = metadata()

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"inputs_sha256={result['digest']} identical_across_setups="
          f"{'yes' if len(digests) == 1 else 'NO'} ({len(samples)} set-ups)")
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"jobs={result['jobs']} " + " ".join(f"{k}={v}" for k, v in result["kinds"].items())
          + " load=one closed-loop client")
    for failure in failures[:10]:
        print("FAILED " + failure, file=sys.stderr)

    metrics = {}
    if not args.trace:
        values = {"wall_s": plain["wall_s"],
                  "job_p50_ms": statistics.median(latencies) * 1000,
                  "job_tail_ms": tail_value * 1000,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            note = ""
            if name == "job_tail_ms":
                note = f"  (p{tail_pct:.1f} of {len(latencies)} jobs: the 11th slowest)"
            elif name == "setup_s":
                note = "  (median of " + ", ".join(f"{s:.4f}" for s in setups) + ")"
            print(f"{name} = {values[name]:.6g} {unit}{note}")
        print(f"raw wall_s = {plain['raw_wall_s']:.6g} s, raw setup_s = "
              f"{statistics.median(s['raw_setup_s'] for s in samples):.6g} s")
    else:
        layers = result["layers"]
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
            print(f"{name} = {shown(value)} {unit_of(name)}")
        print(f"raw wall_s: traced {passes[1]['raw_wall_s']:.4f} s, untraced "
              f"{plain['raw_wall_s']:.4f} s")
        print("deterministic counters reproduce: "
              + ("yes" if not result["counter_mismatches"]
                 else "NO: " + ", ".join(result["counter_mismatches"])))
        for counts in sorted({tuple(c) for c in result["enumerate_counts"]}):
            jobs = sum(1 for c in result["enumerate_counts"] if tuple(c) == counts)
            print("enumerate order {}: candidates={} ch5_rejects={} survivors={} "
                  "classes={} ({} jobs)".format(*counts, jobs))
    error_rate = len(failures) / attempted
    print(f"error_rate = {error_rate:.6g} ({len(failures)} failed / {attempted} attempted)")

    correct = not failures and len(digests) == 1 and not result.get("counter_mismatches")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "inputs_sha256": result["digest"],
              "setup_samples_s": setups, "tail_percentile": tail_pct,
              "error_rate": error_rate, "failures": failures, "metrics": metrics,
              "enumerate_counts": result.get("enumerate_counts"),
              "raw_wall_s": plain["raw_wall_s"],
              "jobs": [[label.replace(str(RUNS), "$RUNS"), scaled * 1000, raw * 1000]
                       for label, scaled, raw in zip(plain["labels"], plain["latencies"],
                                                     plain["raw_latencies"])]}
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hyperfields" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hyperfields'}; run the benchmark "
              "from the root of a checkout of the repository", file=sys.stderr)
        return 2
    if args.role != "main":
        return worker(args)
    RUNS.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    roles = ["worker"] if args.trace else ["setup"] * (SETUP_SAMPLES - 1) + ["worker"]
    try:
        samples = [run_child(args, role, deadline) for role in roles]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return summarize(args, samples)


if __name__ == "__main__":
    sys.exit(main())
