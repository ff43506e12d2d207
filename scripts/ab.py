#!/usr/bin/env python3
"""Compare the benchmark of this tree with a parent tree in alternating pairs.

    python3 scripts/ab.py --parent REV [--workloads W ...] [--pairs 10]
                          [--seconds 20] [--seed 1] [--json FILE]
    python3 scripts/ab.py --parent-dir DIR ...

--parent exports REV with `git archive` into a temporary directory;
--parent-dir takes DIR as the parent tree.  The change is the tree this
script sits in.  Pair i runs `bench/run.py --workload W --seed SEED+i
--seconds T` once in each tree, each run in a fresh process, the parent
first in even pairs and the change first in odd ones, and reads the JSON
object on each run's last line.

For each end-to-end metric that BENCHMARK.json declares it prints the
parent and change medians, their ratio (change / parent), the pairs in
which the change is lower, the exact two-sided sign-test p-value of that
count, ties left out, and the parent's interquartile range relative to its
median.  Where that range is wider than the metric's bound, the metric is
marked unresolved: those runs cannot tell a change of that size from
noise.  A run that exits non-zero or reports failed operations is counted
under "failed".  --json FILE writes every pair.  Standard library only.

Method: Kalibera & Jones, "Rigorous benchmarking in reasonable time" (ISMM
2013); Mytkowicz et al., "Producing wrong data without doing anything
obviously wrong!" (ASPLOS 2009).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tree, workload, seed, seconds):
    """One bench/run.py run in tree, in a fresh process: (exit code, the
    JSON object on its last line, or None where there is none)."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode, None


def sign_test(lower, higher):
    """The exact two-sided p-value of lower against higher under p = 1/2."""
    n = lower + higher
    if n == 0:
        return 1.0
    tail = sum(comb(n, i) for i in range(min(lower, higher) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def value(run, name):
    """The metric of one side of a pair, or None where the run gave none."""
    return (run["metrics"] or {}).get(name)


def values_of(pairs, side, name):
    return [v for p in pairs if (v := value(p[side], name)) is not None]


def summarize(workload, pairs, metrics):
    """The printed lines for one workload's pairs."""
    lines = [f"workload {workload}: {len(pairs)} pairs, seeds {pairs[0]['seed']}-"
             f"{pairs[-1]['seed']}",
             f"  {'metric':<12} {'parent':>10} {'change':>10} {'ratio':>7} "
             f"{'lower':>7} {'p':>7} {'IQR':>7}  verdict"]
    for m in metrics:
        name, bound = m["name"], m["bound"]
        both = [(value(p["parent"], name), value(p["change"], name)) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            lines.append(f"  {name:<12} no pair reported it")
            continue
        parents = values_of(pairs, "parent", name)
        parent = statistics.median(parents)
        change = statistics.median(values_of(pairs, "change", name))
        lower = sum(c < p for p, c in both)
        higher = sum(c > p for p, c in both)
        ratio = change / parent if parent else float("nan")
        spread = iqr(parents) / parent if parent else float("inf")
        verdict = f"unresolved (bound {bound:.0%})" if spread > bound else "resolved"
        lines.append(f"  {name:<12} {parent:>10.4g} {change:>10.4g} {ratio:>7.3f} "
                     f"{lower:>3}/{len(both):<3} {sign_test(lower, higher):>7.3g} "
                     f"{spread:>7.1%}  {verdict}")
    failed = {side: sum(1 for p in pairs if p[side]["exit"] or p[side]["failed"])
              for side in ("parent", "change")}
    lines.append(f"  failed runs: parent {failed['parent']}, change {failed['change']}")
    return lines


def side_record(code, report):
    if report is None:
        return {"exit": code, "failed": None, "attempted": None, "metrics": None}
    return {"exit": code, "failed": report["failed"], "attempted": report["attempted"],
            "metrics": {k: v["value"] for k, v in report["metrics"].items()}}


def compare(parent_tree, args, benchmark):
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    everything = []
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "pair": i, "seed": seed, "first": order[0]}
            for side in order:
                tree = parent_tree if side == "parent" else ROOT
                pair[side] = side_record(*run_bench(tree, workload, seed, args.seconds))
            pairs.append(pair)
        everything += pairs
        print("\n".join(summarize(workload, pairs, benchmark["end_to_end"])), flush=True)
    return everything


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    where = ap.add_mutually_exclusive_group(required=True)
    where.add_argument("--parent", metavar="REV", help="git revision to export as the parent")
    where.add_argument("--parent-dir", metavar="DIR", type=Path, help="parent tree")
    ap.add_argument("--workloads", nargs="+", metavar="W")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", metavar="FILE", type=Path)
    args = ap.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in benchmark["workloads"]]
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")
    if any(w not in known for w in args.workloads or ()):
        ap.error(f"workloads are {', '.join(known)}")

    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        if args.parent is not None:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                     capture_output=True)
            if archive.returncode:
                ap.error(f"git archive {args.parent}: {archive.stderr.decode().strip()}")
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
            parent_tree = Path(tmp)
        else:
            parent_tree = args.parent_dir.resolve()
        if not (parent_tree / "bench" / "run.py").is_file():
            ap.error(f"no bench/run.py in the parent tree {parent_tree}")
        pairs = compare(parent_tree, args, benchmark)

    if args.json is not None:
        record = {"parent": args.parent or str(parent_tree), "seconds": args.seconds,
                  "machine": {"python": platform.python_version(),
                              "platform": platform.platform(),
                              "processor": platform.processor() or platform.machine()},
                  "pairs": pairs}
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
