#!/usr/bin/env python3
"""Builds bench/suite and runs rbs_bench; the one command of the benchmark.

One run (the last stdout line is the result record):
  python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

A suite of runs, printed as a table and optionally appended to a file:
  python3 bench/suite/run.py [--build DIR] [--seed N] [--runs K] [--vary-seed]
                             [--trace] [--workloads a,b] [--out FILE]

Compare a parent's runs with a change's (choosing-metrics rule, see README):
  python3 bench/suite/run.py compare PARENT.json CHANGE.json

Re-record the output digests of the batch workloads (seeds 1 and 2):
  python3 bench/suite/run.py digests

Exit status: 0 when every correctness check passed (and, for compare, no
metric regressed), 1 when one failed, 2 on a usage or build error.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
DIGESTS = SUITE / "digests.txt"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def build(build_dir):
    """Configures (once) and builds rbs_bench; returns the binary's path."""
    if not (ROOT / "src" / "core" / "analysis.hpp").is_file():
        fail(f"the repository sources are missing under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    tmp = build_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "rbs_bench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "rbs_bench"


def run_binary(binary, build_dir, workload, seed, seconds, trace):
    """One rbs_bench process; returns its JSON record."""
    traces = build_dir / "traces"
    traces.mkdir(exist_ok=True)
    # Paths relative to the checkout, so records name no machine directory.
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--digests", os.path.relpath(DIGESTS, ROOT),
               "--trace-dir", os.path.relpath(traces, ROOT)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"{workload} produced no record (exit {done.returncode})", 1)
    return json.loads(lines[-1])


def select(record, specs, fill_missing):
    """The record's metrics named in `specs`, with BENCHMARK.json's units."""
    chosen = {}
    for spec in specs:
        metric = record["metrics"].get(spec["name"])
        if metric is None:
            if not fill_missing:
                fail(f"{record['workload']} did not report {spec['name']}", 1)
            metric = {"value": 0, "unit": spec["unit"]}  # layer bypassed
        elif metric["unit"] != spec["unit"]:
            fail(f"{spec['name']} reported in {metric['unit']}, not {spec['unit']}", 1)
        chosen[spec["name"]] = {"value": metric["value"], "unit": spec["unit"]}
    return chosen


def print_record(record, file=sys.stdout):
    context = record["context"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{context['build_type']} {context['compiler']} git {context['git']} "
          f"nproc {context['nproc']} workers {context['workers']} "
          f"load {context['loadavg']}", file=file)
    for problem in record["problems"]:
        print(f"# FAILED CHECK: {problem}", file=file)
    for key, value in sorted(record["notes"].items()):
        print(f"#   {key} = {value}", file=file)


def single_run(args, benchmark):
    build_dir = (ROOT / args.build).resolve()
    binary = build(build_dir)
    record = run_binary(binary, build_dir, args.workload, args.seed, args.seconds,
                        args.trace == 1)
    specs = benchmark["per_layer"] if args.trace == 1 else benchmark["end_to_end"]
    metrics = select(record, specs, fill_missing=args.trace == 1)
    print_record(record)
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    return 0 if record["correct"] else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def suite_run(args, benchmark):
    build_dir = (ROOT / args.build).resolve()
    binary = build(build_dir)
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    for w in workloads:
        if w not in names:
            fail(f"unknown workload {w}")
    records = []
    ok = True
    for k in range(args.runs):
        seed = args.seed + k if args.vary_seed else args.seed
        for w in workloads:
            record = run_binary(binary, build_dir, w, seed, args.seconds, False)
            print_record(record, file=sys.stderr)
            records.append(record)
            ok = ok and record["correct"]
    if args.trace:
        for w in workloads:
            record = run_binary(binary, build_dir, w, args.seed, args.seconds, True)
            print_record(record, file=sys.stderr)
            records.append(record)
            ok = ok and record["correct"]
    report(records, benchmark, workloads)
    if args.out:
        out = Path(args.out)
        existing = json.loads(out.read_text())["runs"] if out.is_file() else []
        out.write_text(json.dumps({"runs": existing + records}, indent=1) + "\n")
    return 0 if ok else 1


def report(records, benchmark, workloads):
    """Median and quartiles of every metric, per workload."""
    specs = {"e2e": benchmark["end_to_end"], "layer": benchmark["per_layer"]}
    seen = set()
    for w in workloads:
        for kind, traced in (("e2e", 0), ("layer", 1)):
            runs = [r for r in records if r["workload"] == w and r["trace"] == traced]
            if not runs:
                continue
            print(f"\n{w}  ({kind}, {len(runs)} run(s))")
            for spec in specs[kind]:
                values = [r["metrics"][spec["name"]]["value"] for r in runs
                          if spec["name"] in r["metrics"]]
                if not values:
                    continue
                seen.add(spec["name"])
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                print(f"  {spec['name']:34s} {q2:>14.6g} {spec['unit']:8s} "
                      f"[{q1:.6g}, {q3:.6g}]  iqr/median {spread:.3f}")
    if any(r["trace"] == 1 for r in records):
        unused = [s["name"] for s in benchmark["per_layer"] if s["name"] not in seen]
        if unused:
            print(f"\nper-layer metrics no workload reported: {', '.join(unused)}")


def compare(parent_path, change_path, benchmark):
    """choosing-metrics section 8: >= 10 pairs, 9/10 wins and a median gap
    beyond the parent's interquartile spread for a gain; otherwise no worse
    than the bound, or unresolved when the parent's spread exceeds it."""
    parent = json.loads(Path(parent_path).read_text())["runs"]
    change = json.loads(Path(change_path).read_text())["runs"]
    regressions = 0
    for w in [x["name"] for x in benchmark["workloads"]]:
        a_runs = [r for r in parent if r["workload"] == w and r["trace"] == 0]
        b_runs = [r for r in change if r["workload"] == w and r["trace"] == 0]
        if not a_runs or not b_runs:
            continue
        print(f"\n{w}: {len(a_runs)} parent run(s), {len(b_runs)} change run(s)")
        for spec in benchmark["end_to_end"]:
            name, lower = spec["name"], spec["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            pairs = min(len(a), len(b))
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            wins = sum(better(b[i], a[i]) for i in range(pairs))
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            spread = a3 - a1
            worse = ((b2 - a2) if lower else (a2 - b2)) / abs(a2) if a2 else 0.0
            if pairs >= 10 and wins >= 0.9 * pairs and better(b2, a2) and abs(b2 - a2) > spread:
                verdict = "GAIN"
            elif a2 and spread / abs(a2) > spec["bound"]:
                verdict = ("better in every run" if all(better(y, x) for x in a for y in b)
                           else "unresolved (parent spread exceeds the bound)")
            elif worse > spec["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "no worse than its bound"
            print(f"  {name:14s} parent {a2:.6g} [{a1:.6g}, {a3:.6g}]  change {b2:.6g} "
                  f"[{b1:.6g}, {b3:.6g}] {spec['unit']}  wins {wins}/{pairs}  "
                  f"worse by {worse:+.3f} (bound {spec['bound']})  -> {verdict}")
            if pairs < 10:
                print(f"  {'':14s} only {pairs} pair(s): a gain needs at least 10")
    return 1 if regressions else 0


def record_digests(args, benchmark):
    build_dir = (ROOT / args.build).resolve()
    binary = build(build_dir)
    lines = ["# rbs_bench output digests: workload seed fnv1a64-of-the-check-prefix",
             "# Rewritten by `python3 bench/suite/run.py digests` (see README.md)."]
    for w in [x["name"] for x in benchmark["workloads"]]:
        for seed in (1, 2):
            command = [str(binary), "--workload", w, "--seed", str(seed), "--seconds", "0"]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            if not done.stdout.strip():
                fail(f"{w} produced no record", 1)
            record = json.loads(done.stdout.strip().splitlines()[-1])
            if not record["correct"]:
                fail(f"{w} seed {seed} failed a check: {record['problems']}", 1)
            if "digest" in record["notes"]:
                lines.append(f"{w} {seed} {record['notes']['digest']}")
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(DIGESTS.read_text(), end="")
    return 0


def main():
    benchmark = load_benchmark()
    default_build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare PARENT.json CHANGE.json")
        return compare(sys.argv[2], sys.argv[3], benchmark)
    if len(sys.argv) > 1 and sys.argv[1] == "digests":
        parser = argparse.ArgumentParser(prog="run.py digests")
        parser.add_argument("--build", default=default_build)
        return record_digests(parser.parse_args(sys.argv[2:]), benchmark)

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--build", default=default_build)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args()
    if not 0 <= args.seconds <= 3600:
        fail("--seconds must be in [0, 3600]")
    if args.workload:
        return single_run(args, benchmark)
    return suite_run(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
