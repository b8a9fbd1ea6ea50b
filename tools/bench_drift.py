#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON run against a committed reference.

Usage:
    bench_perf --benchmark_format=json > current.json
    python3 tools/bench_drift.py current.json results/BENCH_perf.json [--tolerance 0.35]

Benchmarks are matched by name; times are normalized to nanoseconds before
comparison. A benchmark regresses when its current time exceeds the
reference by more than the tolerance fraction. The time is cpu_time, except
for benchmarks registered with UseRealTime() (their names end in
`/real_time`): those run their work on other threads, so their wall time is
the one that means anything.

Work counters are screened exactly. Every `breakpoints` counter (the ticks
one analysis call walks), and every `analyzer_calls` and `scenarios` counter
(the facade calls and fault scenarios of one multicore partition +
resilience pass), is a pure function of the benchmark's input and must
equal the reference's; a mismatch, or a counter the current run no longer
reports, means the analysis does different work, not that the runner was
noisy.

Exit status: 2 when any work counter mismatches, else 1 when any benchmark's
time regresses, else 0. CI fails on 2 and only warns on 1, because shared
runners are too noisy for a hard timing gate; the committed reference is
refreshed deliberately alongside perf-relevant changes.

Simulator benchmarks (BM_Simulator* / BM_EventKernel*) guard the event
kernel's dispatch loop, so they get their own, tighter tolerance
(--simulator-tolerance) and a dedicated warning section -- but stay
warn-only: they never affect the exit status, only the general tolerance
does. The kernel's throughput rides on one tight loop where a single
accidental allocation or rescan shows up immediately, which is exactly what
the tighter screen is for.

Pipeline throughput is measured end to end by bench/suite/run.py, not here.

Only the standard library is used; there is nothing to install.
"""

import argparse
import json
import sys

_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Benchmarks guarding the event-driven simulator kernel (bench_perf.cpp).
_SIMULATOR_PREFIXES = ("BM_Simulator", "BM_EventKernel")

# Exact work counters: the screen compares these for equality, not timing.
_WORK_COUNTERS = ("breakpoints", "analyzer_calls", "scenarios")

# Exit statuses (see the module docstring).
_EXIT_TIMING = 1
_EXIT_WORK = 2


def is_simulator_bench(name):
    return name.startswith(_SIMULATOR_PREFIXES)


def load_doc(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def iteration_rows(doc):
    """The plain iteration rows of a google-benchmark document."""
    return [
        bench
        for bench in doc.get("benchmarks", [])
        # skip aggregate rows (mean/median/stddev)
        if bench.get("run_type", "iteration") == "iteration"
    ]


def load_times(doc):
    """Returns {benchmark name: time in ns} for plain iteration runs."""
    times = {}
    for bench in iteration_rows(doc):
        unit = bench.get("time_unit", "ns")
        if unit not in _TO_NS:
            print(f"note: {bench['name']}: unknown time_unit {unit!r}, skipped")
            continue
        field = "real_time" if bench["name"].endswith("/real_time") else "cpu_time"
        times[bench["name"]] = float(bench[field]) * _TO_NS[unit]
    return times


def load_work_counters(doc):
    """Returns {(benchmark name, counter): value} for the exact work counters."""
    return {
        (bench["name"], counter): float(bench[counter])
        for bench in iteration_rows(doc)
        for counter in _WORK_COUNTERS
        if counter in bench
    }


def drift_work(current, reference):
    """Exact screen: every reference work counter must be reproduced."""
    mismatches = []
    for key in sorted(reference):
        name, counter = key
        ref = reference[key]
        cur = current.get(key)
        if cur is None:
            mismatches.append(f"{name} {counter}: {ref:.0f} in reference, missing now")
        elif cur != ref:
            mismatches.append(f"{name} {counter}: {ref:.0f} in reference, {cur:.0f} now")
    new = sorted(set(current) - set(reference))
    if new:
        print(f"\nnote: {len(new)} work counter(s) new, no baseline")
    if mismatches:
        print(f"\n{len(mismatches)} work counter(s) differ from the reference:")
        for line in mismatches:
            print(f"  {line}")
    else:
        print(f"\nall {len(reference)} work counter(s) match the reference exactly")
    return mismatches


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh bench_perf --benchmark_format=json output")
    parser.add_argument("reference", help="committed reference (results/BENCH_perf.json)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="allowed fractional time increase before a benchmark counts "
        "as regressed (default: 0.35)",
    )
    parser.add_argument(
        "--simulator-tolerance",
        type=float,
        default=0.15,
        help="tighter screen for the simulator benchmarks "
        "(BM_Simulator*/BM_EventKernel*); drift beyond it is reported as a "
        "warning but never affects the exit status (default: 0.15)",
    )
    args = parser.parse_args(argv)

    current_doc = load_doc(args.current)
    reference_doc = load_doc(args.reference)
    current = load_times(current_doc)
    reference = load_times(reference_doc)

    regressions = []
    simulator_drift = []
    # Benchmarks present in the fresh run but absent from the reference are
    # expected whenever a change ADDS benchmarks (the committed reference is
    # refreshed deliberately, usually in a follow-up): report them as rows,
    # never as errors, so growing the bench suite cannot fail the drift check.
    new_benches = sorted(set(current) - set(reference))
    width = max(
        max((len(name) for name in reference), default=10),
        max((len(name) for name in new_benches), default=10),
    )
    print(f"{'benchmark':<{width}}  {'ref time':>12}  {'cur time':>12}  {'delta':>8}")
    for name in sorted(reference):
        ref_ns = reference[name]
        if name not in current:
            print(f"{name:<{width}}  {ref_ns:>10.0f}ns  {'missing':>12}  {'--':>8}")
            regressions.append((name, "missing from current run"))
            continue
        cur_ns = current[name]
        delta = (cur_ns - ref_ns) / ref_ns if ref_ns > 0 else 0.0
        flag = ""
        if delta > args.tolerance:
            flag = "  REGRESSED"
            regressions.append((name, f"{delta:+.1%} vs reference"))
        if is_simulator_bench(name) and delta > args.simulator_tolerance:
            flag = flag or "  SIM-DRIFT"
            simulator_drift.append((name, f"{delta:+.1%} vs reference"))
        print(f"{name:<{width}}  {ref_ns:>10.0f}ns  {cur_ns:>10.0f}ns  {delta:>+7.1%}{flag}")

    for name in new_benches:
        cur_ns = current[name]
        print(f"{name:<{width}}  {'no baseline':>12}  {cur_ns:>10.0f}ns  {'new':>8}")
    if new_benches:
        print(
            f"\nnote: {len(new_benches)} benchmark(s) new, no baseline (warn-only; "
            "refresh the committed reference to start tracking them)"
        )

    if simulator_drift:
        print(
            f"\nwarning: {len(simulator_drift)} simulator benchmark(s) beyond "
            f"+{args.simulator_tolerance:.0%} (warn-only, does not fail the check):"
        )
        for name, why in simulator_drift:
            print(f"  {name}: {why}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) beyond +{args.tolerance:.0%} tolerance:")
        for name, why in regressions:
            print(f"  {name}: {why}")
    else:
        print(f"\nall benchmarks within +{args.tolerance:.0%} of reference")

    if drift_work(load_work_counters(current_doc), load_work_counters(reference_doc)):
        return _EXIT_WORK
    return _EXIT_TIMING if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
