#!/usr/bin/env python3
"""Concurrent A/B of the host-cost benchmark between two checkouts.

    python3 tools/perf_ab.py A_DIR B_DIR [--workload NAME]... [--pairs N]
                             [--seconds S] [--seed N]

Sequential A/B runs on a shared host drift with the host's load (one
workload's ns/op moved by half within an hour on a 4-vCPU VM). This
tool instead runs A and B at the same time, each pinned with taskset
to its own CPUs, and swaps the CPUs on every pair, so drift hits both
sides of a pair alike. fleet-mix (two replay jobs) gets two CPUs per
side; every other workload one. The CPUs are the lowest ones the tool
itself may run on (start it under `taskset -c LIST` to choose them).

Both checkouts are built first, each by its own perfbench/run.py (one
short warm-up run per checkout), before anything is timed. Per pair it
prints A's and B's ns/op and the B/A ratio; per workload the median
ratio, B's wins, the quartiles of A, and each side's median setup_s
and peak_rss_mb. A pair where either side's result line is not
"correct": true with "failed": 0 is rejected: printed, counted, and
left out of the summary.

Uses only the Python standard library. Exit codes: 0 every pair
accepted, 1 a run failed or a pair was rejected, 2 usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("zipf-deep", "stackchurn-l1", "ring-msi4", "fleet-mix")
# End-to-end metrics besides ns_per_op whose per-side medians are shown.
OTHER_METRICS = ("setup_s", "peak_rss_mb")
# CPUs per side: fleet-mix replays on a two-job pool.
CPUS_PER_SIDE = {"fleet-mix": 2}


def parse_result(stdout):
    """The JSON result object on the last stdout line of perfbench/run.py,
    or None when there is none."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or \
            not {"correct", "failed", "metrics"} <= set(result):
        return None
    return result


def rejection(result):
    """Why a run's result may not enter the summary, or None if it may."""
    if result is None:
        return "no result line"
    if result["correct"] is not True:
        return "correct is not true"
    if result["failed"] != 0:
        return f"failed = {result['failed']}"
    ns = result["metrics"].get("ns_per_op", {}).get("value")
    if not isinstance(ns, (int, float)) or ns <= 0:
        return "no ns_per_op"
    return None


def cpu_sets(cpus, per_side, pair):
    """taskset lists for (A, B) on pair number @p pair: the first
    per_side CPUs and the next per_side, swapped on every odd pair."""
    if len(cpus) < 2 * per_side:
        raise ValueError(f"need {2 * per_side} CPUs, have {len(cpus)}")
    first = ",".join(cpus[:per_side])
    second = ",".join(cpus[per_side:2 * per_side])
    return (first, second) if pair % 2 == 0 else (second, first)


def quartiles(values):
    """(q1, median, q3) of @p values (inclusive method; one value is its
    own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs):
    """Summary of accepted (a_ns, b_ns) pairs: B/A ratios, their median,
    B's wins (lower ns/op), and the quartiles of each side."""
    if not pairs:
        return None
    ratios = [b / a for a, b in pairs]
    return {
        "pairs": len(pairs),
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "wins": sum(1 for a, b in pairs if b < a),
        "a_quartiles": quartiles([a for a, _ in pairs]),
        "b_quartiles": quartiles([b for _, b in pairs]),
    }


def other_medians(results):
    """{metric: (A median, B median)} over accepted (A, B) result pairs
    for each OTHER_METRICS entry both sides of every pair report."""
    medians = {}
    for name in OTHER_METRICS:
        values = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                  for a, b in results
                  if name in a["metrics"] and name in b["metrics"]]
        if values and len(values) == len(results):
            medians[name] = (statistics.median(v for v, _ in values),
                             statistics.median(v for _, v in values))
    return medians


def format_summary(workload, summary, rejected, others=None):
    if summary is None:
        return f"{workload}: no accepted pairs ({rejected} rejected)"
    a1, a2, a3 = summary["a_quartiles"]
    b2 = summary["b_quartiles"][1]
    return (f"{workload}: median B/A {summary['median_ratio']:.3f}, "
            f"B wins {summary['wins']}/{summary['pairs']}, "
            f"A median {a2:.1f} ns/op (IQR {a1:.1f}-{a3:.1f}, "
            f"{a3 - a1:.1f}), B median {b2:.1f} ns/op, "
            f"{rejected} rejected"
            + "".join(f"; {name} {a:.4g} -> {b:.4g}"
                      for name, (a, b) in (others or {}).items()))


def command(checkout, workload, seconds, cpus=None, seed=None):
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
           "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    return (["taskset", "-c", cpus] + cmd) if cpus else cmd


def run_pair(a_dir, b_dir, workload, seconds, cpus, seed=None):
    """Run A and B at once, pinned to @p cpus = (a_cpus, b_cpus);
    returns ((result, stderr) for A, (result, stderr) for B)."""
    procs = [subprocess.Popen(command(d, workload, seconds, c, seed),
                              cwd=d,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for d, c in ((a_dir, cpus[0]), (b_dir, cpus[1]))]
    out = []
    for proc in procs:
        stdout, stderr = proc.communicate()
        out.append((parse_result(stdout), stderr))
    return out


def build(checkout):
    """Build @p checkout's perfbench through its own run.py (a 1 s
    warm-up run); False when the build or the run fails."""
    proc = subprocess.run(command(checkout, "stackchurn-l1", 1),
                          cwd=checkout, capture_output=True, text=True)
    result = parse_result(proc.stdout)
    if proc.returncode != 0 or rejection(result):
        sys.stderr.write(proc.stderr)
        print(f"perf_ab: warm-up run in {checkout} failed "
              f"({rejection(result) or f'exit {proc.returncode}'})",
              file=sys.stderr)
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir", help="baseline checkout (A)")
    parser.add_argument("b_dir", help="changed checkout (B)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to time (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: perfbench's, the "
                             "one its digests were recorded at)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    cpus = [str(c) for c in sorted(os.sched_getaffinity(0))]
    workloads = args.workload or list(WORKLOADS)
    need = 2 * max(CPUS_PER_SIDE.get(w, 1) for w in workloads)
    if len(cpus) < need:
        parser.error(f"needs {need} CPUs to run on, has {len(cpus)}")
    for d in (args.a_dir, args.b_dir):
        if not (Path(d) / "perfbench" / "run.py").is_file():
            parser.error(f"{d} has no perfbench/run.py")

    if not all(build(d) for d in (args.a_dir, args.b_dir)):
        return 1

    status = 0
    for workload in workloads:
        per_side = CPUS_PER_SIDE.get(workload, 1)
        accepted, results, rejected = [], [], 0
        for pair in range(args.pairs):
            sides = cpu_sets(cpus, per_side, pair)
            (a, a_err), (b, b_err) = run_pair(args.a_dir, args.b_dir,
                                              workload, args.seconds, sides,
                                              args.seed)
            why = [f"{name}: {rejection(r)}"
                   for name, r in (("A", a), ("B", b)) if rejection(r)]
            if why:
                rejected += 1
                status = 1
                sys.stderr.write(a_err + b_err)
                print(f"{workload} pair {pair + 1}: REJECTED "
                      f"({'; '.join(why)})", flush=True)
                continue
            a_ns = a["metrics"]["ns_per_op"]["value"]
            b_ns = b["metrics"]["ns_per_op"]["value"]
            accepted.append((a_ns, b_ns))
            results.append((a, b))
            print(f"{workload} pair {pair + 1}: A {a_ns:.1f} (cpu "
                  f"{sides[0]})  B {b_ns:.1f} (cpu {sides[1]})  "
                  f"B/A {b_ns / a_ns:.3f}", flush=True)
        print(format_summary(workload, summarize(accepted), rejected,
                             other_medians(results)), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
