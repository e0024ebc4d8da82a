#!/usr/bin/env python3
"""Build and run the host-cost benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --selftest

Builds perfbench/ (its own CMake package, compiling ../src in Release)
under .bench_build/perfbench, then runs one workload and forwards its
output. The last stdout line is the JSON result object. Everything the
run writes stays under .bench_build/ in the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("zipf-deep", "stackchurn-l1", "ring-msi4", "fleet-mix")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources under {ROOT / 'src'}", 2)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def commit():
    """HEAD's commit when the tree is a git checkout, else 'none'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over the simulator sources, so a result names its code
    even outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def run_workload(args):
    build("perfbench")
    scratch = BUILD / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.relpath(scratch, ROOT),
           "--commit", commit(), "--source", source_digest()]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=args.seconds * 4 + 90)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}", proc.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no result line")
    print("\n".join(lines), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        build("perfbench_selftest")
        scratch = BUILD / f"selftest-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            code = subprocess.run([str(BUILD / "perfbench_selftest"),
                                   os.path.relpath(scratch, ROOT)],
                                  cwd=ROOT).returncode
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        sys.exit(code)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    run_workload(args)


if __name__ == "__main__":
    main()
