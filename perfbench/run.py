#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and builds
the hybrimoe library and the perfbench binary under .bench_build/ (later calls
rebuild incrementally); build output goes to stderr. The binary's report goes
to stdout, and its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Spans of a traced run are written to
.bench_out/. Exits non-zero without a result when the checkout cannot be
built or the binary fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a hybrimoe source checkout (no CMakeLists.txt and src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "perfbench"


def git_sha():
    """HEAD of the checkout read from .git without leaving it; 'unknown' when
    the checkout is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited with code {done.returncode}")

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        lines.insert(-1, f"# CHECK FAILED: metrics differ from BENCHMARK.json "
                         f"(missing {missing}, unexpected {extra})")
        result["correct"] = False
        lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
