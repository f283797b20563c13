#!/usr/bin/env python3
"""End-to-end benchmark of the EMD Globalizer: one command that builds,
prepares and runs a workload and prints its metrics.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Steps:

1. build: CMake package e2ebench/ (library sources from src/) into
   .bench_build/e2ebench;
2. prepare (outside any timed run): train and cache the models once, in
   .bench_build/work/models, then write this seed's input file;
3. run: the benchmark binary loads the cached models (a missing or broken
   model fails the run; it never trains), runs passes of the fixed input for
   S seconds (at least three passes) and prints the result.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric. The full record,
with seed and input digest, is kept in .bench_build/work/results/.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "e2ebench")

BUILD_TIMEOUT_S = 600
PREPARE_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check(cmd, timeout):
    """Runs cmd with its output on stderr; exits non-zero if it fails."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout}s: {' '.join(cmd)}")
        sys.exit(1)
    if proc.returncode != 0:
        log(f"failed ({proc.returncode}): {' '.join(cmd)}")
        sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ next to the benchmark: nothing to build")
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        check(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    check(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def prepare(args):
    models = os.path.join(WORK_DIR, "models")
    if not os.path.isfile(os.path.join(models, "READY")):
        log("preparing models (one-time training)")
        check([BINARY, "prepare", "--models", models], PREPARE_TIMEOUT_S)
    inputs = os.path.join(WORK_DIR, "inputs")
    os.makedirs(inputs, exist_ok=True)
    path = os.path.join(
        inputs, f"{args.workload}-seed{args.seed}-x{args.tweet_scale}.txt")
    # Regenerated every time, so the input always comes from the current
    # generator; its digest goes into the result.
    check([BINARY, "input", "--workload", args.workload, "--seed",
           str(args.seed), "--tweet-scale", str(args.tweet_scale),
           "--out", path], PREPARE_TIMEOUT_S)
    return models, path


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Test hook: shrinks every workload's tweet count.
    ap.add_argument("--tweet-scale", type=float, default=1.0)
    args = ap.parse_args()

    build()
    models, input_path = prepare(args)
    results = os.path.join(WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    result_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [BINARY, "run", "--workload", args.workload, "--input", input_path,
           "--models", models, "--scratch", os.path.join(WORK_DIR, "tmp"),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tweet-scale", str(args.tweet_scale), "--result", result_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        log(f"run timed out after {RUN_TIMEOUT_S}s")
        sys.exit(1)
    if proc.returncode != 0:
        log(f"benchmark binary failed ({proc.returncode})")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"unit mismatch {sorted(k for k in want if k in got and got[k] != want[k])}")
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
