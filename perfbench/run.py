#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark binary (the library sources in src/ plus perfbench/*.cpp) under
$CARGO_TARGET_DIR, default .bench_build; later runs reuse that build.

Workloads (BENCHMARK.json records why each was chosen):
  batch-rmat     back-to-back run_pipeline on one Graph500 RMAT, scale 14
  batch-road     the same loop on the road_usa stand-in at scale 0.2
  service-read   QueryEngine, 2 workers x 1 lane, one client, 8 outstanding
  service-mixed  service-read plus graph updates and solves-by-handle; not a
                 workload of BENCHMARK.json, because a known race in the
                 engine fails a varying share of its solves-by-handle
  dynamic-churn  DynamicMatching::apply over a 50/50 churn stream, n = 16384

--trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
untraced and then traced, and prints the per-layer metrics, writing the
traced spans to <build>/spans/<workload>-<seed>.json. The last line of stdout
is the JSON result; lines before it starting with '#' are notes (pinned
knobs with the CPU count, sample counts, the largest layer). The default
seed is 1. --small selects the reduced sizes the benchmark's own tests use.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-rmat", "batch-road", "service-read", "service-mixed",
             "dynamic-churn")
BUILD_JOBS = "3"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "driver.hpp")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", BUILD_JOBS,
                  "--target", "mcm_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    cmd = [os.path.join(out_dir, "mcm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
