#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the placement libraries and the
benchmark driver (perfbench/main.cpp) in Release mode under the build
directory ($CARGO_TARGET_DIR, default .bench_build), then runs one workload
and relays its output; the last stdout line is the JSON result. With
--trace 1 the recorded spans are also written to
<build dir>/spans/<workload>-seed<n>.json.

Workloads, metrics and bounds are declared in BENCHMARK.json.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("placement sources (src/) not found next to perfbench/")
    cfg = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cfg):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=subprocess.DEVNULL)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", build_dir, "--target",
                        "mth_perfbench", "-j", jobs], stdout=subprocess.DEVNULL)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "mth_perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale-factor", default="1",
                    help="multiplies the workload's design scale (self-test)")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale-factor", args.scale_factor]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
