#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe and bin/hoard_trace.exe with dune into
.bench_build, runs the benchmark, and (with --trace 1) validates the
Perfetto trace it wrote with `hoard_trace check-json --expect trace`.
The metric names and units printed must be exactly the ones
BENCHMARK.json declares for the mode. The last line of standard output
is the result: one JSON object with the keys correct, attempted, failed
and metrics. Progress and build output go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        die("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    except OSError as e:
        die("cannot run %s: %s" % (cmd[0], e))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    # The benchmark builds the program from the checkout it runs in.
    for needed in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(needed):
            die("%s not found: run from the root of a repository checkout" % needed)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    trace_exe = os.path.join(BUILD_DIR, "default", "bin", "hoard_trace.exe")
    build = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/perfbench.exe", "./bin/hoard_trace.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        die("build failed")

    out_dir = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    bench = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out_dir],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = bench.stdout.splitlines()
    if bench.returncode != 0 or not lines:
        sys.stderr.write(bench.stdout)
        die("benchmark exited with code %d" % bench.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        die("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(declared.items()) - set(got.items())),
            sorted(set(got.items()) - set(declared.items()))))

    if args.trace:
        trace_file = os.path.join(out_dir, "perfbench-%s.trace.json" % args.workload)
        check = run([trace_exe, "check-json", trace_file, "--expect", "trace"],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(check.stdout.strip())
        if check.returncode != 0:
            print("PROBLEM: the trace file failed validation")
            result["correct"] = False

    print(json.dumps(result))


if __name__ == "__main__":
    main()
