#!/usr/bin/env python3
"""Build and run the memif benchmark for one workload.

    python3 perfbench/run.py --workload small_migrate --seed 7 \
        --seconds 20 --trace 0

Builds perfbench/ (and the simulator sources it needs) into .bench_build/
at the repository root, runs memif_bench, and prints one JSON object as
the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (the traced run also writes a Chrome
trace to .bench_build/traces/). Build output goes to stderr. Exits
non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "memif_perfbench")
BINARY = os.path.join(BUILD, "memif_bench")
BUILD_JOBS = "4"


def build():
    """Configure and build memif_bench (both incremental); output to
    stderr."""
    subprocess.run(["cmake", "-S", PACKAGE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "memif_bench",
                    "-j", BUILD_JOBS], stdout=sys.stderr, check=True)


def run_bench(workload, seed, seconds, trace_file=None, timeout=None):
    """Run memif_bench once and return its JSON result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_file:
        cmd += ["--trace", trace_file]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                         timeout=timeout, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
        trace_file = None
        if args.trace:
            trace_dir = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_file = os.path.join(
                trace_dir, f"{args.workload}-{args.seed}.json")
        res = run_bench(args.workload, args.seed, args.seconds, trace_file,
                        timeout=args.seconds * 3 + 90)
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        sys.exit(f"run.py: {e}")

    if res["error"]:
        print(f"run.py: {res['error']}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None:
            sys.exit(f"run.py: memif_bench did not report {m['name']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
