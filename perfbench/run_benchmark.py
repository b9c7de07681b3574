#!/usr/bin/env python3
"""Repeat the memif benchmark and check that its repetitions agree.

    python3 perfbench/run_benchmark.py --reps 5 [--workloads a,b]
        [--seconds S] [--seed N] [--trace] [--out results.json]
    python3 perfbench/run_benchmark.py --compare base.json change.json

Each repetition runs every workload in its own memif_bench process, in
forward order on even reps and reverse order on odd ones, all with the
same seed. For every metric it prints the median and quartiles over the
reps. It exits non-zero when a run fails its own checks, when a
virtual-time metric differs between reps (the simulator is
deterministic, so any difference is a bug), or when a host-time metric's
interquartile range, as a share of its median, exceeds the bound
BENCHMARK.json gives it.

--compare reads two --out files (say, the parent commit and a change)
and applies BENCHMARK.json's bounds workload by workload: it exits
non-zero when a change's median is worse than the base's by more than
the metric's bound.
"""
import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build() and run_bench() live there)

# Workloads of memif_bench. checker_sweep is not in BENCHMARK.json: it has
# no per-request latency, and its virtual numbers do not depend on the
# seed, so it only makes sense repeated with one seed, as here.
ALL_WORKLOADS = ["small_migrate", "large_replicate", "tenant_mix",
                 "checker_sweep"]

# Metrics measured on the host clock; every other metric is virtual time
# (or a count) and must repeat exactly for a given seed.
HOST_METRICS = {"host_req_per_s", "setup_s", "peak_rss_mb",
                "sim.host_ns_per_event", "sim.run_host_s",
                "sim.trace_overhead_frac"}


def is_host(name):
    return name in HOST_METRICS or (name.startswith("check.") and
                                    name != "check.movs_per_run")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    """(median, q1, q3) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def run_reps(args, spec):
    workloads = args.workloads.split(",") if args.workloads else ALL_WORKLOADS
    unknown = set(workloads) - set(ALL_WORKLOADS)
    if unknown:
        sys.exit(f"run_benchmark.py: unknown workloads {sorted(unknown)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    run.build()
    results = {w: [] for w in workloads}
    trace_dir = os.path.join(run.ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    for rep in range(args.reps):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for w in order:
            trace = os.path.join(trace_dir, f"{w}-rep{rep}.json") \
                if args.trace else None
            res = run.run_bench(w, args.seed, seconds, trace)
            print(f"rep {rep} {w}: correct={res['correct']} "
                  f"rounds={res['rounds']}+{res['traced_rounds']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr)
            results[w].append(res)
    return {"seed": args.seed, "seconds": seconds, "results": results}


def report(data, spec):
    """Print the summary; return the list of problems found."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    for w, reps in data["results"].items():
        print(f"\n== {w} ({len(reps)} reps, seed {data['seed']}, "
              f"{data['seconds']} s each)")
        for i, r in enumerate(reps):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} rep {i}: correct={r['correct']} "
                                f"failed={r['failed']} {r['error']}")
        print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'iqr/med':>8s}  unit")
        for name, first in reps[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in reps]
            med, q1, q3 = summarize(vals)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if not is_host(name) and len(set(vals)) > 1:
                flag = "  VIRTUAL METRIC DIFFERS"
                problems.append(f"{w}: virtual metric {name} differs "
                                f"between reps: {vals}")
            elif is_host(name) and name in bounds and name != "setup_s" \
                    and spread > bounds[name]:
                flag = f"  SPREAD > BOUND {bounds[name]}"
                problems.append(f"{w}: {name} spread {spread:.1%} exceeds "
                                f"its bound {bounds[name]:.0%}")
            print(f"{name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.2%}  {first['unit']}{flag}")
    return problems


def compare(base, change, spec):
    """Medians of @p change against @p base, workload by workload."""
    problems = []
    for w in base["results"]:
        if w not in change["results"]:
            continue
        print(f"\n== {w}")
        print(f"{'metric':20s} {'base':>14s} {'change':>14s} {'worse':>8s} "
              f"{'bound':>6s}")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in base["results"][w])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in change["results"][w])
            if a == 0:
                print(f"{name:20s} {a:14.6g} {b:14.6g} {'-':>8s}")
                continue
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  REGRESSION" if worse > m["bound"] else ""
            if flag:
                problems.append(f"{w}: {name} worse by {worse:.2%} "
                                f"(bound {m['bound']:.0%})")
            print(f"{name:20s} {a:14.6g} {b:14.6g} {worse:8.2%} "
                  f"{m['bound']:6.0%}{flag}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seconds", type=float,
                    help="per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true",
                    help="traced runs: adds the per-layer metrics")
    ap.add_argument("--out", help="save every run's results here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        with open(args.compare[0]) as f:
            base = json.load(f)
        with open(args.compare[1]) as f:
            change = json.load(f)
        problems = compare(base, change, spec)
    else:
        if args.reps < 1:
            sys.exit("run_benchmark.py: --reps must be at least 1")
        data = run_reps(args, spec)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(data, f, indent=1)
        problems = report(data, spec)

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
