#!/usr/bin/env python3
"""Quick self-test of memif_bench (ctest: memif_bench_selftest).

    python3 perfbench/selftest.py <path/to/memif_bench>

Runs every workload once at MEMIF_BENCH_QUICK size, traced (the checker
builds its own machines, so it has no traced rounds), and checks:
the result is JSON and names every metric BENCHMARK.json lists (the end-
to-end ones for checker_sweep, which BENCHMARK.json does not list); the
run passed its own checks, which include traced rounds agreeing with
untraced ones bit for bit and every traced request's stages adding up
to its latency; the stage shares sum to 1; and the Chrome trace loads.
No numbers are pinned, so changes that move metrics never edit this.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    listed = [w["name"] for w in spec["workloads"]]
    env = dict(os.environ, MEMIF_BENCH_QUICK="1")
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in listed + ["checker_sweep"]:
            trace = os.path.join(tmp, f"{w}.json")
            out = subprocess.run(
                [binary, "--workload", w, "--seed", "1", "--seconds", "0",
                 "--trace", trace],
                stdout=subprocess.PIPE, env=env, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            metrics = res["metrics"]
            if not res["correct"] or res["failed"]:
                errors.append(f"{w}: {res['error'] or 'failed requests'}")
            wanted = e2e + (layer if w in listed else [])
            missing = [n for n in wanted if n not in metrics]
            if missing:
                errors.append(f"{w}: metrics missing: {missing}")
            with open(trace) as f:
                events = json.load(f)["traceEvents"]
            if w in listed:
                if res["traced_rounds"] < 1:
                    errors.append(f"{w}: no traced round ran")
                shares = sum(v["value"] for n, v in metrics.items()
                             if n.startswith("stage.") and
                             n.endswith("_frac"))
                if abs(shares - 1.0) > 1e-9:
                    errors.append(f"{w}: stage shares sum to {shares}")
                if not any(e.get("ph") == "X" and e.get("pid") == 1
                           for e in events):
                    errors.append(f"{w}: Chrome trace has no stage spans")
            print(f"{w}: ok ({res['attempted']} requests, "
                  f"{len(events)} trace events)")
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
