"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 synthbench/spread.py --runs 10
    python3 synthbench/spread.py --runs 10 --trace-seed 1 --out synthbench/baseline.json

For every workload and end-to-end metric it prints the median of the runs,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  ``--trace-seed`` adds one traced
run per workload for the per-layer table; ``--out`` writes everything as
JSON.  Runs go one at a time, workloads interleaved per seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    units: dict[str, str] = {}
    envs = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in WORKLOADS:
            t0 = time.perf_counter()
            result, envs[workload] = run_once(workload, seed, seconds, 0)
            elapsed = time.perf_counter() - t0
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + "  ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)

    summary = {w: {name: summarize(v) for name, v in metrics.items()} for w, metrics in values.items()}
    print(f"\n{'workload':<11} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} unit")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:<11} {name:<12} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {bounds[name]:>6} {units[name]}{flag}")

    out = {
        "run_seconds": seconds,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "environment": envs,
        "end_to_end": {w: {n: {**s, "unit": units[n]} for n, s in m.items()} for w, m in summary.items()},
    }
    if args.trace_seed is not None:
        out["per_layer"] = {}
        for workload in WORKLOADS:
            result, _ = run_once(workload, args.trace_seed, seconds, 1)
            out["per_layer"][workload] = {"seed": args.trace_seed, "metrics": result["metrics"]}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
