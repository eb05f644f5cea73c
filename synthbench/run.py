"""synthfall benchmark.

    python3 synthbench/run.py --workload experiment --seed 1 --seconds 20 --trace 0
    python3 synthbench/run.py --workload all --seed 1 --seconds 20

Workloads (see ``workloads.py``): ``experiment`` trains the LSTM on the
acceptance-smoke fixture, ``align`` compares a real set with three
generators, ``convert`` turns motion arrays into accelerometer CSVs and reads
them back as windows.  ``all`` runs the three, each in its own process, and
prints one table.

A run builds the seeded inputs (untimed), sets up several times (a fresh
import of ``synthfall`` from ``src/`` plus manifest cataloging and config
validation), then runs passes one after another, one client in a closed loop,
until ``--seconds`` have passed (at least two cycles over the workload's
input groups).  After the measurement each group's first pass is checked
against independent oracles and every later pass must reproduce it byte for
byte.

With ``--trace 0`` the result carries the end-to-end metrics.  Times are
scaled by the machine-speed probe of ``probe.py``, run in a helper process
before and after every set-up and every pass; the table also shows them
unscaled.

    wall_s       median seconds of one pass (see ``workloads.py``)
    setup_s      median seconds of one set-up
    peak_rss_mb  process high-water resident memory, MiB, read when the
                 passes end and before the oracles run; it includes the
                 fixture build and the set-ups
    items_per_s  median per-pass throughput: training windows through
                 loss_and_gradients per second spent in ``train``
                 (experiment); real plus synthetic fall windows compared
                 (align) and accelerometer samples written and read back
                 (convert) per second of the pass, so for these two it is a
                 constant over ``wall_s``

With ``--trace 1`` untraced and traced cycles alternate; the result carries
the per-layer metrics of ``tracer.py`` (per traced pass) and the tracing
overhead, median traced minus median untraced pass.  Spans of every traced
pass are written to ``synthbench/_run/traces/``.  The last line of standard output is always the
JSON result; the lines before it are a readable table and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
from probe import NOMINAL_S, Probe
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / "_run"
SETUP_REPEATS = 31
MIN_CYCLES = 2


def import_program():
    """Import ``synthfall`` afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "synthfall" or m.startswith("synthfall.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sf = importlib.import_module("synthfall")
    if Path(sf.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"synthfall imported from {sf.__file__}, not from {SRC}")
    return sf


def environment(seed: int) -> dict:
    """numpy, BLAS and machine facts recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    for line in maps:
        if "openblas" in line and line.endswith(".so"):
            lib = ctypes.CDLL(line.split()[-1])
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
            break
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[workload_name]()
    groups = workload.groups
    work = RUN_DIR / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        with Probe() as probe:
            workload.build(work / "inputs", seed)

            # Each set-up and each pass is scaled by the probe timings just
            # before and just after it.
            before = probe()
            setups, raw_setups = [], []
            for _ in range(SETUP_REPEATS):
                # The modules of the previous import are garbage by now;
                # collect them outside the timed span.
                gc.collect()
                t0 = time.perf_counter()
                sf = import_program()
                workload.setup(sf)
                raw = time.perf_counter() - t0
                after = probe()
                raw_setups.append(raw)
                setups.append(raw * 2 * NOMINAL_S / (before + after))
                before = after

            tracer = tracing.Tracer()
            walls, raw_walls, rates, traced_walls, untraced_walls = [], [], [], [], []
            probes = [before]
            firsts, later = {}, []
            cycle = 0
            start = time.perf_counter()
            while cycle < MIN_CYCLES or time.perf_counter() - start < seconds:
                # Whole cycles over the input groups alternate untraced, traced.
                trace_this = traced and cycle % 2 == 1
                if trace_this:
                    tracer.install()
                for group in range(groups):
                    index = cycle * groups + group
                    out_dir = work / f"pass{index}"
                    if trace_this:
                        span = tracer.open(tracing.PASS_SPAN)
                    t0 = time.perf_counter()
                    try:
                        out = workload.run_pass(sf, index, out_dir)
                    finally:
                        wall = time.perf_counter() - t0
                        if trace_this:
                            tracer.close(span)
                    shutil.rmtree(out_dir, ignore_errors=True)
                    probes.append(probe())
                    scale = 2 * NOMINAL_S / (probes[-2] + probes[-1])
                    walls.append(wall * scale)
                    raw_walls.append(wall)
                    rates.append(out.items / ((wall if out.items_s is None else out.items_s) * scale))
                    (traced_walls if trace_this else untraced_walls).append(wall)
                    # Only each group's first output is kept whole, for the oracles.
                    if cycle == 0:
                        firsts[group] = out
                    else:
                        later.append((group, out.ops))
                if trace_this:
                    tracer.uninstall()
                cycle += 1

        # Read before the oracles run: their scipy imports and k-d trees are
        # the benchmark's memory, not the program's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = {g: workload.verify(g, out) for g, out in firsts.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for group, ops in [(g, out.ops) for g, out in firsts.items()] + later:
        expected = firsts[group].ops
        bad = {op for op, _ in problems[group]}
        for i in range(max(len(ops), len(expected))):
            attempted += 1
            same = i < len(ops) and i < len(expected) and ops[i] == expected[i]
            failed += not same or None in bad or i in bad
    for group_problems in problems.values():
        for _, message in group_problems:
            print(f"check failed: {message}", file=sys.stderr)
    if any(ops != firsts[group].ops for group, ops in later):
        print("check failed: a later pass did not reproduce its group's first output", file=sys.stderr)

    if traced:
        n = len(traced_walls)
        metrics = {
            name: (value, n, tracing.unit_of(name))
            for name, value in tracing.layer_metrics(tracer.spans, tracer.counts, n).items()
        }
        traced_wall = statistics.median(traced_walls)
        untraced_wall = statistics.median(untraced_walls)
        metrics["trace.wall_s"] = (traced_wall, n, "s")
        metrics["trace.untraced_wall_s"] = (untraced_wall, len(untraced_walls), "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, n, "s")
        traces = RUN_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{workload_name}-seed{seed}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}), "utf-8")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), len(walls), "s"),
            "setup_s": (statistics.median(setups), len(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, 1, "MiB"),
            "items_per_s": (statistics.median(rates), len(rates), "1/s"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, _, u) in metrics.items()},
    }
    # Shown in the table only: unscaled times, a ratio that is 0 when all is
    # well and a quality gate are not measurements the result may carry.
    table = dict(metrics)
    table["raw.wall_s"] = (statistics.median(raw_walls), len(raw_walls), "s")
    table["raw.setup_s"] = (statistics.median(raw_setups), len(raw_setups), "s")
    table["probe_s"] = (statistics.median(probes), len(probes), "s")
    table["failed_op_ratio"] = (failed / attempted, attempted, "ratio")
    if "mean_f1" in firsts[0].extra:
        table["mean_f1"] = (firsts[0].extra["mean_f1"], 1, "F1")
    return result, table


def print_table(workload, items_name: str, table: dict) -> None:
    print(f"{'workload':<11} {'metric':<40} {'value':>16} {'unit':<8} n")
    for name, (value, n, unit) in table.items():
        label = f"{name} ({items_name})" if name == "items_per_s" else name
        print(f"{workload:<11} {label:<40} {value:>16.6g} {unit:<8} {n}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit code {proc.returncode}, no result", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0 if all(r["correct"] for r in combined.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "synthfall" / "__init__.py").is_file():
        print(f"no synthfall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    env = environment(args.seed)
    try:
        result, table = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(f"{args.workload}: the program failed; no result", file=sys.stderr)
        return 1
    print(f"env {json.dumps(env, sort_keys=True)}")
    print_table(args.workload, WORKLOADS[args.workload].items_name, table)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
