"""Machine-speed probe for scaling measured times.

The benchmark machine shares its cores: the same pass can take twice as long
a few minutes later, and every workload slows together.  Raw seconds then
spread more across runs than any bound a regression check can use.  The
probe is a fixed piece of work, independent of ``synthfall``, that mixes
what the workloads spend their time on: text parsing and formatting in the
interpreter, small float32 matmuls with ``tanh`` as in an LSTM step, a BLAS
product and a sort.  The benchmark runs it before and after every pass and
around every set-up, and scales each measured time by ``NOMINAL_S`` over the
probe's time around it, giving seconds at the speed where the probe takes
``NOMINAL_S``.

The probe runs in a helper process of its own, started before ``synthfall``
is imported, so nothing the program does to its own process (BLAS thread
count, heap, imported modules) changes the yardstick it is measured with.
The helper's BLAS keeps its default thread count, as the program's does,
but its worker threads go to sleep right after each call instead of spinning
on a core for a while, which would slow the pass that follows.  The helper's
memory is not part of the benchmark process's peak RSS.

Before each timing the caller waits until its own threads are idle: after a
pass the program's BLAS worker threads keep spinning for a while, and on a
two-core machine they would take a core from the probe.

    python3 synthbench/probe.py     # helper: one timing per input line
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

NOMINAL_S = 0.1
QUIET_CPU_S = 0.002  # process CPU time per 20 ms below which threads count as idle
QUIET_LIMIT_S = 1.0
# OpenBLAS worker threads spin for 2**n cycles before sleeping; 2**4 is the least.
_NO_SPIN = {"OPENBLAS_THREAD_TIMEOUT": "4"}


class Probe:
    """Handle on the helper process; call it for one timing in seconds."""

    def __enter__(self) -> "Probe":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **_NO_SPIN},
        )
        return self

    def __call__(self) -> float:
        deadline = time.perf_counter() + QUIET_LIMIT_S
        while time.perf_counter() < deadline:
            cpu = time.process_time()
            time.sleep(0.02)
            if time.process_time() - cpu < QUIET_CPU_S:
                break
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe helper exited with code {self._proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    text = "".join(f"{x:.6f};{y:.6f};{z:.6f}\n" for x, y, z in rng.normal(size=(8000, 3)))
    small = (rng.random((64, 64)) / 64).astype(np.float32)
    state = rng.random((64, 64)).astype(np.float32)
    large = rng.random((400, 384))
    values = rng.random(200_000)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        rows = [[float(v) for v in line.split(";")] for line in text.splitlines()]
        "".join(f"{x:.6f};{y:.6f};{z:.6f}\n" for x, y, z in rows)
        h = state
        for _ in range(600):
            h = np.tanh(h @ small)
        for _ in range(8):
            (large @ large.T).sum()
        for _ in range(5):
            np.sort(values)
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    _serve()
