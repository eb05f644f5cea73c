"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import build_dataset, build_synthetic_manifest, window_set
from synthfall.classifier import init_model, loss_and_gradients
from synthfall.cli import main
from synthfall.ingest import VARIANT_TAGS, generate_prompt_variants, load_prompt_catalog
from synthfall.kinematics import AccelSeries, PositionSeries, differentiate_to_accel
from synthfall.metrics import (
    DensityCurve,
    coverage,
    jsd,
    ks_two_sample,
    percent_delta,
)
from synthfall.windowing import MixSpec, compose_training_mix, slide_windows


def _report(capsys, outcome: bool, number: int, name: str, elapsed: float, limit: float):
    status = "PASS" if outcome else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d} {name}: {status} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert outcome, f"criterion {number} ({name}) failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def _accel(n, seed=0):
    rng = np.random.default_rng(seed)
    return AccelSeries(samples=rng.normal(size=(n, 3)), sampling_rate=32.0)


def test_criterion_01_window_arithmetic(capsys):
    start = time.monotonic()
    ok = True
    windows = slide_windows(_accel(138), 128, 10)
    ok &= len(windows) == 2
    ok &= np.array_equal(windows.values[0, 10:], windows.values[1, :118])  # 118 shared samples
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 300))
        width = int(rng.integers(1, 160))
        stride = int(rng.integers(1, 40))
        naive = 0
        s = 0
        while s + width <= n:
            naive += 1
            s += stride
        ok &= len(slide_windows(_accel(n), width, stride)) == naive
        if not ok:
            break
    _report(capsys, ok, 1, "window arithmetic", time.monotonic() - start, 1.0)


# Reference (baseline, augmented, reported %) triples; every row's reported
# percentage is arithmetically consistent with its F1 pair.
DELTA_CELLS = [
    (0.740, 0.680, -8.11), (0.740, 0.710, -4.05), (0.740, 0.648, -12.43),
    (0.740, 0.636, -14.05), (0.740, 0.662, -10.54), (0.740, 0.578, -21.89),
    (0.740, 0.626, -15.41), (0.740, 0.588, -20.54), (0.740, 0.620, -16.22),
    (0.778, 0.854, 9.76), (0.778, 0.902, 15.94), (0.778, 0.794, 2.06),
    (0.778, 0.848, 8.99), (0.778, 0.822, 5.65), (0.778, 0.898, 15.43),
    (0.542, 0.652, 20.30), (0.542, 0.630, 16.23), (0.542, 0.698, 28.78),
    (0.542, 0.850, 56.83), (0.542, 0.575, 6.09), (0.542, 0.702, 29.52),
    (0.542, 0.580, 7.01), (0.542, 0.756, 39.48),
    (0.732, 0.748, 2.19), (0.732, 0.742, 1.37), (0.732, 0.758, 3.55),
    (0.732, 0.784, 7.10), (0.732, 0.782, 6.83), (0.732, 0.680, -7.10),
]


def test_criterion_02_delta_arithmetic(capsys):
    start = time.monotonic()
    ok = len(DELTA_CELLS) >= 10
    for baseline, augmented, printed in DELTA_CELLS:
        ok &= abs(percent_delta(baseline, augmented) - printed) <= 0.01
    _report(capsys, ok, 2, "percent-delta arithmetic", time.monotonic() - start, 1.0)


def test_criterion_03_kinematics(capsys):
    start = time.monotonic()
    ok = True
    frames = 40
    samples = np.zeros((frames, 3))
    samples[:, 0] = np.arange(frames) * 0.1
    accel = differentiate_to_accel(PositionSeries(samples=samples, dt=1.0 / 46.0))
    analytic = 0.1 * 46.0**2
    ok &= np.max(np.abs(accel.samples[:, 0] - analytic) / analytic) < 1e-9
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = rng.normal(size=(8, 3))
        q = rng.normal(size=(8, 3))
        a, b = rng.uniform(-2, 2, size=2)
        lhs = differentiate_to_accel(PositionSeries(samples=a * p + b * q, dt=1.0)).samples
        rhs = a * differentiate_to_accel(PositionSeries(samples=p, dt=1.0)).samples \
            + b * differentiate_to_accel(PositionSeries(samples=q, dt=1.0)).samples
        ok &= np.max(np.abs(lhs - rhs)) < 1e-12
        offset = rng.normal(size=3)
        shifted = differentiate_to_accel(PositionSeries(samples=p + offset, dt=1.0)).samples
        base = differentiate_to_accel(PositionSeries(samples=p, dt=1.0)).samples
        ok &= np.max(np.abs(shifted - base)) < 1e-9
        if not ok:
            break
    _report(capsys, ok, 3, "kinematics ramp + properties", time.monotonic() - start, 1.0)


def _gap_oracle(a, b):
    best = 0.0
    for t in a + b:
        fa = sum(1 for v in a if v <= t) / len(a)
        fb = sum(1 for v in b if v <= t) / len(b)
        best = max(best, abs(fa - fb))
    return best


def test_criterion_04_ks_oracle(capsys):
    start = time.monotonic()
    ok = True
    ok &= ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).p_value == 1.0
    ok &= ks_two_sample([0.0, 0.0], [1.0, 1.0]).statistic == 1.0
    rng = np.random.default_rng(11)
    for total in range(2, 13):
        for n in range(1, total):
            m = total - n
            a = list(rng.normal(size=n))
            b = list(rng.normal(size=m))
            res = ks_two_sample(a, b)
            ok &= res.statistic == _gap_oracle(a, b)
            exact = ks_two_sample(a, b, exact=True)
            pooled = a + b
            observed = _gap_oracle(a, b)
            hits = 0
            count = 0
            for pick in combinations(range(total), n):
                ga = [pooled[i] for i in pick]
                gb = [pooled[i] for i in range(total) if i not in pick]
                if _gap_oracle(ga, gb) >= observed:
                    hits += 1
                count += 1
            ok &= exact.p_value == hits / count
            if not ok:
                break
    _report(capsys, ok, 4, "KS exact-enumeration oracle", time.monotonic() - start, 10.0)


def test_criterion_05_jsd(capsys):
    start = time.monotonic()
    ok = True
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        bins = int(rng.integers(2, 12))
        centers = np.arange(bins) + 0.5
        p = DensityCurve(bin_centers=centers, densities=rng.dirichlet(np.ones(bins)))
        value = jsd(p, DensityCurve(bin_centers=centers, densities=rng.dirichlet(np.ones(bins))))
        ok &= -1e-12 <= value <= 1.0 + 1e-12
        if not ok:
            break
    centers = np.array([0.5, 1.5])
    p = DensityCurve(bin_centers=centers, densities=np.array([0.5, 0.5]))
    q = DensityCurve(bin_centers=centers, densities=np.array([1.0, 0.0]))
    ok &= jsd(p, p) <= 1e-12
    ok &= abs(jsd(p, q) - 0.311278) < 1e-4
    _report(capsys, ok, 5, "JSD bounds + hand case", time.monotonic() - start, 5.0)


def _coverage_oracle(real, synthetic, k):
    n = len(real)
    covered = 0
    for i in range(n):
        dists = sorted(math.dist(real[i], real[j]) for j in range(n) if j != i)
        radius = dists[k - 1]
        if any(math.dist(real[i], s) <= radius for s in synthetic):
            covered += 1
    return covered / n


def test_criterion_06_coverage_oracle(capsys):
    start = time.monotonic()
    ok = True
    rng = np.random.default_rng(17)
    base = rng.normal(size=(25, 6))
    ok &= coverage(base, base.copy(), k=5) == 1.0
    ok &= coverage(base, base + 1000.0, k=5) == 0.0
    for _ in range(200):
        k = int(rng.choice([1, 3, 5]))
        n = int(rng.integers(k + 2, 51))
        m = int(rng.integers(1, 51))
        real = rng.normal(size=(n, 6))
        synthetic = rng.normal(size=(m, 6))
        ok &= coverage(real, synthetic, k=k) == _coverage_oracle(real.tolist(), synthetic.tolist(), k)
        if not ok:
            break
    _report(capsys, ok, 6, "coverage brute-force oracle", time.monotonic() - start, 30.0)


def test_criterion_07_gradient_check(capsys):
    start = time.monotonic()
    ok = True
    h = 1e-4
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        model = init_model(seed, hidden_size=6, dense_units=6, dtype=np.float64)
        batch = rng.normal(size=(4, 16, 3))
        labels = rng.integers(0, 2, size=4)
        _, grads = loss_and_gradients(model.copy(), batch, labels)
        for name, tensor in model.trainable().items():
            flat_size = tensor.size
            for j in range(flat_size):
                plus = model.copy()
                getattr(plus, name).ravel()[j] += h
                minus = model.copy()
                getattr(minus, name).ravel()[j] -= h
                lp, _ = loss_and_gradients(plus, batch, labels)
                lm, _ = loss_and_gradients(minus, batch, labels)
                fd = (lp - lm) / (2 * h)
                g = grads[name].ravel()[j]
                rel = abs(g - fd) / max(abs(g), abs(fd), 1e-7)
                if rel >= 1e-4:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    _report(capsys, ok, 7, "BPTT gradients vs finite differences", time.monotonic() - start, 60.0)


def test_criterion_08_end_to_end_smoke(tmp_path, capsys):
    start = time.monotonic()
    real = build_dataset(tmp_path, subjects=12, series_len=300, seed=0)
    synthetic = build_synthetic_manifest(tmp_path, source="gen", series=12, series_len=300, seed=100)
    args = [
        "experiment",
        "--real-manifest", str(real),
        "--synthetic-manifest", str(synthetic),
        "--seed", "77",
        "--iterations", "5",
        "--window", "128", "--stride", "10",
        "--mix", "0.6,0.2,0.2",
        "--hidden-size", "64", "--dense-units", "64",
        "--max-epochs", "30", "--patience", "8",
    ]
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert main(args + ["--out", str(out_a)]) == 0
    (report_a,) = out_a.glob("report_*.json")
    payload = json.loads(report_a.read_text())
    assert main(args + ["--out", str(out_b)]) == 0
    (report_b,) = out_b.glob("report_*.json")
    elapsed = time.monotonic() - start
    ok = len(payload["iterations"]) == 5
    ok &= payload["mean_f1"] >= 0.95
    ok &= report_a.read_bytes() == report_b.read_bytes()
    _report(capsys, ok, 8, "end-to-end experiment smoke", elapsed, 300.0)


def test_criterion_09_mix_law(capsys):
    start = time.monotonic()
    ok = True
    rng = np.random.default_rng(23)
    mega = {
        name: window_set(
            values=np.zeros((130, 2, 3)), labels=np.full(130, label),
            subjects=[f"{name}{i}" for i in range(130)],
        )
        for name, label in (("a", 0), ("r", 1), ("g", 1))
    }
    for spec in (MixSpec(0.6, 0.2, 0.2), MixSpec(0.5, 0.1, 0.4)):
        for _ in range(250):
            sizes = [int(rng.integers(1, 121)) for _ in range(3)]
            out = compose_training_mix(
                *(mega[name].take(np.arange(size)) for name, size in zip("arg", sizes)),
                spec, seed=int(rng.integers(0, 10_000)),
            )
            total = len(out)
            counts = {
                "a": sum(1 for s in out.subjects if s.startswith("a")),
                "r": sum(1 for s in out.subjects if s.startswith("r")),
                "g": sum(1 for s in out.subjects if s.startswith("g")),
            }
            for frac, name in zip(spec.as_tuple(), ("a", "r", "g")):
                ok &= abs(counts[name] - frac * total) < 1.0
            if not ok:
                break
    _report(capsys, ok, 9, "mix composition law", time.monotonic() - start, 5.0)


def test_criterion_10_prompt_catalog(capsys):
    start = time.monotonic()
    catalog = load_prompt_catalog()
    ok = len(catalog) == 50
    for subset in combinations(VARIANT_TAGS, 7):
        out = generate_prompt_variants(catalog, subset)
        ok &= len(out) == 350 and len(set(out)) == 350
        if not ok:
            break
    _report(capsys, ok, 10, "prompt catalog permutations", time.monotonic() - start, 1.0)
