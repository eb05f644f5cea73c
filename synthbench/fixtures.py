"""Seeded input generators for the benchmark workloads.

Everything here depends on numpy alone and never imports ``synthfall``, so
the inputs do not change when the program under test changes.  The same seed
always writes the same bytes.

Accelerometer signals are smooth (exponentially filtered) noise around a
per-class offset: ADLs sit near 0, falls near ``FALL_OFFSET``.  Synthetic
generators mix noisy, time-shifted copies of real falls with fresh falls
drawn from a wider, shifted distribution.  The copied share differs per
generator, so coverage and KS land strictly inside (0, 1) instead of at the
degenerate 0 that i.i.d. noise against overlapping real windows gives.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RATE_HZ = 32.0
PLACEMENTS = ("left_wrist", "right_wrist", "waist_pelvis", "left_foot", "right_hip")
FALL_OFFSET = 2.0
MAX_SHIFT = 40
COPY_NOISE = 0.02
SMOOTH_SAMPLES = 40.0
_SMOOTH = np.exp(-np.arange(240) / SMOOTH_SAMPLES)
_SMOOTH /= np.sqrt(np.sum(_SMOOTH**2))


def smooth_noise(rng: np.random.Generator, length: int, scale: float) -> np.ndarray:
    """(length, 3) noise with unit-variance smoothing, times ``scale``."""
    raw = rng.normal(0.0, 1.0, size=(length + _SMOOTH.size - 1, 3))
    out = np.stack([np.convolve(raw[:, a], _SMOOTH, mode="valid") for a in range(3)], axis=1)
    return scale * out


def write_csv(path: Path, values: np.ndarray) -> None:
    """Accelerometer CSV: ``x;y;z`` header, 6 decimals, LF endings."""
    rows = "".join(f"{x:.6f};{y:.6f};{z:.6f}\n" for x, y, z in values)
    path.write_text("x;y;z\n" + rows, "utf-8")


def _entry(subject: str, activity: str, rel: str, provenance: str) -> dict:
    return {
        "subject": subject, "activity": activity, "path": rel,
        "rate_hz": RATE_HZ, "placement": "left_wrist", "provenance": provenance,
    }


def _write_manifest(path: Path, entries: list[dict]) -> Path:
    path.write_text(json.dumps(entries, indent=1), "utf-8")
    return path


def build_real(root: Path, rng: np.random.Generator, subjects: int, length: int) -> tuple[Path, list[np.ndarray]]:
    """One ADL and one fall recording per subject.

    Returns the manifest and each subject's fall signal, which runs
    ``MAX_SHIFT`` samples past the written recording so generators can copy
    it with a time shift.
    """
    data = root / "real"
    data.mkdir(parents=True, exist_ok=True)
    entries, falls = [], []
    for s in range(subjects):
        sid = f"subj{s:02d}"
        adl = smooth_noise(rng, length, 0.3)
        fall = FALL_OFFSET + smooth_noise(rng, length + MAX_SHIFT, 0.3)
        falls.append(fall)
        for kind, values in (("adl", adl), ("fall", fall[:length])):
            write_csv(data / f"{sid}_{kind}.csv", values)
            entries.append(_entry(sid, kind, f"real/{sid}_{kind}.csv", "real"))
    return _write_manifest(root / "real_manifest.json", entries), falls


def build_generator(
    root: Path, rng: np.random.Generator, name: str, real_falls: list[np.ndarray],
    count: int, length: int, copy_fraction: float,
) -> Path:
    """Fall-only synthetic set: ``copy_fraction`` of it are noisy, shifted
    copies of distinct real falls, the rest fresh falls from a shifted,
    wider distribution."""
    data = root / name
    data.mkdir(parents=True, exist_ok=True)
    copies = int(round(copy_fraction * count))
    sources = rng.choice(len(real_falls), size=copies, replace=False)
    entries = []
    for j in range(count):
        if j < copies:
            shift = int(rng.integers(0, MAX_SHIFT + 1))
            base = real_falls[sources[j]][shift : shift + length]
            values = base + rng.normal(0.0, COPY_NOISE, size=base.shape)
        else:
            values = FALL_OFFSET + 1.5 + smooth_noise(rng, length, 0.4)
        sid = f"{name}{j:02d}"
        write_csv(data / f"{sid}_fall.csv", values)
        entries.append(_entry(sid, "fall", f"{name}/{sid}_fall.csv", "synthetic"))
    return _write_manifest(root / f"{name}_manifest.json", entries)


def build_experiment(root: Path, seed: int) -> tuple[Path, Path]:
    """Acceptance-smoke shape: 12 subjects x (ADL, fall) x 300 samples, and
    one generator with 12 falls of 300 samples."""
    rng = np.random.default_rng([seed, 1])
    real, falls = build_real(root, rng, subjects=12, length=300)
    gen = build_generator(root, rng, "gen", falls, count=12, length=300, copy_fraction=0.5)
    return real, gen


ALIGN_COPY_FRACTIONS = (0.25, 0.5, 0.75)


def build_align(root: Path, seed: int) -> tuple[Path, list[Path]]:
    """40 subjects x (ADL, fall) x 1000 samples, and three generators of 40
    falls each that copy a different share of the real falls."""
    rng = np.random.default_rng([seed, 2])
    real, falls = build_real(root, rng, subjects=40, length=1000)
    gens = [
        build_generator(root, rng, f"gen{g}", falls, count=40, length=1000, copy_fraction=frac)
        for g, frac in enumerate(ALIGN_COPY_FRACTIONS)
    ]
    return real, gens


MOTION_JOINTS = 22


def build_convert(root: Path, seed: int, files: int = 400, frames: int = 920) -> list[tuple[Path, str]]:
    """``files`` NPY motion arrays (frames x 22 x 3, float32) of smooth
    random-walk joint tracks in metres; returns (path, placement) pairs."""
    rng = np.random.default_rng([seed, 3])
    data = root / "motion"
    data.mkdir(parents=True, exist_ok=True)
    out = []
    for f in range(files):
        start = rng.uniform(-1.0, 1.0, size=(1, MOTION_JOINTS, 3))
        steps = rng.normal(0.0, 0.002, size=(frames, MOTION_JOINTS, 3))
        positions = (start + np.cumsum(steps, axis=0)).astype(np.float32)
        path = data / f"motion{f:03d}.npy"
        np.save(path, positions)
        out.append((path, PLACEMENTS[int(rng.integers(len(PLACEMENTS)))]))
    return out
