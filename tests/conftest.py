"""Shared fixture builders: desk-scale datasets written as CSV + manifest."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from synthfall.ingest import write_accel_csv
from synthfall.kinematics import AccelSeries, ActivityLabel, Provenance
from synthfall.windowing import WindowSet


def make_series(rng, length: int, offset: float, scale: float = 0.3) -> np.ndarray:
    return rng.normal(offset, scale, size=(length, 3))


def build_dataset(
    root: Path,
    *,
    subjects: int = 12,
    series_len: int = 300,
    rate_hz: float = 32.0,
    fall_offset: float = 2.0,
    adl_per_subject: int = 1,
    falls_per_subject: int = 1,
    seed: int = 0,
    placement: str = "left_wrist",
    name: str = "real",
) -> Path:
    """Write a two-cluster dataset (low-amplitude ADLs, offset falls) and its
    manifest; returns the manifest path."""
    rng = np.random.default_rng(seed)
    data_dir = root / name
    data_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in range(subjects):
        sid = f"subj{s:02d}"
        for kind, count, offset in (("adl", adl_per_subject, 0.0), ("fall", falls_per_subject, fall_offset)):
            for j in range(count):
                values = make_series(rng, series_len, offset)
                fname = f"{sid}_{kind}{j}.csv"
                series = AccelSeries(
                    samples=values, sampling_rate=rate_hz,
                    label=ActivityLabel.FALL if kind == "fall" else ActivityLabel.ADL,
                    provenance=Provenance.REAL, subject_id=sid,
                )
                (data_dir / fname).write_bytes(write_accel_csv(series))
                entries.append({
                    "subject": sid,
                    "activity": kind,
                    "path": f"{name}/{fname}",
                    "rate_hz": rate_hz,
                    "placement": placement,
                    "provenance": "real",
                })
    manifest = root / f"{name}_manifest.json"
    manifest.write_text(json.dumps(entries, indent=1), "utf-8")
    return manifest


def build_synthetic_manifest(
    root: Path,
    *,
    source: str = "gen",
    series: int = 12,
    series_len: int = 300,
    rate_hz: float = 32.0,
    fall_offset: float = 2.0,
    value_shift: float = 0.0,
    seed: int = 100,
    placement: str = "left_wrist",
) -> Path:
    """Write fall-only synthetic data from one generator source."""
    rng = np.random.default_rng(seed)
    data_dir = root / source
    data_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in range(series):
        sid = f"{source}{s:02d}"
        values = make_series(rng, series_len, fall_offset) + value_shift
        fname = f"{sid}_fall.csv"
        acc = AccelSeries(
            samples=values, sampling_rate=rate_hz,
            label=ActivityLabel.FALL, provenance=Provenance.SYNTHETIC, subject_id=sid,
        )
        (data_dir / fname).write_bytes(write_accel_csv(acc))
        entries.append({
            "subject": sid,
            "activity": "fall",
            "path": f"{source}/{fname}",
            "rate_hz": rate_hz,
            "placement": placement,
            "provenance": "synthetic",
        })
    manifest = root / f"{source}_manifest.json"
    manifest.write_text(json.dumps(entries, indent=1), "utf-8")
    return manifest


def window_set(values, labels, subjects) -> WindowSet:
    """A WindowSet of the given (N, W, 3) window values, laid end to end in
    its sample buffer."""
    values = np.asarray(values, dtype=np.float64)
    count, width = values.shape[:2]
    return WindowSet(values.reshape(-1, 3), np.arange(count) * width, width, labels, subjects)


# A well-formed manifest entry (its file is `a.csv`) and NPY header, for
# tests that break one key at a time.
MANIFEST_ENTRY = {
    "subject": "s1", "activity": "fall", "path": "a.csv",
    "rate_hz": 32.0, "placement": "left_wrist", "provenance": "real",
}
NPY_HEADER = {"descr": "<f8", "fortran_order": False, "shape": (2, 22, 3)}


def npy_with_header(header: str) -> bytes:
    """An NPY v1.0 file with the given header text and two float64 frames."""
    text = header.encode("utf-8")
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + bytes(2 * 66 * 8)


@pytest.fixture
def fixture_dataset(tmp_path):
    """(real_manifest, synthetic_manifest) pair over a separable fixture."""
    real = build_dataset(tmp_path, subjects=12, series_len=300, seed=0)
    synthetic = build_synthetic_manifest(tmp_path, source="gen", series=12, seed=100)
    return real, synthetic
