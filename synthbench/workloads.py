"""The three benchmark workloads.

Each workload builds its seeded inputs (untimed), sets up (timed as
``setup_s``), then runs passes.  A pass is one unit of the work a user waits
for, sized to about a second or two so that a run holds many passes and its
median shrugs off a slow stretch on a shared machine.  Pass ``i`` works on
input group ``i % groups``; every group's first output is checked against
independent oracles after the measurement ends, and every later pass over
the same group must reproduce that output byte for byte.  Every function of
the program is looked up through its module at call time, so a traced pass
goes through the tracer's wrappers.

An operation, the unit of ``attempted`` and ``failed``, is one experiment
iteration, one alignment comparison or one file conversion.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fixtures

WINDOW = 128
STRIDE = 10


@dataclass
class PassOutput:
    """What one pass produced: items of work done, the seconds of the span
    they are counted over (None for the whole pass), one comparable value per
    operation, and whatever the oracle check needs."""

    items: float
    ops: list
    extra: dict = field(default_factory=dict)
    items_s: float | None = None


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Experiment:
    """``synthfall experiment`` on the acceptance-smoke fixture: one
    iteration of split, mix, scale, train and evaluate per pass."""

    name = "experiment"
    items_name = "train_windows_per_s"
    groups = 1
    min_f1 = 0.95
    # patience == max_epochs keeps the work per pass independent of the seed;
    # early stopping would vary the epoch count with the inputs.
    epochs = 3

    def build(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.real, self.gen = fixtures.build_experiment(root, seed)

    def setup(self, sf) -> None:
        self.config = sf.harness.ExperimentConfig.from_dict({
            "real_manifest": str(self.real),
            "synthetic_manifests": [str(self.gen)],
            "seed": self.seed,
            "window": WINDOW, "stride": STRIDE,
            "mix": [0.6, 0.2, 0.2], "split_sizes": [8, 2, 2],
            "iterations": 1, "hidden_size": 64, "dense_units": 64,
            "train": {"max_epochs": self.epochs, "patience": self.epochs},
        })
        sf.ingest.catalog_dataset(self.real)
        sf.ingest.catalog_dataset(self.gen)

    def run_pass(self, sf, index: int, out_dir: Path) -> PassOutput:
        # Throughput is per second of training: time the calls to ``train``
        # where the harness looks it up.  If a refactor removes that name the
        # whole pass is the span.
        train = getattr(sf.harness, "train", None)
        spent = []

        def timed_train(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return train(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - t0)

        if train is not None:
            sf.harness.train = timed_train
        try:
            report = sf.harness.run_experiment(self.config)
        finally:
            if train is not None:
                sf.harness.train = train
        (path,) = sf.harness.emit_report(report, "json", out_dir)
        cfg = self.config.train
        items = 0.0
        for it in report.iterations:
            epochs = cfg.max_epochs if it.stop_reason == "max_epochs" else it.best_epoch + cfg.patience + 1
            items += it.train_size * epochs
        digest = _digest(path.read_bytes())
        return PassOutput(items=items, ops=[digest] * len(report.iterations),
                          extra={"mean_f1": report.mean_f1}, items_s=sum(spent) if spent else None)

    def verify(self, group: int, first: PassOutput) -> list[tuple[int | None, str]]:
        problems = []
        if len(first.ops) != self.config.iterations:
            problems.append((None, f"report has {len(first.ops)} iterations, not {self.config.iterations}"))
        if not first.extra["mean_f1"] >= self.min_f1:
            problems.append((None, f"mean_f1 {first.extra['mean_f1']} < {self.min_f1}"))
        return problems


class Align:
    """``synthfall align`` of one real set against three generators: one
    comparison per pass, the generators in turn."""

    name = "align"
    items_name = "aligned_windows_per_s"
    groups = len(fixtures.ALIGN_COPY_FRACTIONS)
    k = 5

    def build(self, root: Path, seed: int) -> None:
        self.real, self.gens = fixtures.build_align(root, seed)
        self._radii = None

    def setup(self, sf) -> None:
        self.options = sf.harness.AlignmentOptions(window=WINDOW, stride=STRIDE, k=self.k)
        for manifest in (self.real, *self.gens):
            sf.ingest.catalog_dataset(manifest)

    def run_pass(self, sf, index: int, out_dir: Path) -> PassOutput:
        report = sf.harness.run_alignment(self.real, self.gens[index % self.groups], self.options)
        paths = sf.harness.emit_report(report, "json", out_dir)
        items = (report.ks_x.n + report.ks_x.m) / WINDOW
        digest = _digest(b"".join(p.read_bytes() for p in paths))
        return PassOutput(items=items, ops=[digest], extra={"report": report})

    def verify(self, group: int, first: PassOutput) -> list[tuple[int | None, str]]:
        from scipy.spatial import cKDTree
        from scipy.stats import ks_2samp

        real = _fall_windows(self.real)
        flat = real.reshape(len(real), -1)
        if self._radii is None:
            # Distance to the k-th nearest *other* real window: the query's
            # nearest hit is the window itself.
            self._radii = cKDTree(flat).query(flat, k=self.k + 1, workers=2)[0][:, self.k]
        radii = self._radii
        gen = self.gens[group]
        syn = _fall_windows(gen)
        report = first.extra["report"]
        problems = []
        nearest = cKDTree(syn.reshape(len(syn), -1)).query(flat, k=1, workers=2)[0]
        # Bracket the oracle by a relative 1e-9 on the radius so rounding in
        # either distance computation cannot decide a tie.
        lo = float(np.mean(nearest <= radii * (1 - 1e-9)))
        hi = float(np.mean(nearest <= radii * (1 + 1e-9)))
        if not lo <= report.coverage <= hi:
            problems.append((0, f"{gen.stem}: coverage {report.coverage} outside oracle [{lo}, {hi}]"))
        if not 0.0 < report.coverage < 1.0:
            problems.append((0, f"{gen.stem}: coverage {report.coverage} not strictly inside (0, 1)"))
        # KS D is invariant under the shared z-scoring run_alignment applies,
        # so the oracle runs on the raw values.
        for axis, ks in enumerate((report.ks_x, report.ks_y, report.ks_z)):
            r, s = real[:, :, axis].ravel(), syn[:, :, axis].ravel()
            expect = ks_2samp(r, s).statistic
            if abs(ks.statistic - expect) > 1e-12 or (ks.n, ks.m) != (r.size, s.size):
                problems.append((0, f"{gen.stem}: KS axis {axis} D={ks.statistic} n={ks.n} m={ks.m}, oracle D={expect}"))
            if not 0.0 < ks.statistic < 1.0:
                problems.append((0, f"{gen.stem}: KS axis {axis} D={ks.statistic} not strictly inside (0, 1)"))
        if not 0.0 <= report.jsd <= 1.0:
            problems.append((0, f"{gen.stem}: JSD {report.jsd} outside [0, 1]"))
        return problems


def _fall_windows(manifest: Path) -> np.ndarray:
    """(N, W, 3) fall windows of a manifest, read and cut with numpy alone."""
    out = []
    for entry in json.loads(manifest.read_text("utf-8")):
        if entry["activity"] != "fall":
            continue
        values = np.loadtxt(manifest.parent / entry["path"], delimiter=";", skiprows=1, ndmin=2)
        cut = np.lib.stride_tricks.sliding_window_view(values, WINDOW, axis=0)[::STRIDE]
        out.append(np.swapaxes(cut, 1, 2))
    return np.concatenate(out)


# Body-model joint per placement, as documented for the 22-joint skeleton.
_JOINT = {"left_wrist": 20, "right_wrist": 21, "waist_pelvis": 0, "left_foot": 10, "right_hip": 2}


class Convert:
    """Generator output path: motion arrays -> accelerometer CSVs ->
    manifest -> read back and windowed.  400 inputs in four batches of 100,
    one batch per pass."""

    name = "convert"
    items_name = "converted_samples_per_s"
    groups = 4
    files = 400
    frame_rate = 46.0

    def build(self, root: Path, seed: int) -> None:
        self.inputs = fixtures.build_convert(root, seed, files=self.files)

    def setup(self, sf) -> None:
        self.placements = [sf.kinematics.SensorPlacement(p) for _, p in self.inputs]

    def _batch(self, group: int):
        size = self.files // self.groups
        span = slice(group * size, (group + 1) * size)
        return list(zip(self.inputs[span], self.placements[span]))

    def run_pass(self, sf, index: int, out_dir: Path) -> PassOutput:
        out_dir.mkdir(parents=True, exist_ok=True)
        written, entries = [], []
        for (npy, _), placement in self._batch(index % self.groups):
            traj = sf.ingest.read_motion_array(npy.read_bytes(), frame_rate=self.frame_rate)
            series = sf.kinematics.differentiate_to_accel(
                sf.kinematics.extract_joint(traj, placement), subject_id=npy.stem,
            )
            csv = out_dir / f"{npy.stem}.csv"
            data = sf.ingest.write_accel_csv(series)
            csv.write_bytes(data)
            written.append((series.samples, _digest(data)))
            entries.append({
                "subject": npy.stem, "activity": "fall", "path": csv.name,
                "rate_hz": series.sampling_rate, "placement": placement.value,
                "provenance": "synthetic",
            })
        manifest = out_dir / "manifest.json"
        manifest.write_text(json.dumps(entries), "utf-8")
        ops, read_back = [], []
        for entry, (samples, digest) in zip(sf.ingest.catalog_dataset(manifest).entries, written):
            series = sf.ingest.load_entry(entry)
            windows = sf.windowing.slide_windows(series, WINDOW, STRIDE)
            n = len(series)
            ops.append((digest, n == len(samples) and len(windows) == (n - WINDOW) // STRIDE + 1))
            read_back.append(series.samples)
        items = float(sum(len(s) for s, _ in written))
        return PassOutput(items=items, ops=ops, extra={"written": written, "read_back": read_back})

    def verify(self, group: int, first: PassOutput) -> list[tuple[int | None, str]]:
        problems = []
        dt = 1.0 / self.frame_rate
        for op, (((npy, _), placement), (samples, _), back, (_, ok)) in enumerate(zip(
            self._batch(group), first.extra["written"], first.extra["read_back"], first.ops,
        )):
            joint = np.load(npy).astype(np.float64)[:, _JOINT[placement.value], :]
            expect = (joint[1:] - joint[:-1]) / (dt * dt)
            if samples.shape != expect.shape or not np.allclose(samples, expect, rtol=1e-12, atol=1e-9):
                problems.append((op, f"{npy.name}: acceleration differs from the first-difference formula"))
            rounded = np.array([float(f"{v:.6f}") for v in samples.ravel()]).reshape(samples.shape)
            if not np.array_equal(back, rounded):
                problems.append((op, f"{npy.name}: read-back samples differ from written values rounded to 6 decimals"))
            if not ok:
                problems.append((op, f"{npy.name}: window count is not floor((N - W) / stride) + 1"))
        return problems


WORKLOADS = {w.name: w for w in (Experiment, Align, Convert)}
