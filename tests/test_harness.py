import functools
import hashlib
import json
import operator
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_dataset, build_synthetic_manifest
from synthfall.classifier import TrainConfig, init_model
from synthfall.cli import build_parser, main
from synthfall import harness, ingest
from synthfall.errors import ConfigError, DataError, NumericError
from synthfall.harness import (
    AlignmentOptions,
    AlignmentReport,
    ExperimentConfig,
    ExperimentReport,
    IterationResult,
    derive_seed,
    emit_report,
    load_report,
    run_alignment,
    run_experiment,
)
from synthfall.ingest import catalog_dataset, load_entry, read_accel_csv, write_accel_csv
from synthfall.kinematics import AccelSeries, ActivityLabel
from synthfall.metrics import (
    COVERAGE_BLOCK,
    DensityCurve,
    KsResult,
    coverage,
    histogram_density,
    jsd,
    knn_radii,
    ks_two_sample,
)
from synthfall.windowing import MixSpec, compose_training_mix, slide_windows, split_subjects

FAST_TRAIN = {"max_epochs": 6, "patience": 6, "batch_size": 64}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FIELD_VALUES = JSON_VALUES | st.fixed_dictionaries(
    {}, optional={f.name: JSON_VALUES for f in fields(TrainConfig)}
)
CONFIG_KEYS = [f.name for f in fields(ExperimentConfig)] + ["mystery"]
REPORT_KEYS = [f.name for f in fields(ExperimentReport)] + ["ks", "jsd", "coverage", "curves", "jsd_per_axis"]

CURVE = DensityCurve(bin_centers=np.array([0.5, 1.5]), densities=np.array([0.6, 0.4]))
ALIGNMENT = AlignmentReport(
    ks_x=KsResult(0.1, 0.9, 5, 5), ks_y=KsResult(0.2, 0.8, 5, 5), ks_z=KsResult(0.3, 0.7, 5, 5),
    jsd=0.12, coverage=0.88, real_curve=CURVE, synthetic_curve=CURVE,
    jsd_per_axis={"x": 0.1, "y": 0.2, "z": 0.3},
)
EXPERIMENT = ExperimentReport(
    fingerprint="0123456789abcdef" * 4,
    config={"seed": 1, "mix": [0.6, 0.2, 0.2]},
    data_sha256="fedcba9876543210" * 4,
    iterations=(IterationResult(0, 1.0, 0.5, 2 / 3, 1, 0, 1, 2, ("s1",), ("s2",), 10, 3, "patience"),),
    mean_precision=1.0, mean_recall=0.5, mean_f1=2 / 3,
)


def json_paths(node, path=()):
    """The path of every value nested in a decoded JSON payload."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def payload_of(report):
    return json.loads(json.dumps(report.to_dict()))


def damaged(report, *path, value=None, drop=False):
    """The JSON payload of ``report`` with the value at ``path`` replaced or dropped."""
    payload = payload_of(report)
    parent = functools.reduce(operator.getitem, path[:-1], payload)
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return payload


# An experiment report as written before reports named their data: no
# data_sha256, and a config that still holds bins, k and train.shuffle.
UNNAMED_DATA_REPORT = dict(
    damaged(EXPERIMENT, "data_sha256", drop=True),
    config={**EXPERIMENT.config, "bins": 100, "k": 5, "train": {"shuffle": True}},
)

MALFORMED_REPORTS = {
    "iterations_int": {"iterations": 5},
    "string": "ks",
    "list": [1, 2],
    "no_mean_f1": damaged(EXPERIMENT, "mean_f1", drop=True),
    "mean_f1_str": damaged(EXPERIMENT, "mean_f1", value="0.9"),
    "iteration_tp_float": damaged(EXPERIMENT, "iterations", 0, "tp", value=1.5),
    "fingerprint_path": damaged(EXPERIMENT, "fingerprint", value="../../x"),
    "ks_x_no_n": damaged(ALIGNMENT, "ks", "x", "n", drop=True),
    "ks_list": damaged(ALIGNMENT, "ks", value=[1]),
    "ks_statistic_huge": damaged(ALIGNMENT, "ks", "x", "statistic", value=10**400),
    "curve_centers_str": damaged(ALIGNMENT, "curves", "real", "centers", value="0.5"),
    "no_synthetic_curve": damaged(ALIGNMENT, "curves", "synthetic", drop=True),
    "not_utf8": b"\xff{}",
    "deeply_nested": b"[" * 100_000,
}


def fast_config(real, synthetic=(), seed=11, **overrides):
    base = dict(
        real_manifest=str(real),
        synthetic_manifests=tuple(str(s) for s in synthetic),
        window=64,
        stride=16,
        iterations=2,
        hidden_size=8,
        dense_units=8,
        seed=seed,
        train=FAST_TRAIN,
        mix=(0.6, 0.2, 0.2) if synthetic else (0.7, 0.3, 0.0),
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestAlignment:
    def test_self_comparison(self, tmp_path):
        real = build_dataset(tmp_path, subjects=6, series_len=200, seed=0)
        options = AlignmentOptions(window=64, stride=16, bins=40, k=3)
        report = run_alignment(real, real, options)
        assert report.jsd <= 1e-9
        assert report.coverage == 1.0
        assert report.ks_x.statistic == 0.0
        assert report.ks_y.statistic == 0.0
        assert report.ks_z.statistic == 0.0
        assert report.ks_x.p_value == 1.0

    def test_large_shift_zero_coverage(self, tmp_path):
        real = build_dataset(tmp_path, subjects=6, series_len=200, seed=0)
        shifted = build_synthetic_manifest(
            tmp_path, source="far", series=6, series_len=200, seed=1, value_shift=50.0,
        )
        report = run_alignment(real, shifted, AlignmentOptions(window=64, stride=16, bins=40, k=3))
        assert report.coverage == 0.0
        assert report.ks_x.statistic == 1.0
        assert report.ks_y.statistic == 1.0
        assert report.ks_z.statistic == 1.0

    def test_jsd_recomputable_from_exported_curves(self, tmp_path):
        real = build_dataset(tmp_path, subjects=6, series_len=200, seed=0)
        offset = build_synthetic_manifest(
            tmp_path, source="near", series=6, series_len=200, seed=2, value_shift=0.8,
        )
        report = run_alignment(real, offset, AlignmentOptions(window=64, stride=16, bins=40, k=3))
        paths = emit_report(report, "json", tmp_path / "out")
        curves = {}
        for path in paths:
            if path.name.startswith("density_"):
                kind = path.name.split("_")[1]
                rows = [line.split(";") for line in path.read_text().splitlines()[1:] if line]
                centers = np.array([float(c) for c, _ in rows])
                dens = np.array([float(d) for _, d in rows])
                curves[kind] = (centers, dens)
        width = curves["real"][0][1] - curves["real"][0][0]
        pm = curves["real"][1] * width
        qm = curves["synthetic"][1] * width
        mm = 0.5 * (pm + qm)
        recomputed = 0.0
        for masses in (pm, qm):
            mask = masses > 0
            recomputed += 0.5 * float(np.sum(masses[mask] * np.log2(masses[mask] / mm[mask])))
        assert recomputed == pytest.approx(report.jsd, abs=1e-9)

    def test_per_axis_mode(self, tmp_path):
        real = build_dataset(tmp_path, subjects=6, series_len=200, seed=0)
        report = run_alignment(real, real, AlignmentOptions(window=64, stride=16, bins=20, k=2, per_axis=True))
        assert set(report.jsd_per_axis) == {"x", "y", "z"}
        assert all(v <= 1e-9 for v in report.jsd_per_axis.values())

    def test_no_falls_rejected(self, tmp_path):
        real = build_dataset(tmp_path, subjects=4, series_len=200, falls_per_subject=0, name="nofall")
        other = build_synthetic_manifest(tmp_path, source="gen", series=4, series_len=200)
        with pytest.raises(DataError, match="fall"):
            run_alignment(real, other, AlignmentOptions(window=64, stride=16))


def build_uneven_manifest(root, seed=7):
    """Falls of three lengths under window 64, stride 25: 205 samples (six
    windows; the last 16 samples are in none, and the final one holds the
    largest and smallest value of the set), 40 (shorter than the window) and
    300."""
    rng = np.random.default_rng(seed)
    (root / "uneven").mkdir()
    entries = []
    for name, length in (("tail", 205), ("short", 40), ("plain", 300)):
        values = rng.normal(2.0, 0.3, size=(length, 3))
        if name == "tail":
            values[-1] = (9.0, -9.0, 9.0)
        series = AccelSeries(samples=values, sampling_rate=32.0)
        (root / "uneven" / f"{name}.csv").write_bytes(write_accel_csv(series))
        entries.append({
            "subject": name, "activity": "fall", "path": f"uneven/{name}.csv", "rate_hz": 32.0,
            "placement": "left_wrist", "provenance": "real",
        })
    manifest = root / "uneven.json"
    manifest.write_text(json.dumps(entries))
    return manifest


def replicated_alignment(real_manifest, synthetic_manifest, opts):
    """The alignment computed from every window's copy of its samples, as
    the windows ``slide_windows`` cuts hold them."""
    def windows(manifest):
        cuts = [
            slide_windows(load_entry(e), opts.window, opts.stride).values
            for e in catalog_dataset(manifest).entries if e.activity == ActivityLabel.FALL
        ]
        return np.concatenate(cuts)

    def densities(r, s):
        lo, hi = min(r.min(), s.min()), max(r.max(), s.max())
        return [histogram_density(v.ravel(), opts.bins, (float(lo), float(hi))) for v in (r, s)]

    def zscore(r, s):
        mu, sd = r.mean(), max(float(r.std()), 1e-8)
        return (r - mu) / sd, (s - mu) / sd

    real, syn = windows(real_manifest), windows(synthetic_manifest)
    r, s = zscore(real, syn)
    real_curve, syn_curve = densities(r, s)
    ks = [ks_two_sample(r[:, :, i].ravel(), s[:, :, i].ravel()) for i in range(3)]
    per_axis = None
    if opts.per_axis:
        per_axis = {axis: jsd(*densities(*zscore(real[:, :, i], syn[:, :, i]))) for i, axis in enumerate("xyz")}
    return AlignmentReport(
        *ks, jsd=jsd(real_curve, syn_curve),
        coverage=coverage(r.reshape(len(r), -1), s.reshape(len(s), -1), opts.k),
        real_curve=real_curve, synthetic_curve=syn_curve, jsd_per_axis=per_axis,
    )


class TestAlignmentFromCountedSamples:
    @pytest.mark.parametrize("per_axis", [False, True])
    @pytest.mark.parametrize("uneven_side", ["real", "synthetic"])
    def test_equals_window_replicated_oracle(self, tmp_path, per_axis, uneven_side):
        uneven = build_uneven_manifest(tmp_path)
        other = build_synthetic_manifest(tmp_path, series=4, series_len=180, seed=3)
        pair = (uneven, other) if uneven_side == "real" else (other, uneven)
        opts = AlignmentOptions(window=64, stride=25, bins=20, k=2, per_axis=per_axis)
        report = run_alignment(*pair, opts)
        expect = replicated_alignment(*pair, opts)
        assert json.dumps(report.to_dict()) == json.dumps(expect.to_dict())
        for name in ("real_curve", "synthetic_curve"):
            assert getattr(report, name).to_csv() == getattr(expect, name).to_csv()
        # The fixture's premise: the set's extreme is in the series but in no window.
        tail = load_entry(catalog_dataset(uneven).entries[0])
        assert tail.samples.max() == 9.0 and slide_windows(tail, 64, 25).values.max() < 9.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_no_window_holds_are_not_standardized(self, tmp_path):
        """A fall whose tail past its last window holds +-1e308 gives the
        report the fall cut at its last window gives, on either side, and
        no warning: standardizing that tail would overflow."""
        other = build_synthetic_manifest(tmp_path, series=4, series_len=180, seed=3)
        manifests = {}
        for name, tail in (("cut", None), ("huge", 1e308)):
            (tmp_path / name).mkdir()
            manifests[name] = build_uneven_manifest(tmp_path / name)
            path = tmp_path / name / "uneven" / "tail.csv"
            values = read_accel_csv(path.read_bytes()).samples[:189]  # six windows of 64 at stride 25
            if tail is not None:
                values = np.concatenate([values, tail * np.where(np.arange(48).reshape(16, 3) % 2, 1.0, -1.0)])
            path.write_bytes(write_accel_csv(AccelSeries(samples=values, sampling_rate=32.0)))
        assert np.abs(load_entry(catalog_dataset(manifests["huge"]).entries[0]).samples).max() == 1e308
        opts = AlignmentOptions(window=64, stride=25, bins=20, k=2, per_axis=True)
        for pair in ((0, other), (other, 0)):
            cut, huge = (
                run_alignment(*(manifests[name] if m == 0 else m for m in pair), opts).to_dict()
                for name in ("cut", "huge")
            )
            assert json.dumps(huge) == json.dumps(cut)

    def test_ks_gets_each_sample_once(self, tmp_path, monkeypatch):
        real = build_dataset(tmp_path, subjects=4, series_len=200, seed=0)
        syn = build_synthetic_manifest(tmp_path, series=3, series_len=150, seed=1)
        samples = sum(
            len(load_entry(e)) for m in (real, syn) for e in catalog_dataset(m).entries
            if e.activity == ActivityLabel.FALL
        )
        sizes = []

        def counting_ks(a, b, *args, **kwargs):
            sizes.append(np.size(a) + np.size(b))
            return ks_two_sample(a, b, *args, **kwargs)

        monkeypatch.setattr(harness, "ks_two_sample", counting_ks)
        report = run_alignment(real, syn, AlignmentOptions(window=64, stride=4, bins=20, k=2))
        assert len(sizes) == 3 and max(sizes) <= samples
        assert report.ks_x.n + report.ks_x.m > 10 * samples


class TestRealSideMemo:
    """run_alignment keeps the real side of the last real set it compared."""

    OPTS = AlignmentOptions(window=64, stride=16, bins=20, k=3)

    @pytest.fixture
    def calls(self, monkeypatch):
        """The ``knn_radii`` calls (rows, k) and the recordings parsed, by
        file name, of the run_alignment calls a test makes."""
        monkeypatch.setattr(harness, "_REAL_SIDE", {})
        calls = {"radii": [], "parsed": []}

        def counted_radii(real, k):
            calls["radii"].append((len(real), k))
            return knn_radii(real, k)

        def counted_load(entry, data=None):
            calls["parsed"].append(entry.path.name)
            return load_entry(entry, data)

        monkeypatch.setattr(harness, "knn_radii", counted_radii)
        monkeypatch.setattr(harness, "load_entry", counted_load)
        return calls

    @staticmethod
    def check(real, synthetic, opts=OPTS):
        """The report, after checking it against the window-replicated
        oracle and that one real side is kept."""
        report = run_alignment(real, synthetic, opts)
        assert json.dumps(report.to_dict()) == json.dumps(replicated_alignment(real, synthetic, opts).to_dict())
        assert len(harness._REAL_SIDE) == 1
        return report

    @staticmethod
    def generators(root, count=3):
        return [
            build_synthetic_manifest(root, source=f"gen{g}", series=4, series_len=150, seed=20 + g, value_shift=0.1 * g)
            for g in range(count)
        ]

    def test_one_real_set_against_three_generators_computes_it_once(self, tmp_path, calls):
        real = build_dataset(tmp_path, subjects=6, series_len=200, seed=0)
        parsed = []
        for gen in self.generators(tmp_path):
            calls["parsed"].clear()
            self.check(real, gen)
            parsed.append(sorted({name.split("_")[1] for name in calls["parsed"]}))
        # 6 falls of 9 windows; a hit parses the generator's recordings only.
        assert calls["radii"] == [(54, 3)]
        assert parsed == [["fall.csv", "fall0.csv"], ["fall.csv"], ["fall.csv"]]

    def test_same_bytes_elsewhere_are_the_same_real_set(self, tmp_path, calls):
        real = build_dataset(tmp_path / "a", subjects=6, series_len=200, seed=0)
        (gen,) = self.generators(tmp_path, 1)
        first = self.check(real, gen)
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        assert self.check(tmp_path / "b" / real.name, gen).to_dict() == first.to_dict()
        assert calls["radii"] == [(54, 3)]

    def test_recording_rewritten_in_place_misses(self, tmp_path, calls):
        real = build_dataset(tmp_path, subjects=6, series_len=200, seed=0)
        (gen,) = self.generators(tmp_path, 1)
        self.check(real, gen)
        fall = next(e.path for e in catalog_dataset(real).entries if e.activity == ActivityLabel.FALL)
        lines = fall.read_text("utf-8").split("\n")
        x, rest = lines[5].split(";", 1)
        lines[5] = f"{float(x) + 0.5:.6f};{rest}"
        fall.write_text("\n".join(lines), "utf-8")  # same path, same number of samples
        report = self.check(real, gen)
        assert len(calls["radii"]) == 2
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import sys; from synthfall.harness import AlignmentOptions, run_alignment; "
             "print(run_alignment(sys.argv[1], sys.argv[2], AlignmentOptions(window=64, stride=16, bins=20, k=3))"
             ".to_dict())", str(real), str(gen)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])},
        )
        assert fresh.stdout == f"{report.to_dict()}\n"

    def test_window_stride_or_k_change_misses(self, tmp_path, calls):
        real = build_dataset(tmp_path, subjects=6, series_len=200, seed=0)
        (gen,) = self.generators(tmp_path, 1)
        for opts in (
            self.OPTS, replace(self.OPTS, window=48), replace(self.OPTS, stride=8),
            replace(self.OPTS, k=2), self.OPTS, replace(self.OPTS, bins=30, per_axis=True),
        ):
            self.check(real, gen, opts)
        # bins and per_axis do not change the real side.
        assert calls["radii"] == [(54, 3), (60, 3), (108, 3), (54, 2), (54, 3)]

    def test_kept_arrays_are_read_only(self, tmp_path, calls):
        real = build_dataset(tmp_path, subjects=6, series_len=200, seed=0)
        (gen,) = self.generators(tmp_path, 1)
        self.check(real, gen)
        (side,) = harness._REAL_SIDE.values()
        arrays = [getattr(side, f.name) for f in fields(side) if isinstance(getattr(side, f.name), np.ndarray)]
        assert len(arrays) == 2  # counts, radii
        arrays += [getattr(side.windows, f.name) for f in fields(side.windows) if f.name != "width"]
        for arr in arrays:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            side.radii[0] = 0.0

    def test_warm_peak_grows_with_held_rows_not_window_values(self, tmp_path, calls):
        """Coverage gathers its windows from the standardized held rows as
        it compares them: a warm call holds no (N, W*3) matrix of either
        side.  Stride 1 makes the real windows' values (N*W*3) about 27
        times the held ones."""
        real = build_dataset(tmp_path, subjects=12, series_len=400, seed=0)
        syn = build_synthetic_manifest(tmp_path, series=1, series_len=400, seed=1)
        opts = AlignmentOptions(window=128, stride=1, bins=100, k=5)
        run_alignment(real, syn, opts)
        tracemalloc.start()
        try:
            report = run_alignment(real, syn, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls["radii"] == [(3276, 5)]
        (side,) = harness._REAL_SIDE.values()
        windows, tile, dims = len(side.radii), report.ks_x.m // opts.window, 3 * opts.window
        held = 3 * (len(side.windows.samples) + 400)  # held values of both sides; each synthetic row is held
        bound = 8 * (
            2 * COVERAGE_BLOCK * tile  # the two reused distance buffers
            + 2 * (COVERAGE_BLOCK + tile) * dims  # one gathered block and the tile, each with its square
            + 16 * held  # standardized copies, KS sorts and densities
            + 8 * windows  # starts, open rows, norms, radii and nearest distances
        )
        assert bound < 8 * windows * dims
        assert peak < bound

    def test_failing_comparison_leaves_the_memo_alone(self, tmp_path, calls):
        real = build_dataset(tmp_path, subjects=6, series_len=200, seed=0)
        other_real = build_dataset(tmp_path, subjects=6, series_len=200, seed=1, name="other")
        (gen,) = self.generators(tmp_path, 1)
        no_falls = build_dataset(tmp_path, subjects=4, series_len=200, falls_per_subject=0, name="nofall")
        fast = build_synthetic_manifest(tmp_path, source="fast", series=4, series_len=150, rate_hz=64.0)
        self.check(real, gen)
        kept = dict(harness._REAL_SIDE)
        for bad_real, bad_syn, match in (
            (real, no_falls, "synthetic manifest yields no fall windows"),
            (other_real, no_falls, "synthetic manifest yields no fall windows"),
            (real, fast, "sampling rate"),
        ):
            with pytest.raises(DataError, match=match):
                run_alignment(bad_real, bad_syn, self.OPTS)
            assert harness._REAL_SIDE == kept
        self.check(real, gen)
        assert calls["radii"] == [(54, 3), (54, 3)]  # the second for other_real

    def test_one_entry_kept(self, tmp_path, calls):
        reals = [build_dataset(tmp_path, subjects=6, series_len=200, seed=s, name=f"real{s}") for s in (0, 1)]
        (gen,) = self.generators(tmp_path, 1)
        for real in (*reals, reals[0]):
            self.check(real, gen)
        assert len(calls["radii"]) == 3

    def test_hit_logs_what_a_miss_logs(self, tmp_path, calls, caplog):
        uneven = build_uneven_manifest(tmp_path)
        (gen,) = self.generators(tmp_path, 1)
        opts = AlignmentOptions(window=64, stride=25, bins=20, k=2)
        shutil.copytree(tmp_path / "uneven", tmp_path / "moved" / "uneven")
        moved = shutil.copy(uneven, tmp_path / "moved")
        logs = []
        for manifest in (uneven, uneven, moved):
            caplog.clear()
            with caplog.at_level("WARNING", logger="synthfall.harness"):
                self.check(manifest, gen, opts)
            logs.append([record.getMessage() for record in caplog.records])
        assert len(calls["radii"]) == 1
        assert logs[0] == logs[1] == [
            f"skipping {tmp_path / 'uneven' / 'short.csv'}: 40 samples is shorter than the window (64)"
        ]
        assert logs[2] == [logs[0][0].replace(str(tmp_path), str(tmp_path / "moved"))]


class TestExperimentConfig:
    def test_roundtrip(self, fixture_dataset):
        real, syn = fixture_dataset
        config = fast_config(real, [syn])
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    def test_fingerprint_stable(self, fixture_dataset):
        real, syn = fixture_dataset
        assert fast_config(real, [syn]).fingerprint() == fast_config(real, [syn]).fingerprint()

    def test_fingerprint_changes_on_any_field(self, fixture_dataset):
        real, syn = fixture_dataset
        base = fast_config(real, [syn])
        fp = base.fingerprint()
        mutations = dict(
            real_manifest=str(real) + ".other",
            synthetic_manifests=(),
            window=65,
            stride=17,
            mix=(0.5, 0.3, 0.2),
            split_sizes=(7, 3, 2),
            iterations=3,
            seed=12,
            hidden_size=9,
            dense_units=10,
            train={"max_epochs": 7, "patience": 7, "batch_size": 64},
            threshold=0.4,
            baseline_report="somewhere.json",
        )
        for name, value in mutations.items():
            mutated = fast_config(real, [syn], **{name: value})
            assert mutated.fingerprint() != fp, name

    def test_unknown_field_rejected(self, fixture_dataset):
        real, _ = fixture_dataset
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({"real_manifest": str(real), "seed": 1, "mystery": 2})

    def test_requires_seed(self, fixture_dataset):
        real, _ = fixture_dataset
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"real_manifest": str(real)})

    def test_type_and_length_errors(self, fixture_dataset):
        real, _ = fixture_dataset
        base = {"real_manifest": str(real), "seed": 1}
        for bad in (
            {"seed": True}, {"seed": 1.0}, {"real_manifest": 3}, {"hidden_size": False},
            {"mix": [0.5, 0.5]}, {"mix": "0.6,0.2,0.2"}, {"mix": [0.6, 0.2, None]},
            {"split_sizes": [8, 2, 2.0]}, {"threshold": float("nan")},
            {"synthetic_manifests": [1]}, {"baseline_report": 3},
            {"train": {"max_epochs": "3"}}, {"train": {"lr": 0.1}},
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({**base, **bad})

    @given(config=st.fixed_dictionaries({}, optional={name: FIELD_VALUES for name in CONFIG_KEYS}))
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_json_raises_only_config_error(self, config):
        try:
            ExperimentConfig.from_dict(config)
        except ConfigError:
            pass

    @pytest.mark.parametrize("sizes", [(-1, 3, 2), (8, 0, 2), (8, 2, 0)])
    def test_split_sizes_refused(self, sizes):
        with pytest.raises(ConfigError, match="split sizes"):
            ExperimentConfig(real_manifest="real.json", seed=1, split_sizes=sizes)

    def test_derive_seed_stable(self):
        assert derive_seed(1, 0, "split") == derive_seed(1, 0, "split")
        assert derive_seed(1, 0, "split") != derive_seed(1, 1, "split")
        assert derive_seed(1, 0, "split") != derive_seed(1, 0, "mix")
        assert derive_seed(2, 0, "split") != derive_seed(1, 0, "split")


class TestExperiment:
    def test_report_shape_and_mean(self, fixture_dataset):
        real, syn = fixture_dataset
        report = run_experiment(fast_config(real, [syn]))
        assert len(report.iterations) == 2
        mean = sum(r.f1 for r in report.iterations) / 2
        assert abs(report.mean_f1 - mean) < 1e-12
        for it in report.iterations:
            assert len(it.val_subjects) == 2
            assert len(it.test_subjects) == 2
            assert not set(it.val_subjects) & set(it.test_subjects)

    def test_iteration_splits_differ(self, fixture_dataset):
        real, syn = fixture_dataset
        report = run_experiment(fast_config(real, [syn]))
        assert report.iterations[0].test_subjects != report.iterations[1].test_subjects or \
            report.iterations[0].val_subjects != report.iterations[1].val_subjects

    def test_same_seed_reproduces_report(self, fixture_dataset):
        real, syn = fixture_dataset
        a = run_experiment(fast_config(real, [syn]))
        b = run_experiment(fast_config(real, [syn]))
        assert a.to_json() == b.to_json()

    def test_baseline_and_augmented_share_splits(self, fixture_dataset):
        real, syn = fixture_dataset
        baseline = run_experiment(fast_config(real, (), mix=(0.7, 0.3, 0.0)))
        augmented = run_experiment(fast_config(real, [syn], mix=(0.6, 0.2, 0.2)))
        for b, a in zip(baseline.iterations, augmented.iterations):
            assert b.test_subjects == a.test_subjects
            assert b.val_subjects == a.val_subjects

    def test_baseline_delta(self, tmp_path, fixture_dataset):
        real, syn = fixture_dataset
        baseline = run_experiment(fast_config(real, ()))
        (paths,) = [emit_report(baseline, "json", tmp_path / "base")]
        base_path = paths[0]
        augmented = run_experiment(fast_config(real, [syn], baseline_report=str(base_path)))
        assert augmented.baseline_mean_f1 == pytest.approx(baseline.mean_f1)
        expected = 100.0 * (augmented.mean_f1 - baseline.mean_f1) / baseline.mean_f1
        assert augmented.delta_percent == pytest.approx(expected)

    def test_too_few_subjects(self, tmp_path):
        real = build_dataset(tmp_path, subjects=4, series_len=200)
        with pytest.raises(DataError, match="subjects"):
            run_experiment(fast_config(real, (), split_sizes=(8, 2, 2)))

    def test_too_many_subjects_before_windowing(self, tmp_path, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("windows cut before the split sizes were checked")

        monkeypatch.setattr("synthfall.harness._catalog_windows", must_not_run)
        real = build_dataset(tmp_path, subjects=4, series_len=200)
        with pytest.raises(DataError, match="subjects"):
            run_experiment(fast_config(real, (), split_sizes=(1, 1, 1)))

    def test_empty_synthetic_pool_with_positive_fraction(self, tmp_path):
        real = build_dataset(tmp_path, subjects=12, series_len=200)
        with pytest.raises(DataError, match="infeasible"):
            run_experiment(fast_config(real, (), mix=(0.6, 0.2, 0.2)))


class TestAblation:
    def test_mix_forced_to_ablation_ratio(self, fixture_dataset):
        # The quantity ablation is an ordinary experiment run with the 50/10/40 mix.
        real, syn = fixture_dataset
        report = run_experiment(fast_config(real, [syn], mix=(0.5, 0.1, 0.4), iterations=1))
        assert report.config["mix"] == [0.5, 0.1, 0.4]
        assert report.iterations[0].train_size > 0

    def test_pooled_sources_sampled(self, tmp_path):
        real = build_dataset(tmp_path, subjects=12, series_len=200, seed=0)
        sources = [
            build_synthetic_manifest(tmp_path, source=f"gen{j}", series=4, series_len=200, seed=50 + j)
            for j in range(3)
        ]
        config = fast_config(real, sources, mix=(0.5, 0.1, 0.4), iterations=1)
        from synthfall.harness import _load_pools
        from synthfall.windowing import compose_training_mix

        subjects, real_windows, synthetic_pool, _ = _load_pools(config)
        prefixes = set()
        for seed in range(100):
            mix = compose_training_mix(
                real_windows.take(real_windows.labels == 0),
                real_windows.take(real_windows.labels == 1),
                synthetic_pool,
                MixSpec(0.5, 0.1, 0.4),
                seed=seed,
            )
            # Synthetic subject ids are the source name and a series number.
            drawn = {s[:4] for s in mix.subjects if s.startswith("gen")}
            prefixes |= drawn
            if seed >= 3 and len(prefixes) >= 2:
                break
        assert len(prefixes) >= 2


class TestHistories:
    def test_one_history_per_iteration_and_the_same_report(self, fixture_dataset):
        real, syn = fixture_dataset
        config = fast_config(real, [syn])
        histories = []
        report = run_experiment(config, histories)
        assert report.to_json() == run_experiment(config).to_json()
        assert len(histories) == len(report.iterations)
        for history, it in zip(histories, report.iterations):
            assert history.epochs() == FAST_TRAIN["max_epochs"] == len(history.val_f1)
            assert (history.best_epoch, history.stop_reason) == (it.best_epoch, it.stop_reason)

    def test_experiment_writes_a_report_and_a_history_per_iteration(self, tmp_path, capsys, fixture_dataset):
        real, syn = fixture_dataset
        args = [
            "experiment", "--real-manifest", str(real), "--synthetic-manifest", str(syn), "--seed", "5",
            "--window", "64", "--stride", "16", "--hidden-size", "4", "--dense-units", "4",
            "--learning-rate", "0.2", "--max-epochs", "8", "--patience", "2", "--mix", "0.6,0.2,0.2",
        ]
        assert main(args + ["--iterations", "2", "--out", str(tmp_path / "two")]) == 0
        (report_path,) = (tmp_path / "two").glob("report_*.json")
        report = ExperimentReport.from_dict(json.loads(report_path.read_text()))
        tag = report.fingerprint[:12]
        names = sorted(p.name for p in (tmp_path / "two").iterdir())
        assert names == [f"history_{tag}_0.csv", f"history_{tag}_1.csv", report_path.name]
        for it in report.iterations:
            rows = (tmp_path / "two" / f"history_{tag}_{it.index}.csv").read_text().splitlines()
            assert rows[0] == "epoch;train_loss;val_loss;val_f1"
            epochs = 8 if it.stop_reason == "max_epochs" else it.best_epoch + 2 + 1
            assert [row.split(";")[0] for row in rows[1:]] == [str(e) for e in range(epochs)]
        assert "early_stop" in {it.stop_reason for it in report.iterations}

        # Per-iteration seeds do not depend on the iteration count.
        assert main(args + ["--iterations", "1", "--out", str(tmp_path / "one")]) == 0
        (one,) = (tmp_path / "one").glob("history_*_0.csv")
        assert one.name != f"history_{tag}_0.csv"
        assert one.read_bytes() == (tmp_path / "two" / f"history_{tag}_0.csv").read_bytes()


class TestWindowPools:
    def test_memory_grows_with_samples_not_windows(self, fixture_dataset):
        real, syn = fixture_dataset

        def pools_peak(stride):
            tracemalloc.start()
            try:
                real_windows, synthetic_pool = harness._load_pools(fast_config(real, [syn], stride=stride))[1:3]
                return tracemalloc.get_traced_memory()[1], len(real_windows) + len(synthetic_pool)
            finally:
                tracemalloc.stop()

        sparse, _ = pools_peak(32)
        dense, windows = pools_peak(1)
        # Stride 1 cuts about 30 times the windows of stride 32 from the same
        # samples; a copy of their values would take windows * 64 * 3 * 8 bytes.
        assert dense - sparse < windows * 64 * 3 * 8 / 10

    def test_pools_and_mix_share_one_buffer(self, fixture_dataset):
        """The real rows lie before the synthetic ones in the pools' one
        buffer, and a mix drawn from both joins no buffers."""
        real, syn = fixture_dataset
        _, real_windows, synthetic_pool, _ = harness._load_pools(fast_config(real, [syn]))
        assert synthetic_pool.samples is real_windows.samples
        assert real_windows.starts.max() < synthetic_pool.starts.min()
        adl = real_windows.labels == ActivityLabel.ADL
        pools = (real_windows.take(adl), real_windows.take(~adl), synthetic_pool)
        mix = compose_training_mix(*pools, MixSpec(0.6, 0.2, 0.2), seed=0)
        assert mix.samples is real_windows.samples

    def test_scaled_sets_hold_only_their_windows_rows(self, tmp_path):
        """Each standardized set keeps only the sample rows its windows hold:
        the validation and test sets none of another subject's rows, and
        no set a series' tail past its last window."""
        real = build_dataset(tmp_path, subjects=4, series_len=100, seed=0)
        syn = build_synthetic_manifest(tmp_path, series=3, series_len=100, seed=1)
        config = fast_config(real, [syn], window=16, stride=8, split_sizes=(2, 1, 1))
        subjects, real_windows, synthetic_pool, _ = harness._load_pools(config)
        split = split_subjects(subjects, config.split_sizes, seed=0)
        sets = harness._scaled_sets(config, 0, split, real_windows, synthetic_pool)
        for windows in sets:
            assert windows.counts().min() > 0
        _, val, test = sets
        for windows, group in ((val, split.validation), (test, split.test)):
            assert set(windows.subjects) == set(group)
            # One ADL and one fall series per subject; 11 windows of 16 at stride 8 hold 96 of its 100 rows.
            assert len(windows.samples) == len(group) * 2 * 96


class TestEmitReport:
    def test_json_roundtrip(self, tmp_path, fixture_dataset):
        real, syn = fixture_dataset
        report = run_experiment(fast_config(real, [syn], iterations=1))
        (path,) = emit_report(report, "json", tmp_path / "out")
        parsed = ExperimentReport.from_dict(json.loads(path.read_text()))
        assert parsed.to_dict() == report.to_dict()
        assert report.fingerprint[:12] in path.name

    def test_csv_contains_iterations(self, tmp_path, fixture_dataset):
        real, syn = fixture_dataset
        report = run_experiment(fast_config(real, [syn], iterations=1))
        (path,) = emit_report(report, "csv", tmp_path / "out")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("iteration;")
        assert lines[-1].startswith("mean;")

    def test_bad_format(self, fixture_dataset):
        real, syn = fixture_dataset
        report = run_experiment(fast_config(real, [syn], iterations=1))
        with pytest.raises(ConfigError):
            emit_report(report, "xml", ".")


class TestDataIdentity:
    def test_rewritten_recording_renames_report(self, tmp_path, fixture_dataset):
        real, syn = fixture_dataset
        config = fast_config(real, [syn], iterations=1, train={"max_epochs": 1, "patience": 1})
        report = run_experiment(config)
        (first,) = emit_report(report, "json", tmp_path / "a")
        (again,) = emit_report(run_experiment(config), "json", tmp_path / "b")
        assert (again.name, again.read_bytes()) == (first.name, first.read_bytes())

        # The same path, other values.
        entry = catalog_dataset(real).entries[0]
        series = load_entry(entry)
        entry.path.write_bytes(write_accel_csv(AccelSeries(
            samples=series.samples + 0.5, sampling_rate=series.sampling_rate,
            label=series.label, provenance=series.provenance, subject_id=series.subject_id,
        )))
        changed = run_experiment(config)
        assert changed.config == report.config
        assert changed.data_sha256 != report.data_sha256
        (path,) = emit_report(changed, "json", tmp_path / "c")
        assert path.name != first.name

    def test_digest_hashes_fields_and_samples_in_read_order(self, fixture_dataset):
        real, syn = fixture_dataset
        expected = hashlib.sha256()
        falls = [e for e in catalog_dataset(syn).entries if e.activity == ActivityLabel.FALL]
        for entry in [*catalog_dataset(real).entries, *falls]:
            samples = load_entry(entry).samples
            meta = [entry.subject_id, entry.activity.name.lower(), entry.sampling_rate, entry.provenance.value]
            expected.update(json.dumps(meta + [len(samples)]).encode() + b"\n")
            expected.update(samples.astype("<f8").tobytes())
        assert harness._load_pools(fast_config(real, [syn]))[3] == expected.hexdigest()

    def test_moved_data_keeps_its_digest(self, tmp_path, fixture_dataset):
        real, syn = fixture_dataset
        moved = tmp_path / "moved"
        shutil.copytree(tmp_path, moved, ignore=shutil.ignore_patterns("moved"))
        config = fast_config(real, [syn])
        moved_config = fast_config(moved / real.name, [moved / syn.name])
        assert harness._load_pools(moved_config)[3] == harness._load_pools(config)[3]
        assert moved_config.fingerprint() != config.fingerprint()


class TestReportBytes:
    """Every byte an alignment and a short experiment write, pinned as
    SHA-256 digests, so a change that moves any number of any report in its
    last bit fails here.  The data come from the conftest builders under
    relative paths, as a config names its manifests.  The digests hold for
    the float results of numpy and its BLAS; another BLAS may round a
    product differently and need them recomputed."""

    ALIGNMENT = "c86c600f5b4ce805ef3cd00d9a4ab40a5607ee5ffbc626d55e128dbdcb8f5f25"
    EXPERIMENT = "04cdac0cf8a91bedd485c15471e295d6b9a1b1b473ff3de9baca43ec6fc0e5f5"

    @staticmethod
    def digest(files):
        h = hashlib.sha256()
        for path, data in files:
            h.update(str(path).encode("utf-8") + b"\0" + data)
        return h.hexdigest()

    @pytest.fixture
    def manifests(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        real = build_dataset(Path("."), subjects=4, series_len=200, seed=0)
        syn = build_synthetic_manifest(Path("."), series=4, series_len=150, seed=1, value_shift=0.1)
        return real, syn

    def test_alignment_reports_and_curves(self, manifests):
        files = []
        for opts in (
            AlignmentOptions(window=64, stride=16, bins=20, k=3),
            AlignmentOptions(window=32, stride=8, bins=7, k=5, per_axis=True),
        ):
            files += harness.report_files(run_alignment(*manifests, opts), "json", "out")
        assert self.digest(files) == self.ALIGNMENT

    def test_experiment_report_and_histories(self, manifests):
        real, syn = manifests
        train = {"max_epochs": 3, "patience": 3}
        config = fast_config(real, [syn], window=32, stride=8, split_sizes=(2, 1, 1), train=train)
        histories = []
        report = run_experiment(config, histories)
        files = harness.report_files(report, "json", "out") + [
            (f"history_{i}.csv", history.to_csv().encode("utf-8")) for i, history in enumerate(histories)
        ]
        assert self.digest(files) == self.EXPERIMENT


class TestLoadReport:
    @pytest.mark.parametrize("report", [EXPERIMENT, ALIGNMENT], ids=["experiment", "alignment"])
    def test_valid_payload_loads(self, report):
        assert load_report(payload_of(report)).to_dict() == report.to_dict()

    @given(payload=JSON_VALUES | st.fixed_dictionaries({}, optional={k: JSON_VALUES for k in REPORT_KEYS}))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_raises_only_data_error(self, payload):
        for load in (load_report, ExperimentReport.from_dict, AlignmentReport.from_dict):
            try:
                load(payload)
            except DataError:
                pass

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_damaged_reports_raise_only_data_error(self, data):
        report = data.draw(st.sampled_from([EXPERIMENT, ALIGNMENT]))
        path = data.draw(st.sampled_from(list(json_paths(payload_of(report)))))
        # Only an object's keys can be dropped; list items are replaced.
        drop = isinstance(path[-1], str) and data.draw(st.booleans())
        payload = damaged(report, *path, drop=drop, value=None if drop else data.draw(JSON_VALUES))
        try:
            loaded = load_report(payload)
        except DataError:
            return
        # Whatever loads can be written again.
        with tempfile.TemporaryDirectory() as out:
            emit_report(loaded, "json", out)
            if isinstance(loaded, ExperimentReport):
                emit_report(loaded, "csv", out)

    @pytest.mark.parametrize("fingerprint", ["../../x", "AB" * 32, "ab" * 31, "ab" * 32 + "\n", 7])
    def test_fingerprint_must_be_a_hex_digest(self, fingerprint):
        with pytest.raises(DataError, match="fingerprint"):
            load_report(damaged(EXPERIMENT, "fingerprint", value=fingerprint))


class TestAlignmentReportDict:
    def test_roundtrip(self):
        curve = DensityCurve(bin_centers=np.array([0.5, 1.5]), densities=np.array([0.6, 0.4]))
        report = AlignmentReport(
            ks_x=KsResult(0.1, 0.9, 5, 5),
            ks_y=KsResult(0.2, 0.8, 5, 5),
            ks_z=KsResult(0.3, 0.7, 5, 5),
            jsd=0.12,
            coverage=0.88,
            real_curve=curve,
            synthetic_curve=curve,
        )
        again = AlignmentReport.from_dict(report.to_dict())
        assert again.to_dict() == report.to_dict()
        assert report.ks_mean_statistic == pytest.approx(0.2)

    def test_csv_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="JSON only"):
            emit_report(ALIGNMENT, "csv", tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_exit_code_mapping(self):
        from synthfall.errors import ConfigError, DataError, NumericError, ToolkitError

        assert ToolkitError.exit_code == 1
        assert ConfigError.exit_code == 2
        assert DataError.exit_code == 3
        assert NumericError.exit_code == 4

    def test_errors_survive_pickling(self):
        """A result sent back from a worker process keeps its error's message,
        place and exit code."""
        numeric = NumericError("non-finite values in lstm", ("epoch 0", "batch 1")).within("iteration 2")
        for exc in (numeric, DataError("test windows hold values beyond the float32 range")):
            back = pickle.loads(pickle.dumps(exc))
            assert (type(back), str(back), back.exit_code) == (type(exc), str(exc), exc.exit_code)
        assert pickle.loads(pickle.dumps(numeric)).where == ("iteration 2", "epoch 0", "batch 1")
        assert str(numeric) == "non-finite values in lstm (iteration 2, epoch 0, batch 1)"

    def test_ingest_ok(self, capsys, fixture_dataset):
        real, _ = fixture_dataset
        assert main(["ingest", str(real)]) == 0
        out = capsys.readouterr().out
        assert "subjects: 12" in out

    def test_ingest_missing_manifest_exit_3(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.json")]) == 3

    def test_kinematics_roundtrip(self, tmp_path, capsys):
        motion = np.zeros((50, 22, 3))
        motion[:, 20, 0] = np.arange(50) * 0.1
        npy = tmp_path / "motion.npy"
        np.save(npy, motion)
        out_csv = tmp_path / "accel.csv"
        code = main([
            "kinematics", str(npy), str(out_csv),
            "--placement", "left_wrist",
        ])
        assert code == 0
        from synthfall.ingest import read_accel_csv

        series = read_accel_csv(out_csv.read_bytes())
        assert series.samples[0, 0] == pytest.approx(0.1 * 46.0**2, rel=1e-6)

    def test_align_command(self, tmp_path, capsys, fixture_dataset):
        real, syn = fixture_dataset
        out = tmp_path / "align_out"
        code = main([
            "align", str(real), str(syn), "--window", "64", "--stride", "32",
            "--bins", "30", "--k", "3", "--out", str(out),
        ])
        assert code == 0
        assert list(out.glob("alignment_*.json"))
        assert list(out.glob("density_real_*.csv"))

    def test_experiment_requires_seed(self, capsys, fixture_dataset):
        real, _ = fixture_dataset
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--real-manifest", str(real)])
        assert exc.value.code == 2

    def test_experiment_and_report_roundtrip(self, tmp_path, capsys, fixture_dataset):
        real, syn = fixture_dataset
        out = tmp_path / "exp"
        code = main([
            "experiment", "--real-manifest", str(real),
            "--synthetic-manifest", str(syn),
            "--seed", "3", "--iterations", "1", "--window", "64", "--stride", "16",
            "--hidden-size", "8", "--dense-units", "8", "--max-epochs", "4",
            "--patience", "4", "--mix", "0.6,0.2,0.2", "--out", str(out),
        ])
        assert code == 0
        (report_path,) = out.glob("report_*.json")
        out2 = tmp_path / "re"
        assert main(["report", str(report_path), "--format", "csv", "--out", str(out2)]) == 0
        assert list(out2.glob("report_*.csv"))

    def test_report_reemits_byte_for_byte(self, tmp_path, capsys, fixture_dataset):
        real, syn = fixture_dataset
        args = [
            "--real-manifest", str(real), "--synthetic-manifest", str(syn),
            "--seed", "3", "--iterations", "1", "--window", "64", "--stride", "16",
            "--hidden-size", "8", "--dense-units", "8", "--max-epochs", "2",
            "--patience", "2", "--mix", "0.6,0.2,0.2",
        ]
        orig = tmp_path / "orig"
        assert main(["experiment", *args, "--out", str(orig)]) == 0
        assert main(["experiment", *args, "--format", "csv", "--out", str(orig)]) == 0
        assert main(["align", str(real), str(syn), "--window", "64", "--stride", "16",
                     "--per-axis", "--out", str(orig)]) == 0
        (report,) = orig.glob("report_*.json")
        (alignment,) = orig.glob("alignment_*.json")
        again = tmp_path / "again"
        for path, fmt in ((report, "json"), (report, "csv"), (alignment, "json")):
            assert main(["report", str(path), "--format", fmt, "--out", str(again)]) == 0
        written = {p.name: p.read_bytes() for p in again.iterdir()}
        assert len(written) == 5
        # report re-emits the report alone, not the training history beside it.
        assert written == {p.name: p.read_bytes() for p in orig.iterdir() if not p.name.startswith("history_")}

    @pytest.mark.parametrize("payload", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS.keys())
    def test_malformed_report_exit_3(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        assert main(["report", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_report_without_data_digest_exit_3(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(UNNAMED_DATA_REPORT))
        assert main(["report", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "error: report requires data_sha256" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_baseline_report_without_data_digest_exit_3(self, tmp_path, capsys, fixture_dataset):
        real, _ = fixture_dataset
        path = tmp_path / "old.json"
        path.write_text(json.dumps(UNNAMED_DATA_REPORT))
        out = tmp_path / "o"
        code = main([
            "experiment", "--real-manifest", str(real), "--seed", "1", "--iterations", "1",
            "--window", "64", "--stride", "16", "--hidden-size", "4", "--dense-units", "4",
            "--max-epochs", "1", "--patience", "1", "--mix", "0.7,0.3,0",
            "--baseline-report", str(path), "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: baseline report is not a valid experiment report: report requires data_sha256" in err
        assert list(out.iterdir()) == []

    def test_missing_baseline_exit_3_before_reading(self, tmp_path, capsys, monkeypatch, fixture_dataset):
        real, _ = fixture_dataset

        def no_reading(entry):
            raise AssertionError(f"read {entry.path} before the baseline report")

        monkeypatch.setattr(harness, "load_entry", no_reading)
        out = tmp_path / "o"
        code = main([
            "experiment", "--real-manifest", str(real), "--seed", "1", "--iterations", "1",
            "--mix", "0.7,0.3,0", "--baseline-report", str(tmp_path / "missing.json"), "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: baseline report")
        assert list(out.iterdir()) == []

    def test_alignment_report_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "alignment.json"
        path.write_text(json.dumps(ALIGNMENT.to_dict()))
        assert main(["report", str(path), "--format", "csv", "--out", str(tmp_path / "o")]) == 2
        assert "JSON only" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment"])
    def test_out_is_a_file_exit_3_before_running(self, tmp_path, capsys, monkeypatch, command):
        import synthfall.cli as cli

        def must_not_run(config):
            raise AssertionError("ran before checking --out")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        out = tmp_path / "taken"
        out.write_text("a file")
        code = main([command, "--real-manifest", str(tmp_path / "real.json"), "--seed", "1", "--out", str(out)])
        assert code == 3
        assert "cannot create output directory" in capsys.readouterr().err

    def test_prompts_command(self, tmp_path, capsys):
        out = tmp_path / "prompts.txt"
        assert main(["prompts", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 350

    def test_config_file_with_overrides(self, tmp_path, capsys, fixture_dataset):
        real, syn = fixture_dataset
        config = {
            "real_manifest": str(real),
            "synthetic_manifests": [str(syn)],
            "window": 64, "stride": 16, "iterations": 1,
            "hidden_size": 8, "dense_units": 8,
            "train": {"max_epochs": 3, "patience": 3},
            "mix": [0.6, 0.2, 0.2],
            "seed": 0,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "exp2"
        # The paper's quantity ablation is the 50/10/40 mix.
        code = main([
            "experiment", "--config", str(cfg_path), "--seed", "9",
            "--iterations", "1", "--mix", "0.5,0.1,0.4", "--out", str(out),
        ])
        assert code == 0
        (report_path,) = out.glob("report_*.json")
        payload = json.loads(report_path.read_text())
        assert payload["config"]["seed"] == 9
        assert payload["config"]["mix"] == [0.5, 0.1, 0.4]

    @pytest.mark.parametrize("override", [
        {"mix": [0.5, 0.5]},
        {"split_sizes": [8, 2]},
        {"window": "128"},
        {"stride": 1.5},
        {"iterations": "3"},
        {"train": [1]},
        {"synthetic_manifests": "gen.json"},
        {"window": True},
    ], ids=["mix", "split_sizes", "window_str", "stride_float", "iterations_str", "train_list",
            "synthetic_manifests_str", "window_bool"])
    @pytest.mark.parametrize("flags", [[], ["--max-epochs", "3"]], ids=["no_flags", "train_flag"])
    def test_config_type_error_exit_2(self, tmp_path, capsys, fixture_dataset, override, flags):
        real, _ = fixture_dataset
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"real_manifest": str(real), **override}))
        code = main(["experiment", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert "error: config field" in capsys.readouterr().err

    def test_train_seed_in_config_exit_2(self, tmp_path, capsys, fixture_dataset):
        # Per-iteration training seeds derive from --seed; a nested one is refused, not ignored.
        real, _ = fixture_dataset
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "real_manifest": str(real), "window": 64, "stride": 16, "iterations": 1,
            "hidden_size": 4, "dense_units": 4, "train": {"max_epochs": 1, "patience": 1, "seed": 3},
        }))
        code = main(["experiment", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: unknown train config fields: ['seed']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment"])
    def test_every_config_field_is_a_flag(self, command):
        dests = set(vars(build_parser().parse_args([command, "--seed", "1"])))
        expected = {f.name for f in fields(ExperimentConfig) if f.name != "train"}
        expected |= {f.name for f in fields(TrainConfig)}
        assert expected <= dests, sorted(expected - dests)

    @pytest.mark.parametrize("command", ["experiment"])
    @pytest.mark.parametrize("flag", [["--bins", "30"], ["--k", "3"], ["--no-shuffle"]], ids=["bins", "k", "no_shuffle"])
    def test_removed_flags_exit_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--real-manifest", "real.json", "--seed", "1", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment"])
    @pytest.mark.parametrize("config, message", [
        ({"bins": 100}, "unknown config fields: ['bins']"),
        ({"k": 5}, "unknown config fields: ['k']"),
        ({"train": {"shuffle": True}}, "unknown train config fields: ['shuffle']"),
    ], ids=["bins", "k", "train_shuffle"])
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, command, config, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"real_manifest": str(tmp_path / "missing.json"), **config}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg_path), "--seed", "1", "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_windows_command_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["windows", "manifest.json", "cache.bin"])
        assert exc.value.code == 2

    def test_ablate_quantity_command_removed(self, capsys):
        # The quantity ablation is `experiment --mix 0.5,0.1,0.4`.
        with pytest.raises(SystemExit) as exc:
            main(["ablate-quantity", "--real-manifest", "real.json", "--seed", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'ablate-quantity'" in capsys.readouterr().err

    def test_train_command_removed(self, capsys):
        # One iteration's scores and history are `experiment --iterations 1`.
        with pytest.raises(SystemExit) as exc:
            main(["train", "--real-manifest", "real.json", "--seed", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'train'" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["5", "1", "0", "-0.5"])
    def test_threshold_outside_unit_interval_exit_2_before_reading(self, tmp_path, capsys, threshold):
        out = tmp_path / "o"
        code = main([
            "experiment", "--real-manifest", str(tmp_path / "missing.json"), "--seed", "1",
            "--threshold", threshold, "--out", str(out),
        ])
        assert code == 2
        assert f"error: threshold must lie in (0, 1), got {float(threshold)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--window", "0"], "window must be >= 1, got 0"),
        (["--stride", "0"], "stride must be >= 1, got 0"),
        (["--hidden-size", "0"], "hidden_size must be >= 1, got 0"),
        (["--dense-units", "0"], "dense_units must be >= 1, got 0"),
        (["--split-sizes", "10,0,2"], "split sizes must be non-negative"),
        (["--split-sizes", "10,2,0"], "split sizes must be non-negative"),
        (["--split-sizes=-1,2,2"], "split sizes must be non-negative"),
        (["--learning-rate", "inf"], "train config field learning_rate must be a finite number, got inf"),
        (["--learning-rate", "1e39"], "learning_rate must be positive and at most float32's max, got 1e+39"),
    ], ids=["window", "stride", "hidden_size", "dense_units", "no_validation", "no_test", "negative_split",
            "learning_rate_inf", "learning_rate_past_float32"])
    def test_bad_size_exit_2_before_reading(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        code = main([
            "experiment", "--real-manifest", str(tmp_path / "missing.json"), "--seed", "1", *flags,
            "--out", str(out),
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--window", "--stride", "--bins", "--k"])
    def test_align_size_below_one_exit_2_before_reading(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        code = main([
            "align", str(tmp_path / "missing.json"), str(tmp_path / "missing2.json"), flag, "0", "--out", str(out),
        ])
        assert code == 2
        assert f"error: {flag[2:]} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_align_bins_above_the_cap_exit_2_before_reading(self, tmp_path, capsys, monkeypatch, fixture_dataset):
        def no_reading(path, *args, **kwargs):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(ingest, "read_file", no_reading)
        monkeypatch.setattr(harness, "read_file", no_reading)
        out = tmp_path / "o"
        # One above the cap: a bin count no test should ever run.
        assert main(["align", *map(str, fixture_dataset), "--bins", "1000001", "--out", str(out)]) == 2
        assert "error: bins must be <= 1000000, got 1000001" in capsys.readouterr().err
        assert not out.exists()

    def test_test_set_beyond_float32_exit_3(self, tmp_path, capsys):
        real = build_dataset(tmp_path, subjects=12, series_len=200, seed=0)
        catalog = catalog_dataset(real)
        split = split_subjects(catalog.subjects(), (8, 2, 2), derive_seed(3, 0, "split"))
        subject = min(split.test)
        for entry in catalog.entries:
            if entry.subject_id == subject:
                huge = AccelSeries(samples=load_entry(entry).samples * 1e45, sampling_rate=32.0)
                entry.path.write_bytes(write_accel_csv(huge))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([
                "experiment", "--real-manifest", str(real), "--seed", "3", "--iterations", "1",
                "--window", "64", "--stride", "16", "--hidden-size", "4", "--dense-units", "4",
                "--max-epochs", "1", "--patience", "1", "--mix", "0.7,0.3,0", "--out", str(tmp_path / "o"),
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: test windows hold values beyond the float32 range" in err
        assert "(largest magnitude 3.4028235e+38) (iteration 0)\n" in err

    @pytest.mark.parametrize("variants", ["", ",", " , "])
    def test_prompts_without_variants_exit_2(self, tmp_path, capsys, variants):
        out = tmp_path / "prompts.txt"
        assert main(["prompts", "--variants", variants, "--out", str(out)]) == 2
        assert "error: no variant tags given" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_mix_flag_exit_2(self, capsys, fixture_dataset):
        real, _ = fixture_dataset
        code = main([
            "experiment", "--real-manifest", str(real), "--seed", "1", "--mix", "0.5,0.5",
        ])
        assert code == 2

    def test_fractional_split_sizes_flag_exit_2(self, capsys, fixture_dataset):
        real, _ = fixture_dataset
        code = main([
            "experiment", "--real-manifest", str(real), "--seed", "1", "--split-sizes", "8.9,2,2",
        ])
        assert code == 2
        assert "--split-sizes expects int values" in capsys.readouterr().err

    def test_non_finite_weights_exit_4_with_location(self, tmp_path, capsys, monkeypatch, fixture_dataset):
        import synthfall.harness as harness

        def inf_model(*args, **kwargs):
            model = init_model(*args, **kwargs)
            model.w_h[0, 0] = np.inf
            return model

        monkeypatch.setattr(harness, "init_model", inf_model)
        real, syn = fixture_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([
                "experiment", "--real-manifest", str(real), "--synthetic-manifest", str(syn),
                "--seed", "3", "--iterations", "2", "--window", "64", "--stride", "16",
                "--hidden-size", "8", "--dense-units", "8", "--max-epochs", "2",
                "--patience", "2", "--mix", "0.6,0.2,0.2", "--out", str(tmp_path / "o"),
            ])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: non-finite values in lstm (iteration 0, epoch 0, batch 0)" in err
