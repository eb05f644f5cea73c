"""Experiment orchestration: alignment studies, augmentation runs with
iterated subject splits, and report emission.  A quantity ablation is an
augmentation run with its mix set, e.g. ``MixSpec(0.5, 0.1, 0.4)``.

Every run is driven by a master seed.  Per-iteration seeds are derived as
hashes of (master seed, iteration, role), so the subject split of iteration
i never changes when more iterations are added, and baseline (synthetic
fraction 0) and augmented runs under the same master seed are paired on
identical subject splits.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .classifier import TrainConfig, evaluate, init_model, train
from .errors import ConfigError, DataError, NumericError
from .ingest import (
    DatasetCatalog,
    _checked,
    catalog_dataset,
    ensure_output_dir,
    load_entry,
    read_file,
    read_json,
    write_files,
)
from .kinematics import ActivityLabel
from .metrics import (
    ClassificationMetrics,
    DensityCurve,
    KsResult,
    covered_fraction,
    histogram_density,
    jsd,
    knn_radii,
    ks_two_sample,
    percent_delta,
)
from .windowing import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    STD_FLOOR,
    MixSpec,
    Scaler,
    WindowSet,
    apply_scaler,
    compose_training_mix,
    fit_scaler,
    slide_windows,
    split_subjects,
)

logger = logging.getLogger(__name__)

_AXES = ("x", "y", "z")
MAX_BINS = 10**6  # most density bins an alignment takes: 8 MB per bins-sized array


def derive_seed(master_seed: int, index: int, role: str) -> int:
    """Stable sub-seed for (iteration, role); independent of iteration count."""
    digest = hashlib.sha256(f"{master_seed}:{index}:{role}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _one_rate(entries: list) -> None:
    """DataError, naming both rates, unless every entry was recorded at the
    first one's sampling rate: a window of W samples spans W / rate seconds,
    so windows of different rates cannot be pooled or compared.  Rates equal
    to a relative 1e-9 match, as a rate read back as 1 / (1 / r) may differ
    from r in its last bit."""
    for entry in entries[1:]:
        if not math.isclose(entry.sampling_rate, entries[0].sampling_rate, rel_tol=1e-9):
            raise DataError(
                f"recordings differ in sampling rate: {entries[0].path} at {entries[0].sampling_rate!r} Hz, "
                f"{entry.path} at {entry.sampling_rate!r} Hz"
            )


def _warn_if_short(entry, length: int, width: int) -> None:
    if length < width:
        logger.warning("skipping %s: %d samples is shorter than the window (%d)", entry.path, length, width)


def _catalog_series(entries, width: int, stride: int, datas=None):
    """Each entry's series with its windows, warning of any series shorter
    than the window.  ``datas``, when given, holds the entries' file bytes,
    already read."""
    for entry, data in zip(entries, datas or repeat(None)):
        series = load_entry(entry, data)
        _warn_if_short(entry, len(series), width)
        yield series, slide_windows(series, width, stride)


def _catalog_windows(entries, width: int, stride: int, data):
    """Each entry's windows, yielded once its series is fed to the ``data``
    hash: its manifest fields as a JSON line, then its float64 samples."""
    for series, cut in _catalog_series(entries, width, stride):
        meta = [
            series.subject_id, series.label.name.lower(), series.sampling_rate, series.provenance.value, len(series),
        ]
        data.update(json.dumps(meta).encode("utf-8") + b"\n")
        # A view of the parsed buffer: no copy for C-contiguous little-endian float64.
        data.update(np.ascontiguousarray(series.samples, dtype="<f8"))
        yield cut


def _falls(catalog: DatasetCatalog) -> list:
    return [e for e in catalog.entries if e.activity == ActivityLabel.FALL]


def _at_least_one(options, name: str) -> None:
    if getattr(options, name) < 1:
        raise ConfigError(f"{name} must be >= 1, got {getattr(options, name)!r}")


# ---------------------------------------------------------------------------
# Alignment runs

@dataclass(frozen=True)
class AlignmentOptions:
    window: int = DEFAULT_WINDOW
    stride: int = DEFAULT_STRIDE
    bins: int = 100
    k: int = 5
    per_axis: bool = False

    def __post_init__(self):
        for name in ("window", "stride", "bins", "k"):
            _at_least_one(self, name)
        if self.bins > MAX_BINS:
            raise ConfigError(f"bins must be <= {MAX_BINS}, got {self.bins!r}")


def _fall_windows(cuts, which: str) -> WindowSet:
    """The windows of the series' ``cuts``, over their samples joined."""
    windows = WindowSet.concat(cuts)
    if not windows:
        raise DataError(f"{which} manifest yields no fall windows")
    return windows


def _scalers(values: np.ndarray) -> tuple[Scaler, Scaler]:
    """Scalers of the real (N, W, 3) window values: the mean and standard
    deviation of all values pooled, repeated on every axis, then those of
    each axis; each deviation is floored at ``STD_FLOOR``.  ``Scaler``
    refuses statistics that overflow, so numpy need not warn of them."""
    with np.errstate(over="ignore", invalid="ignore"):
        stats = [(v.mean(), max(float(v.std()), STD_FLOOR)) for v in (values, *(values[:, :, i] for i in range(3)))]
    (mu, sd), axes = stats[0], stats[1:]
    return Scaler([mu] * 3, [sd] * 3), Scaler(*zip(*axes))


def _density_pair(real, synthetic, bins: int):
    """Density curves of the real and synthetic (values, counts) pairs on one
    grid spanning both."""
    (real_vals, real_counts), (syn_vals, syn_counts) = real, synthetic
    lo = min(float(real_vals.min()), float(syn_vals.min()))
    hi = max(float(real_vals.max()), float(syn_vals.max()))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return (
        histogram_density(real_vals, bins=bins, value_range=(lo, hi), counts=real_counts),
        histogram_density(syn_vals, bins=bins, value_range=(lo, hi), counts=syn_counts),
    )


@dataclass(frozen=True)
class _RealSide:
    """What an alignment computes from its real falls alone: each series'
    length, the scalers of both sides (pooled over axes, then per axis), the
    windows over the raw sample rows they hold (``WindowSet.held``) with the
    number of windows holding each row, and the windows' k-NN radii."""

    lengths: tuple[int, ...]
    scaler: Scaler
    axis_scaler: Scaler
    windows: WindowSet
    counts: np.ndarray
    radii: np.ndarray


# The real side of the last alignment that ran, under its _real_key.  One
# real set is compared with many generators in turn, and only the generator
# changes.  One entry: another real set, window, stride or k replaces it.
_REAL_SIDE: dict[str, _RealSide] = {}


def _real_key(entries, datas, opts) -> str:
    """SHA-256 of what the real side depends on: the window, stride and k,
    then each real fall entry's manifest fields and file bytes, in manifest
    order.  Paths and file times are left out, so the same bytes elsewhere
    are the same real set, and bytes rewritten in place are not."""
    key = hashlib.sha256(json.dumps([opts.window, opts.stride, opts.k]).encode("utf-8") + b"\n")
    for entry, data in zip(entries, datas):
        meta = [
            entry.subject_id, entry.activity.name.lower(), entry.sampling_rate,
            entry.placement.value, entry.provenance.value, len(data),
        ]
        key.update(json.dumps(meta).encode("utf-8") + b"\n")
        key.update(data)
    return key.hexdigest()


def _real_side(entries, opts) -> tuple[str, _RealSide]:
    """The real side of a comparison and its key, from ``_REAL_SIDE`` when
    the key matches (warning of short series as computing it does), else
    computed from the bytes read for the key.  The caller keeps it."""
    datas = [read_file(entry.path, "recording") for entry in entries]
    key = _real_key(entries, datas, opts)
    side = _REAL_SIDE.get(key)
    if side is not None:
        for entry, length in zip(entries, side.lengths):
            _warn_if_short(entry, length, opts.window)
        return key, side
    pairs = list(_catalog_series(entries, opts.window, opts.stride, datas))
    windows = _fall_windows((cut for _, cut in pairs), "real")
    # The gathered values are freed before knn_radii gathers the rows it needs.
    scaler, axis_scaler = _scalers(windows.values)
    windows, counts = windows.held()
    radii = knn_radii(apply_scaler(scaler, windows), opts.k)
    for arr in (windows.samples, windows.starts, windows.labels, windows.subjects, counts, radii):
        arr.flags.writeable = False
    lengths = tuple(len(series) for series, _ in pairs)
    return key, _RealSide(lengths, scaler, axis_scaler, windows, counts, radii)


def run_alignment(real_manifest, synthetic_manifest, options: AlignmentOptions | None = None) -> AlignmentReport:
    """Window the fall data of both manifests and measure their alignment.

    Both sides' windows are standardized by ``apply_scaler`` with the mean
    and standard deviation of the real windows' values pooled over axes
    (per axis for ``jsd_per_axis``), so only the sample rows some window
    holds are standardized and kept.  Coverage compares the standardized
    windows as flat rows, gathered from those rows as it compares them.
    Density curves, JSD and per-axis KS are computed from each recorded
    sample once, weighted by the number of windows that hold it, which gives
    the same numbers as every window's copy of it would.  Every fall
    recording of both manifests must share one sampling rate.

    What depends on the real falls alone (their held windows and counts,
    scalers and k-NN radii) is kept for the next call,
    keyed by the window, stride, k and the real fall entries' manifest
    fields and file bytes: comparing the same real set with another
    generator reads the real files but parses none of them.  Only the last
    real set is kept, and only once a comparison with it gets past loading
    its synthetic windows.
    """
    opts = options or AlignmentOptions()
    real_entries = _falls(catalog_dataset(real_manifest))
    syn_entries = _falls(catalog_dataset(synthetic_manifest))
    _one_rate(real_entries + syn_entries)
    key, real = _real_side(real_entries, opts)
    syn_windows = _fall_windows(
        (cut for _, cut in _catalog_series(syn_entries, opts.window, opts.stride)), "synthetic"
    )
    _REAL_SIDE.clear()
    _REAL_SIDE[key] = real

    syn_windows, syn_counts = syn_windows.held()
    real_std, syn_std = (apply_scaler(real.scaler, w) for w in (real.windows, syn_windows))
    real_vals, syn_vals = real_std.samples, syn_std.samples

    # Each sample's three values share its count.
    real_curve, syn_curve = _density_pair(
        (real_vals, np.repeat(real.counts, 3)), (syn_vals, np.repeat(syn_counts, 3)), opts.bins
    )
    jsd_value = jsd(real_curve, syn_curve)

    ks = {
        axis: ks_two_sample(real_vals[:, i], syn_vals[:, i], counts=(real.counts, syn_counts))
        for i, axis in enumerate(_AXES)
    }
    cov = covered_fraction(real_std, syn_std, real.radii)

    jsd_per_axis = None
    if opts.per_axis:
        real_ax, syn_ax = (apply_scaler(real.axis_scaler, w).samples for w in (real.windows, syn_windows))
        jsd_per_axis = {
            axis: jsd(*_density_pair((real_ax[:, i], real.counts), (syn_ax[:, i], syn_counts), opts.bins))
            for i, axis in enumerate(_AXES)
        }

    return AlignmentReport(
        ks_x=ks["x"], ks_y=ks["y"], ks_z=ks["z"],
        jsd=jsd_value, coverage=cov,
        real_curve=real_curve, synthetic_curve=syn_curve,
        jsd_per_axis=jsd_per_axis,
    )


def _json_text(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Experiment configuration

@dataclass(frozen=True)
class ExperimentConfig:
    real_manifest: str
    seed: int
    synthetic_manifests: tuple[str, ...] = ()
    window: int = DEFAULT_WINDOW
    stride: int = DEFAULT_STRIDE
    mix: MixSpec = MixSpec(0.6, 0.2, 0.2)
    split_sizes: tuple[int, int, int] = (8, 2, 2)
    iterations: int = 5
    hidden_size: int = 128
    dense_units: int = 128
    train: TrainConfig = TrainConfig()
    threshold: float = 0.5
    baseline_report: str | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 < self.threshold < 1:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold!r}")
        for name in ("window", "stride", "hidden_size", "dense_units"):
            _at_least_one(self, name)
        object.__setattr__(self, "synthetic_manifests", tuple(self.synthetic_manifests))
        object.__setattr__(self, "split_sizes", tuple(self.split_sizes))
        if any(n < 0 for n in self.split_sizes) or 0 in self.split_sizes[1:]:
            raise ConfigError(
                f"split sizes must be non-negative with validation and test sizes >= 1, got {self.split_sizes}"
            )

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            synthetic_manifests=list(self.synthetic_manifests),
            mix=list(self.mix.as_tuple()),
            split_sizes=list(self.split_sizes),
            train=asdict(self.train),
        )
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a config from its JSON form, raising ConfigError for unknown
        or missing fields and for values of the wrong type or length."""
        # JSON spells the mix as its three fractions and train as an object.
        d = _checked(cls, d, "config", ConfigError, mix=tuple[float, float, float], train=dict)
        train = _checked(TrainConfig, d.get("train", {}), "train config", ConfigError)
        kwargs = dict(d, train=TrainConfig(**train))
        if "mix" in d:
            kwargs["mix"] = MixSpec(*d["mix"])
        return cls(**kwargs)

    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run_fingerprint(config: ExperimentConfig, data_sha256: str) -> str:
    """The identity that names a run's files: its config and the data it read."""
    return hashlib.sha256(f"{config.fingerprint()}:{data_sha256}".encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Reports.  A record's JSON keys are its dataclass fields: ``asdict`` writes
# them and ``_checked`` reads them back.

# The scores of one iteration, in CSV column order.
_SCORE_FIELDS = tuple(f.name for f in fields(ClassificationMetrics))


@dataclass(frozen=True)
class IterationResult:
    index: int
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int
    val_subjects: tuple[str, ...]
    test_subjects: tuple[str, ...]
    train_size: int
    best_epoch: int
    stop_reason: str


@dataclass(frozen=True)
class ExperimentReport:
    fingerprint: str
    config: dict
    data_sha256: str
    iterations: tuple[IterationResult, ...]
    mean_precision: float
    mean_recall: float
    mean_f1: float
    baseline_mean_f1: float | None = None
    delta_percent: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "ExperimentReport":
        """Rebuild a report from its JSON form, raising DataError for
        anything else.  The fingerprint names the report's files, so it must
        be a SHA-256 hex digest."""
        d = _checked(cls, d, "report", DataError, iterations=tuple[dict, ...])
        if not re.fullmatch("[0-9a-f]{64}", d["fingerprint"]):
            raise DataError(f"report fingerprint must be 64 lowercase hex digits, got {d['fingerprint']!r}")
        iterations = tuple(
            IterationResult(**_checked(IterationResult, it, f"report iteration {i}", DataError))
            for i, it in enumerate(d["iterations"])
        )
        return cls(**dict(d, iterations=iterations))

    def to_json(self) -> str:
        return _json_text(self.to_dict())

    def to_csv(self) -> str:
        lines = [";".join(("iteration",) + _SCORE_FIELDS)]
        for it in self.iterations:
            lines.append(";".join(repr(v) for v in (it.index, *(getattr(it, s) for s in _SCORE_FIELDS))))
        # Only precision, recall and F1 have means; the count columns stay empty.
        means = (repr(getattr(self, f"mean_{s}")) if hasattr(self, f"mean_{s}") else "" for s in _SCORE_FIELDS)
        lines.append(";".join(("mean", *means)))
        lines.append("")
        return "\n".join(lines)


_CURVES = ("real", "synthetic")
# The JSON layout of an alignment report around its KsResult entries.
_ALIGNMENT_JSON = {"ks": dict, "jsd": float, "coverage": float, "curves": dict}
_KS_JSON = {**dict.fromkeys(_AXES, dict), "mean_statistic": float, "mean_p_value": float}
_CURVE_JSON = {"centers": tuple[float, ...], "densities": tuple[float, ...]}


@dataclass(frozen=True)
class AlignmentReport:
    """Alignment statistics for one real/synthetic comparison."""

    ks_x: KsResult
    ks_y: KsResult
    ks_z: KsResult
    jsd: float
    coverage: float
    real_curve: DensityCurve
    synthetic_curve: DensityCurve
    jsd_per_axis: dict[str, float] | None = None

    @property
    def ks_mean_statistic(self) -> float:
        return (self.ks_x.statistic + self.ks_y.statistic + self.ks_z.statistic) / 3.0

    @property
    def ks_mean_p_value(self) -> float:
        return (self.ks_x.p_value + self.ks_y.p_value + self.ks_z.p_value) / 3.0

    def to_dict(self) -> dict:
        ks = {axis: asdict(getattr(self, f"ks_{axis}")) for axis in _AXES}
        curves = {}
        for name in _CURVES:
            curve = getattr(self, f"{name}_curve")
            curves[name] = {"centers": curve.bin_centers.tolist(), "densities": curve.densities.tolist()}
        out = {
            "ks": dict(ks, mean_statistic=self.ks_mean_statistic, mean_p_value=self.ks_mean_p_value),
            "jsd": self.jsd,
            "coverage": self.coverage,
            "curves": curves,
        }
        if self.jsd_per_axis is not None:
            out["jsd_per_axis"] = dict(self.jsd_per_axis)
        return out

    @classmethod
    def from_dict(cls, d) -> "AlignmentReport":
        """Rebuild a report from its JSON form, raising DataError for
        anything else."""
        what = "alignment report"
        d = _checked(_ALIGNMENT_JSON, d, what, DataError, jsd_per_axis=dict[str, float] | None)
        ks = _checked(_KS_JSON, d["ks"], f"{what} ks", DataError)
        curves = _checked(dict.fromkeys(_CURVES, dict), d["curves"], f"{what} curves", DataError)
        kwargs = {
            f"ks_{axis}": KsResult(**_checked(KsResult, ks[axis], f"{what} ks.{axis}", DataError))
            for axis in _AXES
        }
        for name in _CURVES:
            curve = _checked(_CURVE_JSON, curves[name], f"{what} curves.{name}", DataError)
            kwargs[f"{name}_curve"] = DensityCurve(curve["centers"], curve["densities"])
        return cls(**kwargs, jsd=d["jsd"], coverage=d["coverage"], jsd_per_axis=d.get("jsd_per_axis"))


def load_report(payload) -> ExperimentReport | AlignmentReport:
    """The report a decoded JSON payload holds, or DataError."""
    if isinstance(payload, dict) and "iterations" in payload:
        return ExperimentReport.from_dict(payload)
    if isinstance(payload, dict) and "ks" in payload:
        return AlignmentReport.from_dict(payload)
    raise DataError("not a report: expected an experiment report (iterations) or an alignment report (ks)")


# ---------------------------------------------------------------------------
# Experiment runs

def _subject_mask(windows: WindowSet, subjects) -> np.ndarray:
    return np.isin(windows.subjects, np.array(list(subjects), dtype=str))


def _load_pools(config: ExperimentConfig) -> tuple[tuple[str, ...], WindowSet, WindowSet, str]:
    """The real subjects, the real and synthetic window pools over one buffer
    of the samples read, and their SHA-256, real then synthetic in read order."""
    real_catalog = catalog_dataset(config.real_manifest)
    subjects = real_catalog.subjects()
    if len(subjects) != sum(config.split_sizes):
        raise DataError(
            f"manifest has {len(subjects)} subjects; split sizes {config.split_sizes} need {sum(config.split_sizes)}"
        )
    synthetic_entries = [e for manifest in config.synthetic_manifests for e in _falls(catalog_dataset(manifest))]
    _one_rate([*real_catalog.entries, *synthetic_entries])
    data = hashlib.sha256()
    real_cuts = list(_catalog_windows(real_catalog.entries, config.window, config.stride, data))
    windows = WindowSet.concat([*real_cuts, *_catalog_windows(synthetic_entries, config.window, config.stride, data)])
    n_real = sum(map(len, real_cuts))
    return subjects, windows.take(slice(n_real)), windows.take(slice(n_real, None)), data.hexdigest()


def _scaled_sets(config, i, split, real_windows, synthetic_pool):
    """The standardized (train, validation, test) sets of one iteration.

    Every set selects windows of the pools' one sample buffer without copying
    it; scaling copies each set's held rows once.
    """
    in_train = _subject_mask(real_windows, split.train)
    adl_pool = real_windows.take(in_train & (real_windows.labels == ActivityLabel.ADL))
    fall_pool = real_windows.take(in_train & (real_windows.labels == ActivityLabel.FALL))
    mix = compose_training_mix(
        adl_pool, fall_pool, synthetic_pool, config.mix, derive_seed(config.seed, i, "mix")
    )
    val_windows = real_windows.take(_subject_mask(real_windows, split.validation))
    test_windows = real_windows.take(_subject_mask(real_windows, split.test))
    if not val_windows or not test_windows:
        raise DataError(f"iteration {i}: empty validation or test window set")

    scaler = fit_scaler(mix)
    return tuple(apply_scaler(scaler, w) for w in (mix, val_windows, test_windows))


def _run_iteration(config, i, subjects, real_windows, synthetic_pool):
    """One split/mix/train/evaluate round; returns (result, history)."""
    split = split_subjects(subjects, config.split_sizes, derive_seed(config.seed, i, "split"))
    train_w, val_w, test_w = _scaled_sets(config, i, split, real_windows, synthetic_pool)
    model = init_model(
        derive_seed(config.seed, i, "init"),
        hidden_size=config.hidden_size,
        dense_units=config.dense_units,
    )
    try:
        best, history = train(model, train_w, val_w, config.train, seed=derive_seed(config.seed, i, "train"))
        scores = evaluate(best, test_w, config.threshold)
    except NumericError as exc:
        raise exc.within(f"iteration {i}") from exc
    except DataError as exc:
        raise DataError(f"{exc} (iteration {i})") from exc
    result = IterationResult(
        index=i,
        **asdict(scores),
        val_subjects=tuple(sorted(split.validation)),
        test_subjects=tuple(sorted(split.test)),
        train_size=len(train_w),
        best_epoch=history.best_epoch,
        stop_reason=history.stop_reason,
    )
    return result, history


def run_experiment(config: ExperimentConfig, histories: list | None = None) -> ExperimentReport:
    """Seeded multi-iteration augmentation experiment.

    Each iteration splits the real subjects, composes a training mix per the
    configured fractions (synthetic fraction 0 reproduces the baseline
    condition), standardizes with training statistics, trains the classifier,
    and scores the held-out test subjects.  Metrics are averaged over
    iterations; when a baseline report is referenced, it is read before any
    recording and the percentage delta of mean F1 is included.  Multiple
    synthetic manifests are pooled before sampling, so the drawn synthetic
    windows can come from any of them.

    ``histories``, when given, receives each iteration's ``TrainHistory`` in
    iteration order.  It is an output only: the report is the same with or
    without it.
    """
    baseline_mean_f1 = None
    if config.baseline_report is not None:
        baseline_mean_f1 = _load_baseline_mean_f1(config.baseline_report)
    subjects, real_windows, synthetic_pool, data_sha256 = _load_pools(config)
    results = []
    for i in range(config.iterations):
        result, history = _run_iteration(config, i, subjects, real_windows, synthetic_pool)
        results.append(result)
        if histories is not None:
            histories.append(history)

    mean_f1 = sum(r.f1 for r in results) / len(results)
    mean_precision = sum(r.precision for r in results) / len(results)
    mean_recall = sum(r.recall for r in results) / len(results)
    delta = None if baseline_mean_f1 is None else percent_delta(baseline_mean_f1, mean_f1)
    return ExperimentReport(
        fingerprint=_run_fingerprint(config, data_sha256),
        config=config.to_dict(),
        data_sha256=data_sha256,
        iterations=tuple(results),
        mean_precision=mean_precision,
        mean_recall=mean_recall,
        mean_f1=mean_f1,
        baseline_mean_f1=baseline_mean_f1,
        delta_percent=delta,
    )


def _load_baseline_mean_f1(path: str | Path) -> float:
    payload = read_json(path, "baseline report", DataError)
    try:
        return ExperimentReport.from_dict(payload).mean_f1
    except DataError as exc:
        raise DataError(f"baseline report is not a valid experiment report: {exc}") from None


# ---------------------------------------------------------------------------
# Report emission

def emit_report(report, fmt: str = "json", out_dir: str | Path = ".") -> list[Path]:
    """Write a report (plus any density-curve CSVs) into ``out_dir``.

    Filenames embed the report fingerprint (for alignment reports, a content
    hash).  Alignment reports are written as JSON only.  Returns the written
    paths.
    """
    files = report_files(report, fmt, out_dir)
    ensure_output_dir(out_dir)
    write_files(files)
    return [path for path, _ in files]


def report_files(report, fmt: str = "json", out_dir: str | Path = ".") -> list[tuple[Path, bytes]]:
    """The ``(path, data)`` pairs ``emit_report`` writes, without writing
    them, so several reports can be written as one set."""
    if not isinstance(report, (ExperimentReport, AlignmentReport)):
        raise ConfigError(f"cannot emit report of type {type(report).__name__}")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
    if fmt == "csv" and isinstance(report, AlignmentReport):
        raise ConfigError("alignment reports are written as JSON only")
    out_dir = Path(out_dir)

    if isinstance(report, ExperimentReport):
        path = out_dir / f"report_{report.fingerprint[:12]}.{fmt}"
        return [(path, (report.to_json() if fmt == "json" else report.to_csv()).encode("utf-8"))]

    payload = _json_text(report.to_dict()).encode("utf-8")
    tag = hashlib.sha256(payload).hexdigest()[:12]
    files = [(out_dir / f"alignment_{tag}.json", payload)]
    for name in _CURVES:
        files.append((out_dir / f"density_{name}_{tag}.csv", getattr(report, f"{name}_curve").to_csv().encode("utf-8")))
    return files
