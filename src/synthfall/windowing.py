"""Window construction and training-set assembly.

Turns accelerometer series into fixed-length labeled windows, standardizes
them with training-set statistics, partitions subjects into train/val/test,
and draws seeded real/synthetic training mixes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, DataError
from .kinematics import AccelSeries, Provenance

DEFAULT_WINDOW = 128
DEFAULT_STRIDE = 10

STD_FLOOR = 1e-8

# Guards floor() against float error in pool_size/fraction and total*fraction.
_FLOOR_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class WindowSet:
    """N windows of W x 3 samples stored as columns.

    ``values`` is a C-contiguous float64 array of shape (N, W, 3); ``labels``
    (activity label values), ``subjects`` (subject ids, "" when unknown) and
    ``synthetic`` (provenance flag) hold one entry per window.
    """

    values: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray
    synthetic: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 3 or values.shape[2] != 3:
            raise DataError(f"windows must have shape (N, W, 3), got {values.shape}")
        object.__setattr__(self, "values", values)
        for name, dtype in (("labels", np.int64), ("subjects", str), ("synthetic", bool)):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != values.shape[:1]:
                raise DataError(f"window {name} must have one entry per window")
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.values.shape[0]

    def take(self, idx) -> "WindowSet":
        """The windows selected by an index array or boolean mask, in that order."""
        return WindowSet(self.values[idx], self.labels[idx], self.subjects[idx], self.synthetic[idx])

    @classmethod
    def concat(cls, sets) -> "WindowSet":
        """The windows of every set, in order.  Empty sets add nothing, so
        their width need not match; no sets at all give an empty set of
        width 0."""
        sets = list(sets)
        parts = [s for s in sets if len(s)] or sets[:1]
        if not parts:
            return cls(np.empty((0, 0, 3)), np.empty(0), np.empty(0, dtype=str), np.empty(0))
        return cls(*(np.concatenate([getattr(s, f.name) for s in parts]) for f in fields(cls)))


def slide_windows(series: AccelSeries, width: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE) -> WindowSet:
    """Cut overlapping windows starting at offsets 0, stride, 2*stride, ...

    Yields floor((N - W)/stride) + 1 windows when N >= W, else an empty set
    of shape (0, W, 3).  Windows inherit the series label, subject, and
    provenance.
    """
    if width < 1 or stride < 1:
        raise ConfigError("window width and stride must be >= 1")
    if len(series) < width:
        values = np.empty((0, width, 3))
    else:
        # (N - W + 1, 3, W) read-only view of every offset; keep each
        # stride-th and copy, so the set owns its values.
        view = np.lib.stride_tricks.sliding_window_view(series.samples, width, axis=0)
        values = view[::stride].transpose(0, 2, 1).copy()
    count = values.shape[0]
    return WindowSet(
        values,
        np.full(count, int(series.label)),
        np.repeat(np.array(series.subject_id or ""), count),
        np.full(count, series.provenance == Provenance.SYNTHETIC),
    )


def window_counts(length: int, width: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE) -> np.ndarray:
    """For each sample of a series of ``length``, the number of the windows
    ``slide_windows`` cuts from it that contain the sample.

    A sample held by no window, such as the tail past the last window or any
    sample of a series shorter than the window, counts 0.  The counts sum to
    the window count times ``width``.
    """
    if width < 1 or stride < 1:
        raise ConfigError("window width and stride must be >= 1")
    # +1 where a window starts, -1 just past where it ends; starts are
    # distinct and so are ends, so plain fancy indexing adds each one once.
    steps = np.zeros(length + 1, dtype=np.int64)
    starts = np.arange(0, length - width + 1, stride)
    steps[starts] += 1
    steps[starts + width] -= 1
    return np.cumsum(steps[:-1])


# ---------------------------------------------------------------------------
# Standardization

@dataclass(frozen=True)
class Scaler:
    """Per-axis mean/std computed over a pooled training set."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(3)
        std = np.asarray(self.std, dtype=np.float64).reshape(3)
        if np.any(std < STD_FLOOR):
            raise DataError(f"scaler std entries must be >= {STD_FLOOR}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def fit_scaler(windows: WindowSet) -> Scaler:
    """Per-axis mean and population std over all window values pooled together."""
    if not windows:
        raise DataError("cannot fit a scaler on zero windows")
    pooled = windows.values.reshape(-1, 3)
    mean = pooled.mean(axis=0)
    std = np.maximum(pooled.std(axis=0), STD_FLOOR)
    return Scaler(mean=mean, std=std)


def apply_scaler(scaler: Scaler, windows: WindowSet) -> WindowSet:
    """Standardize window values; labels, subjects and provenance are untouched."""
    values = (windows.values - scaler.mean) / scaler.std
    if not np.all(np.isfinite(values)):
        raise DataError("standardized windows contain non-finite values")
    return replace(windows, values=values)


# ---------------------------------------------------------------------------
# Subject splits

@dataclass(frozen=True)
class SubjectSplit:
    train: frozenset[str]
    validation: frozenset[str]
    test: frozenset[str]

    def __post_init__(self):
        train, val, test = map(frozenset, (self.train, self.validation, self.test))
        if train & val or train & test or val & test:
            raise ConfigError("split groups must be pairwise disjoint")
        object.__setattr__(self, "train", train)
        object.__setattr__(self, "validation", val)
        object.__setattr__(self, "test", test)


def split_subjects(subjects, sizes: tuple[int, int, int] = (8, 2, 2), seed: int = 0) -> SubjectSplit:
    """Uniformly random disjoint partition of subjects, fully seed-determined."""
    ordered = sorted(subjects)
    n_train, n_val, n_test = sizes
    if min(sizes) < 0:
        raise ConfigError("split sizes must be non-negative")
    if n_train + n_val + n_test != len(ordered):
        raise ConfigError(
            f"split sizes {sizes} must sum to the subject count {len(ordered)}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    shuffled = [ordered[i] for i in perm]
    return SubjectSplit(
        train=frozenset(shuffled[:n_train]),
        validation=frozenset(shuffled[n_train : n_train + n_val]),
        test=frozenset(shuffled[n_train + n_val :]),
    )


# ---------------------------------------------------------------------------
# Training mixes

@dataclass(frozen=True)
class MixSpec:
    """Fractions of ADL / real-fall / synthetic-fall windows in a training set."""

    adl_fraction: float
    real_fall_fraction: float
    synthetic_fall_fraction: float

    def __post_init__(self):
        fracs = (self.adl_fraction, self.real_fall_fraction, self.synthetic_fall_fraction)
        if not all(0 <= f <= 1 for f in fracs):
            raise ConfigError("mix fractions must lie in [0, 1]")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"mix fractions must sum to 1, got {sum(fracs)}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.adl_fraction, self.real_fall_fraction, self.synthetic_fall_fraction)


def compose_training_mix(
    adl_pool: WindowSet,
    real_fall_pool: WindowSet,
    synthetic_fall_pool: WindowSet,
    spec: MixSpec,
    seed: int = 0,
) -> WindowSet:
    """Draw a shuffled training set honoring the mix fractions.

    The total size T is bounded by the scarcest pool: T = min over categories
    with fraction > 0 of floor(pool_size / fraction).  Each category then
    contributes floor(T * fraction) windows, drawn without replacement.
    """
    pools = (adl_pool, real_fall_pool, synthetic_fall_pool)
    fracs = spec.as_tuple()
    bound = None
    for pool, frac in zip(pools, fracs):
        if frac <= 0:
            continue
        if not pool:
            raise DataError(
                f"infeasible mix: empty pool for a category with fraction {frac}"
            )
        ratio = len(pool) / frac
        bound = ratio if bound is None else min(bound, ratio)
    if bound is None or not np.isfinite(bound) or bound < 1:
        raise DataError("infeasible mix: no category has a positive fraction and data")
    total = int(bound + _FLOOR_EPS)
    rng = np.random.default_rng(seed)
    picks = []
    for pool, frac in zip(pools, fracs):
        if frac <= 0:
            continue
        count = int(total * frac + _FLOOR_EPS)
        if count > len(pool):
            raise DataError(
                f"infeasible mix: need {count} windows from a pool of {len(pool)}"
            )
        picks.append((pool, rng.choice(len(pool), size=count, replace=False)))
    # The per-pool selections are freed once joined: at most two copies of
    # the mix are alive at a time.
    mix = WindowSet.concat([pool.take(idx) for pool, idx in picks])
    return mix.take(rng.permutation(len(mix)))
