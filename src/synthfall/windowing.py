"""Window construction and training-set assembly.

Turns accelerometer series into fixed-length labeled windows, standardizes
them with training-set statistics, partitions subjects into train/val/test,
and draws seeded real/synthetic training mixes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .kinematics import AccelSeries

DEFAULT_WINDOW = 128
DEFAULT_STRIDE = 10

STD_FLOOR = 1e-8
SCALER_BLOCK = 256  # windows gathered at a time by fit_scaler

# Guards floor() against float error in pool_size/fraction and total*fraction.
_FLOOR_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class WindowSet:
    """N windows of ``width`` consecutive rows of one sample buffer.

    ``samples`` is a C-contiguous float64 (S, 3) buffer and ``starts`` the
    row where each window begins, so overlapping windows share their rows.
    ``labels`` (activity label values) and ``subjects`` (subject ids, ""
    when unknown) hold one entry per window.
    """

    samples: np.ndarray
    starts: np.ndarray
    width: int
    labels: np.ndarray
    subjects: np.ndarray

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise DataError(f"window samples must have shape (S, 3), got {samples.shape}")
        starts = np.asarray(self.starts, dtype=np.int64)
        if starts.ndim != 1:
            raise DataError("window starts must be one-dimensional")
        if starts.size and (self.width < 1 or starts.min() < 0 or starts.max() + self.width > len(samples)):
            raise DataError(f"windows of width {self.width} must lie in the {len(samples)} sample rows")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "starts", starts)
        for name, dtype in (("labels", np.int64), ("subjects", str)):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != starts.shape:
                raise DataError(f"window {name} must have one entry per window")
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.starts.shape[0]

    def rows(self, idx=slice(None)) -> np.ndarray:
        """A new C-contiguous (n, W*3) array of the windows ``idx`` selects
        (an index array or a slice), in that order, each window's rows
        flattened.  Each row is a copy of one row of an overlapping view of
        the buffer, so every value keeps its bits."""
        starts = self.starts[idx]
        if not len(starts):
            # sliding_window_view refuses a buffer shorter than the window.
            return np.empty((0, self.width * 3))
        view = np.lib.stride_tricks.sliding_window_view(self.samples.reshape(-1), self.width * 3)
        return view[::3][starts]

    @property
    def values(self) -> np.ndarray:
        """A new C-contiguous (N, W, 3) array of the window values."""
        return self.rows().reshape(len(self), self.width, 3)

    def counts(self) -> np.ndarray:
        """For each sample row, the number of windows that hold it; rows no
        window holds, such as a series' tail past its last window, count 0."""
        # +1 where a window starts, -1 just past where it ends.
        edges = len(self.samples) + 1
        steps = np.bincount(self.starts, minlength=edges) - np.bincount(self.starts + self.width, minlength=edges)
        return np.cumsum(steps[:-1])

    def held(self) -> tuple["WindowSet", np.ndarray]:
        """The same windows over a new buffer of only the rows some window
        holds, in order, with each start renumbered into it (every row of a
        window is held, so its rows stay consecutive), and the number of
        windows that hold each of those rows."""
        counts = self.counts()
        mask = counts > 0
        starts = (np.cumsum(mask) - 1)[self.starts]
        return replace(self, samples=np.compress(mask, self.samples, axis=0), starts=starts), counts[mask]

    def take(self, idx) -> "WindowSet":
        """The windows selected by an index array or boolean mask, in that
        order, over the same sample buffer."""
        return WindowSet(self.samples, self.starts[idx], self.width, self.labels[idx], self.subjects[idx])

    @classmethod
    def concat(cls, sets) -> "WindowSet":
        """The windows of every set, in order, over the sets' buffers joined
        (sets that share a buffer share it here too).  Empty sets add
        nothing, so their width need not match; no sets at all give an empty
        set of width 0."""
        sets = list(sets)
        parts = [s for s in sets if len(s)] or sets[:1]
        if not parts:
            return cls(np.empty((0, 3)), [], 0, [], [])
        if len({s.width for s in parts}) > 1:
            raise DataError("cannot join windows of different widths")
        offsets, buffers, starts, rows = {}, [], [], 0
        for s in parts:
            if id(s.samples) not in offsets:
                offsets[id(s.samples)], rows = rows, rows + len(s.samples)
                buffers.append(s.samples)
            starts.append(s.starts + offsets[id(s.samples)])
        columns = (np.concatenate([getattr(s, name) for s in parts]) for name in ("labels", "subjects"))
        samples = buffers[0] if len(buffers) == 1 else np.concatenate(buffers)
        return cls(samples, np.concatenate(starts), parts[0].width, *columns)


def slide_windows(series: AccelSeries, width: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE) -> WindowSet:
    """Cut overlapping windows starting at offsets 0, stride, 2*stride, ...

    Yields floor((N - W)/stride) + 1 windows when N >= W, else none.  The
    windows share the series' samples as their buffer and inherit its label
    and subject.
    """
    if width < 1 or stride < 1:
        raise ConfigError("window width and stride must be >= 1")
    starts = np.arange(0, len(series) - width + 1, stride)
    count = len(starts)
    return WindowSet(
        series.samples,
        starts,
        width,
        np.full(count, int(series.label)),
        np.repeat(np.array(series.subject_id or ""), count),
    )


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
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise DataError("scaler mean and std must be finite: the windows overflow float64")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def fit_scaler(windows: WindowSet) -> Scaler:
    """Per-axis mean and population std over all window values pooled
    together, each sample once per window that holds it.

    The windows are gathered ``SCALER_BLOCK`` at a time, so memory grows
    with the block, not the set.  The result is ``pooled.mean(axis=0)`` and
    ``pooled.std(axis=0)`` of the whole gathered set, bit for bit.
    """
    if not windows:
        raise DataError("cannot fit a scaler on zero windows")
    size = len(windows) * windows.width
    # Overflow leaves a non-finite statistic, which Scaler refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _running_sum(_blocks(windows)) / size
        var = _running_sum(np.square(rows - mean) for rows in _blocks(windows)) / size
    return Scaler(mean=mean, std=np.maximum(np.sqrt(var), STD_FLOOR))


def _blocks(windows: WindowSet):
    """The windows' rows, ``SCALER_BLOCK`` windows at a time, as (R, 3) arrays."""
    for start in range(0, len(windows), SCALER_BLOCK):
        yield windows.rows(slice(start, start + SCALER_BLOCK)).reshape(-1, 3)


def _running_sum(blocks) -> np.ndarray:
    """The column sums of the blocks stacked in order.  Each block is reduced
    with the total so far as its first row, which adds the rows in the order
    one reduction over the stacked rows does."""
    total = np.zeros(3)
    for rows in blocks:
        total = np.add.reduce(np.concatenate([total[None], rows]), axis=0)
    return total


def apply_scaler(scaler: Scaler, windows: WindowSet) -> WindowSet:
    """The windows over their held rows (``WindowSet.held``), standardized
    in place; labels and subjects are untouched.  Rows no window holds are
    neither standardized nor kept.  The check below names the overflow
    numpy would warn of."""
    held, _ = windows.held()
    samples = held.samples
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        samples -= scaler.mean
        samples /= scaler.std
    if not np.isfinite(samples).all():
        raise DataError("standardized windows contain non-finite values")
    return held


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
    mix = WindowSet.concat(pool.take(idx) for pool, idx in picks)
    return mix.take(rng.permutation(len(mix)))
