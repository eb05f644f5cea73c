"""Distribution-alignment and classification metrics.

Two-sample statistics (Kolmogorov-Smirnov, Jensen-Shannon divergence over
histogram densities, nearest-neighbor coverage) quantify how closely
synthetic accelerometer values track real ones; the classification side
scores the downstream fall detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError, DataError
from .windowing import WindowSet

EXACT_KS_LIMIT = 14
COVERAGE_BLOCK = 256  # real rows per block of coverage's distance matrices
COVERAGE_TILE = 2 * COVERAGE_BLOCK  # synthetic rows per column tile of covered_fraction


def _value_counts(values: np.ndarray, counts=None, what: str = "value") -> np.ndarray:
    """``counts`` as the int64 number of times each of ``values`` occurs,
    ones when None; DataError unless they are non-negative integers, one per
    value."""
    if counts is None:
        return np.ones(values.size, dtype=np.int64)
    counts = np.asarray(counts)
    if counts.shape != values.shape or not (counts.dtype.kind in "iu" or counts.size == 0):
        raise DataError(f"{what} counts must be integers, one per value")
    if np.any(counts < 0):
        raise DataError(f"{what} counts must be non-negative")
    return counts.astype(np.int64, copy=False)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n: int
    m: int


def _ecdf_gap(a: np.ndarray, b: np.ndarray, count_a=None, count_b=None) -> float:
    """sup over thresholds of |ECDF_a - ECDF_b|, evaluated at pooled points.

    ``count_a`` and ``count_b`` give how many times each value occurs in its
    sample (once when None).  One sort of the pooled values: the running sum
    of ``a``'s counts at the last index of each run of equal values is
    ``a``'s count at or below that value.  It does not depend on the order
    inside a run, so the sort need not be stable; a value counted 0 times
    adds a point whose gap repeats the one before it.
    """
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled)
    values = pooled[order]
    counts = np.concatenate([_value_counts(a, count_a), _value_counts(b, count_b)])[order]
    below_a = np.cumsum(np.where(order < a.size, counts, 0))
    below_b = np.cumsum(counts) - below_a
    run_end = np.append(values[1:] != values[:-1], True)
    n, m = below_a[-1], below_b[-1]
    return float(np.max(np.abs(below_a[run_end] / n - below_b[run_end] / m)))


def _kolmogorov_survival(lam: float) -> float:
    """Two-sided asymptotic tail: 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2)."""
    if lam < 0.2:
        # Survival is 1 within double precision below this point and the
        # alternating series converges too slowly to evaluate directly.
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 1001):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term <= 1e-16 * abs(total):
            break
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def ks_two_sample(a, b, exact: bool = False, counts=None) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    D is the maximum gap between the two empirical CDFs.  The default p-value
    uses the asymptotic Kolmogorov distribution with the small-sample
    correction lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D on the effective
    size ne = n*m/(n+m).  With ``exact=True`` (n+m <= 14 only) the p-value is
    the fraction of all C(n+m, n) label assignments whose D reaches the
    observed one.

    ``counts``, a pair of integer arrays, says how many times each value of
    ``a`` and of ``b`` occurs; n and m are their sums.  The result is the one
    ``np.repeat(a, counts[0])`` against ``np.repeat(b, counts[1])`` gives,
    bit for bit, so overlapping windows can pass each sample once with the
    number of windows that hold it.  None counts every value once.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    count_a, count_b = (None, None) if counts is None else counts
    count_a = _value_counts(a, count_a, "ks_two_sample")
    count_b = _value_counts(b, count_b, "ks_two_sample")
    n, m = int(count_a.sum()), int(count_b.sum())
    if n == 0 or m == 0:
        raise DataError("ks_two_sample requires non-empty samples")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("ks_two_sample requires finite samples")
    d = _ecdf_gap(a, b, count_a, count_b)
    if exact:
        if n + m > EXACT_KS_LIMIT:
            raise ConfigError(f"exact mode supports n+m <= {EXACT_KS_LIMIT}, got {n + m}")
        pooled = np.repeat(np.concatenate([a, b]), np.concatenate([count_a, count_b]))
        hits = 0
        total = 0
        for pick in combinations(range(n + m), n):
            mask = np.zeros(n + m, dtype=bool)
            mask[list(pick)] = True
            if _ecdf_gap(pooled[mask], pooled[~mask]) >= d:
                hits += 1
            total += 1
        p = hits / total
    else:
        ne = n * m / (n + m)
        lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
        p = _kolmogorov_survival(lam)
    return KsResult(statistic=d, p_value=p, n=n, m=m)


# ---------------------------------------------------------------------------
# Histogram densities and Jensen-Shannon divergence

@dataclass(frozen=True)
class DensityCurve:
    """Equal-width histogram density rendered as (bin center, density) pairs."""

    bin_centers: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.bin_centers, dtype=np.float64)
        dens = np.asarray(self.densities, dtype=np.float64)
        if centers.ndim != 1 or centers.shape != dens.shape or centers.size == 0:
            raise DataError("density curve needs matching 1-D centers and densities")
        if np.any(dens < 0):
            raise DataError("densities must be non-negative")
        object.__setattr__(self, "bin_centers", centers)
        object.__setattr__(self, "densities", dens)

    @property
    def bin_width(self) -> float:
        if self.bin_centers.size == 1:
            # Width is not recoverable from a single center; integral of the
            # one bin is density * width = 1, so invert.
            return 1.0 / self.densities[0] if self.densities[0] > 0 else 1.0
        return float(self.bin_centers[1] - self.bin_centers[0])

    def masses(self) -> np.ndarray:
        return self.densities * self.bin_width

    def to_csv(self) -> str:
        lines = ["center;density"]
        for c, d in zip(self.bin_centers, self.densities):
            lines.append(f"{c:.17g};{d:.17g}")
        lines.append("")
        return "\n".join(lines)


def histogram_density(values, bins: int, value_range: tuple[float, float], counts=None) -> DensityCurve:
    """Histogram density over ``bins`` equal-width bins of ``value_range``;
    out-of-range values land in the edge bins rather than being dropped.

    ``counts``, integers one per value, says how many times each value
    occurs: the curve is the one ``np.repeat(values, counts)`` gives, bit for
    bit, and a value counted 0 times fills no bin.  None counts every value
    once.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    counts = _value_counts(values, counts, "histogram_density")
    total = int(counts.sum())
    if total == 0:
        raise DataError("histogram_density requires at least one value")
    if bins < 1:
        raise ConfigError("bins must be >= 1")
    if not np.all(np.isfinite(values)):
        raise DataError("histogram_density requires finite values")
    lo, hi = value_range
    if not lo < hi:
        raise ConfigError(f"range must satisfy lo < hi, got ({lo}, {hi})")
    # np.histogram cuts the range at these edges and refuses bins of no width.
    edges = np.linspace(lo, hi, bins + 1)
    if not np.all(edges[:-1] < edges[1:]):
        raise ConfigError(f"range ({lo}, {hi}) is too narrow for {bins} bins")
    clipped = np.clip(values, lo, hi)
    hist, edges = np.histogram(clipped, bins=bins, range=(lo, hi), weights=counts)
    width = (hi - lo) / bins
    densities = hist / (total * width)
    # Halving each edge first is exact: a center keeps the bits of (left + right) / 2
    # but cannot overflow near the float maximum.
    centers = edges[:-1] / 2.0 + edges[1:] / 2.0
    return DensityCurve(bin_centers=centers, densities=densities)


def jsd(p: DensityCurve, q: DensityCurve) -> float:
    """Jensen-Shannon divergence (base-2 logs, range [0, 1]) between two
    density curves on the same bin grid."""
    if p.bin_centers.shape != q.bin_centers.shape or not np.allclose(
        p.bin_centers, q.bin_centers, rtol=1e-12, atol=1e-12
    ):
        raise DataError("jsd requires identical bin grids")
    pm = p.masses()
    qm = q.masses()
    mm = 0.5 * (pm + qm)

    def kl(x: np.ndarray) -> float:
        mask = x > 0
        return float(np.sum(x[mask] * np.log2(x[mask] / mm[mask])))

    return 0.5 * kl(pm) + 0.5 * kl(qm)


# ---------------------------------------------------------------------------
# Coverage

def _row_source(samples):
    """(count, values per row, take) of a non-empty set of samples, where
    ``take(idx)`` gives the rows an index array or slice selects as an
    (n, values) array.  A ``WindowSet`` is gathered from its buffer
    (``WindowSet.rows``); a matrix (each window of an (N, W, C) array
    flattened) is indexed, so a slice of it is a view."""
    if isinstance(samples, WindowSet):
        source = (len(samples), samples.width * 3, samples.rows)
    else:
        arr = np.ascontiguousarray(samples, dtype=np.float64)
        if arr.ndim == 3:
            arr = arr.reshape(arr.shape[0], -1)
        if arr.ndim != 2:
            raise DataError("expected a non-empty set of windows or sample vectors")
        source = (*arr.shape, arr.__getitem__)
    if not source[0]:
        raise DataError("expected a non-empty set of windows or sample vectors")
    return source


def coverage(real, synthetic, k: int = 5) -> float:
    """Fraction of real samples whose k-NN ball contains a synthetic sample.

    Each window is flattened to a vector.  A real sample's radius is the
    Euclidean distance to its k-th nearest neighbor among the *other* real
    samples (``knn_radii``); it counts as covered when some synthetic sample
    lies within (<=) that radius (``covered_fraction``).  Memory grows with
    the sample count, not its square.
    """
    return covered_fraction(real, synthetic, knn_radii(real, k))


def _blocks(n: int):
    """Slices of ``COVERAGE_BLOCK`` rows over ``n`` rows."""
    return (slice(start, min(start + COVERAGE_BLOCK, n)) for start in range(0, n, COVERAGE_BLOCK))


def _sq_norms(blocks) -> np.ndarray:
    """Each row's squared norm, one block of rows at a time: a row's sum
    does not depend on the rows beside it, so these are the bits of one
    reduction over all the rows."""
    return np.concatenate([(r * r).sum(axis=1) for r in blocks])


def _sq_distances(blocks, s: np.ndarray, s_sq: np.ndarray):
    """For each (rows, their squared norms) pair of ``blocks``, at most
    ``COVERAGE_BLOCK`` rows and the largest first, the squared Euclidean
    distances from those rows to every row of ``s`` as |r|^2 + |s|^2 - 2 r.s,
    in one of two buffers reused for every block.  Scaling the product by -2
    in place is exact; scaling a copy of ``r`` instead can change bits where
    BLAS takes a block times its own transpose as a symmetric update.
    Rounding can leave entries below 0: callers reduce first, then clamp at
    0 and take the root, both monotone, so the reduction picks the same
    entry."""
    norms = product = None
    for r, r_sq in blocks:
        if norms is None:
            norms, product = np.empty((len(r), len(s))), np.empty((len(r), len(s)))
        rows = len(r)
        np.add(r_sq[:, None], s_sq, out=norms[:rows])
        sq = np.matmul(r, s.T, out=product[:rows])
        sq *= -2.0
        sq += norms[:rows]
        yield sq


def knn_radii(real, k: int) -> np.ndarray:
    """Per real sample, the Euclidean distance to its k-th nearest other real
    sample; the radii depend on the real samples alone.  A ``WindowSet``
    is gathered once, for this call only."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    n, _, take = _row_source(real)
    if n <= k:
        raise DataError(f"coverage needs more than k={k} real samples, got {n}")
    r = take(slice(None))
    blocks = list(_blocks(n))
    with np.errstate(over="ignore"):
        r_sq = _sq_norms(r[b] for b in blocks)
    if not np.isfinite(r_sq).all():
        raise DataError(f"real sample {np.argmin(np.isfinite(r_sq))} has a non-finite squared norm")
    radii = np.empty(n)
    for b, sq in zip(blocks, _sq_distances(((r[b], r_sq[b]) for b in blocks), r, r_sq)):
        own = np.arange(sq.shape[0])
        sq[own, b.start + own] = np.inf
        sq.partition(k - 1, axis=1)
        radii[b] = sq[:, k - 1]
    return np.sqrt(np.maximum(radii, 0.0, out=radii), out=radii)


def _tiles(m: int):
    """(start, stop) column tiles of ``COVERAGE_TILE`` rows over ``m`` rows;
    a remainder of less than half a tile joins the last tile."""
    edges = list(range(0, m, COVERAGE_TILE)) + [m]
    if len(edges) > 2 and m - edges[-2] < COVERAGE_TILE // 2:
        del edges[-2]
    return zip(edges[:-1], edges[1:])


def covered_fraction(real, synthetic, radii) -> float:
    """Fraction of real samples whose nearest synthetic sample lies within
    (<=) that real sample's radius, one finite radius per real sample.

    The synthetic samples are compared one column tile at a time, and a real
    sample leaves once a tile covers it: ``min``, the clamp and the root are
    monotone, so a tile's nearest distance is within the radius exactly when
    it bounds the nearest distance overall.  Each tile, and each block of
    the real samples still open, is gathered when it is compared, so memory
    grows with the tile, the block and one number per real sample, not with
    either sample count times the values per sample.
    """
    (n, dims, real_rows), (m, syn_dims, syn_rows) = _row_source(real), _row_source(synthetic)
    if dims != syn_dims:
        raise DataError(f"real samples have {dims} values and synthetic ones {syn_dims}")
    radii = np.asarray(radii)
    if radii.shape != (n,) or radii.dtype.kind not in "iuf" or not np.isfinite(radii).all():
        raise DataError(
            f"coverage needs one finite radius per real sample ({n}), "
            f"got {radii.dtype} radii of shape {radii.shape}"
        )
    r_sq = _sq_norms(real_rows(b) for b in _blocks(n))
    open_rows = np.arange(n)
    # A distance past the float range overflows to inf, or to nan where it
    # takes inf - inf; fmin skips the nan, so such a sample covers nothing
    # and hides no other sample of its tile.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _tiles(m):
            tile = syn_rows(slice(lo, hi))
            blocks = ((real_rows(open_rows[b]), r_sq[open_rows[b]]) for b in _blocks(len(open_rows)))
            sq_tile = _sq_distances(blocks, tile, (tile * tile).sum(axis=1))
            nearest = np.concatenate([np.fmin.reduce(sq, axis=1) for sq in sq_tile])
            # Compared after the root, as squared distances could flip a tie.
            nearest = np.sqrt(np.maximum(nearest, 0.0, out=nearest), out=nearest)
            open_rows = open_rows[~(nearest <= radii[open_rows])]
            if not len(open_rows):
                break
    return float((n - len(open_rows)) / n)


# ---------------------------------------------------------------------------
# Classifier scoring

@dataclass(frozen=True)
class ClassificationMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def classification_metrics(probabilities, labels, threshold: float = 0.5) -> ClassificationMetrics:
    """Confusion counts and precision/recall/F1 at a probability threshold.

    Predicts the positive (fall) class when probability >= threshold; zero
    denominators yield 0 by convention.
    """
    probs = np.asarray(probabilities, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel().astype(np.int64)
    if probs.size != y.size:
        raise DataError(f"length mismatch: {probs.size} probabilities vs {y.size} labels")
    if probs.size == 0:
        raise DataError("classification_metrics requires at least one sample")
    pred = probs >= threshold
    pos = y == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ClassificationMetrics(precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn, tn=tn)


def percent_delta(baseline_f1: float, augmented_f1: float) -> float:
    """Signed percentage change of augmented vs. baseline F1."""
    if not baseline_f1 > 0:
        raise DataError("percent_delta requires a positive baseline F1")
    return 100.0 * (augmented_f1 - baseline_f1) / baseline_f1
