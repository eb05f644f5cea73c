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
COVERAGE_BLOCK = 256  # rows per synthetic tile and per block of open real rows of covered_fraction
COVERAGE_TILE = 2 * COVERAGE_BLOCK  # rows per tile of knn_radii and per bound product of could_cover
# Both operands of every distance product are padded to a multiple of PAD
# rows, and to at least 4 * PAD, so each entry has the bits of its own two
# rows on scipy-openblas 0.3.31 (Haswell kernel, 1 and 2 threads): the
# micro-kernel's panels are whole, and no product has the at most 1024
# entries of OpenBLAS's small-matrix path, whose sums round differently.
PAD = 16
# Two rows whose squared norms are at most this have |r|^2 + |s|^2 and 2 r.s
# within the float range.
MAX_SQ_NORM = np.finfo(np.float64).max / 8
# covered_fraction's lower bound (coverage_bound): the real rows' top principal
# axes it projects onto, the subspace-iteration sweeps that find them, the
# longest rows it is built for (its dims x dims covariance is 18 MiB there),
# and its slack, relative to the squared radius and to |r|^2 + |s|^2.
BOUND_RANK = 32
BOUND_SWEEPS = 8
BOUND_MAX_DIMS = 1536
BOUND_DELTA = 1e-9
BOUND_GAMMA = 1e-9


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
    """(samples, count, values per row, take) of a non-empty set of samples,
    where ``take(idx)`` gives the rows an index array or slice selects as an
    (n, values) array.  A ``WindowSet`` is kept and gathered from its buffer
    (``WindowSet.rows``); a matrix (each window of an (N, W, C) array
    flattened) is kept as float64 and indexed, so a slice of it is a view."""
    if isinstance(samples, WindowSet):
        source = (samples, len(samples), samples.width * 3, samples.rows)
    else:
        arr = np.ascontiguousarray(samples, dtype=np.float64)
        if arr.ndim == 3:
            arr = arr.reshape(arr.shape[0], -1)
        if arr.ndim != 2:
            raise DataError("expected a non-empty set of windows or sample vectors")
        source = (arr, *arr.shape, arr.__getitem__)
    if not source[1]:
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
    return covered_fraction(coverage_bound(real, knn_radii(real, k)), synthetic)


def _blocks(n: int, size: int):
    """Slices of ``size`` rows over ``n`` rows, the last one holding the
    remainder."""
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


def _sq_norms(blocks) -> np.ndarray:
    """Each real row's squared norm, one block of rows at a time: a row's sum
    does not depend on the rows beside it, so these are the bits of one
    reduction over all the rows.  DataError names the first row whose
    squared norm is not finite or passes ``MAX_SQ_NORM``, so no sum of the
    distance kernel can overflow on real rows alone."""
    with np.errstate(over="ignore"):
        r_sq = np.concatenate([(r * r).sum(axis=1) for r in blocks])
    within = r_sq <= MAX_SQ_NORM
    if not within.all():
        row = int(np.argmin(within))
        if not np.isfinite(r_sq[row]):
            raise DataError(f"real sample {row} has a non-finite squared norm")
        raise DataError(
            f"real sample {row} has a squared norm of {r_sq[row]:.6g}, "
            f"above {MAX_SQ_NORM:.6g}, where its distances could overflow"
        )
    return r_sq


def _padded(idx: np.ndarray) -> np.ndarray:
    """The index array ``idx`` with its last index repeated up to a multiple
    of ``PAD`` of at least ``4 * PAD``; a repeated row enters no dot product
    of another row."""
    return idx[np.minimum(np.arange(max(-(-len(idx) // PAD), 4) * PAD), len(idx) - 1)]


def _sq_distances(take, r_sq, blocks, s: np.ndarray, s_sq: np.ndarray):
    """For each index array of ``blocks``, the squared Euclidean distances
    from those rows (gathered by ``take``, squared norms ``r_sq``) to every
    row of ``s`` (a ``_padded`` gather, squared norms ``s_sq``), as
    (-2 r.s) + (|r|^2 + |s|^2), in one buffer reused for every block.  Each
    block is gathered ``_padded`` and its pad rows sliced off, so every
    distance has the bits of its pair alone, and d(r, s) is d(s, r): the
    product is symmetric and the norm sum is formed first.  The operands
    are never one buffer, which numpy would take as a symmetric update of
    other bits.  Scaling the product by -2 in place is exact; the norm sums
    are formed as many rows at a time as fit a buffer of 2^16 entries, each
    still ``r_sq[i] + s_sq[j]``.  Rounding can leave entries below 0:
    callers reduce first, then clamp at 0 and take the root, both monotone,
    so the reduction picks the same entry."""
    padded = [_padded(b) for b in blocks]
    chunk = max(2**16 // len(s), 1)
    product, sums = np.empty((max(map(len, padded)), len(s))), np.empty((chunk, len(s)))
    for b, idx in zip(blocks, padded):
        sq = np.matmul(take(idx), s.T, out=product[: len(idx)])
        sq *= -2.0
        for i in range(0, len(b), chunk):
            norms = r_sq[idx[i : i + chunk], None]
            sq[i : i + chunk] += np.add(norms, s_sq, out=sums[: len(norms)])
        yield sq[: len(b)]


def knn_radii(real, k: int) -> np.ndarray:
    """Per real sample, the Euclidean distance to its k-th nearest other real
    sample; the radii depend on the real samples alone.  The rows are
    compared in pairs of tiles (I, J >= I) of ``COVERAGE_TILE`` rows
    (``_blocks``), each gathered when it is compared: a pair's distances
    update the k smallest of I's rows and, transposed, of J's.  The k-th
    smallest of a set does not depend on the order it is seen in, and each
    distance has the bits of its pair alone (``_sq_distances``), so the
    radii are those of the whole padded distance matrix, while memory grows
    with a tile's square and k numbers per row.  A real sample whose
    squared norm passes ``MAX_SQ_NORM`` is refused (``_sq_norms``)."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    _, n, _, take = _row_source(real)
    if n <= k:
        raise DataError(f"coverage needs more than k={k} real samples, got {n}")
    tiles = [np.arange(b.start, b.stop) for b in _blocks(n, COVERAGE_TILE)]
    r_sq = _sq_norms(take(t) for t in tiles)
    nearest = np.full((n, k), np.inf)  # each row's k smallest, the k-th last

    def merge(rows, sq):
        """Folds the distances ``sq`` of ``rows`` into their k smallest; a
        row with none below its k-th smallest keeps them."""
        near = sq.min(axis=1) < nearest[rows, -1]
        both = np.concatenate([nearest[rows[near]], sq[near]], axis=1)
        both.partition(k - 1, axis=1)
        nearest[rows[near]] = both[:, :k]

    for i, cols in enumerate(tiles):
        idx = _padded(cols)
        for rows, sq in zip(tiles[i:], _sq_distances(take, r_sq, tiles[i:], take(idx), r_sq[idx])):
            sq = sq[:, : len(cols)]
            if rows is cols:
                sq[np.arange(len(cols)), np.arange(len(cols))] = np.inf
            else:
                merge(cols, sq.T)
            merge(rows, sq)
    return np.sqrt(np.maximum(nearest[:, -1], 0.0))


@dataclass(frozen=True)
class CoverageBound:
    """The real side of ``covered_fraction`` (``coverage_bound``), with its
    arrays read-only: the real samples as ``_row_source`` keeps them (a
    matrix as a view of it), a float64 copy of their radii, each row's
    squared norm and, for rows of more than ``BOUND_RANK`` and at most
    ``BOUND_MAX_DIMS`` values, the lower bound's halved basis ``B``
    (dims, K), each row's ``[rB, 1]`` (n, K + 1) and its threshold (n,).
    The last three are None for other row lengths, where every open row
    meets the distance kernel."""

    real: WindowSet | np.ndarray
    radii: np.ndarray
    r_sq: np.ndarray
    basis: np.ndarray | None = None
    lifted: np.ndarray | None = None
    threshold: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.real, np.ndarray):
            object.__setattr__(self, "real", self.real.view())
        for arr in (self.real, self.radii, self.r_sq, self.basis, self.lifted, self.threshold):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def could_cover(self, rows: np.ndarray, tile: np.ndarray, s_sq: np.ndarray) -> np.ndarray:
        """Which of the real ``rows`` the bound leaves open to some row of
        ``tile`` (squared norms ``s_sq``): one (rows, K + 1) @ (K + 1, tile)
        product per ``COVERAGE_TILE`` rows, whose ``np.fmin`` over the tile
        is set against each row's threshold."""
        if self.basis is None:
            return np.ones(len(rows), dtype=bool)
        # The (K, tile) product touches fewer BLAS buffer pages than its
        # transpose, tile @ basis.
        proj = self.basis.T @ tile.T
        column = np.empty((len(proj) + 1, len(tile)))
        np.multiply(proj, -2.0, out=column[:-1])
        np.subtract((proj * proj).sum(axis=0), BOUND_GAMMA / 4 * s_sq, out=column[-1])
        could = np.empty(len(rows), dtype=bool)
        for b in _blocks(len(rows), COVERAGE_TILE):
            nearest = np.fmin.reduce(self.lifted[rows[b]] @ column, axis=1)
            could[b] = nearest <= self.threshold[rows[b]]
        return could


def _principal_axes(moment: np.ndarray) -> np.ndarray:
    """An orthonormal (dims, ``BOUND_RANK``) basis near the top eigenvectors
    of the covariance ``moment``: ``BOUND_SWEEPS`` sweeps of subspace
    iteration from the unit axes of largest variance, each product made
    orthonormal by Gram-Schmidt run twice.  The covariance is scaled to its
    largest entry and shifted by 1e-3 on its diagonal, so every product has
    full rank, also from fewer than ``BOUND_RANK`` rows.  Only matrix
    products run: ``np.linalg.eigh`` would map about 1.2 MiB of LAPACK code
    into the process on its first call."""
    # One axis per row: (K, dims) products touch fewer BLAS buffer pages.
    axes = np.zeros((BOUND_RANK, len(moment)))
    axes[np.arange(BOUND_RANK), np.argsort(np.diag(moment))[-BOUND_RANK:]] = 1.0
    scaled = moment / max(np.abs(moment).max(), np.finfo(np.float64).tiny)
    scaled[np.diag_indices_from(scaled)] += 1e-3
    for _ in range(BOUND_SWEEPS):
        axes = axes @ scaled  # the covariance is symmetric
        for j in range(BOUND_RANK):
            for _ in range(2):
                axes[j] -= (axes[:j] @ axes[j]) @ axes[:j]
            axes[j] /= np.sqrt(axes[j] @ axes[j])
    return axes.T


def coverage_bound(real, radii) -> CoverageBound:
    """The ``CoverageBound`` of the real samples and one finite radius per
    real sample, which keeps both, so ``covered_fraction`` takes it alone:
    the squared norms as ``_sq_norms`` gives them (refusing rows as
    ``knn_radii`` does), and for rows of ``BOUND_RANK < dims <=
    BOUND_MAX_DIMS`` values the bound ``covered_fraction`` describes.  Its
    basis is the real rows' top ``BOUND_RANK`` principal axes
    (``_principal_axes``), from a covariance summed ``COVERAGE_BLOCK`` rows at
    a time, halved; a covariance past the float range leaves the bound out.
    The rows are gathered twice, a block at a time: for the covariance and
    norms, then for the projections."""
    real, n, dims, rows = _row_source(real)
    radii = np.asarray(radii)
    if radii.shape != (n,) or radii.dtype.kind not in "iuf" or not np.isfinite(radii).all():
        raise DataError(
            f"coverage needs one finite radius per real sample ({n}), got {radii.dtype} radii of shape {radii.shape}"
        )
    rho = radii.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if not BOUND_RANK < dims <= BOUND_MAX_DIMS:
            return CoverageBound(real, rho, _sq_norms(rows(b) for b in _blocks(n, COVERAGE_BLOCK)))
        moment, total = np.zeros((dims, dims)), np.zeros(dims)

        def summed():
            """Each block for _sq_norms, adding it into the covariance sums."""
            for b in _blocks(n, COVERAGE_BLOCK):
                r = rows(b)
                yield r
                moment[...] += r.T @ r
                total[...] += r.sum(axis=0)

        r_sq = _sq_norms(summed())
        moment -= np.outer(total, total / n)
        if not np.isfinite(moment).all():
            return CoverageBound(real, rho, r_sq)
        basis = _principal_axes(moment) * 0.5
        # How far 2B is from orthonormal, plus the rounding of its Gram matrix.
        drift = np.abs(4.0 * (basis.T @ basis) - np.eye(BOUND_RANK)).max() + dims * np.finfo(np.float64).eps
        lifted = np.ones((n, BOUND_RANK + 1))
        for b in _blocks(n, COVERAGE_BLOCK):
            lifted[b, :-1] = rows(b) @ basis
        stretch = 1.0 + BOUND_DELTA + BOUND_RANK * drift
        threshold = (rho * rho * stretch + BOUND_GAMMA * r_sq) / 4 - (lifted[:, :-1] ** 2).sum(axis=1)
        threshold += np.finfo(np.float64).tiny
    return CoverageBound(real, rho, r_sq, basis, lifted, threshold)


def covered_fraction(bound: CoverageBound, synthetic) -> float:
    """Fraction of the real samples of ``bound`` (``coverage_bound``) whose
    nearest synthetic sample lies within (<=) that real sample's radius.
    The bound holds the real rows it was built from and their radii, so it
    can be paired with no other: a caller comparing one real set with many
    synthetic sets builds it once.

    The synthetic samples are compared one column tile of ``COVERAGE_BLOCK``
    rows at a time (``_blocks``), and a real sample leaves once a tile covers
    it: ``min``, the clamp and the root are monotone, so a tile's nearest
    distance is within the radius exactly when it bounds the nearest
    distance overall.  Each tile, and each block of the real samples still
    open, is gathered when it is compared, so memory grows with the tile,
    the block and a few numbers per real sample, not with either sample
    count times the values per sample.  A synthetic sample past the float
    range covers nothing.

    Before the distance kernel, an exact lower bound drops the (real row,
    tile) pairs that cannot cover.  With ``B`` the real rows' top
    ``BOUND_RANK`` principal axes halved, ``a = rB`` and ``b = sB``,
    4|a - b|^2 is at most (1 + K*drift)|r - s|^2, drift being how far 2B is
    from orthonormal (measured when ``B`` is built).  A row stays open to a
    tile unless, for every row ``s`` of it,

        4(|a|^2 + |b|^2 - 2 a.b) > rho^2 (1 + BOUND_DELTA + K*drift)
                                   + BOUND_GAMMA (|r|^2 + |s|^2).

    The row terms are folded into one threshold per real row and
    ``|b|^2 - BOUND_GAMMA |s|^2 / 4`` into the tile's appended column, so
    the test is one product and one ``np.fmin`` per ``COVERAGE_TILE`` open
    rows.  The slack holds every rounding error: the kernel's distance is
    within (2 dims + 4) u (|r|^2 + |s|^2) of the true one (u = 2^-53), its
    root within ``rho`` allows up to rho^2 (1 + 3u), and the projections and
    the bound's own sums add at most (4.2 sqrt(K) dims + 2.1 K + 7) u
    (|r|^2 + |s|^2); at ``BOUND_MAX_DIMS`` values all of it is below
    ``BOUND_GAMMA`` / 200.  The smallest normal float added to the
    threshold covers subnormal rounding, and halving ``B`` keeps every sum
    of a pair that could cover within the float range.  A pair the bound
    drops is thus one the kernel would not count, nan and inf included
    (``np.fmin`` skips a nan as the kernel's minimum does, and a nan bound
    drops a row the kernel's nan leaves open).  The rows left open meet the
    kernel in blocks of ``COVERAGE_BLOCK``, and a distance does not depend
    on which other rows share its block (``_sq_distances``), so each one is
    the one it was without the bound, and every row leaves at the same tile.
    """
    (_, n, dims, real_rows), (_, m, syn_dims, syn_rows) = _row_source(bound.real), _row_source(synthetic)
    if dims != syn_dims:
        raise DataError(f"real samples have {dims} values and synthetic ones {syn_dims}")
    open_rows = np.arange(n)
    # A distance past the float range overflows to inf, or to nan where it
    # takes inf - inf; fmin skips the nan, so such a sample covers nothing
    # and hides no other sample of its tile.
    with np.errstate(over="ignore", invalid="ignore"):
        for cols in (np.arange(b.start, b.stop) for b in _blocks(m, COVERAGE_BLOCK)):
            tile = syn_rows(_padded(cols))
            s_sq = (tile * tile).sum(axis=1)
            could = bound.could_cover(open_rows, tile, s_sq)
            rows, stays = open_rows[could], ~could
            if len(rows):
                blocks = [rows[b] for b in _blocks(len(rows), COVERAGE_BLOCK)]
                distances = _sq_distances(real_rows, bound.r_sq, blocks, tile, s_sq)
                nearest = np.concatenate([np.fmin.reduce(sq[:, : len(cols)], axis=1) for sq in distances])
                # Compared after the root, as squared distances could flip a tie.
                nearest = np.sqrt(np.maximum(nearest, 0.0, out=nearest), out=nearest)
                stays[could] = ~(nearest <= bound.radii[rows])
            open_rows = open_rows[stays]
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
    denominators yield 0 by convention.  Labels other than 0 and 1 and
    non-finite probabilities are refused.
    """
    probs = np.asarray(probabilities, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if probs.size != y.size:
        raise DataError(f"length mismatch: {probs.size} probabilities vs {y.size} labels")
    if probs.size == 0:
        raise DataError("classification_metrics requires at least one sample")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    if not np.isfinite(probs).all():
        raise DataError("probabilities must be finite")
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
