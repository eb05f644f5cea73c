import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthfall import metrics
from synthfall.errors import ConfigError, DataError
from synthfall.metrics import (
    COVERAGE_BLOCK,
    COVERAGE_TILE,
    DensityCurve,
    _ecdf_gap,
    classification_metrics,
    coverage,
    covered_fraction,
    histogram_density,
    jsd,
    knn_radii,
    ks_two_sample,
    percent_delta,
)
from synthfall.kinematics import AccelSeries
from synthfall.windowing import WindowSet, slide_windows


def ecdf_gap_oracle(a, b):
    """Brute-force D: evaluate both ECDFs at every pooled point."""
    best = 0.0
    for t in list(a) + list(b):
        fa = sum(1 for v in a if v <= t) / len(a)
        fb = sum(1 for v in b if v <= t) / len(b)
        best = max(best, abs(fa - fb))
    return best


def two_sort_ecdf_gap(a, b):
    """D from two sorts and two searchsorted calls over the pooled sample."""
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def exact_p_oracle(a, b):
    """Fraction of label assignments whose D reaches the observed one."""
    pooled = list(a) + list(b)
    observed = ecdf_gap_oracle(a, b)
    n = len(a)
    hits = 0
    total = 0
    for pick in combinations(range(len(pooled)), n):
        group_a = [pooled[i] for i in pick]
        group_b = [pooled[i] for i in range(len(pooled)) if i not in pick]
        if ecdf_gap_oracle(group_a, group_b) >= observed:
            hits += 1
        total += 1
    return hits / total


# Values with many ties (and signed zeros), each with a count that may be 0.
_VALUE = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-1e6, 1e6, allow_nan=False)
COUNTED = st.lists(st.tuples(_VALUE, st.integers(0, 4)), min_size=1, max_size=25).map(
    lambda pairs: (np.array([v for v, _ in pairs]), np.array([c for _, c in pairs]))
)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type of the toolkit error it raised."""
    try:
        return fn(*args, **kwargs)
    except (ConfigError, DataError) as exc:
        return type(exc)


def ks_bits(result):
    if isinstance(result, type):
        return result
    return (result.statistic.hex(), result.p_value.hex(), result.n, result.m)


def curve_bits(result):
    if isinstance(result, type):
        return result
    return (result.bin_centers.tobytes(), result.densities.tobytes())


class TestKs:
    def test_identical_samples(self):
        res = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_disjoint_samples(self):
        res = ks_two_sample([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert res.statistic == 1.0

    def test_exact_mode_small_case(self):
        res = ks_two_sample([1.0, 2.0], [3.0, 4.0], exact=True)
        assert res.statistic == 1.0
        assert res.p_value == pytest.approx(1.0 / 3.0)

    def test_exact_mode_matches_permutation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            a = rng.normal(size=n)
            b = rng.normal(size=m)
            res = ks_two_sample(a, b, exact=True)
            assert res.p_value == exact_p_oracle(list(a), list(b))

    def test_d_matches_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.integers(0, 4, size=rng.integers(1, 9)).astype(float)
            b = rng.integers(0, 4, size=rng.integers(1, 9)).astype(float)
            assert ks_two_sample(a, b).statistic == ecdf_gap_oracle(list(a), list(b))

    def test_d_matches_scipy_ks_2samp(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(4)
        for decimals in (None, 1):
            for _ in range(20):
                n, m = (int(v) for v in rng.integers(1, 400, size=2))
                a = rng.normal(size=n)
                b = rng.normal(0.3, 1.2, size=m)
                if decimals is not None:
                    a, b = np.round(a, decimals), np.round(b, decimals)
                expect = stats.ks_2samp(a, b).statistic
                assert ks_two_sample(a, b).statistic == pytest.approx(expect, abs=1e-12)

    def test_d_bit_equal_to_two_sort_form(self):
        rng = np.random.default_rng(8)
        for trial in range(200):
            n, m = (int(v) for v in rng.integers(1, 300, size=2))
            if trial % 2:
                a, b = rng.normal(size=n), rng.normal(0.2, 1.1, size=m)
            else:
                a = rng.integers(-3, 4, size=n).astype(float)
                b = rng.integers(-3, 4, size=m).astype(float)
            assert _ecdf_gap(a, b) == two_sort_ecdf_gap(a, b)
        # Heavy ties, as overlapping windows repeat every sample.
        a = np.repeat(rng.normal(size=2000), 13)
        b = np.repeat(rng.normal(size=1500), 13)
        assert _ecdf_gap(a, b) == two_sort_ecdf_gap(a, b)
        zeros = np.array([0.0, -0.0, 0.0, 1.0])
        assert _ecdf_gap(zeros, -zeros) == two_sort_ecdf_gap(zeros, -zeros)

    def test_exact_mode_size_limit(self):
        with pytest.raises(ConfigError):
            ks_two_sample(np.zeros(8), np.ones(8), exact=True)

    def test_empty_input(self):
        with pytest.raises(DataError):
            ks_two_sample([], [1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=20)
        b = rng.normal(size=30)
        ab = ks_two_sample(a, b)
        ba = ks_two_sample(b, a)
        assert ab.statistic == ba.statistic
        assert ab.p_value == ba.p_value

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=25)
        b = rng.normal(size=15)
        base = ks_two_sample(a, b).statistic
        assert ks_two_sample(np.exp(a), np.exp(b)).statistic == base
        assert ks_two_sample(a**3, b**3).statistic == base

    def test_same_distribution_large_p(self):
        rng = np.random.default_rng(4)
        res = ks_two_sample(rng.normal(size=400), rng.normal(size=400))
        assert res.p_value > 0.05

    def test_p_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(rng.uniform(-1, 1), size=rng.integers(2, 40))
            b = rng.normal(rng.uniform(-1, 1), size=rng.integers(2, 40))
            res = ks_two_sample(a, b)
            assert 0.0 <= res.p_value <= 1.0
            assert 0.0 <= res.statistic <= 1.0


    @given(COUNTED, COUNTED, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_repeated_values(self, a, b, exact):
        (a, ca), (b, cb) = a, b
        exact = exact and ca.sum() + cb.sum() <= 14
        counted = outcome(ks_two_sample, a, b, exact, counts=(ca, cb))
        repeated = outcome(ks_two_sample, np.repeat(a, ca), np.repeat(b, cb), exact)
        assert ks_bits(counted) == ks_bits(repeated)

    def test_plain_call_counts_each_value_once(self):
        rng = np.random.default_rng(9)
        a, b = rng.integers(-3, 4, size=40).astype(float), rng.normal(size=30)
        ones = (np.ones(40, dtype=int), np.ones(30, dtype=int))
        assert ks_two_sample(a, b) == ks_two_sample(a, b, counts=ones)

    @pytest.mark.parametrize("counts", [
        ([1, -1], [1]), ([1.0, 1.0], [1]), ([1], [1]), ([True, True], [1]),
    ])
    def test_bad_counts(self, counts):
        with pytest.raises(DataError, match="counts"):
            ks_two_sample([0.0, 1.0], [0.5], counts=counts)


class TestHistogramDensity:
    def test_single_bin_density(self):
        curve = histogram_density(np.full(10, 0.5), bins=1, value_range=(0.0, 1.0))
        assert curve.densities[0] == pytest.approx(1.0)  # width 1
        assert curve.bin_centers[0] == pytest.approx(0.5)

    def test_uniform_grid_near_equal(self):
        values = np.linspace(0.0, 1.0, 8, endpoint=False)
        curve = histogram_density(values, bins=4, value_range=(0.0, 1.0))
        counts = curve.densities * len(values) * curve.bin_width
        assert counts.max() - counts.min() <= 1.0

    def test_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = rng.normal(size=200)
            curve = histogram_density(values, int(rng.integers(1, 50)), (values.min(), values.max()))
            assert curve.densities.sum() * curve.bin_width == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_clipped_into_edges(self):
        values = np.array([-10.0, 0.25, 10.0])
        curve = histogram_density(values, bins=2, value_range=(0.0, 1.0))
        counts = curve.densities * 3 * curve.bin_width
        assert counts[0] == pytest.approx(2.0)  # -10 clipped to 0, plus 0.25
        assert counts[1] == pytest.approx(1.0)  # 10 clipped to 1

    def test_empty_values(self):
        with pytest.raises(DataError):
            histogram_density([], 4, (0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    # A range holding none of the finite values, then one holding them all.
    @pytest.mark.parametrize("value_range", [(5.0, 6.0), (0.0, 1.0)])
    def test_non_finite_values(self, bad, value_range):
        with pytest.raises(DataError, match="^histogram_density requires finite values$"):
            histogram_density([bad, 1.0, 0.0], bins=2, value_range=value_range)

    @pytest.mark.parametrize("value_range, error", [
        ((1.0, 1.0000000000000002), ConfigError), ((0.0, 5e-324), ConfigError),
    ])
    def test_range_too_narrow_for_bins(self, value_range, error):
        # Each range is one float step wide, which two bins cannot split.
        lo, hi = value_range
        with pytest.raises(error, match=rf"^range \({lo!r}, {hi!r}\) is too narrow for 2 bins$"):
            histogram_density([lo, hi], bins=2, value_range=value_range)

    @pytest.mark.parametrize("bins", [1, 2, 7, 100])
    def test_centers_near_the_float_maximum_stay_finite(self, bins):
        # Two neighbouring edges near 1.5e308 sum past the float maximum.
        hi = 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = histogram_density([-1.0, hi], bins, (-1.0, hi))
        edges = np.linspace(-1.0, hi, bins + 1)
        assert np.isfinite(curve.bin_centers).all()
        assert np.all((edges[:-1] < curve.bin_centers) & (curve.bin_centers < edges[1:]))

    def test_centers_keep_the_bits_of_the_edge_sums(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            lo, hi = np.sort(rng.normal(size=2) * 10.0 ** rng.integers(-300, 300, size=2))
            bins = int(rng.integers(1, 40))
            _, edges = np.histogram([], bins=bins, range=(lo, hi))
            got = histogram_density([lo], bins, (lo, hi)).bin_centers
            assert got.tobytes() == ((edges[:-1] + edges[1:]) / 2.0).tobytes()

    def test_csv_format(self):
        curve = histogram_density([0.25, 0.75], bins=2, value_range=(0.0, 1.0))
        lines = curve.to_csv().splitlines()
        assert lines[0] == "center;density"
        assert len(lines) == 3


    @given(COUNTED, st.integers(1, 12), st.tuples(st.floats(-5, 0), st.floats(0.5, 5)))
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_repeated_values(self, counted, bins, value_range):
        values, counts = counted
        got = outcome(histogram_density, values, bins, value_range, counts=counts)
        expect = outcome(histogram_density, np.repeat(values, counts), bins, value_range)
        assert curve_bits(got) == curve_bits(expect)

    def test_uncounted_value_fills_no_bin(self):
        # Counted, 100.0 would be clipped into the last bin.
        curve = histogram_density([0.0, 1.0, 100.0], 2, (0.0, 1.0), counts=[3, 1, 0])
        assert curve_bits(curve) == curve_bits(histogram_density([0.0, 0.0, 0.0, 1.0], 2, (0.0, 1.0)))

    def test_bad_counts(self):
        with pytest.raises(DataError, match="counts"):
            histogram_density([0.0, 1.0], 2, (0.0, 1.0), counts=[1])
        with pytest.raises(DataError, match="at least one"):
            histogram_density([0.0, 1.0], 2, (0.0, 1.0), counts=[0, 0])


class TestJsd:
    def curve(self, masses, width=1.0):
        masses = np.asarray(masses, dtype=float)
        centers = (np.arange(masses.size) + 0.5) * width
        return DensityCurve(bin_centers=centers, densities=masses / width)

    def test_identical_is_zero(self):
        p = self.curve([0.25, 0.25, 0.5])
        assert jsd(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_is_one(self):
        p = self.curve([1.0, 0.0])
        q = self.curve([0.0, 1.0])
        assert jsd(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_hand_derived_case(self):
        # masses (0.5, 0.5) vs (1, 0); mixture (0.75, 0.25):
        # KL(P||M) = 0.5 log2(0.5/0.75) + 0.5 log2(0.5/0.25)
        # KL(Q||M) = log2(1/0.75); half of each sums to ~0.311278
        p = self.curve([0.5, 0.5])
        q = self.curve([1.0, 0.0])
        assert jsd(p, q) == pytest.approx(0.311278, abs=1e-4)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            bins = int(rng.integers(2, 20))
            pm = rng.dirichlet(np.ones(bins))
            qm = rng.dirichlet(np.ones(bins))
            p, q = self.curve(pm), self.curve(qm)
            forward = jsd(p, q)
            assert forward == pytest.approx(jsd(q, p), abs=1e-12)
            assert -1e-12 <= forward <= 1.0 + 1e-12

    def test_mismatched_grids(self):
        p = self.curve([0.5, 0.5])
        q = self.curve([0.5, 0.5], width=2.0)
        with pytest.raises(DataError):
            jsd(p, q)


def coverage_oracle(real, synthetic, k):
    """O(n^2 m) double-loop reference."""
    n = len(real)
    covered = 0
    for i in range(n):
        dists = sorted(
            math.dist(real[i], real[j]) for j in range(n) if j != i
        )
        radius = dists[k - 1]
        if any(math.dist(real[i], s) <= radius for s in synthetic):
            covered += 1
    return covered / n


def dense_knn_distances(real, synthetic, k):
    """Radii and nearest synthetic distances from whole N x N and N x M
    distance matrices."""
    def dists(a, b):
        sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
        return np.sqrt(np.maximum(sq, 0.0))

    d_rr = dists(real, real)
    np.fill_diagonal(d_rr, np.inf)
    return np.partition(d_rr, k - 1, axis=1)[:, k - 1], dists(real, synthetic).min(axis=1)


def plain_nearest(a, b):
    """Nearest distance from each row of ``a`` to the rows of ``b``, from the
    plain expression |a|^2 + |b|^2 - 2 a.b clamped at 0, ``COVERAGE_BLOCK``
    rows of ``a`` at a time."""
    a_sq, b_sq = (a * a).sum(axis=1), (b * b).sum(axis=1)
    blocks = [slice(i, i + COVERAGE_BLOCK) for i in range(0, len(a), COVERAGE_BLOCK)]
    return np.sqrt(np.concatenate([
        np.maximum(a_sq[rows, None] + b_sq[None, :] - 2.0 * (a[rows] @ b.T), 0.0).min(axis=1) for rows in blocks
    ]))


def window_rows(rng, n, width=8, shift=0.0):
    """``n`` overlapping windows of ``width`` rows of one (n + width, 3)
    buffer, in a random order."""
    samples = rng.normal(shift, 1.0, size=(n + width, 3))
    return windows_over(samples, rng.permutation(n + 1)[:n], width)


def windows_over(samples, starts, width):
    """The windows of ``width`` rows of ``samples`` from each of ``starts``."""
    return WindowSet(samples, starts, width, np.zeros(len(starts), dtype=int), [""] * len(starts))


class TestCoverage:
    def test_copies_give_full_coverage(self):
        rng = np.random.default_rng(0)
        real = rng.normal(size=(20, 6))
        assert coverage(real, real.copy(), k=3) == 1.0

    def test_far_translation_gives_zero(self):
        rng = np.random.default_rng(1)
        real = rng.normal(size=(20, 6))
        assert coverage(real, real + 1000.0, k=3) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(7, 30))
            m = int(rng.integers(1, 30))
            k = int(rng.choice([1, 3, 5]))
            real = rng.normal(size=(n, 4))
            synthetic = rng.normal(size=(m, 4))
            assert coverage(real, synthetic, k=k) == coverage_oracle(real.tolist(), synthetic.tolist(), k)

    def test_matches_kdtree_oracle_at_scale(self):
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(5)
        real = rng.normal(size=(1500, 8))
        synthetic = rng.normal(0.5, 1.3, size=(1000, 8))
        nearest = spatial.cKDTree(synthetic).query(real, k=1)[0]
        # The query's nearest hit is the real sample itself, so the k-th
        # other real sample is column k.
        neighbours = spatial.cKDTree(real).query(real, k=6)[0]
        for k in (1, 5):
            radii = neighbours[:, k]
            # A relative 1e-9 on the radius keeps rounding in either distance
            # computation from deciding a tie.
            lo = float(np.mean(nearest <= radii * (1 - 1e-9)))
            hi = float(np.mean(nearest <= radii * (1 + 1e-9)))
            got = coverage(real, synthetic, k=k)
            assert lo <= got <= hi
            assert 0.0 < got < 1.0

    @pytest.mark.parametrize("n", [COVERAGE_BLOCK - 1, COVERAGE_BLOCK, 2 * COVERAGE_BLOCK + 37])
    def test_blocks_match_dense_matrices(self, n):
        rng = np.random.default_rng(n)
        real = rng.normal(size=(n, 24))
        synthetic = rng.normal(0.1, 1.1, size=(300, 24))
        for k in (1, 5):
            dense_radii, dense_nearest = dense_knn_distances(real, synthetic, k)
            # A block's matrix product may round differently from the whole
            # matrix's in the last bit.
            np.testing.assert_allclose(knn_radii(real, k), dense_radii, rtol=1e-12, atol=0)
            assert coverage(real, synthetic, k=k) == float(np.mean(dense_nearest <= dense_radii))

    @pytest.mark.parametrize("n", [1, COVERAGE_BLOCK - 1, COVERAGE_BLOCK, COVERAGE_BLOCK + 1, 2 * COVERAGE_BLOCK + 37])
    def test_nearest_equals_the_plain_expression_bit_for_bit(self, n):
        """The one distance kernel (norms added into a reused buffer, the
        product scaled by -2 in place, clamp and root after the reduction)
        gives the radii and nearest distances of the plain blocked
        expressions bit for bit."""
        rng = np.random.default_rng(100 + n)
        real = rng.normal(size=(n, 24))
        synthetic = rng.normal(0.1, 1.1, size=(300, 24))

        def plain(a, b):
            """|a|^2 + |b|^2 - 2 a.b clamped at 0, COVERAGE_BLOCK rows of a at a time."""
            a_sq, b_sq = (a * a).sum(axis=1), (b * b).sum(axis=1)
            for i in range(0, len(a), COVERAGE_BLOCK):
                rows = slice(i, i + COVERAGE_BLOCK)
                yield i, np.maximum(a_sq[rows, None] + b_sq[None, :] - 2.0 * (a[rows] @ b.T), 0.0)

        if n > 5:
            for k in (1, 5):
                radii = []
                for i, d in plain(real, real):
                    own = np.arange(len(d))
                    d[own, i + own] = np.inf
                    radii.append(np.partition(d, k - 1, axis=1)[:, k - 1])
                assert np.array_equal(knn_radii(real, k), np.sqrt(np.concatenate(radii)))
        nearest = np.sqrt(np.concatenate([d.min(axis=1) for _, d in plain(real, synthetic)]))
        # A radius of exactly the nearest distance covers its row, the next
        # float below it does not: both fractions pin every distance's bits.
        assert covered_fraction(real, synthetic, nearest) == 1.0
        assert covered_fraction(real, synthetic, np.nextafter(nearest, -np.inf)) == 0.0

    @pytest.mark.parametrize("n", [1, COVERAGE_BLOCK - 1, COVERAGE_BLOCK, COVERAGE_BLOCK + 1, 2 * COVERAGE_BLOCK + 37])
    def test_gathered_rows_match_the_same_rows_as_an_array(self, n):
        """Windows gathered from their buffer give the radii and nearest
        distances of the same rows passed as a matrix, bit for bit."""
        rng = np.random.default_rng(300 + n)
        real, synthetic = window_rows(rng, n), window_rows(rng, 300, shift=0.1)
        real_arr, syn_arr = real.rows(), synthetic.rows()
        if n > 5:
            for k in (1, 5):
                assert np.array_equal(knn_radii(real, k), knn_radii(real_arr, k))
            assert coverage(real, synthetic, k=5) == coverage(real_arr, syn_arr, k=5)
        nearest = plain_nearest(real_arr, syn_arr)
        below = np.nextafter(nearest, -np.inf)
        for r, s in ((real, synthetic), (real_arr, syn_arr)):
            assert covered_fraction(r, s, nearest) == 1.0
            assert covered_fraction(r, s, below) == 0.0

    @pytest.mark.parametrize("n", [1, COVERAGE_BLOCK - 1, COVERAGE_BLOCK, COVERAGE_BLOCK + 1, 2 * COVERAGE_BLOCK + 37])
    @pytest.mark.parametrize("dims", [1, 3, 24, 384])
    def test_blockwise_norms_match_one_reduction(self, n, dims):
        rng = np.random.default_rng(n * dims)
        r = rng.normal(size=(n, dims)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        blocks = [r[b] for b in metrics._blocks(n)]
        assert max(len(b) for b in blocks) <= COVERAGE_BLOCK
        assert np.array_equal(metrics._sq_norms(blocks), (r * r).sum(axis=1))

    @pytest.mark.parametrize("tail", [1, 2, 3, 4])
    def test_tail_blocks_of_open_rows_keep_their_bits(self, tail):
        """The first tile covers some real windows; the rest fill one whole
        block and a tail block of 1-4 rows, each gathered from the window
        buffer and compared with the second tile in the front rows of the
        reused distance buffers.  Each open row's nearest distance must have
        the bits of the plain expression on its block as a matrix."""
        rng = np.random.default_rng(400 + tail)
        width, first = 8, 40
        n = first + COVERAGE_BLOCK + tail
        real = window_rows(rng, n, width)
        # A far first tile of COVERAGE_TILE windows, then a near one.
        near = 300
        samples = np.concatenate([rng.normal(100.0, 1.0, size=(COVERAGE_TILE + width, 3)),
                                  rng.normal(size=(near + width, 3))])
        starts = np.concatenate([np.arange(COVERAGE_TILE), COVERAGE_TILE + width + rng.permutation(near)])
        synthetic = windows_over(samples, starts, width)
        assert [hi - lo for lo, hi in metrics._tiles(len(synthetic))] == [COVERAGE_TILE, near]
        real_arr, syn_arr = real.rows(), synthetic.rows()
        nearest = plain_nearest(real_arr[first:], syn_arr[COVERAGE_TILE:])
        assert nearest.max() < plain_nearest(real_arr, syn_arr[:COVERAGE_TILE]).min()
        wide = np.full(first, 1e6)  # the first tile covers these rows
        for r, s in ((real, synthetic), (real_arr, syn_arr)):
            assert covered_fraction(r, s, np.concatenate([wide, nearest])) == 1.0
            below = np.concatenate([wide, np.nextafter(nearest, -np.inf)])
            assert covered_fraction(r, s, below) == first / n

    def test_a_synthetic_window_past_the_float_range_hides_no_covering_one(self):
        """Adding a synthetic window never lowers coverage.  Distances to a
        window of 1.5e308 overflow, and inf - inf in the distance kernel
        gives nan, which must not stand in for the nearest distance of the
        tile that also holds a covering window."""
        rng = np.random.default_rng(0)
        real = [
            slide_windows(AccelSeries(samples=rng.normal(2.0, 0.3, size=(300, 3)), sampling_rate=32.0), 32, 8)
            for _ in range(3)
        ]
        far = slide_windows(AccelSeries(samples=np.full((300, 3), 1.5e308), sampling_rate=32.0), 32, 8)
        real_set, near, both = WindowSet.concat(real), real[0], WindowSet.concat([real[0], far])
        assert len(both) < COVERAGE_TILE  # one tile holds both kinds
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for r, s, s_far in ((real_set.values, near.values, both.values), (real_set, near, both)):
                assert coverage(r, s, k=5) == 1.0
                assert coverage(r, s_far, k=5) == 1.0
                assert coverage(r, far, k=5) == 0.0

    def test_real_sample_past_the_float_range_is_a_quiet_data_error(self, monkeypatch):
        """A real sample whose squared norm overflows is refused by its row,
        without numpy warnings and before any distance is computed."""

        def no_distances(*args):
            raise AssertionError("distances computed")

        monkeypatch.setattr(metrics, "_sq_distances", no_distances)
        rng = np.random.default_rng(0)
        real = rng.normal(size=(20, 6))
        real[3, 1], real[7, 4] = 1.5e308, -1.5e308
        with warnings.catch_warnings(), pytest.raises(DataError, match="^real sample 3 has a non-finite squared norm$"):
            warnings.simplefilter("error", RuntimeWarning)
            coverage(real, rng.normal(size=(10, 6)), k=3)

    def test_radii_recomputed_on_every_call(self, monkeypatch):
        """coverage keeps nothing between calls."""
        calls = []

        def counted(real, k):
            calls.append(k)
            return compute(real, k)

        compute = metrics.knn_radii
        monkeypatch.setattr(metrics, "knn_radii", counted)
        rng = np.random.default_rng(10)
        real = rng.normal(size=(20, 4))
        for _ in range(3):
            synthetic = rng.normal(size=(15, 4))
            assert coverage(real, synthetic, k=3) == coverage_oracle(real.tolist(), synthetic.tolist(), 3)
        assert calls == [3, 3, 3]

    def test_memory_grows_linearly_in_samples(self):
        """The peak scales like N (one block of rows at a time), not like an
        N x N distance matrix."""
        rng = np.random.default_rng(9)

        def peak(n):
            real = rng.normal(size=(n, 8))
            synthetic = rng.normal(size=(n, 8))
            tracemalloc.start()
            coverage(real, synthetic)
            size = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return size

        small, large = peak(1024), peak(4096)
        assert large < 4096 * 4096 * 8  # below one dense N x N float64 matrix
        assert large < 6 * small  # 4x the samples; N^2 growth would give 16x

    def test_memory_bounded_by_the_tile(self):
        """covered_fraction's peak grows with the real rows and one synthetic
        tile, not with the synthetic count.  Half the real rows are copied
        into the first tile, so the open rows are gathered once; the rest
        stay open through every tile."""
        rng = np.random.default_rng(12)
        n, dims = 300, 8
        real = rng.normal(size=(n, dims))
        radii = np.full(n, 0.5)

        def peak(m):
            synthetic = rng.normal(100.0, 1.0, size=(m, dims))
            synthetic[: n // 2] = real[: n // 2]
            tracemalloc.start()
            try:
                assert covered_fraction(real, synthetic, radii) == 0.5
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2 * COVERAGE_TILE), peak(16384)
        widest = COVERAGE_TILE + COVERAGE_TILE // 2 - 1
        # Two (block, tile) buffers and the tile's norms, plus per real row
        # its gathered values, norm, nearest distance, radius and flag.
        assert large <= 8 * (2 * COVERAGE_BLOCK * widest + widest + n * (dims + 4))
        # m grew 8x; a pass over whole rows held two (block, m) buffers,
        # 64 MiB at m = 16384.
        assert large <= small + 8 * widest

    def test_tiles_decide_ties_exactly(self):
        """Integer-valued samples make every squared distance exact in
        float64, whatever kernel BLAS picks for a block (one row runs as a
        GEMV), so the tile-by-tile rule must match the brute-force nearest
        distance exactly.  Rows are covered in the first, middle and last of
        three synthetic tiles; the rows left open fill their last block with
        2 and then with 1 row."""
        rng = np.random.default_rng(41)
        dims = 6
        first, middle, last = 300, 1, COVERAGE_BLOCK + 1  # rows each tile covers
        n = first + middle + last
        assert (n - first) % COVERAGE_BLOCK == 2 and (n - first - middle) % COVERAGE_BLOCK == 1
        # Distinct real rows 16 apart; each one's hit lies within 2 per value,
        # far nearer than any other real row's hit.
        real = 16 * np.unique(rng.integers(-50, 51, size=(2 * n, dims)), axis=0)
        real = real[rng.permutation(len(real))[:n]]
        m = 3 * COVERAGE_TILE + 100  # the remainder joins the last tile
        synthetic = rng.integers(1000, 1100, size=(m, dims))
        slots = np.concatenate([
            rng.permutation(COVERAGE_TILE)[:first],
            COVERAGE_TILE + rng.permutation(COVERAGE_TILE)[:middle],
            2 * COVERAGE_TILE + rng.permutation(m - 2 * COVERAGE_TILE)[:last],
        ])
        synthetic[slots] = real + rng.integers(-2, 3, size=real.shape)

        sq = (real * real).sum(1)[:, None] + (synthetic * synthetic).sum(1) - 2 * (real @ synthetic.T)
        assert sq.dtype == np.int64
        assert np.array_equal(sq.argmin(axis=1), slots)
        nearest = np.sqrt(sq.min(axis=1).astype(np.float64))
        below = np.nextafter(nearest, -np.inf)
        real, synthetic = real.astype(np.float64), synthetic.astype(np.float64)
        assert covered_fraction(real, synthetic, nearest) == 1.0
        assert covered_fraction(real, synthetic, below) == 0.0
        chosen = rng.random(n) < 0.5
        radii = np.where(chosen, nearest, below)
        assert covered_fraction(real, synthetic, radii) == np.count_nonzero(chosen) / n

    @pytest.mark.parametrize(
        "radii, n",
        [
            pytest.param(np.ones((5, 1)), 5, id="column"),
            pytest.param(1.0, 5, id="scalar"),
            pytest.param(np.ones(4), 5, id="short"),
            pytest.param(np.array([1.0, np.nan, 1.0]), 3, id="nan"),
            pytest.param(np.array([1.0, np.inf, 1.0]), 3, id="inf"),
            pytest.param(np.array(["1", "1", "1"]), 3, id="text"),
        ],
    )
    def test_radii_one_finite_value_per_real_row(self, radii, n):
        rng = np.random.default_rng(13)
        real = rng.normal(size=(n, 4))
        with pytest.raises(DataError, match="one finite radius per real sample"):
            covered_fraction(real, real.copy(), radii)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        real = rng.normal(size=(15, 5))
        synthetic = rng.normal(size=(12, 5))
        base = coverage(real, synthetic, k=2)
        assert coverage(real[::-1], synthetic[::-1], k=2) == base

    def test_isometry_invariance(self):
        rng = np.random.default_rng(4)
        real = rng.normal(size=(15, 5))
        synthetic = rng.normal(size=(12, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        shift = rng.normal(size=5)
        base = coverage(real, synthetic, k=3)
        assert coverage(real @ q + shift, synthetic @ q + shift, k=3) == base

    def test_window_lists_accepted(self):
        rng = np.random.default_rng(5)
        real = rng.normal(size=(8, 4, 3))
        assert coverage(real, real, k=2) == 1.0
        flat = real.reshape(8, -1)
        other = rng.normal(size=(6, 4, 3))
        assert coverage(real, other, k=2) == coverage(flat, other.reshape(6, -1), k=2)

    def test_too_few_real_samples(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DataError):
            coverage(rng.normal(size=(3, 2)), rng.normal(size=(5, 2)), k=3)

    def test_bad_k_and_mismatched_widths(self):
        rng = np.random.default_rng(7)
        real = rng.normal(size=(8, 4))
        with pytest.raises(ConfigError):
            coverage(real, real, k=0)
        with pytest.raises(DataError, match="values"):
            coverage(real, rng.normal(size=(5, 3)), k=2)


class TestClassificationMetrics:
    def test_perfect(self):
        m = classification_metrics([0.9, 0.1, 0.8], [1, 0, 1])
        assert m.precision == m.recall == m.f1 == 1.0

    def test_hand_counted(self):
        # TP=2 FP=1 FN=1 -> P = R = F1 = 2/3
        probs = [0.9, 0.8, 0.7, 0.2]
        labels = [1, 1, 0, 1]
        m = classification_metrics(probs, labels)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 0)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)

    def test_all_negative_predictions(self):
        m = classification_metrics([0.1, 0.2], [1, 1])
        assert m.f1 == 0.0
        assert m.recall == 0.0

    def test_threshold_is_inclusive(self):
        m = classification_metrics([0.5], [1], threshold=0.5)
        assert m.tp == 1

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            classification_metrics([0.5], [1, 0])

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(7)
        probs = rng.uniform(size=10_000)
        labels = rng.integers(0, 2, size=10_000)
        m = classification_metrics(probs, labels, threshold=0.4)
        tp = fp = fn = tn = 0
        for p, y in zip(probs, labels):
            pred = p >= 0.4
            if pred and y == 1:
                tp += 1
            elif pred and y == 0:
                fp += 1
            elif not pred and y == 1:
                fn += 1
            else:
                tn += 1
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)


class TestPercentDelta:
    def test_reference_pairs(self):
        assert percent_delta(0.542, 0.850) == pytest.approx(56.83, abs=0.01)
        assert percent_delta(0.740, 0.710) == pytest.approx(-4.05, abs=0.01)

    def test_equal_inputs(self):
        assert percent_delta(0.7, 0.7) == 0.0

    def test_zero_baseline(self):
        with pytest.raises(DataError):
            percent_delta(0.0, 0.5)

    @given(st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_identity_property(self, b):
        assert percent_delta(b, b) == 0.0
