import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthfall import metrics
from synthfall.errors import ConfigError, DataError
from synthfall.metrics import (
    BOUND_MAX_DIMS,
    BOUND_RANK,
    COVERAGE_BLOCK,
    COVERAGE_TILE,
    MAX_SQ_NORM,
    PAD,
    DensityCurve,
    _ecdf_gap,
    classification_metrics,
    coverage,
    coverage_bound,
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

    def test_matches_scipy_oracle(self):
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(11)

        def masses(bins):
            m = rng.dirichlet(np.ones(bins))
            m[rng.random(bins) < 0.3] = 0.0  # empty bins on either side
            m[rng.integers(bins)] += 0.5
            return m / m.sum()

        for _ in range(500):
            bins = int(rng.integers(1, 41))
            p, q = self.curve(masses(bins)), self.curve(masses(bins))
            expect = spatial.distance.jensenshannon(p.masses(), q.masses(), base=2) ** 2
            assert jsd(p, q) == pytest.approx(expect, abs=1e-12)

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


def padded_product(a, b):
    """a @ b.T with each operand padded, by repeating its last row, to a
    multiple of ``PAD`` rows of at least ``4 * PAD``, then sliced back: the
    whole-matrix product whose entries the distance kernel reproduces."""
    def pad(x):
        return x[np.minimum(np.arange(max(-(-len(x) // PAD), 4) * PAD), len(x) - 1)]

    return (pad(a) @ pad(b).T)[: len(a), : len(b)]


def plain_sq_distances(a, b):
    """|a|^2 + |b|^2 - 2 a.b over the whole padded product, unclamped."""
    a_sq, b_sq = (a * a).sum(axis=1), (b * b).sum(axis=1)
    return a_sq[:, None] + b_sq[None, :] - 2.0 * padded_product(a, b)


def plain_radii(real, k):
    """knn_radii's reference: the k-th smallest of each row of the whole
    padded distance matrix, its diagonal left out, clamped at 0."""
    d = plain_sq_distances(real, real)
    np.fill_diagonal(d, np.inf)
    return np.sqrt(np.maximum(np.partition(d, k - 1, axis=1)[:, k - 1], 0.0))


def plain_nearest(a, b):
    """Nearest distance from each row of ``a`` to the rows of ``b``, from the
    plain expression |a|^2 + |b|^2 - 2 a.b on the padded product, clamped
    at 0."""
    return np.sqrt(np.maximum(plain_sq_distances(a, b), 0.0).min(axis=1))


def tile_lengths(m, size):
    """The row counts of ``metrics._blocks(m, size)``: whole tiles of
    ``size`` rows, then the remainder."""
    whole, rest = divmod(m, size)
    return [size] * whole + [rest] * (rest > 0)


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
        """The one distance kernel (padded tiles and blocks, norms added into
        a reused buffer, the product scaled by -2 in place, clamp and root
        after the reduction) gives the radii and nearest distances of the
        plain expressions on the whole padded product bit for bit."""
        rng = np.random.default_rng(100 + n)
        real = rng.normal(size=(n, 24))
        synthetic = rng.normal(0.1, 1.1, size=(300, 24))
        if n > 5:
            for k in (1, 5):
                assert np.array_equal(knn_radii(real, k), plain_radii(real, k))
        nearest = plain_nearest(real, synthetic)
        # A radius of exactly the nearest distance covers its row, the next
        # float below it does not: both fractions pin every distance's bits.
        assert covered_fraction(coverage_bound(real, nearest), synthetic) == 1.0
        assert covered_fraction(coverage_bound(real, np.nextafter(nearest, -np.inf)), synthetic) == 0.0

    @pytest.mark.parametrize("tile", [96, 128, 200, COVERAGE_TILE])
    def test_tiles_of_any_size_give_the_whole_matrix_bits(self, tile, monkeypatch):
        """Radii and nearest distances are those of the whole padded matrix,
        bit for bit, whatever the size of knn_radii's tiles (``COVERAGE_TILE``)
        and of covered_fraction's tiles and blocks (``COVERAGE_BLOCK``), at
        1001 real and 517 synthetic rows of 384 values, neither a multiple of
        ``PAD``.  Each call's tiles are recorded, so a size read before the
        patch fails here.  At tile 200, knn_radii's last tile holds 1 row,
        padded to ``4 * PAD``."""
        monkeypatch.setattr(metrics, "COVERAGE_TILE", tile)
        monkeypatch.setattr(metrics, "COVERAGE_BLOCK", tile // 2)
        blocks, calls = metrics._blocks, []

        def recorded(n, size):
            made = list(blocks(n, size))
            calls.append((sys._getframe(1).f_code.co_name, n, [b.stop - b.start for b in made]))
            return iter(made)

        monkeypatch.setattr(metrics, "_blocks", recorded)
        rng = np.random.default_rng(700)
        real, synthetic = window_rows(rng, 1001, 128).rows(), window_rows(rng, 517, 128, shift=0.1).rows()
        for k in (1, 5):
            assert np.array_equal(knn_radii(real, k), plain_radii(real, k))
        assert [made for caller, _, made in calls if caller == "knn_radii"] == 2 * [tile_lengths(1001, tile)]
        nearest = plain_nearest(real, synthetic)
        assert covered_fraction(coverage_bound(real, nearest), synthetic) == 1.0
        assert covered_fraction(coverage_bound(real, np.nextafter(nearest, -np.inf)), synthetic) == 0.0
        # covered_fraction also cuts each tile's open real rows into blocks.
        tiles = [made for caller, n, made in calls if (caller, n) == ("covered_fraction", 517)]
        assert tiles == 2 * [tile_lengths(517, tile // 2)]

    @pytest.mark.parametrize("n, m", [(12, 40), (COVERAGE_BLOCK + 5, 50)])
    def test_small_products_keep_the_whole_matrix_bits(self, n, m):
        """A few real rows, or a 5-row tail block of open rows, against a few
        synthetic rows of 384 values give the bits of the whole padded
        matrix: padding to at least ``4 * PAD`` rows keeps every product off
        BLAS's path for the smallest products, whose sums round otherwise."""
        rng = np.random.default_rng(900 + n)
        real, synthetic = window_rows(rng, n, 128).rows(), window_rows(rng, m, 128, shift=0.1).rows()
        assert np.array_equal(knn_radii(real, 5), plain_radii(real, 5))
        nearest = plain_nearest(real, synthetic)
        assert covered_fraction(coverage_bound(real, nearest), synthetic) == 1.0
        assert covered_fraction(coverage_bound(real, np.nextafter(nearest, -np.inf)), synthetic) == 0.0

    def test_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """knn_radii and covered_fraction's nextafter bracket on 2047 real
        windows of 384 values (no multiple of ``PAD``), each computed in a
        process of one and of two BLAS threads, give the same bytes.  With
        unpadded (256, n) products, one of these radii moved between the two
        thread counts."""
        rng = np.random.default_rng(806)
        real, synthetic = window_rows(rng, 2047, 128).rows(), window_rows(rng, 600, 128, shift=0.1).rows()
        np.savez(tmp_path / "rows.npz", real=real, synthetic=synthetic, nearest=plain_nearest(real, synthetic))
        script = (
            "import sys, numpy as np\n"
            "from synthfall.metrics import coverage_bound, covered_fraction, knn_radii\n"
            "d = np.load(sys.argv[1])\n"
            "fractions = [covered_fraction(coverage_bound(d['real'], r), d['synthetic'])\n"
            "             for r in (d['nearest'], np.nextafter(d['nearest'], -np.inf))]\n"
            "print(knn_radii(d['real'], 5).tobytes().hex(), fractions)\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "rows.npz")], capture_output=True, text=True, check=True,
                env={
                    **os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                    "PYTHONPATH": str(Path(metrics.__file__).parents[1]),
                },
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith(" [1.0, 0.0]\n")

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
            assert covered_fraction(coverage_bound(r, nearest), s) == 1.0
            assert covered_fraction(coverage_bound(r, below), s) == 0.0

    @pytest.mark.parametrize("n", [1, COVERAGE_BLOCK - 1, COVERAGE_BLOCK, COVERAGE_BLOCK + 1, 2 * COVERAGE_BLOCK + 37])
    @pytest.mark.parametrize("dims", [1, 3, 24, 384])
    def test_blockwise_norms_match_one_reduction(self, n, dims):
        rng = np.random.default_rng(n * dims)
        r = rng.normal(size=(n, dims)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        blocks = [r[b] for b in metrics._blocks(n, COVERAGE_BLOCK)]
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
        # A far first tile of COVERAGE_BLOCK windows, then near ones.
        near = 300
        samples = np.concatenate([rng.normal(100.0, 1.0, size=(COVERAGE_BLOCK + width, 3)),
                                  rng.normal(size=(near + width, 3))])
        starts = np.concatenate([np.arange(COVERAGE_BLOCK), COVERAGE_BLOCK + width + rng.permutation(near)])
        synthetic = windows_over(samples, starts, width)
        cut = [b.stop - b.start for b in metrics._blocks(len(synthetic), COVERAGE_BLOCK)]
        assert cut == [COVERAGE_BLOCK, COVERAGE_BLOCK, near - COVERAGE_BLOCK]
        real_arr, syn_arr = real.rows(), synthetic.rows()
        nearest = plain_nearest(real_arr[first:], syn_arr[COVERAGE_BLOCK:])
        assert nearest.max() < plain_nearest(real_arr, syn_arr[:COVERAGE_BLOCK]).min()
        wide = np.full(first, 1e6)  # the first tile covers these rows
        for r, s in ((real, synthetic), (real_arr, syn_arr)):
            assert covered_fraction(coverage_bound(r, np.concatenate([wide, nearest])), s) == 1.0
            below = np.concatenate([wide, np.nextafter(nearest, -np.inf)])
            assert covered_fraction(coverage_bound(r, below), s) == first / n

    @pytest.mark.parametrize("rows", [1, PAD - 1, PAD, PAD + 1, 128, COVERAGE_BLOCK])
    def test_one_buffer_kernel_matches_the_two_buffer_expression(self, rows):
        """The kernel adds |r|^2 + |s|^2 into the scaled product ``PAD`` rows
        at a time.  Every distance keeps the bits of the sums formed for the
        whole padded matrix in a second buffer, for blocks of ``rows`` rows
        and a shorter tail, against other rows and against the rows
        themselves."""
        rng = np.random.default_rng(500 + rows)
        r = rng.normal(size=(2 * rows + 3, 24)) * rng.uniform(0.1, 10.0, size=(2 * rows + 3, 1))
        for s in (rng.normal(0.2, 1.3, size=(301, 24)), r):
            r_sq, s_sq = (r * r).sum(axis=1), (s * s).sum(axis=1)
            expect = padded_product(r, s)
            expect *= -2.0
            expect += np.add(r_sq[:, None], s_sq)
            cols = metrics._padded(np.arange(len(s)))
            blocks = [np.arange(i, min(i + rows, len(r))) for i in range(0, len(r), rows)]
            kernel = metrics._sq_distances(r.__getitem__, r_sq, blocks, s[cols], s_sq[cols])
            for b, sq in zip(blocks, kernel, strict=True):
                assert np.array_equal(sq[:, : len(s)], expect[b])

    def test_cold_radii_peak_within_the_rows_and_one_block(self):
        """A cold knn_radii holds two gathered tiles, one product of two
        tiles, the merge's copies of a tile's distances, a (PAD, tile) sum
        buffer and a few numbers per row: not every gathered row, whose
        values here pass that bound by more than half."""
        rng = np.random.default_rng(14)
        n, width, k = 6000, 128, 5
        real = window_rows(rng, n, width)
        tracemalloc.start()
        try:
            knn_radii(real, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = COVERAGE_TILE + PAD
        bound = 8 * (2 * tile * 3 * width + 3 * tile * (tile + k) + PAD * tile + n * (k + 4)) + 64 * 1024
        assert 1.5 * bound < 8 * n * 3 * width
        assert peak <= bound

    @pytest.mark.parametrize("n", [127, 128, 129, COVERAGE_BLOCK - 1, COVERAGE_BLOCK + 1])
    def test_block_edges_match_brute_force(self, n):
        """Radii and coverage about 128 real rows, a multiple of the kernel's
        ``PAD`` rows, and at the edges of covered_fraction's
        ``COVERAGE_BLOCK`` row blocks."""
        rng = np.random.default_rng(600 + n)
        real, synthetic = rng.normal(size=(n, 4)), rng.normal(0.3, 1.2, size=(40, 4))
        rows = real.tolist()
        expect = [sorted(math.dist(a, b) for j, b in enumerate(rows) if j != i)[4] for i, a in enumerate(rows)]
        np.testing.assert_allclose(knn_radii(real, 5), expect, rtol=1e-12, atol=0)
        assert coverage(real, synthetic, k=5) == coverage_oracle(rows, synthetic.tolist(), 5)

    def test_pairwise_sums_past_the_float_range_are_refused(self):
        """Finite squared norms can still overflow |r|^2 + |s|^2 and leave
        nan distances that the partition skips, which gave radii of 9.8e153
        for rows 1e140 apart.  A real row past ``MAX_SQ_NORM`` is refused by
        the first such row, without numpy warnings."""
        rng = np.random.default_rng(16)
        far = np.full((6, 6), 4e153) + rng.normal(0.0, 1e140, size=(6, 6))
        real = np.concatenate([rng.normal(size=(6, 6)), far])
        for compare in (lambda: knn_radii(real, 2), lambda: coverage(real, rng.normal(size=(5, 6)), k=2)):
            with pytest.raises(DataError, match=r"^real sample 6 has a squared norm of 9\.6\d*e\+307, above"):
                compare()

    def test_rows_within_the_norm_bound_give_finite_radii(self):
        """At the bound, the sums and products of the distance kernel stay
        within the float range: rows of +c and -c, 2c * sqrt(6) apart."""
        c = np.sqrt(MAX_SQ_NORM / 6) * (1 - 1e-12)
        real = np.repeat([[c], [-c]], 6, axis=0) * np.ones(6)
        assert ((real * real).sum(axis=1) <= MAX_SQ_NORM).all()
        np.testing.assert_allclose(knn_radii(real, 6), 2 * c * np.sqrt(6), rtol=1e-12)

    def test_covered_fraction_refuses_a_real_row_past_the_float_range(self):
        """covered_fraction's bound refuses real rows as knn_radii does,
        before the squares overflow into a warning and an uncovered row."""
        rng = np.random.default_rng(17)
        real = rng.normal(size=(5, 4))
        real[2, 1] = 1.5e308
        with pytest.raises(DataError, match="^real sample 2 has a non-finite squared norm$"):
            covered_fraction(coverage_bound(real, np.ones(5)), rng.normal(size=(6, 4)))

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
                assert covered_fraction(coverage_bound(real, radii), synthetic) == 0.5
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
        distance exactly.  Rows are covered in each of covered_fraction's
        four synthetic tiles, three of ``COVERAGE_BLOCK`` rows and one of 100,
        the last group's hits spread over the third and fourth; the rows left
        open fill their last block with 2 and then with 1 row."""
        rng = np.random.default_rng(41)
        dims = 6
        first, middle, last = 200, 1, COVERAGE_BLOCK + 1  # rows each tile covers
        n = first + middle + last
        assert (n - first) % COVERAGE_BLOCK == 2 and (n - first - middle) % COVERAGE_BLOCK == 1
        # Distinct real rows 16 apart; each one's hit lies within 2 per value,
        # far nearer than any other real row's hit.
        real = 16 * np.unique(rng.integers(-50, 51, size=(2 * n, dims)), axis=0)
        real = real[rng.permutation(len(real))[:n]]
        m = 3 * COVERAGE_BLOCK + 100
        assert [b.stop - b.start for b in metrics._blocks(m, COVERAGE_BLOCK)] == 3 * [COVERAGE_BLOCK] + [100]
        synthetic = rng.integers(1000, 1100, size=(m, dims))
        slots = np.concatenate([
            rng.permutation(COVERAGE_BLOCK)[:first],
            COVERAGE_BLOCK + rng.permutation(COVERAGE_BLOCK)[:middle],
            2 * COVERAGE_BLOCK + rng.permutation(m - 2 * COVERAGE_BLOCK)[:last],
        ])
        synthetic[slots] = real + rng.integers(-2, 3, size=real.shape)

        sq = (real * real).sum(1)[:, None] + (synthetic * synthetic).sum(1) - 2 * (real @ synthetic.T)
        assert sq.dtype == np.int64
        assert np.array_equal(sq.argmin(axis=1), slots)
        nearest = np.sqrt(sq.min(axis=1).astype(np.float64))
        below = np.nextafter(nearest, -np.inf)
        real, synthetic = real.astype(np.float64), synthetic.astype(np.float64)
        assert covered_fraction(coverage_bound(real, nearest), synthetic) == 1.0
        assert covered_fraction(coverage_bound(real, below), synthetic) == 0.0
        chosen = rng.random(n) < 0.5
        radii = np.where(chosen, nearest, below)
        assert covered_fraction(coverage_bound(real, radii), synthetic) == np.count_nonzero(chosen) / n

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
            covered_fraction(coverage_bound(real, radii), real.copy())

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


def anisotropic_rows(rng, n, dims, shift=0.0):
    """``n`` rows of ``dims`` values whose first 8 axes spread 10 times wider
    than the rest, so a rank-``BOUND_RANK`` projection holds most of each
    distance."""
    scale = np.where(np.arange(dims) < 8, 10.0, 1.0)
    return shift + rng.normal(size=(n, dims)) * scale


def edge_synthetic(rng, real, radii, far_rows):
    """``far_rows`` rows far from every real row, then one row per real row at
    ``radius * (1 - 1e-12)`` (even rows) or ``radius * (1 + 1e-12)`` (odd
    rows) from it, along a direction in its wide axes."""
    direction = np.zeros(real.shape)
    direction[:, :8] = rng.normal(size=(len(real), 8))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    stretch = np.where(np.arange(len(real)) % 2, 1 + 1e-12, 1 - 1e-12)
    far = anisotropic_rows(rng, far_rows, real.shape[1], shift=200.0)
    return np.concatenate([far, real + (radii * stretch)[:, None] * direction])


class TestCoverageBound:
    """covered_fraction's projected lower bound drops only (real row, tile)
    pairs that cannot cover, so coverage equals the plain expression's on
    rows longer than ``BOUND_RANK``."""

    @pytest.mark.parametrize("n", [13, BOUND_RANK, 301])
    def test_rows_at_their_radius_match_the_plain_reference(self, n):
        """Each real row has a synthetic row just inside (even rows) or just
        outside (odd rows) its radius, behind a first tile of far rows the
        bound drops whole; n = 13 and 32 leave the covariance short of
        ``BOUND_RANK`` axes, and 13 and 301 are not multiples of 8."""
        rng = np.random.default_rng(700 + n)
        dims = 3 * BOUND_RANK
        real = anisotropic_rows(rng, n, dims)
        radii = knn_radii(real, 5) if n > 5 else np.full(n, 5.0)
        synthetic = edge_synthetic(rng, real, radii, COVERAGE_TILE)
        bound = coverage_bound(real, radii)
        far = synthetic[:COVERAGE_TILE]
        assert not bound.could_cover(np.arange(n), far, (far * far).sum(axis=1)).any()
        expect = float(np.mean(plain_nearest(real, synthetic) <= radii))
        assert covered_fraction(coverage_bound(real, radii), synthetic) == expect
        assert covered_fraction(bound, synthetic) == expect
        assert expect >= 0.5 - 0.5 / n

    @pytest.mark.parametrize("n", [COVERAGE_BLOCK - 3, COVERAGE_BLOCK + 45])
    def test_rows_far_from_the_origin_with_small_radii(self, n):
        """At 1e6 from the origin a distance of 1e-3 is far below the kernel's
        rounding, and the covariance cancels to noise.  Every radius is the
        kernel's nearest distance or the float below it, so coverage pins
        each distance's bits: the bound must drop none of the covered rows."""
        rng = np.random.default_rng(800 + n)
        dims = 2 * BOUND_RANK + 5
        real = 1e6 + 1e-3 * rng.normal(size=(n, dims))
        synthetic = 1e6 + 1e-3 * rng.normal(size=(300, dims))
        nearest = plain_nearest(real, synthetic)
        chosen = rng.random(n) < 0.5
        radii = np.where(chosen, nearest, np.nextafter(nearest, -np.inf))
        assert covered_fraction(coverage_bound(real, radii), synthetic) == np.count_nonzero(chosen) / n

    def test_synthetic_rows_near_the_float_maximum(self):
        """Real rows at the squared-norm cap in two clusters, each covered by
        a synthetic row 2.5 times as far out (squared norm about 0.8 of the
        float maximum), in a tile that also holds a row past the float
        range, which covers nothing and hides nothing."""
        rng = np.random.default_rng(900)
        dims = BOUND_RANK + 8
        c = np.sqrt(MAX_SQ_NORM / dims) * 0.99
        real = np.repeat([[c], [-c]], 6, axis=0) * (1 + 1e-3 * rng.normal(size=(12, dims)))
        assert ((real * real).sum(axis=1) <= MAX_SQ_NORM).all()
        radii = knn_radii(real, 6)
        covering = 2.5 * real[[0, 6]]
        beyond = np.full((1, dims), 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for synthetic in (covering, np.concatenate([covering[:1], beyond, covering[1:]])):
                assert covered_fraction(coverage_bound(real, radii), synthetic) == 1.0
            assert covered_fraction(coverage_bound(real, radii), beyond) == 0.0
        with np.errstate(over="ignore"):  # the far cluster's distances pass the float range
            assert (plain_nearest(real, covering) <= radii).all()

    def test_bound_never_exceeds_the_exact_distance_less_the_slack(self):
        """Each synthetic row i lies off real row i along one axis of the
        bound's basis, so the projection holds its whole distance.  With
        each radius the exact distance (summed in rationals) rounded down,
        the bound keeps every row open: only its slack covers the rounding.
        With the radius at half the distance it drops every row near the
        origin."""
        rng = np.random.default_rng(1000)
        dims, n = BOUND_RANK + 16, 80
        real = np.concatenate([anisotropic_rows(rng, n // 2, dims), anisotropic_rows(rng, n // 2, dims, shift=1e5)])
        axes = 2 * coverage_bound(real, np.ones(n)).basis
        synthetic = real + axes[:, rng.integers(0, BOUND_RANK, size=n)].T * rng.uniform(0.1, 30.0, size=(n, 1))

        def below_exact(r, s):
            """The largest float whose square is at most the exact |r - s|^2."""
            sq = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(r, s))
            rho = math.sqrt(sq)
            while Fraction(rho) ** 2 > sq:
                rho = math.nextafter(rho, 0.0)
            return rho

        exact = np.array([below_exact(r, s) for r, s in zip(real, synthetic)])
        for radii, near_open in ((exact, n // 2), (exact / 2, 0)):
            bound = coverage_bound(real, radii)
            assert np.array_equal(2 * bound.basis, axes)
            kept = [bound.could_cover(np.array([i]), s[None], (s * s)[None].sum(axis=1))[0] for i, s in enumerate(synthetic)]
            # At 1e5 from the origin the slack passes these distances.
            assert sum(kept[: n // 2]) == near_open and all(kept[n // 2 :])

    def test_identical_real_rows(self):
        """Real rows with no spread have a zero covariance; the basis is
        still orthonormal, and a copy of the rows covers each of them at
        radius 0."""
        real = np.full((10, BOUND_RANK + 8), 0.5)
        radii = knn_radii(real, 3)
        bound = coverage_bound(real, radii)
        assert np.abs(4 * bound.basis.T @ bound.basis - np.eye(BOUND_RANK)).max() < 1e-12
        assert covered_fraction(bound, real[:3]) == 1.0
        assert covered_fraction(bound, real[:3] + 1e-3) == 0.0

    def test_bound_built_once_per_real_set(self):
        """The bound depends on the real rows and radii alone: one built for
        them gives each synthetic set the coverage a fresh one gives, and
        its arrays are read-only, while the caller's rows and radii stay
        writeable."""
        rng = np.random.default_rng(1100)
        dims = BOUND_RANK + 1
        real = anisotropic_rows(rng, 200, dims)
        radii = knn_radii(real, 5)
        bound = coverage_bound(real, radii)
        for shift in (0.0, 3.0, 30.0):
            synthetic = anisotropic_rows(rng, 150, dims, shift=shift)
            assert covered_fraction(bound, synthetic) == covered_fraction(coverage_bound(real, radii), synthetic)
        for arr in (bound.real, bound.radii, bound.r_sq, bound.basis, bound.lifted, bound.threshold):
            assert not arr.flags.writeable
        assert real.flags.writeable and radii.flags.writeable

    @pytest.mark.parametrize("rows", ["matrix", "windows"])
    def test_bound_of_halved_radii_covers_at_the_halved_radii(self, rows):
        """The bound carries the radii it was built from: one built from
        halved radii gives the plain reference's coverage at those halved
        radii, on 300 rows of 48 values, where the bound applies."""
        rng = np.random.default_rng(1200)
        real_arr = rng.normal(size=(300, 48))
        syn_arr = real_arr[rng.permutation(300)[:250]] + 0.6 * rng.normal(size=(250, 48))
        radii = knn_radii(real_arr, 5)
        nearest = plain_nearest(real_arr, syn_arr)
        if rows == "windows":  # each row as a window of 16 samples, laid end to end
            real, synthetic = (windows_over(a.reshape(-1, 3), np.arange(len(a)) * 16, 16) for a in (real_arr, syn_arr))
        else:
            real, synthetic = real_arr, syn_arr
        fractions = []
        for scale in (1.0, 0.5):
            expect = float(np.mean(nearest <= radii * scale))
            bound = coverage_bound(real, radii * scale)
            assert np.array_equal(bound.radii, radii * scale)
            assert covered_fraction(bound, synthetic) == expect
            fractions.append(expect)
        assert fractions[0] > fractions[1] > 0.0

    @pytest.mark.parametrize("dims, scale", [
        (BOUND_RANK, 1.0), (BOUND_MAX_DIMS + 1, 1.0), (BOUND_RANK + 8, np.sqrt(MAX_SQ_NORM) * 0.99),
    ], ids=["short", "long", "covariance_past_the_float_range"])
    def test_rows_without_a_bound_keep_only_their_norms(self, dims, scale):
        """Rows of at most ``BOUND_RANK`` or more than ``BOUND_MAX_DIMS``
        values, and rows whose covariance overflows (ten rows at the norm
        cap on one axis), meet the kernel unfiltered."""
        rng = np.random.default_rng(dims)
        real = rng.normal(size=(10, dims))
        real[:, 0] = scale * (1 + 1e-3 * real[:, 0]) if scale > 1 else real[:, 0]
        real[:, 1:] /= scale
        radii = knn_radii(real, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = coverage_bound(real, radii)
        assert bound.basis is bound.lifted is bound.threshold is None
        assert np.array_equal(bound.r_sq, (real * real).sum(axis=1))
        synthetic = real[::2] * (1 + 1e-9)
        with np.errstate(over="ignore"):
            expect = float(np.mean(plain_nearest(real, synthetic) <= radii))
        assert covered_fraction(bound, synthetic) == expect >= 0.5


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

    @pytest.mark.parametrize("labels", [[1.7, 0], [2, 0], [-1, 0], [1, np.nan], ["1", "0"]])
    def test_labels_other_than_0_and_1_refused(self, labels):
        with pytest.raises(DataError, match="^labels must be 0 or 1$"):
            classification_metrics([0.9, 0.1], labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_refused(self, bad):
        with pytest.raises(DataError, match="^probabilities must be finite$"):
            classification_metrics([0.9, bad], [1, 0])

    def test_float_and_bool_labels_count_as_integers(self):
        expect = classification_metrics([0.9, 0.1, 0.7], [1, 0, 0])
        for labels in ([1.0, 0.0, 0.0], [True, False, False]):
            assert classification_metrics([0.9, 0.1, 0.7], labels) == expect

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
