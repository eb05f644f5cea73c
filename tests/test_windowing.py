import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import window_set
from synthfall.errors import ConfigError, DataError
from synthfall.kinematics import AccelSeries, ActivityLabel, Provenance
from synthfall.windowing import (
    SCALER_BLOCK,
    MixSpec,
    WindowSet,
    apply_scaler,
    compose_training_mix,
    fit_scaler,
    slide_windows,
    split_subjects,
)


def make_accel(n, subject="s1", label=ActivityLabel.ADL, seed=0):
    rng = np.random.default_rng(seed)
    return AccelSeries(
        samples=rng.normal(size=(n, 3)), sampling_rate=32.0,
        label=label, provenance=Provenance.REAL, subject_id=subject,
    )


def make_windows(n, label=ActivityLabel.ADL, subject="s", width=8, seed=0):
    rng = np.random.default_rng(seed)
    return window_set(
        values=rng.normal(size=(n, width, 3)),
        labels=np.full(n, int(label)),
        subjects=[f"{subject}{i}" for i in range(n)],
    )


def one_window(values):
    return window_set(values=values[None], labels=[0], subjects=[""])


def naive_window_starts(n, width, stride):
    """Enumeration oracle: every offset whose window fits."""
    starts = []
    s = 0
    while s + width <= n:
        starts.append(s)
        s += stride
    return starts


class TestSlideWindows:
    def test_exact_fit(self):
        assert len(slide_windows(make_accel(128), 128, 10)) == 1

    def test_default_config_overlap(self):
        windows = slide_windows(make_accel(138), 128, 10)
        assert len(windows) == 2
        series = make_accel(138)
        assert np.array_equal(windows.values[1], series.samples[10:138])
        # 118 shared samples between consecutive windows
        assert np.array_equal(windows.values[0, 10:], windows.values[1, :118])

    def test_too_short(self):
        windows = slide_windows(make_accel(127), 128, 10)
        assert len(windows) == 0
        assert windows.values.shape == (0, 128, 3)
        assert windows.labels.shape == windows.subjects.shape == (0,)

    def test_count_law_against_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            width = int(rng.integers(1, 200))
            stride = int(rng.integers(1, 50))
            series = make_accel(max(n, 1))
            got = slide_windows(series, width, stride)
            assert len(got) == len(naive_window_starts(n, width, stride))

    def test_windows_are_contiguous_slices(self):
        series = make_accel(100, seed=5)
        windows = slide_windows(series, 16, 7)
        assert windows.values.dtype == np.float64 and windows.values.flags.c_contiguous
        for i, values in enumerate(windows.values):
            assert np.array_equal(values, series.samples[i * 7 : i * 7 + 16])

    def test_windows_share_the_series_samples(self):
        series = make_accel(100, seed=6)
        windows = slide_windows(series, 16, 7)
        assert windows.samples is series.samples
        assert windows.starts.tolist() == naive_window_starts(100, 16, 7)

    def test_metadata_inherited(self):
        series = make_accel(64, subject="s7", label=ActivityLabel.FALL)
        w = slide_windows(series, 32, 32).take([0])
        assert w.subjects[0] == "s7"
        assert w.labels[0] == ActivityLabel.FALL

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            slide_windows(make_accel(10), 0, 1)
        with pytest.raises(ConfigError):
            slide_windows(make_accel(10), 4, 0)

    @given(
        n=st.integers(min_value=1, max_value=500),
        width=st.integers(min_value=1, max_value=300),
        stride=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_law_property(self, n, width, stride):
        series = make_accel(n)
        expected = (n - width) // stride + 1 if n >= width else 0
        assert len(slide_windows(series, width, stride)) == expected


class TestWindowCounts:
    @given(
        n=st.integers(min_value=1, max_value=400),
        width=st.integers(min_value=1, max_value=150),
        stride=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_how_often_slide_windows_holds_each_sample(self, n, width, stride):
        held = np.zeros(n, dtype=int)
        for start in naive_window_starts(n, width, stride):
            held[start : start + width] += 1
        assert np.array_equal(slide_windows(make_accel(n), width, stride).counts(), held)

    def test_uncovered_tail_and_short_series(self):
        assert slide_windows(make_accel(7), 4, 2).counts().tolist() == [1, 1, 2, 2, 1, 1, 0]
        assert slide_windows(make_accel(3), 4, 2).counts().tolist() == [0, 0, 0]

    def test_selected_and_joined_windows(self):
        windows = slide_windows(make_accel(7), 4, 2)
        assert windows.take([1, 1]).counts().tolist() == [0, 0, 2, 2, 2, 2, 0]
        joined = WindowSet.concat([windows.take([0]), slide_windows(make_accel(5), 4, 4), windows.take([1])])
        assert joined.counts().tolist() == [1, 1, 2, 2, 1, 1, 0] + [1, 1, 1, 1, 0]


class TestScaler:
    def test_all_zero_windows_floor_std(self):
        scaler = fit_scaler(one_window(np.zeros((4, 3))))
        assert np.all(scaler.mean == 0.0)
        assert np.all(scaler.std == 1e-8)

    def test_symmetric_values_zero_mean(self):
        values = np.zeros((4, 3))
        values[:, 0] = [-1.0, 1.0, -2.0, 2.0]
        scaler = fit_scaler(one_window(values))
        assert scaler.mean[0] == pytest.approx(0.0)

    def test_transformed_pool_is_standardized(self):
        windows = make_windows(20, seed=3)
        scaler = fit_scaler(windows)
        pooled = apply_scaler(scaler, windows).values.reshape(-1, 3)
        assert np.max(np.abs(pooled.mean(axis=0))) < 1e-9
        assert np.max(np.abs(pooled.std(axis=0) - 1.0)) < 1e-6

    def test_identity_scaler(self):
        from synthfall.windowing import Scaler

        windows = make_windows(3)
        scaler = Scaler(mean=np.zeros(3), std=np.ones(3))
        out = apply_scaler(scaler, windows)
        for a, b in zip(out.values, windows.values):
            assert np.array_equal(a, b)

    def test_arithmetic(self):
        from synthfall.windowing import Scaler

        scaler = Scaler(mean=np.ones(3), std=np.full(3, 2.0))
        out = apply_scaler(scaler, one_window(np.full((2, 3), 3.0)))
        assert np.all(out.values == 1.0)

    def test_inverse_recovers_input(self):
        windows = make_windows(10, seed=9)
        scaler = fit_scaler(windows)
        transformed = apply_scaler(scaler, windows)
        for orig, t in zip(windows.values, transformed.values):
            recovered = t * scaler.std + scaler.mean
            assert np.max(np.abs(recovered - orig)) < 1e-9

    def test_matches_per_window_loop(self):
        # Reference: pool the windows one by one and scale each on its own.
        windows = make_windows(12, seed=4)
        scaler = fit_scaler(windows)
        pooled = np.concatenate(list(windows.values), axis=0)
        assert np.array_equal(scaler.mean, pooled.mean(axis=0))
        assert np.array_equal(scaler.std, np.maximum(pooled.std(axis=0), 1e-8))
        out = apply_scaler(scaler, windows)
        for got, orig in zip(out.values, windows.values):
            assert np.array_equal(got, (orig - scaler.mean) / scaler.std)

    @pytest.mark.parametrize("n", [1, SCALER_BLOCK - 1, SCALER_BLOCK, 2 * SCALER_BLOCK, 2 * SCALER_BLOCK + 37])
    def test_blocks_match_one_pooled_reduction(self, n):
        # Overlapping windows, values of mixed magnitude, and a constant axis.
        samples = np.random.default_rng(n).normal(size=(n + 7, 3)) * [1.0, 1e6, 0.0]
        windows = slide_windows(AccelSeries(samples=samples, sampling_rate=32.0), 8, 1)
        scaler = fit_scaler(windows)
        pooled = windows.values.reshape(-1, 3)
        assert scaler.mean.tobytes() == pooled.mean(axis=0).tobytes()
        assert scaler.std.tobytes() == np.maximum(pooled.std(axis=0), 1e-8).tobytes()

    def test_memory_grows_with_the_block_not_the_set(self):
        def peak(n):
            series = AccelSeries(samples=np.random.default_rng(n).normal(size=(n + 127, 3)), sampling_rate=32.0)
            windows = slide_windows(series, 128, 1)
            tracemalloc.start()
            fit_scaler(windows)
            size = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return size

        block_bytes = SCALER_BLOCK * 128 * 3 * 8
        small, large = peak(2 * SCALER_BLOCK), peak(16 * SCALER_BLOCK)
        # A block, its start indices, its deviations, their squares and the
        # block joined to the total are live at once; the whole set is 16 blocks.
        assert large < 6 * block_bytes
        assert large < 1.5 * small  # 8x the windows

    def test_empty_input(self):
        with pytest.raises(DataError):
            fit_scaler(make_windows(0))

    def test_labels_untouched(self):
        windows = make_windows(4, label=ActivityLabel.FALL)
        out = apply_scaler(fit_scaler(windows), windows)
        assert all(label == ActivityLabel.FALL for label in out.labels)

    def test_non_finite_output_rejected(self):
        from synthfall.windowing import Scaler

        scaler = Scaler(mean=np.zeros(3), std=np.full(3, 1e-8))
        with warnings.catch_warnings(), pytest.raises(DataError, match="non-finite"):
            warnings.simplefilter("error", RuntimeWarning)
            apply_scaler(scaler, one_window(np.full((2, 3), 1e305)))

    @pytest.mark.parametrize("rows", [[[1.7e308] * 3] * 2, [[1e200] * 3, [-1e200] * 3]], ids=["sum", "square"])
    def test_overflowing_statistics_refused(self, rows):
        # A variance that overflows would give std inf and standardize every window to 0.
        with warnings.catch_warnings(), pytest.raises(DataError, match="^scaler mean and std must be finite"):
            warnings.simplefilter("error", RuntimeWarning)
            fit_scaler(one_window(np.array(rows)))

    def test_rows_no_window_holds_may_overflow(self):
        from synthfall.windowing import STD_FLOOR, Scaler

        samples = np.zeros((10, 3))
        samples[8:] = 1e301
        series = AccelSeries(samples=samples, sampling_rate=32.0)
        scaler = Scaler(mean=np.zeros(3), std=np.full(3, STD_FLOOR))
        with np.errstate(over="ignore"):
            # The tail past the last window, and rows only an unselected window holds.
            assert np.all(apply_scaler(scaler, slide_windows(series, 4, 4)).values == 0.0)
            assert np.all(apply_scaler(scaler, slide_windows(series, 4, 3).take([0, 1])).values == 0.0)
            with pytest.raises(DataError, match="non-finite"):
                apply_scaler(scaler, slide_windows(series, 4, 3))


class TestSplitSubjects:
    SUBJECTS = [f"s{i:02d}" for i in range(12)]

    def test_partition_properties(self):
        split = split_subjects(self.SUBJECTS, (8, 2, 2), seed=3)
        assert len(split.train) == 8 and len(split.validation) == 2 and len(split.test) == 2
        assert split.train | split.validation | split.test == set(self.SUBJECTS)
        assert not (split.train & split.validation or split.train & split.test or split.validation & split.test)

    def test_deterministic(self):
        a = split_subjects(self.SUBJECTS, (8, 2, 2), seed=11)
        b = split_subjects(self.SUBJECTS, (8, 2, 2), seed=11)
        assert a == b

    def test_different_seeds_vary(self):
        splits = {split_subjects(self.SUBJECTS, (8, 2, 2), seed=s).test for s in range(20)}
        assert len(splits) > 1

    def test_every_subject_reaches_test(self):
        seen = set()
        for seed in range(1000):
            seen |= split_subjects(self.SUBJECTS, (8, 2, 2), seed=seed).test
            if seen == set(self.SUBJECTS):
                break
        assert seen == set(self.SUBJECTS)

    def test_size_mismatch(self):
        with pytest.raises(ConfigError):
            split_subjects(self.SUBJECTS, (8, 2, 3), seed=0)

    def test_order_insensitive(self):
        a = split_subjects(self.SUBJECTS, (8, 2, 2), seed=5)
        b = split_subjects(list(reversed(self.SUBJECTS)), (8, 2, 2), seed=5)
        assert a == b


def min_scan_oracle(pool_sizes, fracs):
    """Sizing-rule oracle: per category, scan for the largest t with
    t * fraction <= pool_size (i.e. floor(pool/fraction) without dividing),
    then take the minimum across categories."""
    bounds = []
    for size, frac in zip(pool_sizes, fracs):
        if frac <= 0:
            continue
        t = 0
        while (t + 1) * frac <= size + 1e-9:
            t += 1
        bounds.append(t)
    return min(bounds)


class TestComposeMix:
    def test_canonical_ratio_exact(self):
        adl = make_windows(600, ActivityLabel.ADL, "a")
        real = make_windows(200, ActivityLabel.FALL, "r")
        syn = make_windows(200, ActivityLabel.FALL, "g")
        out = compose_training_mix(adl, real, syn, MixSpec(0.6, 0.2, 0.2), seed=0)
        assert len(out) == 1000

    def test_adl_only_is_permutation(self):
        adl = make_windows(30, ActivityLabel.ADL, "a")
        empty = make_windows(0)
        out = compose_training_mix(adl, empty, empty, MixSpec(1.0, 0.0, 0.0), seed=1)
        assert len(out) == 30
        order = np.argsort(out.subjects)
        assert np.array_equal(out.subjects[order], np.sort(adl.subjects))
        by_subject = dict(zip(adl.subjects, adl.values))
        for subject, values in zip(out.subjects, out.values):
            assert np.array_equal(values, by_subject[subject])

    def test_bounded_by_scarcest_pool(self):
        adl = make_windows(100, ActivityLabel.ADL, "a")
        real = make_windows(100, ActivityLabel.FALL, "r")
        syn = make_windows(100, ActivityLabel.FALL, "g")
        out = compose_training_mix(adl, real, syn, MixSpec(0.5, 0.1, 0.4), seed=2)
        counts = {
            "a": sum(1 for s in out.subjects if s.startswith("a")),
            "r": sum(1 for s in out.subjects if s.startswith("r")),
            "g": sum(1 for s in out.subjects if s.startswith("g")),
        }
        assert counts == {"a": 100, "r": 20, "g": 80}

    def test_against_min_scan_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sizes = [int(rng.integers(1, 60)) for _ in range(3)]
            fracs = (0.5, 0.1, 0.4)
            pools = [
                make_windows(sizes[0], ActivityLabel.ADL, "a"),
                make_windows(sizes[1], ActivityLabel.FALL, "r"),
                make_windows(sizes[2], ActivityLabel.FALL, "g"),
            ]
            out = compose_training_mix(*pools, MixSpec(*fracs), seed=4)
            t = min_scan_oracle(sizes, fracs)
            expected = sum(int(t * f + 1e-9) for f in fracs)
            assert len(out) == expected

    def test_no_window_drawn_twice(self):
        adl = make_windows(50, ActivityLabel.ADL, "a")
        real = make_windows(50, ActivityLabel.FALL, "r")
        syn = make_windows(50, ActivityLabel.FALL, "g")
        out = compose_training_mix(adl, real, syn, MixSpec(0.6, 0.2, 0.2), seed=5)
        ids = list(out.subjects)
        assert len(set(ids)) == len(ids)

    def test_deterministic(self):
        adl = make_windows(40, ActivityLabel.ADL, "a")
        real = make_windows(40, ActivityLabel.FALL, "r")
        syn = make_windows(40, ActivityLabel.FALL, "g")
        a = compose_training_mix(adl, real, syn, MixSpec(0.6, 0.2, 0.2), seed=6)
        b = compose_training_mix(adl, real, syn, MixSpec(0.6, 0.2, 0.2), seed=6)
        assert list(a.subjects) == list(b.subjects)
        assert np.array_equal(a.values, b.values)

    def test_same_draws_as_per_window_lists(self):
        # Reference: the same rng calls over plain Python lists of indices.
        pools = [
            make_windows(37, ActivityLabel.ADL, "a", seed=1),
            make_windows(11, ActivityLabel.FALL, "r", seed=2),
            make_windows(23, ActivityLabel.FALL, "g", seed=3),
        ]
        spec = MixSpec(0.5, 0.1, 0.4)
        out = compose_training_mix(*pools, spec, seed=7)
        rng = np.random.default_rng(7)
        total = min(int(len(p) / f + 1e-9) for p, f in zip(pools, spec.as_tuple()))
        chosen = []
        for pool, frac in zip(pools, spec.as_tuple()):
            idx = rng.choice(len(pool), size=int(total * frac + 1e-9), replace=False)
            chosen.extend((pool.values[i], pool.labels[i], pool.subjects[i]) for i in idx)
        expected = [chosen[i] for i in rng.permutation(len(chosen))]
        assert len(out) == len(expected)
        for i, (values, label, subject) in enumerate(expected):
            assert np.array_equal(out.values[i], values)
            assert (out.labels[i], out.subjects[i]) == (label, subject)

    def test_empty_pool_with_positive_fraction(self):
        adl = make_windows(10, ActivityLabel.ADL, "a")
        real = make_windows(10, ActivityLabel.FALL, "r")
        with pytest.raises(DataError, match="infeasible"):
            compose_training_mix(adl, real, make_windows(0), MixSpec(0.6, 0.2, 0.2), seed=0)

    def test_fraction_validation(self):
        with pytest.raises(ConfigError):
            MixSpec(0.5, 0.5, 0.5)
        with pytest.raises(ConfigError):
            MixSpec(-0.1, 0.6, 0.5)


class TestWindowSet:
    def test_take_keeps_order_and_metadata(self):
        windows = make_windows(6, ActivityLabel.FALL, "s", seed=8)
        idx = [4, 0, 4, 2]
        picked = windows.take(idx)
        assert len(picked) == 4
        for row, i in enumerate(idx):
            assert np.array_equal(picked.values[row], windows.values[i])
        assert list(picked.subjects) == ["s4", "s0", "s4", "s2"]
        assert list(picked.labels) == [ActivityLabel.FALL] * 4

    def test_take_mask(self):
        windows = make_windows(5, seed=9)
        picked = windows.take(np.array([True, False, True, False, True]))
        assert list(picked.subjects) == ["s0", "s2", "s4"]
        assert np.array_equal(picked.values, windows.values[[0, 2, 4]])

    def test_concat_keeps_order_and_metadata(self):
        a = make_windows(3, ActivityLabel.ADL, "a", seed=1)
        b = make_windows(2, ActivityLabel.FALL, "g", seed=2)
        both = WindowSet.concat([a, make_windows(0, width=5), b])
        assert len(both) == 5
        assert np.array_equal(both.values, np.concatenate([a.values, b.values]))
        assert list(both.subjects) == ["a0", "a1", "a2", "g0", "g1"]
        assert list(both.labels) == [0, 0, 0, 1, 1]

    def test_concat_of_nothing_is_empty(self):
        assert len(WindowSet.concat([])) == 0
        assert WindowSet.concat([make_windows(0, width=5)]).values.shape == (0, 5, 3)

    def test_selections_share_their_buffer(self):
        pool = make_windows(6, seed=10)
        mix = WindowSet.concat([pool.take([5, 1]), make_windows(2, seed=11), pool.take([0])])
        assert len(mix.samples) == len(pool.samples) + 2 * 8
        assert np.array_equal(mix.values, np.concatenate([pool.values[[5, 1]], make_windows(2, seed=11).values,
                                                          pool.values[[0]]]))
        assert pool.take([3, 4]).samples is pool.samples

    def test_concat_refuses_mixed_widths(self):
        with pytest.raises(DataError, match="widths"):
            WindowSet.concat([make_windows(1, width=4), make_windows(1, width=5)])

    def test_values_are_contiguous_float64(self):
        windows = WindowSet(
            samples=np.ones((8, 3), dtype=np.float32)[::-1], starts=[0, 4], width=4, labels=[0, 1],
            subjects=["a", "b"],
        )
        assert windows.samples.dtype == np.float64 and windows.samples.flags.c_contiguous
        assert windows.values.dtype == np.float64 and windows.values.flags.c_contiguous

    def test_shape_checks(self):
        columns = dict(labels=[0, 0], subjects=["a", "b"])
        with pytest.raises(DataError):
            WindowSet(samples=np.zeros((8, 2)), starts=[0, 4], width=4, **columns)
        with pytest.raises(DataError):
            WindowSet(samples=np.zeros((8, 3)), starts=[0, 4], width=4, **dict(columns, labels=[0]))

    @pytest.mark.parametrize("width, stride", [(1, 1), (1, 3), (5, 2), (16, 7), (40, 40)])
    def test_values_match_the_index_oracle(self, width, stride):
        """values gathers each window as one row of an overlapping view of
        the buffer; it must copy the bits an (N, W) index array gathers,
        over several series joined and over selections of them."""
        series = [make_accel(n, seed=n) for n in (37, 3, 80, 41)]
        windows = WindowSet.concat(slide_windows(s, width, stride) for s in series)
        for picked in (windows, windows.take(np.arange(len(windows))[::-2]), windows.take([])):
            oracle = picked.samples[picked.starts[:, None] + np.arange(width)]
            assert picked.values.shape == (len(picked), width, 3)
            assert np.array_equal(picked.values, oracle)

    def test_no_windows_over_a_buffer_shorter_than_the_window(self):
        short = slide_windows(make_accel(5), width=16)
        assert len(short) == 0 and len(short.samples) < short.width
        assert short.values.shape == (0, 16, 3)
        assert short.rows().shape == (0, 48)

    def test_rows_are_the_windows_flattened(self):
        samples = np.arange(24.0).reshape(8, 3)
        windows = WindowSet(samples, [3, 0, 6], 2, [0, 1, 0], ["a", "b", "c"])
        rows = windows.rows()
        assert rows.shape == (3, 6) and rows.flags.c_contiguous
        assert np.array_equal(rows, samples[[[3, 4], [0, 1], [6, 7]]].reshape(3, 6))
        assert np.array_equal(windows.rows(slice(1, None)), rows[1:])
        assert np.array_equal(windows.rows(np.array([2, 2])), rows[[2, 2]])
        assert windows.rows([]).shape == (0, 6)

    def test_held_keeps_the_windows_over_their_rows_only(self):
        """held() drops each series' tail past its last window and every
        row only an unselected window holds; each window keeps its values
        bit for bit and the counts are those of the rows kept."""
        series = [make_accel(n, subject=f"s{n}", seed=n) for n in (37, 3, 80, 41)]
        joined = WindowSet.concat(slide_windows(s, 8, 5) for s in series)
        picked = joined.take(np.flatnonzero(joined.subjects != "s80")[::-1])
        counts = picked.counts()
        held, held_counts = picked.held()
        assert np.array_equal(held.samples, picked.samples[counts > 0])
        assert np.array_equal(held_counts, counts[counts > 0]) and held_counts.min() > 0
        assert np.array_equal(held.counts(), held_counts)
        assert held.values.tobytes() == picked.values.tobytes()
        assert held.labels.tolist() == picked.labels.tolist() and held.subjects.tolist() == picked.subjects.tolist()
        # The tails past row 33 of 37 and row 38 of 41, and the 80 rows of the
        # unselected series; the series of 3 rows has no window to join.
        assert len(picked.samples) - len(held.samples) == 4 + 3 + 80
        empty, empty_counts = joined.take([]).held()
        assert len(empty) == 0 and empty.samples.shape == (0, 3) and empty_counts.shape == (0,)

    @pytest.mark.parametrize("starts, width", [([0, 5], 4), ([-1, 0], 4), ([0, 4], 0)])
    def test_window_outside_the_buffer_refused(self, starts, width):
        with pytest.raises(DataError, match="must lie in"):
            WindowSet(samples=np.zeros((8, 3)), starts=starts, width=width, labels=[0, 0], subjects=["a", "b"])
