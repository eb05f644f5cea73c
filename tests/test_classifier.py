import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import window_set
from synthfall.classifier import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EVAL_BATCH,
    GATE_ORDER,
    TrainConfig,
    TrainHistory,
    _forward,
    _lstm,
    _sigmoid,
    evaluate,
    forward,
    init_model,
    loss_and_gradients,
    train,
)
from synthfall.errors import ConfigError, DataError, NumericError


def toy_windows(n_per_class, width=16, offset=2.0, seed=0, scale=0.3):
    """Two clusters separable by a threshold on the mean amplitude."""
    rng = np.random.default_rng(seed)
    values = [
        rng.normal(mu, scale, size=(width, 3))
        for mu in (0.0, offset)
        for _ in range(n_per_class)
    ]
    return window_set(
        values=np.reshape(values, (2 * n_per_class, width, 3)),
        labels=np.repeat([0, 1], n_per_class),
        subjects=[f"s{label}{i}" for label in (0, 1) for i in range(n_per_class)],
    )


# The refusal of a set whose float64 values overflow the float32 cast.
BEYOND_FLOAT32 = r"{} windows hold values beyond the float32 range \(largest magnitude 3\.4028235e\+38\)"


def move_running_stats(model, windows):
    """One train-mode pass, which moves the BN running statistics."""
    loss_and_gradients(model, windows, windows.labels)


def stable_sigmoid(x):
    """1 / (1 + e^-x) in float64 without overflow."""
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


def reference_forward(model, batch):
    """Eval-mode probabilities from the per-gate form: one input and one
    recurrent matmul per gate and step, float64, stable logistic."""
    hid = model.hidden_size
    per_gate = {
        gate: tuple(t.astype(np.float64)[k * hid : (k + 1) * hid] for t in (model.w_x, model.w_h, model.b))
        for k, gate in enumerate(GATE_ORDER)
    }
    x = np.asarray(batch, dtype=np.float64)
    h = np.zeros((x.shape[0], hid))
    c = np.zeros((x.shape[0], hid))
    for t in range(x.shape[1]):
        pre = {g: x[:, t] @ wx.T + h @ wh.T + b for g, (wx, wh, b) in per_gate.items()}
        c = stable_sigmoid(pre["f"]) * c + stable_sigmoid(pre["i"]) * np.tanh(pre["g"])
        h = stable_sigmoid(pre["o"]) * np.tanh(c)
    f64 = {name: getattr(model, name).astype(np.float64) for name in (
        "dense1_w", "dense1_b", "bn_gamma", "bn_beta", "bn_mean", "bn_var", "dense2_w", "dense2_b")}
    r = np.maximum(h @ f64["dense1_w"].T + f64["dense1_b"], 0)
    y_bn = f64["bn_gamma"] * (r - f64["bn_mean"]) / np.sqrt(f64["bn_var"] + 1e-3) + f64["bn_beta"]
    p = stable_sigmoid((y_bn @ f64["dense2_w"].T + f64["dense2_b"]).ravel())
    return np.clip(p, 1e-7, 1 - 1e-7)


def reference_adam_epochs(model, windows, config, seed):
    """Textbook Adam with one (m, v) pair per tensor, on the batches ``train``
    draws with ``seed``; returns a copy of the parameters after each epoch."""
    x = windows.values.astype(model.dtype)
    y = windows.labels
    rng = np.random.default_rng(seed)
    moments = {name: (np.zeros_like(t), np.zeros_like(t)) for name, t in model.trainable().items()}
    lr = np.asarray(config.learning_rate, dtype=model.dtype)
    step = 0
    snapshots = []
    for _ in range(config.max_epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = loss_and_gradients(model, x[idx], y[idx])
            step += 1
            for name, grad in grads.items():
                m, v = moments[name]
                m[:] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
                v[:] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
                m_hat = m / (1.0 - ADAM_BETA1**step)
                v_hat = v / (1.0 - ADAM_BETA2**step)
                getattr(model, name)[...] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        snapshots.append(model.copy())
    return snapshots


def stump_f1(windows):
    """Decision-stump oracle: best threshold on the window mean."""
    means = np.array([v.mean() for v in windows.values])
    labels = windows.labels
    best = 0.0
    for t in np.unique(means):
        pred = means >= t
        tp = np.sum(pred & (labels == 1))
        fp = np.sum(pred & (labels == 0))
        fn = np.sum(~pred & (labels == 1))
        if tp == 0:
            continue
        p = tp / (tp + fp)
        r = tp / (tp + fn)
        best = max(best, 2 * p * r / (p + r))
    return best


class TestInit:
    def test_same_seed_identical(self):
        a = init_model(9, hidden_size=8, dense_units=8)
        b = init_model(9, hidden_size=8, dense_units=8)
        for name, tensor in a.trainable().items():
            assert np.array_equal(tensor, getattr(b, name))

    def test_different_seed_differs(self):
        a = init_model(1, hidden_size=8, dense_units=8)
        b = init_model(2, hidden_size=8, dense_units=8)
        assert any(
            not np.array_equal(tensor, getattr(b, name))
            for name, tensor in a.trainable().items()
        )

    def test_weight_magnitudes_bounded_by_fan_in(self):
        model = init_model(3, hidden_size=16, dense_units=12, input_dim=3)
        for k, gate in enumerate(GATE_ORDER):
            rows = slice(16 * k, 16 * (k + 1))
            assert np.max(np.abs(model.w_x[rows])) <= 1.0 / math.sqrt(3), gate
            assert np.max(np.abs(model.w_h[rows])) <= 1.0 / math.sqrt(16), gate
        assert np.max(np.abs(model.dense1_w)) <= 1.0 / math.sqrt(16)
        assert np.max(np.abs(model.dense2_w)) <= 1.0 / math.sqrt(12)

    def test_forget_bias_is_one(self):
        model = init_model(4, hidden_size=8, dense_units=8)
        blocks = dict(zip(GATE_ORDER, model.b.reshape(4, 8)))
        assert np.all(blocks["f"] == 1.0)
        for gate in ("i", "o", "g"):
            assert np.all(blocks[gate] == 0.0), gate

    def test_gate_blocks_drawn_in_ifco_order(self):
        # The seeded stream draws the per-gate blocks in (i, f, c, o) order,
        # input weights before recurrent ones, then the dense layers.
        h, d, n_in = 5, 4, 3
        model = init_model(21, hidden_size=h, dense_units=d, input_dim=n_in)
        rng = np.random.default_rng(21)

        def draw(shape, fan_in):
            limit = 1.0 / math.sqrt(fan_in)
            return rng.uniform(-limit, limit, size=shape).astype(np.float32)

        wx = {g: draw((h, n_in), n_in) for g in "ifco"}
        wh = {g: draw((h, h), h) for g in "ifco"}
        fused = dict(zip(GATE_ORDER, "ifoc"))
        for k, gate in enumerate(GATE_ORDER):
            rows = slice(h * k, h * (k + 1))
            assert np.array_equal(model.w_x[rows], wx[fused[gate]]), gate
            assert np.array_equal(model.w_h[rows], wh[fused[gate]]), gate
        assert np.array_equal(model.dense1_w, draw((d, h), h))
        assert np.array_equal(model.dense2_w, draw((1, d), d))

    def test_tensors_are_views_of_one_buffer(self):
        model = init_model(29, hidden_size=5, dense_units=4, input_dim=2, dtype=np.float64)
        offset = 0
        for name in ("w_x", "w_h", "b", "dense1_w", "dense1_b", "bn_gamma", "bn_beta",
                     "dense2_w", "dense2_b", "bn_mean", "bn_var"):
            tensor = getattr(model, name)
            assert np.shares_memory(tensor, model.flat), name
            assert np.array_equal(tensor.ravel(), model.flat[offset : offset + tensor.size]), name
            offset += tensor.size
        assert offset == model.flat.size
        assert model.n_trainable == offset - 2 * 4
        copy = model.copy()
        copy.w_h[0, 0] += 1.0
        assert copy.flat[model.w_x.size] == model.flat[model.w_x.size] + 1.0

    def test_default_sizes(self):
        model = init_model(0)
        assert model.hidden_size == 128
        assert model.dense_units == 128
        assert model.input_dim == 3
        assert model.dtype == np.float32


class TestForward:
    def test_output_in_open_unit_interval(self):
        model = init_model(0, hidden_size=8, dense_units=8)
        probs = forward(model, toy_windows(4))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_eval_mode_duplicates_identical(self):
        model = init_model(1, hidden_size=8, dense_units=8)
        probs = forward(model, toy_windows(2).take([0, 0]))
        assert probs[0] == probs[1]

    def test_zero_head_gives_half(self):
        model = init_model(2, hidden_size=8, dense_units=8)
        model.dense2_w[:] = 0.0
        model.dense2_b[:] = 0.0
        probs = forward(model, toy_windows(3))
        assert np.all(probs == 0.5)

    def test_eval_mode_is_pure(self):
        model = init_model(3, hidden_size=8, dense_units=8)
        batch = toy_windows(3)
        before = model.bn_mean.copy()
        forward(model, batch)
        assert np.array_equal(model.bn_mean, before)

    def test_train_mode_updates_running_stats(self):
        model = init_model(3, hidden_size=8, dense_units=8)
        before = model.bn_var.copy()
        move_running_stats(model, toy_windows(4))
        assert not np.array_equal(model.bn_var, before)

    def test_non_finite_input_raises_numeric_error(self):
        model = init_model(4, hidden_size=8, dense_units=8, dtype=np.float64)
        bad = np.zeros((1, 8, 3))
        bad[0, 3, 1] = np.nan
        with pytest.raises(NumericError, match="lstm"):
            forward(model, bad)

    def test_windows_beyond_float32_are_a_quiet_data_error(self):
        model = init_model(5, hidden_size=4, dense_units=4)
        huge = toy_windows(2, seed=6).values * 1e45
        with warnings.catch_warnings(), pytest.raises(DataError, match=f"^{BEYOND_FLOAT32.format('batch')}$"):
            warnings.simplefilter("error", RuntimeWarning)
            forward(model, huge)

    def test_matches_per_gate_reference(self):
        model = init_model(17, hidden_size=7, dense_units=5, dtype=np.float64)
        move_running_stats(model, toy_windows(6, seed=18))
        batch = np.random.default_rng(19).normal(size=(9, 20, 3))
        probs = forward(model, batch)
        np.testing.assert_allclose(probs, reference_forward(model, batch), rtol=0, atol=1e-12)

    def test_eval_equals_history_keeping_pass(self):
        model = init_model(20, hidden_size=8, dense_units=8)
        batch = toy_windows(5, seed=21).values.astype(np.float32)
        h_eval, no_history = _lstm(model, batch, False)
        h_hist, history = _lstm(model, batch, True)
        assert no_history is None and history is not None
        assert np.array_equal(h_eval, h_hist)

    def test_eval_keeps_no_bptt_history(self):
        b, w, hid = 100, 64, 32
        model = init_model(22, hidden_size=hid, dense_units=16)
        batch = np.random.default_rng(22).normal(size=(b, w, 3)).astype(np.float32)
        labels = np.arange(b) % 2
        train_model = model.copy()

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        eval_peak = peak(lambda: forward(model, batch))
        train_peak = peak(lambda: loss_and_gradients(train_model, batch, labels))
        # h and c of shape (W+1, B, H) plus tanh(c) of shape (W, B, H).
        history = (3 * w + 2) * b * hid * np.dtype(np.float32).itemsize
        assert train_peak - eval_peak >= history


    @pytest.mark.parametrize("dtype, hidden", [(np.float32, 8), (np.float64, 8), (np.float32, 64)])
    def test_eval_batches_equal_whole_set_pass(self, dtype, hidden):
        model = init_model(30, hidden_size=hidden, dense_units=8, dtype=dtype)
        move_running_stats(model, toy_windows(6, seed=31))
        batch = np.random.default_rng(32).normal(size=(4 * EVAL_BATCH + 1, 16, 3)).astype(dtype)
        whole, _ = _forward(model, batch, train=False)
        assert np.array_equal(forward(model, batch), whole)

    def test_eval_memory_bounded_by_batch(self):
        w, hid = 16, 16
        model = init_model(33, hidden_size=hid, dense_units=8)
        batch = np.random.default_rng(33).normal(size=(4 * EVAL_BATCH, w, 3)).astype(np.float32)

        def peak(arr):
            tracemalloc.start()
            try:
                forward(model, arr)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        gate_buffer = w * EVAL_BATCH * 4 * hid * np.dtype(np.float32).itemsize
        assert peak(batch) - peak(batch[:EVAL_BATCH]) < gate_buffer


class TestSigmoid:
    def test_float32_extremes(self):
        x = np.array([0.0, 20.0, -20.0, 88.0, -88.0, 1e4, -1e4], dtype=np.float32)
        with np.errstate(all="raise"):
            s = _sigmoid(x)
        assert s.dtype == np.float32
        assert np.all((s >= 0.0) & (s <= 1.0))
        ref = stable_sigmoid(x).astype(np.float32)
        big = ref >= 1e-6
        assert np.all(np.abs(s[big] - ref[big]) <= 2 * np.spacing(ref[big]))

    def test_absolute_error_within_float32_epsilon(self):
        x = np.linspace(-30.0, 30.0, 6001, dtype=np.float32)
        assert np.max(np.abs(_sigmoid(x) - stable_sigmoid(x))) <= np.finfo(np.float32).eps


class TestLoss:
    def test_confident_correct_predictions(self):
        model = init_model(5, hidden_size=8, dense_units=8, dtype=np.float64)
        windows = toy_windows(4, seed=5)
        labels = windows.labels
        # Drive dense2 so hard that probabilities clamp at the confident end.
        model.dense2_w[:] = 0.0
        model.dense2_b[:] = 0.0
        probs = forward(model, windows)
        assert np.all(probs == 0.5)
        model.dense2_b[:] = 100.0
        loss_pos, _ = loss_and_gradients(model, windows.take(labels == 1), labels[labels == 1])
        assert loss_pos <= 1e-6

    def test_half_probability_balanced_labels(self):
        model = init_model(6, hidden_size=8, dense_units=8, dtype=np.float64)
        model.dense2_w[:] = 0.0
        model.dense2_b[:] = 0.0
        windows = toy_windows(2, seed=6)
        labels = windows.labels
        loss, _ = loss_and_gradients(model, windows, labels)
        assert loss == pytest.approx(math.log(2.0), abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        model = init_model(12, hidden_size=6, dense_units=6, dtype=np.float64)
        batch = rng.normal(size=(4, 16, 3))
        labels = np.array([0, 1, 1, 0])
        _, grads = loss_and_gradients(model.copy(), batch, labels)
        h = 1e-4
        for name, tensor in model.trainable().items():
            flat = tensor.ravel()
            # spot-check a handful of coordinates per tensor
            for j in range(0, flat.size, max(1, flat.size // 5)):
                plus = model.copy()
                getattr(plus, name).ravel()[j] += h
                minus = model.copy()
                getattr(minus, name).ravel()[j] -= h
                lp, _ = loss_and_gradients(plus, batch, labels)
                lm, _ = loss_and_gradients(minus, batch, labels)
                fd = (lp - lm) / (2 * h)
                g = grads[name].ravel()[j]
                denom = max(abs(g), abs(fd), 1e-7)
                assert abs(g - fd) / denom < 1e-4, f"{name}[{j}]"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_in_model_dtype(self, dtype):
        model = init_model(34, hidden_size=4, dense_units=3, dtype=dtype)
        windows = toy_windows(3, width=8, seed=34)
        _, grads = loss_and_gradients(model, windows, windows.labels)
        assert list(grads) == list(model.trainable())
        for name, grad in grads.items():
            assert grad.dtype == dtype and grad.shape == getattr(model, name).shape, name

    def test_bad_labels(self):
        model = init_model(0, hidden_size=4, dense_units=4)
        with pytest.raises(DataError):
            loss_and_gradients(model, toy_windows(1), np.array([0, 2]))


class TestTrain:
    def test_separable_toy_task(self):
        train_w = toy_windows(60, seed=0)
        val_w = toy_windows(20, seed=1)
        assert stump_f1(train_w) >= 0.95  # separability oracle
        config = TrainConfig(max_epochs=60, patience=10, batch_size=32)
        model = init_model(7, hidden_size=16, dense_units=16)
        best, history = train(model, train_w, val_w, config, seed=2)
        assert max(history.val_f1) >= 0.95
        assert history.epochs() <= 60

    def test_memorizes_training_set(self):
        windows = toy_windows(40, seed=3)
        config = TrainConfig(max_epochs=60, patience=15, batch_size=32)
        best, _ = train(init_model(8, hidden_size=16, dense_units=16), windows, windows, config, seed=4)
        assert evaluate(best, windows).f1 >= 0.95

    def test_loss_decreases_on_first_epochs(self):
        windows = toy_windows(60, seed=5)
        config = TrainConfig(learning_rate=0.001, max_epochs=5, patience=5, batch_size=32)
        _, history = train(init_model(9, hidden_size=16, dense_units=16), windows, windows, config, seed=6)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_deterministic_history(self):
        train_w = toy_windows(20, seed=7)
        val_w = toy_windows(8, seed=8)
        config = TrainConfig(max_epochs=8, patience=8, batch_size=16)
        _, h1 = train(init_model(10, hidden_size=8, dense_units=8), train_w, val_w, config, seed=9)
        _, h2 = train(init_model(10, hidden_size=8, dense_units=8), train_w, val_w, config, seed=9)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        assert h1.val_f1 == h2.val_f1
        assert h1.best_epoch == h2.best_epoch

    def test_constant_val_loss_stops_after_patience(self):
        windows = toy_windows(10, seed=10)
        # Pin the output head at 0.5 and freeze learning below float32
        # resolution: validation loss is ln 2 every epoch.
        model = init_model(11, hidden_size=8, dense_units=8)
        model.dense2_w[:] = 0.0
        model.dense2_b[:] = 0.0
        config = TrainConfig(learning_rate=1e-30, max_epochs=50, patience=7, batch_size=32)
        _, history = train(model, windows, windows, config, seed=11)
        assert history.stop_reason == "early_stop"
        assert history.epochs() == config.patience + 1
        assert history.val_loss[0] == pytest.approx(math.log(2.0), abs=1e-6)

    def test_best_model_restored(self):
        train_w = toy_windows(30, seed=12)
        val_w = toy_windows(10, seed=13)
        config = TrainConfig(max_epochs=30, patience=30, batch_size=16)
        best, history = train(init_model(12, hidden_size=8, dense_units=8), train_w, val_w, config, seed=14)
        probs = forward(best, val_w)
        labels = val_w.labels
        p = probs.astype(np.float64)
        val_loss = float(-np.mean(labels * np.log(p) + (1 - labels) * np.log1p(-p)))
        assert val_loss == pytest.approx(min(history.val_loss), abs=1e-9)

    def test_flat_adam_matches_per_tensor_adam(self):
        model = init_model(35, hidden_size=6, dense_units=5)
        windows = toy_windows(10, width=12, seed=35)
        config = TrainConfig(max_epochs=6, patience=6, batch_size=8)
        best, history = train(model.copy(), windows, toy_windows(3, width=12, seed=37), config, seed=36)
        snapshots = reference_adam_epochs(model.copy(), windows, config, seed=36)
        assert np.array_equal(best.flat, snapshots[history.best_epoch].flat)

    def test_training_a_copy_leaves_the_original(self):
        model = init_model(38, hidden_size=6, dense_units=5)
        before = model.flat.copy()
        config = TrainConfig(max_epochs=2, patience=2, batch_size=8)
        best, _ = train(model.copy(), toy_windows(6, width=12), toy_windows(2, width=12), config)
        assert np.array_equal(model.flat, before)
        assert not np.array_equal(best.flat, before)

    def test_empty_sets_rejected(self):
        config = TrainConfig(max_epochs=2, patience=1)
        with pytest.raises(DataError):
            train(init_model(0, hidden_size=4, dense_units=4), toy_windows(0), toy_windows(2), config)

    def test_non_finite_weights_name_epoch_and_batch(self):
        model = init_model(15, hidden_size=8, dense_units=8)
        model.w_h[0, 0] = np.inf
        config = TrainConfig(max_epochs=2, patience=1, batch_size=8)
        with warnings.catch_warnings(), pytest.raises(
            NumericError, match=r"^non-finite values in lstm \(epoch 0, batch 0\)$"
        ) as info:
            warnings.simplefilter("error", RuntimeWarning)
            train(model, toy_windows(6), toy_windows(2), config)
        assert info.value.where == ("epoch 0", "batch 0")

    def test_validation_set_beyond_float32_is_a_data_error(self):
        val = toy_windows(2, seed=17)
        huge = window_set(val.values * 1e45, val.labels, val.subjects)
        config = TrainConfig(max_epochs=2, patience=1, batch_size=8)
        with warnings.catch_warnings(), pytest.raises(DataError, match=f"^{BEYOND_FLOAT32.format('validation')}$"):
            warnings.simplefilter("error", RuntimeWarning)
            train(init_model(16, hidden_size=4, dense_units=4), toy_windows(6), huge, config)

    def test_memory_grows_with_the_batch_not_the_set(self):
        """Each minibatch and validation batch is gathered from its set's
        buffer when it runs, so four times the training windows add less than
        one float32 copy of them."""
        width = 32
        model = init_model(40, hidden_size=4, dense_units=4)
        config = TrainConfig(max_epochs=1, patience=1, batch_size=16)
        val = toy_windows(8, width=width, seed=41)

        def peak(windows):
            tracemalloc.start()
            try:
                train(model.copy(), windows, val, config, seed=42)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = toy_windows(64, width=width, seed=43), toy_windows(256, width=width, seed=43)
        float32_copy = len(large) * width * 3 * np.dtype(np.float32).itemsize
        assert peak(large) - peak(small) < float32_copy

    def test_patience_must_not_exceed_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=10, patience=20)


class TestEvaluate:
    def test_zero_head_predicts_all_positive(self):
        model = init_model(13, hidden_size=8, dense_units=8)
        model.dense2_w[:] = 0.0
        model.dense2_b[:] = 0.0
        windows = toy_windows(5, seed=15)
        metrics = evaluate(model, windows)
        assert metrics.recall == 1.0
        assert metrics.fn == 0

    def test_no_positives_in_test(self):
        model = init_model(14, hidden_size=8, dense_units=8)
        windows = toy_windows(5, seed=16)
        windows = windows.take(windows.labels == 0)
        metrics = evaluate(model, windows)
        assert metrics.recall == 0.0
        assert metrics.tp == 0
        assert metrics.tn + metrics.fp == len(windows)


    def test_test_set_beyond_float32_is_a_data_error(self):
        windows = toy_windows(3, seed=18)
        huge = window_set(windows.values * 1e45, windows.labels, windows.subjects)
        with warnings.catch_warnings(), pytest.raises(DataError, match=f"^{BEYOND_FLOAT32.format('test')}$"):
            warnings.simplefilter("error", RuntimeWarning)
            evaluate(init_model(19, hidden_size=4, dense_units=4), huge)


class TestHistoryCsv:
    def test_format(self):
        history = TrainHistory(train_loss=[0.5], val_loss=[0.6], val_f1=[0.7])
        lines = history.to_csv().splitlines()
        assert lines[0] == "epoch;train_loss;val_loss;val_f1"
        assert lines[1].startswith("0;0.5")
