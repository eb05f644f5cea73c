"""LSTM binary classifier built from scratch on numpy.

Architecture: LSTM over the window (last hidden state) -> Dense -> ReLU ->
BatchNorm -> Dense -> sigmoid, trained with mean binary cross-entropy, Adam,
and early stopping on validation loss.  Gradients are exact backpropagation
through time over every window step.

Training is deterministic for a fixed (seed, data, config) on one platform;
training instances are independent, so separate models may train on separate
threads, but a single instance must not be shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .metrics import ClassificationMetrics, classification_metrics
from .windowing import WindowSet

BN_MOMENTUM = 0.99
BN_EPS = 1e-3
PROB_CLAMP = 1e-7

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Gate blocks of the fused LSTM tensors, in row order: the three sigmoid gates
# (input, forget, output) fill columns [0, 3H) of a step's pre-activations
# and blocks 0-2 of its gate-major activations, the tanh cell candidate g
# fills [3H, 4H) and block 3.
GATE_ORDER = ("i", "f", "o", "g")
# The seeded init draws the blocks in (i, f, c, o) order, c being the cell
# candidate; this permutation takes that order to GATE_ORDER.
_FROM_IFCO = (0, 1, 3, 2)
# Most windows one eval-mode pass projects at once; larger sets run in
# near-equal batches, so memory stays bounded.  Batches this large give
# probabilities bit-equal to one whole-set pass.
EVAL_BATCH = 512


def _tensor_shapes(hidden: int, dense: int, input_dim: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor of a model with these sizes, in the
    order they lie in ``ModelParams.flat``: the trainable tensors, then the
    ``_N_STATE`` BatchNorm running statistics."""
    return {
        "w_x": (4 * hidden, input_dim), "w_h": (4 * hidden, hidden), "b": (4 * hidden,),
        "dense1_w": (dense, hidden), "dense1_b": (dense,),
        "bn_gamma": (dense,), "bn_beta": (dense,),
        "dense2_w": (1, dense), "dense2_b": (1,),
        "bn_mean": (dense,), "bn_var": (dense,),
    }


# bn_mean and bn_var close the table: running statistics, not trained.
_N_STATE = 2


@dataclass
class ModelParams:
    """All parameters of the classifier, including BN running stats, in one
    contiguous 1-D buffer ``flat``.

    Each tensor named in ``_tensor_shapes`` (``model.w_x`` ... ``model.bn_var``)
    is a reshaped view into ``flat``, so writing to a tensor writes to
    ``flat`` and the other way round.  The LSTM is stored fused: ``w_x
    (4H, I)``, ``w_h (4H, H)`` and ``b (4H,)`` stack the gate blocks in
    ``GATE_ORDER``.
    """

    flat: np.ndarray
    hidden_size: int
    dense_units: int
    input_dim: int

    def __post_init__(self):
        shapes = self._shapes()
        sizes = [math.prod(shape) for shape in shapes.values()]
        if self.flat.shape != (sum(sizes),):
            raise DataError(f"parameter buffer must have shape ({sum(sizes)},), got {self.flat.shape}")
        # Length of the trainable prefix of ``flat``, the vector Adam updates.
        self.n_trainable = sum(sizes[:-_N_STATE])
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            setattr(self, name, self.flat[offset : offset + size].reshape(shape))
            offset += size

    def _shapes(self) -> dict[str, tuple[int, ...]]:
        return _tensor_shapes(self.hidden_size, self.dense_units, self.input_dim)

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def trainable(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in list(self._shapes())[:-_N_STATE]}

    def copy(self) -> "ModelParams":
        return replace(self, flat=self.flat.copy())


def _from_ifco(model: ModelParams) -> None:
    """Reorder the four gate row blocks of the fused LSTM tensors from
    (i, f, c, o) to ``GATE_ORDER``, in place."""
    for tensor in (model.w_x, model.w_h, model.b):
        blocks = tensor.reshape(4, -1, *tensor.shape[1:])
        blocks[...] = blocks[list(_FROM_IFCO)]


def init_model(
    seed: int,
    hidden_size: int = 128,
    dense_units: int = 128,
    input_dim: int = 3,
    dtype=np.float32,
) -> ModelParams:
    """Seed-deterministic initialization.

    Weights are uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); biases start at
    zero except the forget gate (1.0, keeps early memory open); BN starts as
    the identity transform with unit running variance.  The gate blocks are
    drawn in (i, f, c, o) order, input weights before recurrent ones.
    """
    if hidden_size < 1 or dense_units < 1 or input_dim < 1:
        raise ConfigError("hidden_size, dense_units, and input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    shapes = _tensor_shapes(hidden_size, dense_units, input_dim)
    flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()), dtype=dtype)
    model = ModelParams(flat, hidden_size, dense_units, input_dim)
    # Every weight matrix's fan-in is its column count.
    for name in ("w_x", "w_h", "dense1_w", "dense2_w"):
        tensor = getattr(model, name)
        limit = 1.0 / np.sqrt(tensor.shape[1])
        tensor[...] = rng.uniform(-limit, limit, size=tensor.shape)
    _from_ifco(model)
    model.b[hidden_size : 2 * hidden_size] = 1.0
    model.bn_gamma[:] = 1.0
    model.bn_var[:] = 1.0
    return model


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)), in the dtype of ``x``.

    No masks, and no overflow for any finite input.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _check_finite(name: str, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in {name}")


def _as_batch(windows, dtype, name: str = "batch", idx=...) -> np.ndarray:
    """The windows ``idx`` selects (all by default) as a (B, W, input_dim)
    array of ``dtype``.  A cast that copies is checked, without numpy's
    overflow warning: DataError, naming the set, if it overflows."""
    arr = windows.take(idx).values if isinstance(windows, WindowSet) else np.asarray(windows)[idx]
    if arr.ndim != 3 or arr.shape[0] == 0:
        raise DataError(f"batch must have shape (B, W, input_dim), got {arr.shape}")
    with np.errstate(over="ignore"):
        cast = arr.astype(dtype, copy=False)
    if cast is not arr and not np.isfinite(cast).all() and np.isfinite(arr).all():
        top = np.finfo(dtype)
        raise DataError(f"{name} windows hold values beyond the {top.dtype} range (largest magnitude {top.max:.8g})")
    return cast


def _lstm(model: ModelParams, batch: np.ndarray, keep_history: bool):
    """Run the LSTM over the window; returns (last hidden state, history).

    ``history`` is None unless ``keep_history``; then it holds what BPTT reads,
    time-major: the inputs ``x (W*B, I)``, ``h`` and ``c`` of shape
    ``(W+1, B, H)`` (index t is the state before step t), the activated gates
    gate-major, ``(W, 4, B, H)`` in ``GATE_ORDER``, and ``tanh(c)``
    ``(W, B, H)``.  The gates lie over the memory of the input projection
    ``(W, B, 4H)``: step t's block is the same bytes in both views, and each
    step rewrites its block gate-major, so every elementwise pass runs on
    contiguous ``(B, H)`` blocks.  Without history the same arithmetic runs on
    one-step state buffers, so results are bit-equal.
    """
    b, w, n_in = batch.shape
    hid = model.hidden_size
    dtype = model.dtype
    x = np.ascontiguousarray(batch.transpose(1, 0, 2)).reshape(w * b, n_in)
    # Input projections for the whole window at once; only the recurrent part
    # has to run step by step.
    proj = (x @ model.w_x.T).reshape(w, b, 4 * hid)
    proj += model.b
    gates = proj.reshape(w, 4, b, hid)
    w_h_t = model.w_h.T
    n_states = w + 1 if keep_history else 1
    h = np.zeros((n_states, b, hid), dtype=dtype)
    c = np.zeros((n_states, b, hid), dtype=dtype)
    tanh_c = np.empty((w if keep_history else 1, b, hid), dtype=dtype)
    # One step's pre-activations, row-major (B, 4H), and i * g.
    pre = np.empty((b, 4 * hid), dtype=dtype)
    i_g = np.empty((b, hid), dtype=dtype)
    for t in range(w):
        now, nxt = (t, t + 1) if keep_history else (0, 0)
        np.matmul(h[now], w_h_t, out=pre)
        pre += proj[t]
        a = gates[t]
        a[...] = pre.reshape(b, 4, hid).transpose(1, 0, 2)
        # _sigmoid's float ops, in place on the three sigmoid gates.
        s = a[:3]
        s *= 0.5
        np.tanh(s, out=s)
        s += 1.0
        s *= 0.5
        i_t, f_t, o_t, g_t = a
        np.tanh(g_t, out=g_t)
        np.multiply(f_t, c[now], out=c[nxt])
        np.multiply(i_t, g_t, out=i_g)
        c[nxt] += i_g
        np.tanh(c[nxt], out=tanh_c[now])
        np.multiply(o_t, tanh_c[now], out=h[nxt])
    history = (x, h, c, gates, tanh_c) if keep_history else None
    return h[-1], history


def _bptt(model: ModelParams, history, dh: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate ``dh``, the loss gradient of the last hidden state,
    through every step of ``history``; returns the gradients of ``w_x``,
    ``w_h`` and ``b``.

    Step t's gate activations are read only by step t, so each step
    overwrites its block with its pre-activation gradient, row-major
    ``(B, 4H)``; after the loop the buffer holds da for every step in the
    projection's layout, and the weight gradients are one matmul or
    reduction each over all W*B rows.
    """
    x, h, c, gates, tanh_c = history
    w, _, b, hid = gates.shape
    da_rows = gates.reshape(w, b, 4 * hid)
    # One step's da, gate-major.
    da = np.empty((4, b, hid), dtype=gates.dtype)
    dc = np.zeros_like(dh)
    for t in range(w - 1, -1, -1):
        a = gates[t]
        i_t, f_t, o_t, g_t = a
        tc = tanh_c[t]
        dc += dh * o_t * (1.0 - tc * tc)
        # da_i, da_f and da_o as one (3, B, H) product: (dc*g, dc*c,
        # dh*tanh(c)) times s, then times 1 - s, of their gate s.
        np.multiply(dc, g_t, out=da[0])
        np.multiply(dc, c[t], out=da[1])
        np.multiply(dh, tc, out=da[2])
        da[:3] *= a[:3]
        da[:3] *= 1.0 - a[:3]
        np.multiply(dc, i_t, out=da[3])
        da[3] *= 1.0 - g_t * g_t
        dc *= f_t
        da_rows[t].reshape(b, 4, hid)[...] = da.transpose(1, 0, 2)
        dh = da_rows[t] @ model.w_h
    da_all = da_rows.reshape(w * b, 4 * hid)
    return da_all.T @ x, da_all.T @ h[:w].reshape(w * b, hid), da_all.sum(axis=0)


def _forward(model: ModelParams, batch: np.ndarray, train: bool):
    """Run the network, returning clipped probabilities plus the backprop cache.

    ``train`` normalizes with the batch's statistics and keeps the LSTM
    history BPTT reads; otherwise the stored running statistics normalize and
    no history is kept.
    """
    m = model
    dtype = m.dtype
    h_t, history = _lstm(m, batch, train)
    if not np.all(np.isfinite(h_t)):
        # Error path only: run again keeping every hidden state, to name the
        # first step whose hidden state is non-finite.
        h_all = _lstm(m, batch, True)[1][1]
        step = int(np.argmin(np.isfinite(h_all[1:]).all(axis=(1, 2))))
        raise NumericError("non-finite values in lstm", (f"step {step}",))

    z1 = h_t @ m.dense1_w.T + m.dense1_b
    _check_finite("dense1", z1)
    r = np.maximum(z1, 0)
    if train:
        mu = r.mean(axis=0)
        var = r.var(axis=0)
    else:
        mu = m.bn_mean
        var = m.bn_var
    inv_std = 1.0 / np.sqrt(var + np.asarray(BN_EPS, dtype=dtype))
    x_hat = (r - mu) * inv_std
    y_bn = m.bn_gamma * x_hat + m.bn_beta
    _check_finite("batchnorm", y_bn)
    z2 = (y_bn @ m.dense2_w.T + m.dense2_b).ravel()
    _check_finite("dense2", z2)
    p_raw = _sigmoid(z2)
    lo = np.asarray(PROB_CLAMP, dtype=dtype)
    hi = np.asarray(1.0 - PROB_CLAMP, dtype=dtype)
    p = np.clip(p_raw, lo, hi)
    cache = {
        "history": history, "h_last": h_t, "z1": z1, "r": r,
        "mu": mu, "var": var, "inv_std": inv_std, "x_hat": x_hat, "y_bn": y_bn,
        "p_raw": p_raw, "p": p, "clip_lo": lo, "clip_hi": hi,
    }
    return p, cache


def forward(model: ModelParams, windows, *, name: str = "batch") -> np.ndarray:
    """The one eval-mode pass: probabilities in (0, 1) for a batch of windows.

    Normalizes with the stored running BN statistics, so it is a pure function
    of (model, input); keeps no BPTT history and runs in near-equal batches of
    at most ``EVAL_BATCH`` windows, each cast on its own: DataError naming
    ``name`` if one overflows."""
    windows = windows if isinstance(windows, WindowSet) else _as_batch(windows, model.dtype, name)
    chunks = np.array_split(np.arange(len(windows)), -(-len(windows) // EVAL_BATCH) or 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        probs = [_forward(model, _as_batch(windows, model.dtype, name, i), train=False)[0] for i in chunks]
    return np.concatenate(probs)


def _bce(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, accumulated in float64."""
    p = probs.astype(np.float64)
    y = labels.astype(np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def loss_and_gradients(model: ModelParams, batch, labels):
    """Mean BCE loss and gradients for every trainable tensor (full BPTT).

    Runs in train mode (batch BN statistics) and updates the BN running
    statistics in place, exactly as one training step observes them.
    """
    arr = _as_batch(batch, model.dtype)
    y = np.asarray(labels).ravel()
    if y.size != arr.shape[0]:
        raise DataError(f"length mismatch: {arr.shape[0]} windows vs {y.size} labels")
    if not np.all(np.isin(y, (0, 1))):
        raise DataError("labels must be 0 or 1")
    y = y.astype(model.dtype)

    p, cache = _forward(model, arr, train=True)
    mom = np.asarray(BN_MOMENTUM, dtype=model.dtype)
    model.bn_mean[:] = mom * model.bn_mean + (1 - mom) * cache["mu"]
    model.bn_var[:] = mom * model.bn_var + (1 - mom) * cache["var"]
    loss = _bce(p, y)

    m = model
    b = arr.shape[0]
    dtype = m.dtype

    # Head gradients.  Clipped probabilities pass no gradient, matching the
    # loss actually evaluated.
    p_raw = cache["p_raw"]
    inside = (p_raw > cache["clip_lo"]) & (p_raw < cache["clip_hi"])
    dp = (p - y) / (p * (1.0 - p)) / np.asarray(b, dtype=dtype)
    dz2 = dp * inside * p_raw * (1.0 - p_raw)

    g_dense2_w = dz2[None, :] @ cache["y_bn"]
    g_dense2_b = dz2.sum(keepdims=True).astype(dtype)
    dy_bn = dz2[:, None] @ m.dense2_w

    x_hat = cache["x_hat"]
    inv_std = cache["inv_std"]
    g_bn_gamma = (dy_bn * x_hat).sum(axis=0)
    g_bn_beta = dy_bn.sum(axis=0)
    dx_hat = dy_bn * m.bn_gamma
    r = cache["r"]
    centered = r - cache["mu"]
    dvar = (dx_hat * centered).sum(axis=0) * (-0.5) * inv_std**3
    dmu = -(dx_hat.sum(axis=0)) * inv_std + dvar * (-2.0 / b) * centered.sum(axis=0)
    dr = dx_hat * inv_std + dvar * (2.0 / b) * centered + dmu / b

    dz1 = dr * (cache["z1"] > 0)
    g_dense1_w = dz1.T @ cache["h_last"]
    g_dense1_b = dz1.sum(axis=0)
    dh = dz1 @ m.dense1_w

    g_w_x, g_w_h, g_b = _bptt(m, cache["history"], dh)
    grads = {
        "w_x": g_w_x,
        "w_h": g_w_h,
        "b": g_b,
        "dense1_w": g_dense1_w,
        "dense1_b": g_dense1_b,
        "bn_gamma": g_bn_gamma,
        "bn_beta": g_bn_beta,
        "dense2_w": g_dense2_w.astype(dtype),
        "dense2_b": g_dense2_b,
    }
    return loss, grads


# ---------------------------------------------------------------------------
# Training loop

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    max_epochs: int = 250
    patience: int = 50
    batch_size: int = 64

    def __post_init__(self):
        if not 0 < self.learning_rate <= float(np.finfo(np.float32).max):
            raise ConfigError(f"learning_rate must be positive and at most float32's max, got {self.learning_rate!r}")
        if self.max_epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs, patience, and batch_size must be >= 1")
        if self.patience > self.max_epochs:
            raise ConfigError("patience must not exceed max_epochs")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_f1: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stop_reason: str = "max_epochs"

    def epochs(self) -> int:
        return len(self.train_loss)

    def to_csv(self) -> str:
        lines = ["epoch;train_loss;val_loss;val_f1"]
        for e, (tl, vl, f1) in enumerate(zip(self.train_loss, self.val_loss, self.val_f1)):
            lines.append(f"{e};{tl:.6f};{vl:.6f};{f1:.6f}")
        lines.append("")
        return "\n".join(lines)


def _labels_of(windows, name: str) -> np.ndarray:
    if isinstance(windows, WindowSet) and len(windows):
        return windows.labels
    raise DataError(f"{name} set must be a non-empty WindowSet")


def _blame_learning_rate(exc: NumericError, model: ModelParams, inputs, train: bool, learning_rate: float):
    """``exc``, naming the learning rate when finite parameters are so large
    that they overflow where two multiply or one multiplies an activation: an
    input, an LSTM state (at most 1) or a BatchNorm output, |gamma| spread +
    |beta|, the spread being sqrt(B) under a step's batch statistics and a
    dense1 output's bound over the smallest deviation under the running ones."""
    largest = float(np.max(np.abs(model.flat[: model.n_trainable])))
    top = float(np.finfo(model.dtype).max)
    gamma, beta, mean = (float(np.abs(v).max()) for v in (model.bn_gamma, model.bn_beta, model.bn_mean))
    deviation = math.sqrt(float(model.bn_var.min()) + BN_EPS)
    spread = math.sqrt(len(inputs)) if train else ((model.hidden_size + 1) * largest + mean) / deviation
    activation = max(float(np.abs(inputs).max()), 1.0, gamma * spread + beta)
    if math.isfinite(largest) and (largest >= math.sqrt(top) or largest * activation >= top):
        cause = f"|parameter| up to {largest:.3g} at learning rate {learning_rate:g}"
        return NumericError(exc.message, exc.where + (cause,))
    return exc


def train(model: ModelParams, train_windows, val_windows, config: TrainConfig, seed: int = 0):
    """Adam minibatch training with early stopping on validation loss;
    ``seed`` drives the epoch shuffles.

    Returns (best_model, history): the parameters from the epoch with the
    lowest validation loss, and per-epoch losses/F1.  Stops after ``patience``
    epochs without strict improvement, or at ``max_epochs``.
    """
    y_train = _labels_of(train_windows, "training")
    y_val = _labels_of(val_windows, "validation")
    # Every pass checks its results for non-finite values where it computes
    # them and names where, so numpy's floating-point warnings are off: set
    # once per call, not once per step.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n = len(train_windows)
        rng = np.random.default_rng(seed)
        # Adam's moments over the trainable prefix of the flat parameter buffer.
        theta = model.flat[: model.n_trainable]
        adam_m = np.zeros_like(theta)
        adam_v = np.zeros_like(theta)
        names = list(model.trainable())
        step = 0
        lr = np.asarray(config.learning_rate, dtype=model.dtype)

        history = TrainHistory()
        best_val = np.inf
        best_params = model.copy()
        since_improve = 0

        for epoch in range(config.max_epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                try:
                    batch = _as_batch(train_windows, model.dtype, "training", idx)
                    loss, grads = loss_and_gradients(model, batch, y_train[idx])
                    grad = np.concatenate([grads[name].ravel() for name in names])
                    # Checked once per step, so the next batch's forward pass
                    # is not blamed for a step that left theta non-finite.
                    _check_finite("gradients", grad)
                    step += 1
                    bc1 = 1.0 - ADAM_BETA1**step
                    bc2 = 1.0 - ADAM_BETA2**step
                    adam_m[:] = ADAM_BETA1 * adam_m + (1 - ADAM_BETA1) * grad
                    adam_v[:] = ADAM_BETA2 * adam_v + (1 - ADAM_BETA2) * grad * grad
                    m_hat = adam_m / bc1
                    v_hat = adam_v / bc2
                    theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                    _check_finite("adam update", theta)
                except NumericError as exc:
                    located = _blame_learning_rate(exc, model, batch, True, config.learning_rate)
                    raise located.within(f"epoch {epoch}", f"batch {start // config.batch_size}") from exc
                total += loss * idx.size
            history.train_loss.append(total / n)

            try:
                val_probs = forward(model, val_windows, name="validation")
            except NumericError as exc:
                # The held rows give the set's max |input| without gathering every window.
                held = val_windows.held()[0].samples
                located = _blame_learning_rate(exc, model, held, False, config.learning_rate)
                raise located.within(f"epoch {epoch}", "validation") from exc
            val_loss = _bce(val_probs, y_val)
            history.val_loss.append(val_loss)
            history.val_f1.append(classification_metrics(val_probs, y_val).f1)

            if val_loss < best_val:
                best_val = val_loss
                best_params = model.copy()
                history.best_epoch = epoch
                since_improve = 0
            else:
                since_improve += 1
                if since_improve >= config.patience:
                    history.stop_reason = "early_stop"
                    break
    return best_params, history


def evaluate(model: ModelParams, test_windows, threshold: float = 0.5) -> ClassificationMetrics:
    """Eval-mode forward over the test windows, scored against their labels."""
    labels = _labels_of(test_windows, "test")
    return classification_metrics(forward(model, test_windows, name="test"), labels, threshold)

