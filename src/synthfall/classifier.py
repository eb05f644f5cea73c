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

import struct
from dataclasses import dataclass, field
from pathlib import Path

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

_GATES = ("i", "f", "c", "o")

# Canonical tensor order for checkpoints and optimizer state.
_TRAINABLE_FIELDS = (
    "w_ix", "w_fx", "w_cx", "w_ox",
    "w_ih", "w_fh", "w_ch", "w_oh",
    "b_i", "b_f", "b_c", "b_o",
    "dense1_w", "dense1_b",
    "bn_gamma", "bn_beta",
    "dense2_w", "dense2_b",
)
_STATE_FIELDS = ("bn_mean", "bn_var")


@dataclass
class ModelParams:
    """All parameter tensors of the classifier, including BN running stats."""

    w_ix: np.ndarray
    w_fx: np.ndarray
    w_cx: np.ndarray
    w_ox: np.ndarray
    w_ih: np.ndarray
    w_fh: np.ndarray
    w_ch: np.ndarray
    w_oh: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray
    dense1_w: np.ndarray
    dense1_b: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    dense2_w: np.ndarray
    dense2_b: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.w_ix.shape[0]

    @property
    def dense_units(self) -> int:
        return self.dense1_w.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_ix.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.w_ix.dtype

    def trainable(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TRAINABLE_FIELDS}

    def copy(self) -> "ModelParams":
        return ModelParams(**{
            name: getattr(self, name).copy() for name in _TRAINABLE_FIELDS + _STATE_FIELDS
        })


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
    the identity transform with unit running variance.
    """
    if hidden_size < 1 or dense_units < 1 or input_dim < 1:
        raise ConfigError("hidden_size, dense_units, and input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)

    def uniform(shape, fan_in):
        limit = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-limit, limit, size=shape).astype(dtype)

    h, d, i = hidden_size, dense_units, input_dim
    params = {}
    for gate in _GATES:
        params[f"w_{gate}x"] = uniform((h, i), i)
    for gate in _GATES:
        params[f"w_{gate}h"] = uniform((h, h), h)
    for gate in _GATES:
        params[f"b_{gate}"] = np.full(h, 1.0 if gate == "f" else 0.0, dtype=dtype)
    params["dense1_w"] = uniform((d, h), h)
    params["dense1_b"] = np.zeros(d, dtype=dtype)
    params["bn_gamma"] = np.ones(d, dtype=dtype)
    params["bn_beta"] = np.zeros(d, dtype=dtype)
    params["dense2_w"] = uniform((1, d), d)
    params["dense2_b"] = np.zeros(1, dtype=dtype)
    params["bn_mean"] = np.zeros(d, dtype=dtype)
    params["bn_var"] = np.ones(d, dtype=dtype)
    return ModelParams(**params)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_finite(name: str, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in {name}")


def _as_batch(windows, dtype) -> np.ndarray:
    arr = windows.values if isinstance(windows, WindowSet) else np.asarray(windows)
    if arr.ndim != 3 or arr.shape[0] == 0:
        raise DataError(f"batch must have shape (B, W, input_dim), got {arr.shape}")
    return arr.astype(dtype, copy=False)


def _forward(model: ModelParams, batch: np.ndarray, train_mode: bool):
    """Run the network, returning clipped probabilities plus the BPTT cache."""
    m = model
    b, w, _ = batch.shape
    dtype = m.dtype
    h_t = np.zeros((b, m.hidden_size), dtype=dtype)
    c_t = np.zeros((b, m.hidden_size), dtype=dtype)
    # Input projections for the whole window at once; only the recurrent part
    # has to run step by step.
    flat = batch.reshape(b * w, m.input_dim)
    xp = {g: (flat @ getattr(m, f"w_{g}x").T).reshape(b, w, m.hidden_size) for g in _GATES}
    steps = []
    for t in range(w):
        i_t = _sigmoid(xp["i"][:, t] + h_t @ m.w_ih.T + m.b_i)
        f_t = _sigmoid(xp["f"][:, t] + h_t @ m.w_fh.T + m.b_f)
        g_t = np.tanh(xp["c"][:, t] + h_t @ m.w_ch.T + m.b_c)
        o_t = _sigmoid(xp["o"][:, t] + h_t @ m.w_oh.T + m.b_o)
        c_new = f_t * c_t + i_t * g_t
        tanh_c = np.tanh(c_new)
        steps.append((h_t, c_t, i_t, f_t, g_t, o_t, tanh_c))
        h_t = o_t * tanh_c
        c_t = c_new
    _check_finite("lstm", h_t)

    z1 = h_t @ m.dense1_w.T + m.dense1_b
    _check_finite("dense1", z1)
    r = np.maximum(z1, 0)
    if train_mode:
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
        "batch": batch, "steps": steps, "h_last": h_t, "z1": z1, "r": r,
        "mu": mu, "var": var, "inv_std": inv_std, "x_hat": x_hat,
        "p_raw": p_raw, "p": p, "clip_lo": lo, "clip_hi": hi,
    }
    return p, cache


def forward(model: ModelParams, batch, mode: str = "eval") -> np.ndarray:
    """Probabilities in (0, 1) for a batch of windows.

    ``train`` mode normalizes with batch statistics and updates the running
    BN statistics in place; ``eval`` mode uses the stored running statistics
    and is a pure function of (model, input).
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    arr = _as_batch(batch, model.dtype)
    p, cache = _forward(model, arr, train_mode=(mode == "train"))
    if mode == "train":
        _update_running_stats(model, cache)
    return p


def _update_running_stats(model: ModelParams, cache: dict) -> None:
    mom = np.asarray(BN_MOMENTUM, dtype=model.dtype)
    model.bn_mean[:] = mom * model.bn_mean + (1 - mom) * cache["mu"]
    model.bn_var[:] = mom * model.bn_var + (1 - mom) * cache["var"]


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

    p, cache = _forward(model, arr, train_mode=True)
    _update_running_stats(model, cache)
    loss = _bce(p, y)

    m = model
    b, w, _ = arr.shape
    dtype = m.dtype

    # Head gradients.  Clipped probabilities pass no gradient, matching the
    # loss actually evaluated.
    p_raw = cache["p_raw"]
    inside = (p_raw > cache["clip_lo"]) & (p_raw < cache["clip_hi"])
    dp = (p - y) / (p * (1.0 - p)) / np.asarray(b, dtype=dtype)
    dz2 = dp * inside * p_raw * (1.0 - p_raw)

    y_bn = m.bn_gamma * cache["x_hat"] + m.bn_beta
    g_dense2_w = dz2[None, :] @ y_bn
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
    h_last = cache["h_last"]
    g_dense1_w = dz1.T @ h_last
    g_dense1_b = dz1.sum(axis=0)
    dh = dz1 @ m.dense1_w

    grads = {name: np.zeros_like(getattr(m, name)) for name in _TRAINABLE_FIELDS}
    grads["dense2_w"] = g_dense2_w.astype(dtype)
    grads["dense2_b"] = g_dense2_b
    grads["bn_gamma"] = g_bn_gamma
    grads["bn_beta"] = g_bn_beta
    grads["dense1_w"] = g_dense1_w
    grads["dense1_b"] = g_dense1_b

    dc = np.zeros_like(dh)
    for t in range(w - 1, -1, -1):
        h_prev, c_prev, i_t, f_t, g_t, o_t, tanh_c = cache["steps"][t]
        do = dh * tanh_c
        dc = dc + dh * o_t * (1.0 - tanh_c * tanh_c)
        di = dc * g_t
        dg = dc * i_t
        df = dc * c_prev
        da_i = di * i_t * (1.0 - i_t)
        da_f = df * f_t * (1.0 - f_t)
        da_g = dg * (1.0 - g_t * g_t)
        da_o = do * o_t * (1.0 - o_t)
        x_t = arr[:, t]
        for gate, da in zip(_GATES, (da_i, da_f, da_g, da_o)):
            grads[f"w_{gate}x"] += da.T @ x_t
            grads[f"w_{gate}h"] += da.T @ h_prev
            grads[f"b_{gate}"] += da.sum(axis=0)
        dh = da_i @ m.w_ih + da_f @ m.w_fh + da_g @ m.w_ch + da_o @ m.w_oh
        dc = dc * f_t
    return loss, grads


# ---------------------------------------------------------------------------
# Training loop

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    max_epochs: int = 250
    patience: int = 50
    batch_size: int = 64
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
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


def _labels_of(windows) -> np.ndarray:
    if isinstance(windows, WindowSet) and len(windows):
        return windows.labels
    raise DataError("expected a non-empty WindowSet")


def train(model: ModelParams, train_windows, val_windows, config: TrainConfig):
    """Adam minibatch training with early stopping on validation loss.

    Returns (best_model, history): the parameters from the epoch with the
    lowest validation loss, and per-epoch losses/F1.  Stops after ``patience``
    epochs without strict improvement, or at ``max_epochs``.
    """
    if not train_windows or not val_windows:
        raise DataError("train and validation sets must be non-empty")
    x_train = _as_batch(train_windows, model.dtype)
    y_train = _labels_of(train_windows)
    x_val = _as_batch(val_windows, model.dtype)
    y_val = _labels_of(val_windows)

    n = x_train.shape[0]
    rng = np.random.default_rng(config.seed)
    adam_m = {name: np.zeros_like(t) for name, t in model.trainable().items()}
    adam_v = {name: np.zeros_like(t) for name, t in model.trainable().items()}
    step = 0
    lr = np.asarray(config.learning_rate, dtype=model.dtype)

    history = TrainHistory()
    best_val = np.inf
    best_params = model.copy()
    since_improve = 0

    for epoch in range(config.max_epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = loss_and_gradients(model, x_train[idx], y_train[idx])
            step += 1
            bc1 = 1.0 - ADAM_BETA1**step
            bc2 = 1.0 - ADAM_BETA2**step
            for name, grad in grads.items():
                tensor = getattr(model, name)
                adam_m[name][:] = ADAM_BETA1 * adam_m[name] + (1 - ADAM_BETA1) * grad
                adam_v[name][:] = ADAM_BETA2 * adam_v[name] + (1 - ADAM_BETA2) * grad * grad
                m_hat = adam_m[name] / bc1
                v_hat = adam_v[name] / bc2
                tensor -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            total += loss * idx.size
        history.train_loss.append(total / n)

        val_probs = forward(model, x_val, mode="eval")
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
    else:
        history.stop_reason = "max_epochs"
    return best_params, history


def evaluate(model: ModelParams, test_windows, threshold: float = 0.5) -> ClassificationMetrics:
    """Eval-mode forward over the test windows, scored against their labels."""
    if not test_windows:
        raise DataError("test set must be non-empty")
    probs = forward(model, test_windows, mode="eval")
    return classification_metrics(probs, _labels_of(test_windows), threshold)


# ---------------------------------------------------------------------------
# Checkpoints

_CKPT_MAGIC = b"SFCK"
_CKPT_VERSION = 1


def save_checkpoint(model: ModelParams, path: str | Path, window_len: int = 128) -> None:
    """Versioned binary checkpoint: header + raw little-endian tensors."""
    path = Path(path)
    itemsize = model.dtype.itemsize
    with path.open("wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack(
            "<HIIIIB", _CKPT_VERSION, model.hidden_size, model.dense_units,
            model.input_dim, window_len, itemsize,
        ))
        le = np.dtype(f"<f{itemsize}")
        for name in _TRAINABLE_FIELDS + _STATE_FIELDS:
            fh.write(np.ascontiguousarray(getattr(model, name), dtype=le).tobytes())


def load_checkpoint(path: str | Path):
    """Load a checkpoint; returns (model, window_len)."""
    data = Path(path).read_bytes()
    if data[:4] != _CKPT_MAGIC:
        raise DataError("not a checkpoint: bad magic")
    version, hidden, dense, input_dim, window_len, itemsize = struct.unpack_from("<HIIIIB", data, 4)
    if version != _CKPT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    if itemsize not in (4, 8):
        raise DataError(f"unsupported checkpoint itemsize {itemsize}")
    dtype = np.dtype(f"<f{itemsize}")
    shapes = _tensor_shapes(hidden, dense, input_dim)
    offset = 4 + struct.calcsize("<HIIIIB")
    params = {}
    for name in _TRAINABLE_FIELDS + _STATE_FIELDS:
        shape = shapes[name]
        nbytes = int(np.prod(shape)) * itemsize
        if offset + nbytes > len(data):
            raise DataError("truncated checkpoint payload")
        params[name] = np.frombuffer(data[offset : offset + nbytes], dtype=dtype).reshape(shape).copy()
        offset += nbytes
    return ModelParams(**params), window_len


def _tensor_shapes(hidden: int, dense: int, input_dim: int) -> dict[str, tuple]:
    shapes = {}
    for gate in _GATES:
        shapes[f"w_{gate}x"] = (hidden, input_dim)
        shapes[f"w_{gate}h"] = (hidden, hidden)
        shapes[f"b_{gate}"] = (hidden,)
    shapes["dense1_w"] = (dense, hidden)
    shapes["dense1_b"] = (dense,)
    shapes["bn_gamma"] = (dense,)
    shapes["bn_beta"] = (dense,)
    shapes["dense2_w"] = (1, dense)
    shapes["dense2_b"] = (1,)
    shapes["bn_mean"] = (dense,)
    shapes["bn_var"] = (dense,)
    return shapes
