"""Single-hidden-layer LSTM regressor for short look-back windows.

The network is deliberately tiny: scalar input, one hidden layer of
memory cells, scalar linear output. It is retrained from scratch on a
handful of points every time the streaming detector decides its current
model no longer explains the data, so training must finish in
milliseconds. Everything runs on plain numpy in float64.

Gate layout: weight and bias vectors stack the four gates in the order
(input, forget, output, candidate), each slice of length ``hidden_units``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "LstmConfig",
    "LstmModel",
    "TrainOutcome",
    "init_model",
    "train",
    "predict_next",
]

# Windows with a standard deviation at or below this are treated as
# constant and normalized with std 1 instead.
_CONSTANT_STD = 1e-12


@dataclass(frozen=True)
class LstmConfig:
    """Hyperparameters for training the look-back forecaster.

    Defaults mirror the streaming detector's reference setup: 10 hidden
    units, learning rate 0.15, and early stopping confined to 1..50
    epochs. Larger epoch caps are accepted when set explicitly.
    """

    hidden_units: int = 10
    learning_rate: float = 0.15
    max_epochs: int = 50
    min_epochs: int = 1
    early_stop_delta: float = 1e-4
    early_stop_patience: int = 3
    seed: int = 42

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.min_epochs < 1:
            raise ConfigError(f"min_epochs must be >= 1, got {self.min_epochs}")
        if self.max_epochs < self.min_epochs:
            raise ConfigError(
                f"max_epochs ({self.max_epochs}) must be >= min_epochs ({self.min_epochs})"
            )
        if self.early_stop_delta < 0:
            raise ConfigError(f"early_stop_delta must be >= 0, got {self.early_stop_delta}")
        if self.early_stop_patience < 1:
            raise ConfigError(
                f"early_stop_patience must be >= 1, got {self.early_stop_patience}"
            )


@dataclass(eq=False)
class LstmModel:
    """Weights of the one-hidden-layer LSTM plus normalization stats.

    ``w_x`` holds the input weights of the four stacked gates, ``w_h``
    the recurrent weights, ``b`` the gate biases, ``w_out``/``b_out``
    the linear output layer. ``norm_mean``/``norm_std`` are the
    statistics of the window the model was trained on; raw values are
    z-scored with them before entering the network and forecasts are
    mapped back afterwards.

    ``predict_next`` keeps the recurrence states of the last forecast
    window's suffixes on the model, keyed by the identity of ``w_x``,
    ``w_h`` and ``b``: reassign those arrays to change them, never write
    into them. ``train`` returns its arrays read-only.
    """

    w_x: np.ndarray  # (4H,)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    w_out: np.ndarray  # (H,)
    b_out: float
    norm_mean: float = 0.0
    norm_std: float = 1.0
    _suffixes: tuple | None = field(default=None, init=False, repr=False)

    @property
    def hidden_units(self) -> int:
        return self.w_out.size


@dataclass(frozen=True)
class TrainOutcome:
    model: LstmModel
    epochs_used: int
    final_loss: float


def init_model(config: LstmConfig) -> LstmModel:
    """Create a model with small deterministic random weights.

    Weights are uniform in [-0.5, 0.5] scaled by 1/sqrt(hidden_units);
    all biases start at zero except the forget gate, which starts at 1
    so the cell state is initially retained. Normalization statistics
    are the identity until ``train`` overwrites them.
    """
    h = config.hidden_units
    rng = np.random.default_rng(config.seed)
    scale = 0.5 / np.sqrt(h)
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0
    return LstmModel(
        w_x=rng.uniform(-scale, scale, 4 * h),
        w_h=rng.uniform(-scale, scale, (4 * h, h)),
        b=b,
        w_out=rng.uniform(-scale, scale, h),
        b_out=0.0,
    )


@lru_cache(maxsize=8)
def _gate_affine(h: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(scale, offset)`` of the fused gate activation.

    ``scale`` is 1/2 on the sigmoid gates (i, f, o) and 1 on the
    candidate g; ``offset`` is ``1 - scale``. Then
    ``offset + scale * tanh(scale * z)`` is ``sigmoid(z) = (1 + tanh(z/2)) / 2``
    on the sigmoid gates and ``tanh(z)`` on g, and nothing can overflow.
    """
    scale = np.full(4 * h, 0.5)
    scale[3 * h :] = 1.0
    offset = 1.0 - scale
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def _gates(act: np.ndarray, c_prev: np.ndarray, h: int):
    """The cell update from gate pre-activations, one ``tanh`` over all four gates.

    ``act`` holds the pre-activations stacked like the weights along its
    last axis, one row per sequence, and is turned into the activations
    (i, f, o, g) in place. Returns those, the cell state, its tanh and
    the hidden state.
    """
    scale, offset = _gate_affine(h)
    act *= scale
    np.tanh(act, out=act)
    act *= scale
    act += offset
    c = act[..., h : 2 * h] * c_prev + act[..., :h] * act[..., 3 * h :]
    tc = np.tanh(c)
    return act, c, tc, act[..., 2 * h : 3 * h] * tc


def _step(model: LstmModel, x: float, h_prev: np.ndarray, c_prev: np.ndarray):
    """One recurrence step of one sequence; see ``_gates`` for the result."""
    return _gates(model.w_x * x + model.w_h @ h_prev + model.b, c_prev, model.hidden_units)


def _run(model: LstmModel, inputs: np.ndarray):
    """Forward recurrence from zero state, caching per-step activations.

    Returns ``(acts, cells, tanh_cells, hiddens, outputs)``. ``cells`` and
    ``hiddens`` have a leading zero row, so row ``k`` is the state that
    step ``k`` starts from and row ``k + 1`` the state it produces.
    """
    h = model.hidden_units
    steps = inputs.size
    acts = np.empty((steps, 4 * h))
    cells = np.zeros((steps + 1, h))
    tanh_cells = np.empty((steps, h))
    hiddens = np.zeros((steps + 1, h))
    for k in range(steps):
        acts[k], cells[k + 1], tanh_cells[k], hiddens[k + 1] = _step(
            model, inputs[k], hiddens[k], cells[k]
        )
    outputs = hiddens[1:] @ model.w_out + model.b_out
    return acts, cells, tanh_cells, hiddens, outputs


def _loss_and_grads(model: LstmModel, inputs: np.ndarray, targets: np.ndarray):
    """Mean squared error and its analytic gradients via BPTT.

    The backward loop only carries the recurrent error; the parameter
    gradients are matrix products over the stacked gate errors ``dz``.
    """
    h = model.hidden_units
    steps = inputs.size
    acts, cells, tanh_cells, hiddens, outputs = _run(model, inputs)

    err = outputs - targets
    loss = float((err**2).sum() / steps)
    d_out = 2.0 * err / steps

    # d act / d z: s(1 - s) on the sigmoid gates i, f, o and 1 - g^2 on g
    deriv = acts * (1.0 - acts)
    deriv[:, 3 * h :] = 1.0 - acts[:, 3 * h :] ** 2
    # dz = deriv * partner * (dc on i, f, g; dh on o), where a gate's partner
    # is what it multiplies: g for i, c_prev for f, tanh(c) for o, i for g
    partner = deriv * np.concatenate(
        (acts[:, 3 * h :], cells[:-1], tanh_cells, acts[:, :h]), axis=1
    )
    dc_of_dh = acts[:, 2 * h : 3 * h] * (1.0 - tanh_cells**2)

    dz = np.empty((steps, 4 * h))
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for k in range(steps - 1, -1, -1):
        dh = d_out[k] * model.w_out + dh_next
        dc = dh * dc_of_dh[k] + dc_next
        np.multiply(partner[k], np.concatenate((dc, dc, dh, dc)), out=dz[k])
        dh_next = model.w_h.T @ dz[k]
        dc_next = dc * acts[k, h : 2 * h]

    return loss, {
        "w_x": inputs @ dz,
        "w_h": dz.T @ hiddens[:-1],
        "b": dz.sum(axis=0),
        "w_out": d_out @ hiddens[1:],
        "b_out": float(d_out.sum()),
    }


def train(window: Sequence[float], config: LstmConfig) -> TrainOutcome:
    """Fit a fresh model to one look-back window.

    The window is z-scored by its own mean and (population) standard
    deviation, with std substituted by 1 when the window is constant.
    Training pairs are teacher-forced next-step pairs within the window,
    optimized by full-batch gradient descent on mean squared error.
    Early stopping halts once the relative loss improvement stays below
    ``early_stop_delta`` for ``early_stop_patience`` consecutive epochs,
    never before ``min_epochs`` nor after ``max_epochs``.
    """
    raw = np.asarray(window, dtype=float)
    if raw.ndim != 1 or raw.size < 2:
        raise ValueError(f"training window needs at least 2 values, got {raw.size}")
    if not np.isfinite(raw).all():
        raise DataError("training window contains non-finite values")

    with np.errstate(all="ignore"):
        mean = float(raw.mean())
        std = float(raw.std())
        if math.isinf(std):
            # The squared deviations overflowed: take them in units of max |value|.
            scale = float(np.abs(raw).max())
            std = scale * float((raw / scale).std())
        if std <= _CONSTANT_STD:
            std = 1.0
        normed = (raw - mean) / std
    if not (math.isfinite(mean) and math.isfinite(std) and np.isfinite(normed).all()):
        raise DataError("training window is too large to normalize: its mean or spread overflows")
    inputs = normed[:-1]
    targets = normed[1:]

    model = init_model(config)
    model.norm_mean = mean
    model.norm_std = std

    lr = config.learning_rate
    prev_loss = None
    stalled = 0
    epochs_used = 0
    for epoch in range(1, config.max_epochs + 1):
        loss, grads = _loss_and_grads(model, inputs, targets)
        model.w_x -= lr * grads["w_x"]
        model.w_h -= lr * grads["w_h"]
        model.b -= lr * grads["b"]
        model.w_out -= lr * grads["w_out"]
        model.b_out -= lr * grads["b_out"]
        epochs_used = epoch

        if prev_loss is not None:
            improvement = (prev_loss - loss) / prev_loss if prev_loss > 0 else 0.0
            stalled = stalled + 1 if improvement < config.early_stop_delta else 0
        prev_loss = loss
        if epoch >= config.min_epochs and stalled >= config.early_stop_patience:
            break

    final_preds = _run(model, inputs)[-1]
    final_loss = float(np.mean((final_preds - targets) ** 2))
    for weights in (model.w_x, model.w_h, model.b, model.w_out):
        weights.flags.writeable = False
    return TrainOutcome(model=model, epochs_used=epochs_used, final_loss=final_loss)


def predict_next(model: LstmModel, window: Sequence[float]) -> float:
    """Forecast the raw value following the given raw window.

    The window is normalized with the model's stored statistics, run
    through the recurrence from zero state, and the final step's output
    is mapped back to the raw scale.

    Consecutive windows of a stream share all but one value, so the model
    keeps the states that the window's proper suffixes reach from zero.
    When the next window is this one moved on by one point and ``w_x``,
    ``w_h`` and ``b`` are the same arrays, a single batched step advances
    those suffixes and a fresh zero state by the new value, and the row
    that now spans the whole window gives the forecast. Any other call
    starts every row from zero and feeds the whole window through the
    same step.
    """
    raw = np.asarray(window, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("prediction window must be non-empty")
    normed = tuple(((raw - model.norm_mean) / model.norm_std).tolist())
    if not all(map(math.isfinite, normed)):
        raise DataError("prediction window contains non-finite values, raw or normalized")
    h = model.hidden_units
    memo = model._suffixes  # (normalized window[1:], w_x, w_h, b, hiddens, cells)
    if (
        memo is not None
        and memo[0] == normed[:-1]
        and memo[1] is model.w_x
        and memo[2] is model.w_h
        and memo[3] is model.b
    ):
        feed, hidden, cell = normed[-1:], memo[4], memo[5]
    else:
        feed = normed
        hidden = cell = np.zeros((raw.size - 1, h))
    zero = np.zeros((1, h))
    for x in feed:
        # The carried states, longest suffix first, and a zero state all
        # take x; row 0 then spans every value fed so far.
        act = model.w_x * x + np.concatenate((hidden, zero)) @ model.w_h.T + model.b
        _, cell, _, hidden = _gates(act, np.concatenate((cell, zero)), h)
        whole, hidden, cell = hidden[0], hidden[1:], cell[1:]
    forecast = float(model.w_out @ whole + model.b_out) * model.norm_std + model.norm_mean
    if not math.isfinite(forecast):
        raise DataError(f"forecast overflows: {forecast}")
    model._suffixes = (normed[1:], model.w_x, model.w_h, model.b, hidden, cell)
    return forecast
