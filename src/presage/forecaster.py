"""Single-hidden-layer LSTM regressor for short look-back windows.

The network is deliberately tiny: scalar input, one hidden layer of
memory cells, scalar linear output. It is retrained from scratch on a
handful of points every time the streaming detector decides its current
model no longer explains the data, so training must finish in
milliseconds. Everything runs on plain numpy in float64.

Gate layout: weight and bias vectors stack the four gates in the order
(input, forget, output, candidate), each slice of length ``hidden_units``.
A step works gate-major: its pre-activations are shaped ``(4, ..., H)``, one
leading entry per gate, so the sigmoid gates are one contiguous block and
each gate product is an operation on equal contiguous shapes. The step's
weights have the sigmoid gates' rows halved beforehand, since
``sigmoid(z) = (1 + tanh(z / 2)) / 2``; halving by a power of two is exact,
so forecasts and trained models are bit-identical to unscaled weights
scaled inside the step.

Training runs all the epochs of a ``train`` call through one workspace,
``_Descent``, which starts from initial weights drawn once per configuration.
Its weights are views of one flat vector; its buffers, and the views of them
that a pass reads, are made once and reused by every epoch; and step 0 skips
the products of the zero start state. Trained models are bit-identical to
those of a plain descent that allocates afresh and computes those products
(``tests/helpers.reference_train`` and ``plain_forward``).

Forecasting may keep a memo that its caller owns, so that the forecast for the
next window is one straight-line step on its new value, with no feed list, loop
or return tuple; forecasts are bit-identical to steps that allocate afresh
(``tests/helpers.reference_predict``). On a 2-vCPU guest that step took the
steady replay's median step time from 30.1 to 27.7 µs
(``bench/run.py``, 10 alternating 20-second pairs).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .scoring import _floats

__all__ = [
    "LstmConfig",
    "LstmModel",
    "TrainOutcome",
    "train",
    "predict_next",
]

# Windows with a standard deviation at or below this are treated as
# constant and normalized with std 1 instead.
_CONSTANT_STD = 1e-12

_HALF = np.array(0.5)  # a ufunc takes a 0-d array faster than a Python float (``_gates``)


def _check_types(config) -> None:
    """The type rule of every config: ``ConfigError`` naming a field declared ``int``
    that holds no ``int`` (a ``bool`` is none), ``float`` that holds no real number
    or ``LstmConfig`` that holds no ``LstmConfig``."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        if spec.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
            raise ConfigError(f"{spec.name} must be an integer, got {value!r}")
        if spec.type == "float" and not isinstance(value, numbers.Real):
            raise ConfigError(f"{spec.name} must be a real number, got {value!r}")
        if spec.type == "LstmConfig" and not isinstance(value, LstmConfig):
            raise ConfigError(f"{spec.name} must be an LstmConfig, got {value!r}")


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
        _check_types(self)
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.min_epochs < 1:
            raise ConfigError(f"min_epochs must be >= 1, got {self.min_epochs}")
        if self.max_epochs < self.min_epochs:
            raise ConfigError(
                f"max_epochs ({self.max_epochs}) must be >= min_epochs ({self.min_epochs})"
            )
        if not self.early_stop_delta >= 0:  # NaN fails too
            raise ConfigError(f"early_stop_delta must be >= 0, got {self.early_stop_delta}")
        if self.early_stop_patience < 1:
            raise ConfigError(
                f"early_stop_patience must be >= 1, got {self.early_stop_patience}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class LstmModel:
    """Weights of the one-hidden-layer LSTM plus normalization stats.

    ``w_x`` holds the input weights of the four stacked gates, ``w_h``
    the recurrent weights, ``b`` the gate biases, ``w_out``/``b_out``
    the linear output layer. ``norm_mean``/``norm_std`` are the
    statistics of the window the model was trained on; raw values are
    z-scored with them before entering the network and forecasts are
    mapped back afterwards. A frozen value: ``train`` returns its arrays
    read-only, and ``dataclasses.replace`` makes a changed model.
    """

    w_x: np.ndarray  # (4H,)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    w_out: np.ndarray  # (H,)
    b_out: float
    norm_mean: float = 0.0
    norm_std: float = 1.0

    @property
    def hidden_units(self) -> int:
        return self.w_out.size


@dataclass(frozen=True)
class TrainOutcome:
    model: LstmModel
    epochs_used: int
    final_loss: float


@functools.lru_cache(maxsize=32)
def _initial_theta(h: int, seed: int) -> np.ndarray:
    """The initial weights of ``h`` units, drawn once per ``h`` and ``seed``
    and laid out flat like ``_Descent.theta``; read-only. Weights are uniform
    in ±0.5/sqrt(h); biases are zero but the forget gate's, which start at 1
    so the cell state is initially retained."""
    rng = np.random.default_rng(seed)
    scale = 0.5 / np.sqrt(h)
    w_x = rng.uniform(-scale, scale, 4 * h)
    w_h = rng.uniform(-scale, scale, (4 * h, h))
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0
    theta = np.concatenate((w_h.ravel(), w_x, b, rng.uniform(-scale, scale, h)))
    theta.flags.writeable = False
    return theta


@functools.lru_cache(maxsize=32)
def _sigmoid_row_scale(h: int) -> np.ndarray:
    """½ on the sigmoid gates' (i, f, o) rows of ``w_h``, ``w_x`` and ``b``
    laid out flat like ``_Descent.theta``, 1 on the candidate's; read-only.
    The step and the descent both halve by one multiply with it: exact
    unless a halved value is subnormal, an underflow as harmless as the
    step's own and ignored where it is (``train``, ``_step_weights``)."""
    scale = np.concatenate([np.repeat((0.5, 1.0), (3 * n, n)) for n in (h * h, h, h)])
    scale.flags.writeable = False
    return scale


def _gate_views(act: np.ndarray) -> tuple:
    """``act``, its views that ``_gates`` takes (``act[:3]``, ``act[0]`` .. ``act[3]``) and a 0-d
    array for the step's input."""
    return (act, act[:3], *act, np.empty(()))


def _gates(views, x: float, w_x, b, c_prev, c, tc, hidden) -> None:
    """One recurrence step from the recurrent products, in place.

    ``views`` are ``_gate_views(act)``, built once per buffer, where ``act`` holds the
    gate-major pre-activations, shaped ``(4, ..., H)`` with one leading entry per gate
    (i, f, o, g), from weights whose sigmoid-gate rows were halved: ``w_x`` and ``b``
    have ``act``'s shape. The step adds ``w_x * x`` and ``b`` and turns ``act`` into
    the activations with one ``tanh`` over all four gates, since
    ``sigmoid(z) = (1 + tanh(z / 2)) / 2`` and nothing can overflow. The cell state,
    its tanh and the hidden state are written into ``c``, ``tc`` and ``hidden``; ``tc``
    may be ``hidden`` when the caller needs no tanh. ``c_prev`` None is the zero state:
    ``act`` is only written and the cell is ``i * g``, the full step's values bit for
    bit while ``b`` holds no ``-0.0`` (a zero cell may change sign, nothing else).
    ``out`` goes positionally here and in the callers, as a keyword costs more, and ``x``
    and the halves go as 0-d arrays: numpy converts and promotes a Python float per call.
    """
    act, sigmoids, i, f, o, g, x_array = views
    x_array[()] = x
    if c_prev is None:
        np.multiply(w_x, x_array, act)
    else:
        act += w_x * x_array
    act += b
    np.tanh(act, act)
    sigmoids *= _HALF
    sigmoids += _HALF
    if c_prev is None:
        np.multiply(i, g, c)
    else:
        np.multiply(f, c_prev, c)
        c += i * g
    np.tanh(c, tc)
    np.multiply(o, tc, hidden)


def _views(flat: np.ndarray, h: int) -> list:
    """``w_h`` as ``(4H, H)``, ``w_x``, ``b`` and ``w_out``: views of a flat
    vector laid out like ``_Descent.theta`` (``w_out`` is empty if the vector
    stops after the gate weights)."""
    n = 4 * h * h
    return [flat[:n].reshape(4 * h, h), flat[n : n + 4 * h], flat[n + 4 * h : n + 8 * h], flat[n + 8 * h :]]


class _Descent:
    """The workspace of one training call, built once and used by every epoch.

    ``theta`` is a copy of the flat vector of ``h`` units' ``w_h``, ``w_x``,
    ``b`` and ``w_out``, held as views; ``grad`` has its layout and ``b_out``
    is a float, so an update is ``grad *= lr; theta -= grad``. Every buffer,
    and every view of one that a pass reads, is made here. Step 0 does no
    work on the zero state (``_gates``); otherwise operands come in the order
    of a plain descent that allocates afresh, so each rounds the same way.
    """

    def __init__(self, theta, h: int, inputs: np.ndarray, targets=None, b_out: float = 0.0):
        steps = inputs.size
        self.inputs, self.targets, self.b_out = inputs, targets, b_out
        self.theta = theta = np.array(theta)
        self.grad = np.empty_like(theta)
        self.grads = _views(self.grad, h)
        self.w_h, self.w_x, self.b, self.w_out = _views(theta, h)
        self.w_h_t, self.scale = self.w_h.T, _sigmoid_row_scale(h)
        self.half, self.gate_theta = np.empty_like(self.scale), theta[: self.scale.size]
        half_w_h, half_w_x, half_b, _ = _views(self.half, h)
        self.half_weights = (half_w_h, half_w_x.reshape(4, h), half_b.reshape(4, h))

        gates = np.empty((steps, 4, h))
        cells, hiddens = np.zeros((2, steps + 1, h))  # row k: the state step k starts from
        self.h_prev, self.h_next = hiddens[:-1], hiddens[1:]
        tanh_cells, dc_of_dh, self.dh = np.empty((3, steps, h))
        self.outputs, self.d_out = np.empty((2, steps))
        self.dz = np.empty((steps, 4 * h))
        self.d_out_column, self.dz_t = self.d_out[:, None], self.dz.T
        self.dc, self.dc_next, self.dh_next = np.empty((3, h))
        # the activations and the gate errors' factors, gate-major
        self.by_gate, self.partner_by_gate = by_gate, partners = np.empty((2, 4, steps * h))
        self.act_rows, self.partner_rows = tuple(by_gate), tuple(partners)
        self.gates_by_gate = (by_gate.reshape(4, steps, h), gates.transpose(1, 0, 2))
        self.partner = np.empty((steps, 4, h))
        self.partner_by_step = partners.reshape(4, steps, h).transpose(1, 0, 2)
        self.c_prev_flat, self.tc_flat = cells[:-1].ravel(), tanh_cells.ravel()
        self.dc_of_dh_flat = dc_of_dh.ravel()

        acts = gates.reshape(steps, 4 * h)
        c_prev, h_prev = [None, *cells[1:-1]], [None, *hiddens[1:-1]]  # step 0: zero state
        self.forward_steps = list(
            zip(inputs.tolist(), acts, map(_gate_views, gates), c_prev, cells[1:], tanh_cells,
                h_prev, hiddens[1:])
        )
        dz, partner = self.dz.reshape(steps, 4, h), self.partner
        self.backward_steps = list(
            zip(range(steps), self.dh, dc_of_dh, partner, partner[:, 2], dz, dz[:, 2], self.dz, gates[:, 1])
        )[::-1]

    def forward(self) -> np.ndarray:
        """The output after each input, from zero state."""
        np.multiply(self.gate_theta, self.scale, self.half)
        w_h, w_x, b = self.half_weights
        for x, act, views, c_prev, c, tc, h_prev, hidden in self.forward_steps:
            if h_prev is not None:
                np.dot(w_h, h_prev, act)
            _gates(views, x, w_x, b, c_prev, c, tc, hidden)
        np.dot(self.h_next, self.w_out, self.outputs)
        self.outputs += self.b_out
        return self.outputs

    def loss(self) -> float:
        """Mean squared error of a forward pass; leaves the errors in ``d_out``."""
        err = np.subtract(self.forward(), self.targets, self.d_out)
        return float((err**2).sum() / err.size)

    def loss_and_grads(self) -> float:
        """The loss, with its gradients by BPTT written into ``grad`` and
        ``b_out_grad``. The backward loop only carries the recurrent error;
        the parameter gradients are matrix products over the gate errors ``dz``."""
        loss = self.loss()
        d_out = self.d_out
        d_out *= 2.0
        d_out /= d_out.size

        # dz = deriv * partner * (dc on i, f, g; dh on o), where d act / d z is
        # s(1 - s) on the sigmoid gates i, f, o and 1 - g^2 on g, and a gate's
        # partner is what it multiplies: g for i, c_prev for f, tanh(c) for o,
        # i for g. The per-gate work runs on gate-major copies, one contiguous
        # block per gate: a call on a strided slice costs about three times more.
        act, part = self.by_gate, self.partner_by_gate
        i, _, o, g = self.act_rows
        part_i, part_f, part_o, part_g = self.partner_rows
        np.copyto(*self.gates_by_gate)
        np.subtract(1.0, act, part)
        part *= act
        np.square(g, part_g)
        np.subtract(1.0, part_g, part_g)
        part_i *= g
        part_f *= self.c_prev_flat
        part_o *= self.tc_flat
        part_g *= i
        np.copyto(self.partner, self.partner_by_step)
        dc_of_dh = self.dc_of_dh_flat
        np.square(self.tc_flat, dc_of_dh)
        np.subtract(1.0, dc_of_dh, dc_of_dh)
        dc_of_dh *= o
        np.multiply(self.d_out_column, self.w_out, self.dh)

        w_h_t, dc, dc_next, dh_next = self.w_h_t, self.dc, self.dc_next, self.dh_next
        last = d_out.size - 1
        for k, dh, dc_dh, partner, partner_o, dz, dz_o, dz_row, forget in self.backward_steps:
            if k < last:
                dh += dh_next
            np.multiply(dh, dc_dh, dc)
            if k < last:
                dc += dc_next
            np.multiply(partner, dc, dz)
            np.multiply(partner_o, dh, dz_o)
            if k:  # step 0's recurrent errors reach no earlier step
                np.dot(w_h_t, dz_row, dh_next)
                np.multiply(dc, forget, dc_next)

        g_w_h, g_w_x, g_b, g_w_out = self.grads
        np.dot(self.inputs, self.dz, g_w_x)
        np.dot(self.dz_t, self.h_prev, g_w_h)
        np.add.reduce(self.dz, axis=0, out=g_b)
        np.dot(d_out, self.h_next, g_w_out)
        self.b_out_grad = float(d_out.sum())
        return loss

    def update(self, lr: float) -> None:
        """One gradient step: per element ``w -= lr * g``."""
        self.grad *= lr
        self.theta -= self.grad
        self.b_out -= lr * self.b_out_grad


def train(window: Sequence[float], config: LstmConfig) -> TrainOutcome:
    """Fit a fresh model to one look-back window.

    The window is z-scored by its own mean and (population) standard
    deviation, with std substituted by 1 when the window is constant.
    Training pairs are teacher-forced next-step pairs within the window,
    optimized by full-batch gradient descent on mean squared error.
    Early stopping halts once the relative loss improvement stays below
    ``early_stop_delta`` for ``early_stop_patience`` consecutive epochs,
    never before ``min_epochs`` nor after ``max_epochs``. The epochs run
    through one ``_Descent``; the model gets read-only copies of its arrays.
    ``scoring._floats`` reads the window; a NaN, an inf or an int past the
    float range in it is a ``DataError``.
    """
    raw = np.array(_floats(window, "training window"))
    if raw.size < 2:
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

    h = config.hidden_units
    descent = _Descent(_initial_theta(h, config.seed), h, normed[:-1], normed[1:])
    prev_loss, stalled = None, 0
    # A value close to the mean of a window with a huge spread normalizes to a
    # subnormal, and products with it underflow to zero: harmless, so only
    # underflow is ignored and the caller's other settings hold.
    with np.errstate(under="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            loss = descent.loss_and_grads()
            descent.update(config.learning_rate)
            if prev_loss is not None:
                improvement = (prev_loss - loss) / prev_loss if prev_loss > 0 else 0.0
                stalled = stalled + 1 if improvement < config.early_stop_delta else 0
            prev_loss = loss
            if epoch >= config.min_epochs and stalled >= config.early_stop_patience:
                break

        final_loss = descent.loss()
    arrays = [view.copy() for view in (descent.w_x, descent.w_h, descent.b, descent.w_out)]
    for array in arrays:
        array.flags.writeable = False
    model = LstmModel(*arrays, b_out=descent.b_out, norm_mean=mean, norm_std=std)
    return TrainOutcome(model=model, epochs_used=epoch, final_loss=final_loss)


def _step_weights(model: LstmModel, n: int) -> tuple:
    """The weights of a step on n rows, with the sigmoid gates' rows halved.

    ``w_h`` is viewed as ``(4, H, H)``, so one ``np.matmul(hidden, w_h)``
    gives the gate-major ``(4, n, H)`` pre-activations, and ``w_x`` and
    ``b`` are tiled to that shape, so no operation of the step broadcasts.
    """
    h = model.hidden_units
    with np.errstate(under="ignore"):
        halved = np.concatenate((model.w_h.ravel(), model.w_x, model.b)) * _sigmoid_row_scale(h)
    w_h, w_x, b, _ = _views(halved, h)
    w_h = w_h.reshape(4, h, h).transpose(0, 2, 1)
    return w_h, np.repeat(w_x.reshape(4, 1, h), n, axis=1), np.repeat(b.reshape(4, 1, h), n, axis=1)


def _workspace(n: int, h: int) -> tuple:
    """Two sets of the arrays a step on n rows writes: ``_gate_views`` of the
    ``(4, n, H)`` pre-activations, then views of ``(n + 1, H)`` cell and hidden
    arrays whose last row stays zero: the rows a step writes, row 0 of the
    hidden state, and the rows carried to the next step."""
    return tuple(
        (_gate_views(np.empty((4, n, h))), cells[:-1], hiddens[:-1], hiddens[0], hiddens[1:], cells[1:])
        for cells, hiddens in np.zeros((2, 2, n + 1, h))
    )


def _advance(model: LstmModel, weights: tuple, feed, hidden: np.ndarray, cell: np.ndarray, sets):
    """Feed each value of ``feed`` to all n rows of the carried states,
    stepping with ``weights`` from ``_step_weights`` for n rows.

    Step k writes into ``sets[k % 2]`` from ``_workspace``, never into
    ``hidden`` or ``cell``. Returns the output of row 0, which spans every
    value fed, and the other n rows of hidden and cell state.
    """
    w_h, w_x, b = weights
    for k, x in enumerate(feed):
        views, cells, hiddens, first, hidden_next, cell_next = sets[k % 2]
        np.matmul(hidden, w_h, views[0])
        _gates(views, x, w_x, b, cell, cells, hiddens, hiddens)
        hidden, cell = hidden_next, cell_next
    return float(model.w_out.dot(first)) + model.b_out, hidden, cell


def predict_next(model: LstmModel, window: Sequence[float], memo: list | None = None) -> float:
    """Forecast the raw value following the given raw window.

    The window is normalized with the model's stored statistics, run
    through the recurrence from zero state, and the final step's output
    is mapped back to the raw scale. The window is read, and NaN or inf
    refused, as in ``train``.

    ``memo`` is a one-slot list that the caller owns and passes on every call;
    no output bit depends on it. The slot keeps the model of the last forecast,
    its step weights and a workspace of two sets of step arrays, the window
    without its first value, and the states that the window's proper suffixes
    reach from zero, as ``(b, H)`` hidden and cell arrays, longest suffix first,
    whose last row is the zero state. When the model is the same object and the
    window is the last one moved on by one point, the forecast is one straight-line
    step: only the new value is normalized and checked, and one batched step
    advances every row by it; the row that now spans the whole window gives the
    forecast. Any other call, and every call without a memo, feeds the whole window
    from zero through fresh step weights and workspace in ``_advance``. A step
    writes into the set whose states the slot does not carry, and the slot is
    replaced only when a forecast returns, so a call that raises leaves it usable.
    The key is the model's identity: its arrays must not be written in place.
    """
    values = _floats(window, "prediction window")
    if not values:
        raise ValueError("prediction window must be non-empty")
    mean, std = model.norm_mean, model.norm_std
    last = None if memo is None else memo[0]  # (model, (weights, workspace), window[1:], hidden, cell)
    if last is not None and last[0] is model and last[2] == values[:-1]:
        x = (values[-1] - mean) / std  # std is not 0: this model has made a forecast
        if not math.isfinite(x):
            raise DataError("prediction window contains non-finite values, raw or normalized")
        _, state, _, hidden, cell = last
        weights, (first, second) = state
        step = second if hidden is first[4] else first  # the set not carried
        views, cells, hiddens, row0, hidden_next, cell_next = step
        w_h, w_x, b = weights
        try:
            np.matmul(hidden, w_h, views[0])
            _gates(views, x, w_x, b, cell, cells, hiddens, hiddens)
            output = float(model.w_out.dot(row0)) + model.b_out
        except FloatingPointError:  # as below, the same step again in place
            with np.errstate(under="ignore"):
                output, _, _ = _advance(model, weights, (x,), hidden, cell, (step,))
        forecast = output * std + mean
        if not math.isfinite(forecast):
            raise DataError(f"forecast overflows: {forecast}")
        memo[0] = (model, state, values[1:], hidden_next, cell_next)
        return forecast
    try:
        feed = [(v - mean) / std for v in values]
    except ZeroDivisionError:  # norm_std is 0: numpy would give inf or nan
        feed = [math.nan]
    if not all(map(math.isfinite, feed)):
        raise DataError("prediction window contains non-finite values, raw or normalized")
    n, h = len(feed), model.hidden_units
    state = weights, sets = _step_weights(model, n), _workspace(n, h)
    hidden = cell = np.zeros((n, h))
    try:
        output, hidden, cell = _advance(model, weights, feed, hidden, cell, sets)
    except FloatingPointError:
        # Only a caller that makes numpy raise gets here. Underflow is as
        # harmless as in train, and a step writes only into the workspace,
        # so it is run again with underflow ignored; entering np.errstate on
        # every call would cost about a twentieth of a step.
        with np.errstate(under="ignore"):
            output, hidden, cell = _advance(model, weights, feed, hidden, cell, sets)
    forecast = output * std + mean
    if not math.isfinite(forecast):
        raise DataError(f"forecast overflows: {forecast}")
    if memo is not None:
        memo[0] = (model, state, values[1:], hidden, cell)
    return forecast
