"""Single-hidden-layer LSTM regressor for short look-back windows.

The network is deliberately tiny: scalar input, one hidden layer of
memory cells, scalar linear output. It is retrained from scratch on a
handful of points every time the streaming detector decides its current
model no longer explains the data, so training must finish in
milliseconds. Everything runs on plain numpy in float64.

Gate layout: weight and bias vectors stack the four gates in the order
(input, forget, output, candidate), each slice of length H, the hidden width.
Training, the model and forecasting hold the gate weights as one ``(4H, H + 2)``
matrix ``[w_x | b | w_h]``: a step's pre-activations, input and bias terms
included, are one ``np.dot`` with its ``[x; 1; h]`` state. A step works
gate-major, one leading entry per gate, so the sigmoid gates are one contiguous
block and each gate product is an operation on equal contiguous shapes. A step
halves the sigmoid gates' rows beforehand (the model holds them unhalved), since
``sigmoid(z) = (1 + tanh(z / 2)) / 2``; halving by a power of two is exact, so
forecasts and trained models are bit-identical to unscaled weights scaled
inside the step.

Training runs all the epochs of a ``train`` call through one workspace,
``_Descent``, which starts from initial weights drawn once per configuration.
Its weights, ``b_out`` included, are views of one flat vector, and its buffers,
and the views of them that a pass reads, are made once and reused by every
epoch. The forward pass writes each cell and its tanh straight into the
gate-major block of what the gate errors multiply, and scalar operands are 0-d
arrays, so an epoch is about 50 numpy calls and none takes a Python float. Trained
models are bit-identical to those of a plain descent that allocates afresh
(``tests/helpers.reference_train``, ``plain_forward`` and ``plain_loss_and_grads``).

A forecast step is the product with the ``[x; 1; h]`` rows of states whose columns
are the window's suffixes, then ``_gates``, as in training. A memo that the caller
owns makes the next window's forecast that one step on its new value; a cold
forecast runs ``_step`` over its window first. Forecasts are bit-identical to steps
on fresh arrays (``tests/helpers.reference_predict``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from operator import is_
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, _shown
from .scoring import _floats

__all__ = [
    "LstmConfig",
    "LstmModel",
    "TrainOutcome",
    "train",
    "predict_next",
]

# A window's std is floored at this times its largest |value| (1 for a window of zeros):
# relative, so that no unit changes a bit, and a floor, so a window just under it scales like one over it.
_CONSTANT_STD = 1e-12

# The paper's fixed training settings: hidden units, learning rate, early-stopping patience and threshold.
_HIDDEN_UNITS, _LEARNING_RATE, _PATIENCE, _EARLY_STOP_DELTA = 10, np.array(0.15), 3, 1e-4

# A ufunc takes a 0-d array faster than a Python float (``_gates``, ``_Descent``).
_HALF, _ONE, _TWO = np.array(0.5), np.array(1.0), np.array(2.0)


def _check_types(config) -> None:
    """The int rule of every config: ``ConfigError`` naming a field declared ``int`` that holds
    no ``int`` (a ``bool`` is none). A ``float`` field is its config's to read, by ``scoring._real``."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        if spec.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
            raise ConfigError(f"{spec.name} must be an integer, got {_shown(value)}")


@dataclass(frozen=True)
class LstmConfig:
    """Hyperparameters for training the look-back forecaster.

    The default cap mirrors the streaming detector's reference setup: at most
    50 epochs, a cap that may be raised. The 10 hidden units, the learning rate
    and the early-stopping rule are the paper's constants (``train``).
    """

    max_epochs: int = 50
    seed: int = 42

    def __post_init__(self):
        _check_types(self)
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {_shown(self.max_epochs)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {_shown(self.seed)}")


@dataclass(frozen=True, eq=False)
class LstmModel:
    """Weights of the one-hidden-layer LSTM plus normalization stats.

    ``weights`` is the ``(4H, H + 2)`` gate matrix ``[w_x | b | w_h]``, unhalved:
    column 0 the input weights of the four stacked gates, column 1 their biases,
    the rest the recurrent weights, the columns a model built by hand stacks in
    this order. ``w_out``/``b_out`` are the linear output layer.
    ``norm_mean``/``norm_std`` are the statistics of the window the model was
    trained on; raw values are z-scored with them before entering the network
    and forecasts are mapped back afterwards. A frozen value: ``train`` returns
    its arrays read-only, and ``dataclasses.replace`` makes a changed model.
    """

    weights: np.ndarray  # (4H, H + 2)
    w_out: np.ndarray  # (H,)
    b_out: float
    norm_mean: float = 0.0
    norm_std: float = 1.0


@dataclass(frozen=True)
class TrainOutcome:
    model: LstmModel
    epochs_used: int


@functools.lru_cache(maxsize=32)
def _initial_theta(h: int, seed: int) -> np.ndarray:
    """The initial weights of ``h`` units, drawn once per ``h`` and ``seed``
    and laid out flat like ``_Descent.theta``; read-only. Weights are uniform
    in ±0.5/sqrt(h); biases are zero, ``b_out`` too, but the forget gate's,
    which start at 1 so the cell state is initially retained."""
    rng = np.random.default_rng(seed)
    scale = 0.5 / np.sqrt(h)
    w_x = rng.uniform(-scale, scale, 4 * h)
    w_h = rng.uniform(-scale, scale, (4 * h, h))
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0
    theta = np.concatenate((np.column_stack((w_x, b, w_h)).ravel(), rng.uniform(-scale, scale, h), [0.0]))
    theta.flags.writeable = False
    return theta


@functools.lru_cache(maxsize=32)
def _sigmoid_row_scale(h: int) -> np.ndarray:
    """A ``(4H, H + 2)`` array of ½ on the sigmoid gates' (i, f, o) rows and 1 on
    the candidate's; read-only. The forecast step and the descent both halve
    their ``[w_x | b | w_h]`` weights by one multiply with it, in the shape the
    multiply writes, since a broadcast costs more: exact unless a halved value is
    subnormal, an underflow as harmless as the step's own and ignored where it
    is (``train``, ``predict_next``)."""
    scale = np.repeat((0.5, 1.0), (3 * h, h))[:, None].repeat(h + 2, 1)
    scale.flags.writeable = False
    return scale


def _gate_views(act: np.ndarray) -> tuple:
    """``act`` and its views that ``_gates`` takes: ``act[:3]`` and ``act[0]`` .. ``act[3]``."""
    return (act, act[:3], *act)


def _gates(views, c_prev, c, tc, hidden) -> None:
    """One step, a training step's or a forecast's, from its pre-activations, in place.

    ``views`` are ``_gate_views(act)``, built once per buffer, where ``act`` holds the gate-major
    ``(4, H)`` pre-activations (i, f, o, g), ``(4, H, n)`` for a forecast's n columns, of weights
    whose sigmoid-gate rows were halved. The step turns ``act`` into the activations with one
    ``tanh`` over all four gates, since ``sigmoid(z) = (1 + tanh(z / 2)) / 2`` and nothing can
    overflow. The cell state, its tanh and the hidden state go into ``c``, ``tc`` and ``hidden``;
    a forecast passes its hidden rows as both ``tc`` and ``hidden``, the bits of ``hidden *= o``.
    ``c_prev`` None is the zero state: the cell is ``i * g``, the full step's value bit for bit
    but for the sign of a zero cell. ``out`` goes positionally here and in the callers, as a
    keyword costs more, and the halves go as a 0-d array: numpy converts and promotes a Python float per call.
    """
    act, sigmoids, i, f, o, g = views
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
    """The ``(4H, H + 2)`` gate weights ``[w_x | b | w_h]``, ``w_out`` and a 0-d
    ``b_out``: views of a flat vector laid out like ``_Descent.theta``."""
    n = 4 * h * (h + 2)
    return [flat[:n].reshape(4 * h, h + 2), flat[n:-1], flat[..., -1]]


class _Descent:
    """The workspace of one training call, built once and used by every epoch.

    ``theta`` is a copy of the flat vector of ``h`` units' ``[w_x | b | w_h]``,
    ``w_out`` and ``b_out``, held as views, ``b_out`` a 0-d one; ``grad`` has its
    layout, so an update is ``grad *= lr; theta -= grad``. Row k of ``states`` is
    step k's ``[x; 1; h]``, x and 1 written here: a step's pre-activations are one
    ``np.dot`` with the halved weights, as in a forecast, and the gate weights'
    gradient is one product with the rows. The forward pass writes each step's
    cell and its tanh straight into the gate-major ``partners``, whose blocks are
    what each gate's derivative multiplies: g, the previous cell (zero at step 0),
    tanh of the cell and i. Every buffer, and every view of one that a pass reads,
    is made here; the halving scale has the weights' shape and a scalar operand is
    a 0-d array, since numpy takes a broadcast or a Python float more slowly.
    Operands come in the order of a plain descent that allocates afresh, so each
    rounds the same way (``tests/helpers.plain_loss_and_grads``).
    """

    def __init__(self, theta, h: int, inputs: np.ndarray, targets=None):
        steps = inputs.size
        self.targets, self.steps = targets, np.array(float(steps))
        self.theta = theta = np.array(theta)
        self.grad = np.empty_like(theta)
        self.grads = _views(self.grad, h)
        self.weights, self.w_out, self.b_out = _views(theta, h)
        self.w_h_t, self.w_out_row, self.scale = self.weights[:, 2:].T, self.w_out[None], _sigmoid_row_scale(h)
        self.half = np.empty_like(self.weights)

        gates = np.empty((steps, 4, h))
        states = np.zeros((steps + 1, h + 2))  # row k: step k's [x; 1; h]
        states[:-1, 0], states[:, 1] = inputs, 1.0
        self.states, self.h_next = states[:-1], states[1:, 2:]
        self.dc_of_dh, self.dh = np.empty((2, steps, h))
        self.outputs, self.d_out, self.squares = np.empty((3, steps))
        self.dz = np.empty((steps, 4 * h))
        self.d_out_column, self.dz_t = self.d_out[:, None], self.dz.T
        self.dc, self.dc_next, self.dh_next = np.empty((3, h))
        # gate-major (4, steps, H) blocks: the activations, their derivatives and partners
        by_gate, derivs, partners = np.zeros((3, 4, steps, h))
        self.partner_product = derivs, partners
        self.gates_by_gate, self.partners_of_i_g = (by_gate, gates.transpose(1, 0, 2)), (partners[::3], by_gate[3::-3])
        self.sigmoids, self.candidate = (by_gate[:3], derivs[:3]), (by_gate[3], derivs[3])
        self.tanh_cells, self.output_gate = partners[2], by_gate[2]
        self.partner, self.partner_by_step = np.empty((steps, 4, h)), derivs.transpose(1, 0, 2)

        # step k's cell is step k + 1's c_prev, the last step's goes to scratch; step 0 starts from zero state
        cells = [*partners[1, 1:], np.empty(h)]
        self.forward_steps = list(
            zip(self.states, gates.reshape(steps, 4 * h), map(_gate_views, gates), [None, *cells[:-1]], cells,
                partners[2], self.h_next)
        )
        dz, partner = self.dz.reshape(steps, 4, h), self.partner
        self.backward_steps = list(
            zip(range(steps), self.dh, self.dc_of_dh, partner, partner[:, 2], dz, dz[:, 2], self.dz, gates[:, 1])
        )[::-1]

    def forward(self) -> np.ndarray:
        """The output after each input, from zero state."""
        half = np.multiply(self.weights, self.scale, self.half)
        for state, act, views, c_prev, c, tc, hidden in self.forward_steps:
            np.dot(half, state, act)
            _gates(views, c_prev, c, tc, hidden)
        np.dot(self.h_next, self.w_out, self.outputs)
        np.add(self.outputs, self.b_out, self.outputs)
        return self.outputs

    def loss_and_grads(self) -> float:
        """The mean squared error of a forward pass, with its gradients by BPTT
        written into ``grad``. The backward loop only carries the recurrent
        error; the parameter gradients are matrix products over the gate errors
        ``dz``."""
        d_out = np.subtract(self.forward(), self.targets, self.d_out)
        loss = float(np.add.reduce(np.square(d_out, self.squares))) / d_out.size
        np.multiply(d_out, _TWO, d_out)
        np.divide(d_out, self.steps, d_out)

        # dz = deriv * partner * (dc on i, f, g; dh on o), where d act / d z is
        # s(1 - s) on the sigmoid gates i, f, o and 1 - g^2 on g. The per-gate
        # work runs on gate-major blocks, one contiguous block per gate: a call
        # on a strided slice costs about three times more.
        derivs, partners = self.partner_product
        np.copyto(*self.gates_by_gate)
        np.copyto(*self.partners_of_i_g)
        sigmoids, sigmoid_derivs = self.sigmoids
        np.subtract(_ONE, sigmoids, sigmoid_derivs)
        np.multiply(sigmoid_derivs, sigmoids, sigmoid_derivs)
        g, g_deriv = self.candidate
        np.square(g, g_deriv)
        np.subtract(_ONE, g_deriv, g_deriv)
        np.multiply(derivs, partners, derivs)
        np.copyto(self.partner, self.partner_by_step)
        dc_of_dh = self.dc_of_dh
        np.square(self.tanh_cells, dc_of_dh)
        np.subtract(_ONE, dc_of_dh, dc_of_dh)
        np.multiply(dc_of_dh, self.output_gate, dc_of_dh)
        np.multiply(self.d_out_column, self.w_out_row, self.dh)

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

        g_weights, g_w_out, g_b_out = self.grads
        np.dot(self.dz_t, self.states, g_weights)
        np.dot(d_out, self.h_next, g_w_out)
        np.add.reduce(d_out, 0, None, g_b_out)
        return loss

    def update(self, lr: np.ndarray) -> None:
        """One gradient step with a 0-d learning rate: per element ``w -= lr * g``."""
        np.multiply(self.grad, lr, self.grad)
        np.subtract(self.theta, self.grad, self.theta)


def train(window: Sequence[float], config: LstmConfig) -> TrainOutcome:
    """Fit a fresh model to one look-back window.

    The window is z-scored by its own mean and (population) standard
    deviation, the std floored at ``_CONSTANT_STD`` of the largest |value| (1 for zeros).
    Training pairs are teacher-forced next-step pairs within the window,
    optimized by full-batch gradient descent on mean squared error.
    The learning rate is 0.15. Early stopping halts once the relative loss
    improvement stays below 1e-4 for 3 consecutive epochs,
    and training never runs past ``max_epochs``. The epochs run
    through one ``_Descent``; the model gets read-only copies of its arrays.
    ``scoring._floats`` reads the window; a NaN, an inf or an int past the
    float range in it is a ``DataError``, and text is no window.
    """
    raw = np.array(_floats(window, "training window"))
    if raw.size < 2:
        raise ValueError(f"training window needs at least 2 values, got {raw.size}")

    with np.errstate(all="ignore"):
        mean = float(raw.mean())
        std = float(raw.std())
        scale = float(np.abs(raw).max())
        if math.isinf(std):  # the squared deviations overflowed: take them in units of scale
            std = scale * float((raw / scale).std())
        std = max(std, _CONSTANT_STD * scale) or 1.0
        normed = (raw - mean) / std
    if not (math.isfinite(mean) and math.isfinite(std) and np.isfinite(normed).all()):
        raise DataError("training window is too large to normalize: its mean or spread overflows")

    h = _HIDDEN_UNITS
    descent = _Descent(_initial_theta(h, config.seed), h, normed[:-1], normed[1:])
    prev_loss, stalled = None, 0
    # A value close to the mean of a window with a huge spread normalizes to a
    # subnormal, and products with it underflow to zero: harmless, so only
    # underflow is ignored and the caller's other settings hold.
    with np.errstate(under="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            loss = descent.loss_and_grads()
            descent.update(_LEARNING_RATE)
            if prev_loss is not None:
                improvement = (prev_loss - loss) / prev_loss if prev_loss > 0 else 0.0
                stalled = stalled + 1 if improvement < _EARLY_STOP_DELTA else 0
            prev_loss = loss
            if stalled >= _PATIENCE:
                break
    arrays = [view.copy() for view in (descent.weights, descent.w_out)]
    for array in arrays:
        array.flags.writeable = False
    model = LstmModel(*arrays, b_out=float(descent.b_out), norm_mean=mean, norm_std=std)
    return TrainOutcome(model=model, epochs_used=epoch)


def _workspace(n: int, h: int) -> tuple:
    """What a forecast step over n columns writes: the ``(4H, n)`` pre-activations with their gate-major
    ``_gate_views``, and two sets of states, each a ``(2H + 2, n)`` array whose rows are ``x``, 1, the hidden
    and the cell state. A set is views of its x row, its ``[x; 1; h]`` rows, its hidden and cell rows, and per
    column r the hidden column a forecast reads and the state column it then zeroes."""
    act, states = np.empty((4 * h, n)), np.zeros((2, 2 * h + 2, n))
    states[:, 1] = 1.0
    columns = [[(s[2 : h + 2, r], s[2:, r]) for r in range(n)] for s in states]
    sets = zip(states[:, 0], states[:, : h + 2], states[:, 2 : h + 2], states[:, h + 2 :], columns)
    return (act, _gate_views(act.reshape(4, h, n))), tuple(sets)


def _step(work, k: int, x: float) -> list:
    """Step set k of ``work``, ``(weights, *_workspace)``, by ``x`` into the other set; its columns."""
    weights, (act, views), sets = work
    x_row, inputs, _, c_prev, _ = sets[k]
    _, _, hidden, cell, columns = sets[1 - k]
    x_row.fill(x)
    np.dot(weights, inputs, act)
    _gates(views, c_prev, cell, hidden, hidden)
    return columns


def predict_next(model: LstmModel, window: Sequence[float], memo: list | None = None) -> float:
    """Forecast the raw value following the given raw window.

    The window is normalized with the model's stored statistics, run
    through the recurrence from zero state, and the final step's output
    is mapped back to the raw scale. The window is read, and NaN or inf
    refused, as in ``train``.

    ``memo`` is a one-slot list that the caller owns and passes on every call;
    no output bit depends on it. The slot keeps the model of the last forecast,
    its step weights and ``_workspace``, the window without its first value as
    the floats it was read to, the set k that holds the states of the window's
    proper suffixes, one column each, and the column r of the longest. The key
    is identity: when the model is the same object and the window is a tuple
    whose last item is an exact ``float`` and whose other items are the very
    objects the slot stored, as the detector's windows are, the forecast is the
    one step: only the new value is normalized and checked, one ``np.dot``
    advances every column by it, and column r, which now spans the whole window,
    gives the forecast and is zeroed to the empty suffix's state; r + 1 (mod b)
    is carried, so nothing shifts. Any other window is read by ``_floats``, and
    ``_step`` feeds all but its last value from zero states, zeroing column k
    after value k; the last value takes the forecast step at r = n - 1. A step
    fills set k's x row and writes only into the other set, and the slot is
    replaced only when a forecast returns, so a call that raises leaves it
    usable; a step that raises on underflow is run again by ``_step`` with
    underflow ignored. The model's arrays must not be written in place.
    """
    mean, std = model.norm_mean, model.norm_std
    last = None if memo is None else memo[0]  # (model, (weights, *workspace), window[1:], k, r)
    if (last is not None and last[0] is model and type(window) is tuple and len(window) == len(last[2]) + 1
            and type(window[-1]) is float and all(map(is_, window, last[2]))):  # not ==: 3+0j == 3.0
        x = (window[-1] - mean) / std  # std is not 0: the cold path below refuses it
        if not math.isfinite(x):
            raise DataError("prediction window contains non-finite values, raw or normalized")
        _, work, _, k, r = last
    else:
        window = _floats(window, "prediction window")
        if not window:
            raise ValueError("prediction window must be non-empty")
        if not std or not all(math.isfinite((v - mean) / std) for v in window):  # refused before any step
            raise DataError("prediction window contains non-finite values, raw or normalized")
        n, h = len(window), model.w_out.size
        with np.errstate(under="ignore"):  # the step's weights: the sigmoid gates' rows halved
            work = (model.weights * _sigmoid_row_scale(h), *_workspace(n, h))
            for k, v in enumerate(window[:-1]):  # a partial window's output is no forecast: none is taken
                _step(work, k & 1, (v - mean) / std)[k][1].fill(0.0)
        x, k, r = (window[-1] - mean) / std, (n - 1) & 1, n - 1
    weights, (act, views), sets = work  # the forecast step, inline: through ``_step`` it costs a call
    x_row, inputs, _, c_prev, _ = sets[k]  # the carried set: the step writes the other
    _, _, hidden, cell, columns = sets[1 - k]
    try:
        x_row.fill(x)
        np.dot(weights, inputs, act)
        _gates(views, c_prev, cell, hidden, hidden)
        output = float(model.w_out.dot(columns[r][0])) + model.b_out
    except FloatingPointError:
        # numpy raised: underflow is harmless, and the step wrote only the set not carried (errstate costs 5%)
        if np.geterr()["under"] == "ignore":
            raise
        with np.errstate(under="ignore"):
            output = float(model.w_out.dot(_step(work, k, x)[r][0])) + model.b_out
    forecast = output * std + mean
    if not math.isfinite(forecast):
        raise DataError(f"forecast overflows: {forecast}")
    columns[r][1].fill(0.0)  # column r now holds the empty suffix's state
    if memo is not None:
        memo[0] = (model, work, window[1:], 1 - k, (r + 1) % len(window))
    return forecast
