"""Shared fixtures and independent oracles used across the test suite.

Oracles here are deliberately written with different machinery than the
implementation (pure-python loops and the statistics module instead of
numpy) so they stay independent of the code paths they check.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
import statistics
from datetime import datetime, timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from presage import forecaster, scoring
from presage.data_io import REPORT_COLUMNS, ReportWriter
from presage.detector import DetectionRecord, DetectorConfig, LstmEngine, Phase, Verdict
from presage.errors import DataError
from presage.scoring import _unit_of

REPO_ROOT = Path(__file__).resolve().parent.parent
LABELS_PATH = REPO_ROOT / "data" / "labels" / "combined_labels.json"

CPU_B3B_KEY = "realAWSCloudwatch/rds_cpu_utilization_e47b3b.csv"
MTSF_KEY = "realKnownCause/machine_temperature_system_failure.csv"

# Fixed parameters of the synthetic level-shift fixture; the anomaly
# cluster location was confirmed by pilot runs across several seeds.
SPIKE_LENGTH = 300
SPIKE_SHIFT_INDEX = 200
SPIKE_NOISE_SEED = 2025
DETECTOR_SEED = 42
SPIKE_START = datetime(2021, 3, 1, 0, 0)
SPIKE_STEP = timedelta(minutes=5)


def nab_data_dir() -> Path:
    return Path(os.environ.get("NAB_DATA_DIR", REPO_ROOT / "data" / "nab"))


def cpu_b3b_path() -> Path:
    return nab_data_dir() / "realAWSCloudwatch" / "rds_cpu_utilization_e47b3b.csv"


def mtsf_path() -> Path:
    return nab_data_dir() / "realKnownCause" / "machine_temperature_system_failure.csv"


def missing_dataset_reason(path: Path) -> str:
    return (
        f"benchmark series not present at {path}; place the NAB CSVs under "
        f"data/nab/ (or set NAB_DATA_DIR) to run the corpus replays"
    )


def spike_values() -> np.ndarray:
    """300-point sine plus noise with a +25 level shift from index 200."""
    rng = np.random.default_rng(SPIKE_NOISE_SEED)
    idx = np.arange(SPIKE_LENGTH)
    values = 50.0 + 3.0 * np.sin(2 * np.pi * idx / 48) + rng.normal(0, 0.3, SPIKE_LENGTH)
    values[SPIKE_SHIFT_INDEX:] += 25.0
    return values


def spike_timestamps() -> list[datetime]:
    return [SPIKE_START + k * SPIKE_STEP for k in range(SPIKE_LENGTH)]


def write_series_csv(path, values, start: datetime = SPIKE_START, step: timedelta = SPIKE_STEP):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for k, value in enumerate(values):
            writer.writerow([(start + k * step).isoformat(sep=" "), repr(float(value))])


def write_records(records, path):
    """Write ``records`` as a report CSV."""
    with ReportWriter(path) as writer:
        for record in records:
            writer.write(record)


def format_cell(value) -> str:
    """Reference formatting of one report cell: empty for ``None``,
    ``true``/``false``, float repr, ISO timestamp with a space."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, datetime):
        return value.isoformat(sep=" ")
    return str(value)


def reference_report_bytes(records) -> bytes:
    """The report for ``records`` as ``csv.writer`` plus ``format_cell``
    write it, header included."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(REPORT_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.time_index,
                format_cell(r.timestamp),
                format_cell(r.value),
                format_cell(r.predicted),
                format_cell(r.aare),
                format_cell(r.threshold),
                r.phase.value,
                r.verdict.value,
                format_cell(r.retrained),
                format_cell(r.decision_time),
            ]
        )
    return out.getvalue().encode("utf-8")


def aare_oracle(observed, predicted, epsilon=1e-8) -> float:
    """Direct evaluation of the average absolute relative error."""
    total = 0.0
    for obs, pred in zip(observed, predicted, strict=True):
        total += abs(obs - pred) / max(abs(obs), epsilon)
    return total / len(observed)


def threshold_oracle(history) -> float:
    """Two-pass mean + 3 * population stddev via the statistics module."""
    values = list(history)
    mu = statistics.fmean(values)
    sigma = math.sqrt(statistics.fmean([(v - mu) ** 2 for v in values]))
    return mu + 3.0 * sigma


def threshold(history: Sequence[float]) -> float:
    """Dynamic detection threshold: mean + 3 * population stddev.

    Both statistics are taken over every stored error score, normalized
    by the actual count of scores. With all scores equal the threshold
    degenerates to the mean itself. Huge scores are taken in units of a
    power of two, so the threshold is finite whenever it is representable.
    """
    arr = np.asarray(history, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot compute a threshold from an empty history")
    if not np.isfinite(arr).all():
        raise DataError("history contains non-finite values")
    unit = _unit_of(float(np.abs(arr).max()))
    arr = arr / unit
    mu = float(arr.mean())
    sigma = float(np.sqrt(np.mean((arr - mu) ** 2)))
    return unit * (mu + 3.0 * sigma)


def reference_detector(values, engine, config: DetectorConfig = DetectorConfig(), ties=None) -> list[DetectionRecord]:
    """The paper's detection loop written plainly, the oracle for ``Detector``:
    the error scores in a list, the threshold from it by the two-pass
    ``threshold``, and the forecasts in a dict keyed by the index they are for.
    A score above the threshold is rechecked: a model trained on the b points
    before t forecasts t again and the point is scored again. The candidate
    replaces the model only if that score is within the threshold, and the
    recheck forecast stays for later scores either way, an ``ANOMALY``'s too.
    Records have no timestamp and a decision time of 0. A list ``ties`` gets
    each t whose score, first or rechecked, is within 1e-12 relative of its
    positive threshold: there rounding decides the comparison."""
    b, epsilon = config.look_back, config.epsilon
    values = [float(v) for v in values]
    scores, forecasts, model, records = [], {}, None, []
    for t, value in enumerate(values):
        window = values[max(t - b + 1, 0) : t + 1]
        if t < b - 1:
            phase = Phase.COLLECTING
        elif t < 2 * b - 1:
            phase = Phase.WARMUP
        elif t < 2 * b + 1:
            phase = Phase.BOOTSTRAP
        else:
            phase = Phase.DETECTING
        score = limit = None
        verdict, retrained = Verdict.PENDING, False
        if phase in (Phase.BOOTSTRAP, Phase.DETECTING):
            score = scoring.aare(window, [forecasts[i] for i in range(t - b + 1, t + 1)], epsilon)
        if phase is Phase.DETECTING:
            limit = threshold(scores + [score])
            near = lambda score: ties is not None and 0 < limit and abs(score - limit) <= 1e-12 * limit
            if near(score):
                ties.append(t)
            if score > limit:
                retrained = True
                candidate = engine.train(values[t - b : t])
                forecasts[t] = float(engine.predict(candidate, values[t - b : t]))
                score = scoring.aare(window, [forecasts[i] for i in range(t - b + 1, t + 1)], epsilon)
                if near(score):
                    ties.append(t)
                if score <= limit:
                    model = candidate
            verdict = Verdict.NORMAL if score <= limit else Verdict.ANOMALY
        if score is not None:
            scores.append(score)
        if phase in (Phase.WARMUP, Phase.BOOTSTRAP):
            model = engine.train(window)
        if phase is not Phase.COLLECTING:
            forecasts[t + 1] = float(engine.predict(model, window))
        records.append(DetectionRecord(t, None, value, forecasts.get(t), score, limit, phase, verdict, retrained, 0.0))
    return records


def running_threshold(history) -> float:
    """The detector's threshold after scoring ``history``: mean + 3 * stddev
    of the running statistics ``scoring._welford_add`` keeps."""
    state = scoring._WELFORD_EMPTY
    for score in history:
        state = scoring._welford_add(state, float(score))
    return state[1] + 3.0 * scoring._welford_std(state)


def gate_weights(w_x, w_h, b) -> np.ndarray:
    """The ``(4H, H + 2)`` gate matrix ``[w_x | b | w_h]`` of a hand-built model."""
    return np.column_stack((w_x, b, w_h))


def descent(model, inputs, targets=None):
    """A ``forecaster._Descent`` on a copy of the model's current weights."""
    theta = np.concatenate((model.weights.ravel(), model.w_out, [model.b_out]))
    inputs = np.asarray(inputs, dtype=float)
    return forecaster._Descent(theta, model.w_out.size, inputs, targets)


def run(model, inputs) -> np.ndarray:
    """The model's output after each of ``inputs``, from zero state."""
    return descent(model, inputs).forward()


def loss_and_grads(model, inputs, targets):
    """Mean squared error and its gradients, as a dict keyed by weight name."""
    workspace = descent(model, inputs, targets)
    loss = workspace.loss_and_grads()
    weights, w_out, b_out = workspace.grads
    return loss, {"weights": weights, "w_out": w_out, "b_out": float(b_out)}


def plain_forward(model, inputs) -> np.ndarray:
    """The descent's forward pass with no shortcut for the zero start state:
    every step makes a fresh ``[x; 1; h]`` array, takes one ``np.dot`` of the
    weights ``[w_x | b | w_h]`` with it and runs ``_gates`` with the previous
    cell state, both states zero at step 0. The sigmoid gates' rows are
    halved by copy, apart from ``_Descent``'s vector."""
    h = model.w_out.size
    weights = model.weights.copy()
    weights[: 3 * h] *= 0.5
    hidden, cell = np.zeros(h), np.zeros(h)
    hiddens = []
    for x in np.asarray(inputs, dtype=float).tolist():
        act = np.dot(weights, np.concatenate(([x, 1.0], hidden))).reshape(4, h)
        c_prev, (cell, tanh_cell, hidden) = cell, np.empty((3, h))
        forecaster._gates(forecaster._gate_views(act), c_prev, cell, tanh_cell, hidden)
        hiddens.append(hidden)
    outputs = np.matmul(np.array(hiddens), model.w_out)
    outputs += model.b_out
    return outputs


def plain_loss_and_grads(model, inputs, targets):
    """``loss_and_grads`` as backpropagation through time on fresh arrays, one
    gate at a time, the oracle for the descent's backward pass. Each product
    and sum is taken in ``_Descent``'s order, so the results are equal bit for
    bit: step 0's cell is ``i * g``, since the start state is zero; a gate's
    error is (its derivative times its partner) times the cell error, or the
    hidden error for the output gate, where the sigmoid gates' derivative is
    ``(1 - s) * s``, the candidate's ``1 - g**2`` and the partners are g, the
    previous cell, tanh of the cell and i. The recurrent errors go back through
    the unhalved ``w_h``; the weight gradients are ``np.dot`` products over the
    steps, with the ``[x; 1; h]`` rows and the hidden states each taken as a
    slice of one array, as the descent lays them out."""
    h, steps = model.w_out.size, len(inputs)
    weights = model.weights.copy()
    weights[: 3 * h] *= 0.5
    states = np.zeros((steps + 1, h + 2))
    acts, cells, tanh_cells = [], [np.zeros(h)], []
    for k, x in enumerate(np.asarray(inputs, dtype=float).tolist()):
        states[k, :2] = x, 1.0
        act = np.tanh(np.dot(weights, states[k].copy())).reshape(4, h)
        act[:3] = act[:3] * 0.5 + 0.5
        i, f, o, g = act
        cell = i * g if k == 0 else f * cells[k] + i * g
        tanh_cell = np.tanh(cell)
        states[k + 1, 2:] = o * tanh_cell
        acts.append(act)
        cells.append(cell)
        tanh_cells.append(tanh_cell)
    hiddens = states[1:, 2:]
    outputs = np.dot(hiddens, model.w_out) + model.b_out
    d_out = outputs - np.asarray(targets, dtype=float)
    loss = float(np.sum(d_out**2) / steps)
    d_out = d_out * 2.0 / steps

    dz = np.empty((steps, 4 * h))
    w_h_t = model.weights[:, 2:].T
    dh_next = dc_next = None
    for k in reversed(range(steps)):
        i, f, o, g = acts[k]
        dh = d_out[k] * model.w_out
        if dh_next is not None:
            dh = dh + dh_next
        dc = dh * ((1.0 - tanh_cells[k] ** 2) * o)
        if dc_next is not None:
            dc = dc + dc_next
        dz[k] = np.concatenate(
            (
                (1.0 - i) * i * g * dc,
                (1.0 - f) * f * cells[k] * dc,
                (1.0 - o) * o * tanh_cells[k] * dh,
                (1.0 - g**2) * i * dc,
            )
        )
        if k:
            dh_next = np.dot(w_h_t, dz[k])
            dc_next = dc * f
    grads = {"weights": np.dot(dz.T, states[:-1]), "w_out": np.dot(d_out, hiddens), "b_out": float(np.sum(d_out))}
    return loss, grads


def finite_difference_grads(model, inputs, targets, step=1e-5):
    """Central finite differences of the training loss for every weight."""

    def loss_at(model=model):
        return loss_and_grads(model, inputs, targets)[0]

    grads = {}
    for name in ("weights", "w_out"):
        arr = getattr(model, name)
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + step
            plus = loss_at()
            arr[idx] = original - step
            minus = loss_at()
            arr[idx] = original
            grad[idx] = (plus - minus) / (2 * step)
        grads[name] = grad
    original = model.b_out
    plus = loss_at(dataclasses.replace(model, b_out=original + step))
    minus = loss_at(dataclasses.replace(model, b_out=original - step))
    grads["b_out"] = (plus - minus) / (2 * step)
    return grads


def init_model(config, h=forecaster._HIDDEN_UNITS) -> forecaster.LstmModel:
    """The model ``forecaster.train`` starts from, in fresh writable arrays:
    the weights of ``forecaster._initial_theta`` for ``h`` units (the paper's
    10 by default), ``b_out`` 0 and identity normalization statistics."""
    theta = forecaster._initial_theta(h, config.seed)
    weights, w_out, _ = (view.copy() for view in forecaster._views(theta, h))
    return forecaster.LstmModel(weights=weights, w_out=w_out, b_out=0.0)


def reference_train(window, config, h=forecaster._HIDDEN_UNITS):
    """``forecaster.train`` as a plain loop of ``h`` units, the oracle for its
    workspace: each epoch takes fresh gradients from ``loss_and_grads`` and
    updates the three parameters one by one. The paper's fixed settings, learning rate 0.15,
    early-stopping patience 3 and threshold 1e-4, and the floor of the std,
    1e-12 of max |value|, are written out here, not read from the library."""
    raw = np.asarray(window, dtype=float)
    with np.errstate(all="ignore"):
        mean, std = float(raw.mean()), float(raw.std())
        scale = float(np.abs(raw).max())
        if math.isinf(std):  # the squares overflowed: take them in units of max |value|
            std = scale * float((raw / scale).std())
        std = max(std, 1e-12 * scale) or 1.0  # floored relative to max |value|, in any unit
        normed = (raw - mean) / std
    inputs, targets = normed[:-1], normed[1:]
    model = dataclasses.replace(init_model(config, h), norm_mean=mean, norm_std=std)
    weights, w_out = model.weights, model.w_out  # written in place
    lr, prev_loss, stalled = 0.15, None, 0
    with np.errstate(under="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            loss, grads = loss_and_grads(model, inputs, targets)
            weights -= lr * grads["weights"]
            w_out -= lr * grads["w_out"]
            model = dataclasses.replace(model, b_out=model.b_out - lr * grads["b_out"])
            if prev_loss is not None:
                improvement = (prev_loss - loss) / prev_loss if prev_loss > 0 else 0.0
                stalled = stalled + 1 if improvement < 1e-4 else 0
            prev_loss = loss
            if stalled >= 3:
                break
    return forecaster.TrainOutcome(model, epoch)


def reference_forward(model, inputs):
    """Textbook LSTM recurrence, one gate at a time, as the forecaster's oracle.

    Gates use ``1 / (1 + exp(-z))`` directly; ``exp`` may overflow to inf
    for very negative ``z``, which still gives the right limit 0.
    """
    h = model.w_out.size
    w_x, b, w_h = model.weights[:, 0], model.weights[:, 1], model.weights[:, 2:]

    def sigmoid(z):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))

    hidden = np.zeros(h)
    cell = np.zeros(h)
    outputs = []
    for x in inputs:
        z = w_x * x + w_h @ hidden + b
        i_g, f_g, o_g = sigmoid(z[:h]), sigmoid(z[h : 2 * h]), sigmoid(z[2 * h : 3 * h])
        cell = f_g * cell + i_g * np.tanh(z[3 * h :])
        hidden = o_g * np.tanh(cell)
        outputs.append(float(model.w_out @ hidden + model.b_out))
    return np.array(outputs)


def reference_predict(model, window):
    """``forecaster.predict_next`` from zero state on fresh arrays, the oracle for
    its memo and workspace, in the step's operation order. The states of the
    window's suffixes are n columns, zero to start with. Each normalized value is
    one step: a fresh ``[x; 1; h]`` array, one ``np.dot`` with ``[w_x | b | w_h]``,
    whose sigmoid gates' rows are halved here, then the gates on fresh arrays.
    Step r reads the forecast from column r, which spans every value so far, and
    zeroes it, rotating as the memo does. Returns ``(forecast, hidden, cell)``:
    the forecast of the last column and the ``(H, n)`` states carried on, whose
    column j holds the suffix of the window's last n - 1 - j values."""
    mean, std = model.norm_mean, model.norm_std
    normed = [(float(v) - mean) / std for v in np.asarray(window, dtype=float).tolist()]
    if not all(map(math.isfinite, normed)):
        raise DataError("prediction window contains non-finite values, raw or normalized")
    n, h = len(normed), model.w_out.size
    weights = model.weights.copy()
    with np.errstate(under="ignore"):
        weights[: 3 * h] *= 0.5  # sigmoid(z) = (1 + tanh(z / 2)) / 2
    hidden = cell = np.zeros((h, n))
    for r, x in enumerate(normed):
        act = np.tanh(np.dot(weights, np.vstack((np.full(n, x), np.ones(n), hidden)))).reshape(4, h, n)
        i, f, o = act[:3] * 0.5 + 0.5
        cell = f * cell + i * act[3]
        hidden = o * np.tanh(cell)
        if r == n - 1:  # a partial window's output is no forecast
            output = float(model.w_out @ hidden[:, r]) + model.b_out
        hidden[:, r] = cell[:, r] = 0.0
    forecast = output * std + mean
    if not math.isfinite(forecast):
        raise DataError(f"forecast overflows: {forecast}")
    return forecast, hidden, cell


def max_relative_gradient_error(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name, num in numeric.items():
        ana = analytic[name]
        num_arr = np.atleast_1d(np.asarray(num, dtype=float))
        ana_arr = np.atleast_1d(np.asarray(ana, dtype=float))
        scale = np.maximum(np.maximum(np.abs(num_arr), np.abs(ana_arr)), 1e-8)
        worst = max(worst, float(np.max(np.abs(num_arr - ana_arr) / scale)))
    return worst


class PerfectEngine:
    """Forecast engine that answers every window with the true next value.

    Works by memorizing the series keyed by look-back window, so the
    series must have pairwise-distinct windows (continuous random data
    has, almost surely). Each train call returns a fresh sentinel object
    so model replacement is observable by identity.
    """

    def __init__(self, series, look_back: int):
        self._next_value = {}
        series = [float(v) for v in series]
        # The final window's forecast targets a point past the end of the
        # stream; it is never scored, so any placeholder answer works.
        for start in range(len(series) - look_back + 1):
            window = tuple(series[start : start + look_back])
            if window in self._next_value:
                raise ValueError("series windows must be unique for PerfectEngine")
            target = start + look_back
            self._next_value[window] = series[target] if target < len(series) else series[-1]
        self.train_calls = 0

    def train(self, window):
        self.train_calls += 1
        return object()

    def predict(self, model, window):
        return self._next_value[tuple(float(v) for v in window)]


class ScriptedEngine(PerfectEngine):
    """PerfectEngine that lies about chosen target indices.

    ``lie_once`` poisons only the first forecast of a target index (the
    retrain re-forecast then tells the truth, exercising the recovered
    branch); ``lie_always`` poisons every forecast of it (true-anomaly
    branch). Both map target index -> wrong value. ``lie_in_turn`` maps a
    target index to a list of wrong values, one per forecast of it, after
    which the forecasts tell the truth.
    """

    def __init__(
        self,
        series,
        look_back: int,
        lie_once: dict[int, float] | None = None,
        lie_always: dict[int, float] | None = None,
        lie_in_turn: dict[int, list[float]] | None = None,
    ):
        super().__init__(series, look_back)
        self._series = [float(v) for v in series]
        self._look_back = look_back
        self._lies = {t: [v] for t, v in (lie_once or {}).items()}
        self._lies.update({t: list(vs) for t, vs in (lie_in_turn or {}).items()})
        self._lie_always = dict(lie_always or {})

    def predict(self, model, window):
        window = tuple(float(v) for v in window)
        target = self._find_start(window) + self._look_back
        if target in self._lie_always:
            return self._lie_always[target]
        if self._lies.get(target):
            return self._lies[target].pop(0)
        return self._next_value[window]

    def _find_start(self, window):
        for start in range(len(self._series) - self._look_back + 1):
            if tuple(self._series[start : start + self._look_back]) == window:
                return start
        raise KeyError(window)


class LargeErrorEngine(PerfectEngine):
    """PerfectEngine whose every forecast misses by a relative error of
    ``1e4`` plus a jitter of at most ``8e-4``, so each error score is about
    1e4 with a spread of about 3e-4: a variance that raw sums of squares
    lose to cancellation."""

    def __init__(self, series, look_back: int, seed: int = 7):
        super().__init__(series, look_back)
        rng = np.random.default_rng(seed)
        self._miss = {window: 1e4 + rng.uniform(-8e-4, 8e-4) for window in self._next_value}

    def predict(self, model, window):
        window = tuple(float(v) for v in window)
        return self._next_value[window] * (1.0 + self._miss[window])


class RecordingEngine(LstmEngine):
    """``LstmEngine`` that keeps the epochs each training call used, in order."""

    def __init__(self, config=None):
        super().__init__(config)
        self.epoch_counts: list[int] = []

    def train(self, window):
        outcome = forecaster.train(window, self.config)
        self.epoch_counts.append(outcome.epochs_used)
        return outcome.model


class EngineFailure(RuntimeError):
    """Raised by ``FailingEngine`` on its chosen call."""


class FailingEngine:
    """Delegates to ``engine`` but raises ``EngineFailure`` on the
    ``call``-th call (1-based) of ``method``, either "train" or "predict"."""

    def __init__(self, engine, method: str, call: int):
        self._engine = engine
        self._method = method
        self._call = call
        self._calls = {"train": 0, "predict": 0}

    def _count(self, method: str):
        self._calls[method] += 1
        if method == self._method and self._calls[method] == self._call:
            raise EngineFailure(f"{method} call {self._call} failed")

    def train(self, window):
        self._count("train")
        return self._engine.train(window)

    def predict(self, model, window):
        self._count("predict")
        return self._engine.predict(model, window)


class BadForecastEngine(FailingEngine):
    """Delegates to ``engine`` but answers the ``call``-th ``predict`` call
    (1-based) with ``forecast``, such as NaN, instead of a forecast."""

    def __init__(self, engine, call: int, forecast):
        super().__init__(engine, "predict", call)
        self.forecast = forecast

    def predict(self, model, window):
        try:
            return super().predict(model, window)
        except EngineFailure:
            return self.forecast


def outcome(call):
    """The bits of the float ``call()`` returns, or the type and message of
    what it raises, for comparing two ways to the same result."""
    try:
        return call().hex()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def without_timing(records) -> list[DetectionRecord]:
    """Records with ``decision_time`` zeroed, for comparing replays."""
    return [dataclasses.replace(r, decision_time=0.0) for r in records]


def make_record(
    time_index: int,
    timestamp: datetime | None = None,
    value: float = 0.0,
    verdict: Verdict = Verdict.NORMAL,
    retrained: bool = False,
    decision_time: float = 0.0,
    phase: Phase = Phase.DETECTING,
    predicted: float | None = None,
    aare: float | None = None,
    threshold: float | None = None,
) -> DetectionRecord:
    return DetectionRecord(
        time_index=time_index,
        timestamp=timestamp,
        value=value,
        predicted=predicted,
        aare=aare,
        threshold=threshold,
        phase=phase,
        verdict=verdict,
        retrained=retrained,
        decision_time=decision_time,
    )
