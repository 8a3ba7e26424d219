"""Streaming anomaly detector driven by a short look-back forecaster.

One detector instance consumes a single time series point by point.
Each point moves the detector through a fixed phase schedule:

* ``collecting`` (t < b-1): buffer points, nothing else.
* ``warmup`` (b-1 <= t < 2b-1): train on the last b points, forecast
  the next value.
* ``bootstrap`` (2b-1 <= t < 2b+1): additionally start scoring the
  forecasts, seeding the error history.
* ``detecting`` (t >= 2b+1): compare the current error score against a
  three-sigma threshold over the whole history. A score above the
  threshold triggers a double check: retrain on the b points preceding
  the current one, re-forecast the current value, and re-compare. Only
  when the refreshed model still fails to explain the point is it
  reported as an anomaly; otherwise the refreshed model replaces the
  current one.

where b is the look-back count and t the zero-based point index.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from datetime import datetime
from typing import Protocol, Sequence

from . import forecaster, scoring
from .errors import ConfigError, DataError, OrderingError, _shown
from .forecaster import LstmConfig, _int
from .scoring import _EPSILON_RULE, _WELFORD_EMPTY, DEFAULT_EPSILON, _float, _real, _welford_add, _welford_std

__all__ = [
    "Phase",
    "Verdict",
    "DetectorConfig",
    "DetectionRecord",
    "ForecastEngine",
    "LstmEngine",
    "Detector",
]


class Phase(enum.Enum):
    COLLECTING = "collecting"
    WARMUP = "warmup"
    BOOTSTRAP = "bootstrap"
    DETECTING = "detecting"


class Verdict(enum.Enum):
    PENDING = "pending"
    NORMAL = "normal"
    ANOMALY = "anomaly"


# Read by ``Detector.step`` as module names, faster than enum attributes.
_DETECTING = Phase.DETECTING
_PENDING, _NORMAL, _ANOMALY = Verdict.PENDING, Verdict.NORMAL, Verdict.ANOMALY


def _check_order(previous: datetime, timestamp: datetime, where: str = "", *args) -> None:
    """The one rule for consecutive timestamps: ``DataError`` if they differ in
    timezone awareness, ``OrderingError`` if ``timestamp`` comes earlier. Each
    message starts with ``where.format(*args)``, built only when the rule fails."""
    if (timestamp.utcoffset() is None) != (previous.utcoffset() is None):
        raise DataError(
            f"{where.format(*args)}timestamp {timestamp} mixes timezone-aware and naive "
            f"timestamps (previous was {previous})"
        )
    if timestamp < previous:
        raise OrderingError(f"{where.format(*args)}timestamp {timestamp} precedes previous {previous}")


@dataclass(frozen=True)
class DetectorConfig:
    """The detector's own parameters, forecasts one point ahead; the forecaster's go to its engine."""

    look_back: int = 3
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        _int(self.look_back, "look_back", 2)
        object.__setattr__(self, "epsilon", _real(self.epsilon, ConfigError, _EPSILON_RULE, above=True))


@dataclass(slots=True)
class DetectionRecord:
    """Outcome of ingesting one data point.

    ``predicted``, ``aare`` and ``threshold`` stay ``None`` until the
    phase schedule makes them meaningful; ``aare`` carries the final
    score used for the verdict (the re-computed one when the double
    check ran). ``decision_time`` is wall-clock seconds spent deciding,
    excluding I/O. Slotted: a record takes no other attributes.
    """

    time_index: int
    timestamp: datetime | None
    value: float
    predicted: float | None
    aare: float | None
    threshold: float | None
    phase: Phase
    verdict: Verdict
    retrained: bool
    decision_time: float


class ForecastEngine(Protocol):
    """Training/prediction seam used by the detector.

    ``train`` fits a model to a look-back window of raw values and returns
    it; ``predict`` forecasts the raw value following ``window`` with a
    previously returned model, as a real number that is no ``bool`` (text,
    NaN or inf fails the step). Implementations must be deterministic for
    replayability. An engine may keep caches, but its outputs depend only on
    ``(model, window)``.
    """

    def train(self, window: Sequence[float]) -> object: ...

    def predict(self, model: object, window: Sequence[float]) -> float: ...


class LstmEngine:
    """Default engine: a fresh from-scratch LSTM per training call.

    Every call trains from the same seed in the config, which keeps
    whole-stream replays bit-reproducible. The engine holds the memo of
    ``forecaster.predict_next``, so the detector's next window, the last one on by
    one point in the same float objects, steps warm; it serves one thread at a
    time. A copy or an unpickled engine starts with an empty memo, since copying
    would split its workspace's shared views.
    """

    def __init__(self, config: LstmConfig | None = None):
        self.config = config if config is not None else LstmConfig()
        if not isinstance(self.config, LstmConfig):
            raise ConfigError(f"config must be an LstmConfig or None, got {_shown(config)}")
        self._memo = [None]

    def __getstate__(self):
        return {**self.__dict__, "_memo": [None]}

    def train(self, window: Sequence[float]) -> forecaster.LstmModel:
        return forecaster.train(window, self.config).model

    def predict(self, model: forecaster.LstmModel, window: Sequence[float]) -> float:
        return forecaster.predict_next(model, window, self._memo)


class Detector:
    """Sequential per-point anomaly detector over one stream; ``engine`` defaults to ``LstmEngine()``.

    Call ``step`` once per observation, in time order. Instances are not
    thread-safe; run one detector per stream. The state is one O(look_back)
    tuple, replaced whole when a step succeeds: the point index, the last b
    values, the forecasts made after each of them, a running mean and
    variance of the error scores, the model and the last timestamp.
    """

    def __init__(
        self,
        config: DetectorConfig | None = None,
        engine: ForecastEngine | None = None,
    ):
        self.config = config if config is not None else DetectorConfig()
        self.engine: ForecastEngine = engine if engine is not None else LstmEngine()
        if not isinstance(self.config, DetectorConfig):
            raise ConfigError(f"config must be a DetectorConfig or None, got {_shown(config)}")
        if not (callable(getattr(self.engine, "train", None)) and callable(getattr(self.engine, "predict", None))):
            raise ConfigError(f"engine must have callable train and predict methods, got {_shown(engine)}")
        # (t, buffer, forecasts, welford, model, last timestamp); forecasts[-1]
        # is the forecast for the next point and forecasts[i] the one made after
        # ingesting buffer[i], None while no model exists. Both grow to b entries.
        self._state = (-1, (), (None,), _WELFORD_EMPTY, None, None)

    @property
    def time_index(self) -> int:
        """Index of the most recently ingested point, -1 before any."""
        return self._state[0]

    @property
    def model(self) -> object | None:
        """The model the next forecast comes from, None before the first."""
        return self._state[4]

    def step(self, value: float, timestamp: datetime | None = None) -> DetectionRecord:
        """Ingest one observation and return the decision for it.

        All or nothing: ``DataError`` for a value or forecast that is not finite
        or past the float range, for a score past it or for a timestamp whose
        timezone awareness differs from the previous one's, ``OrderingError``
        for a timestamp behind the previous one, ``ValueError`` for a value or
        forecast that is no real number (a complex one too) or a timestamp that
        is neither ``None`` nor a ``datetime``, and any exception an engine
        raises leave the detector as it was. A value is read by ``scoring._float``,
        as window items and settings are, so text, a ``bool`` or a ``Decimal`` is refused.

        A detecting point (t > 2b) takes one straight-line branch with no phase
        test: score, threshold, recheck if the score is above it, forecast. Its
        windows are tuples of the floats read once where they entered, which
        ``scoring.aare`` takes as they are and the engine's memo knows by
        identity; only the 2b+1 ramp points test ``t`` again, for their phase.
        """
        t, buffer, forecasts, history, model, last_timestamp = self._state
        t += 1
        if timestamp is not None and not isinstance(timestamp, datetime):
            raise ValueError(f"timestamp at t={t} must be a datetime or None, got {_shown(timestamp)}")
        value = _float(value, "observation at t={}", t)
        if timestamp is not None and last_timestamp is not None:
            _check_order(last_timestamp, timestamp)

        started = time.perf_counter()
        b = self.config.look_back
        window = (*buffer, value)[-b:]  # points t-b+1 .. t, as in forecasts
        if t > 2 * b:  # detecting: score, threshold, recheck, forecast
            phase = _DETECTING
            aare_value = scoring.aare(window, forecasts, self.config.epsilon)
            welford = _welford_add(history, aare_value)
            thd = welford[1] + 3.0 * _welford_std(welford)
            retrained = aare_value > thd
            if retrained:
                # Double check: retrain on the b points preceding t (the
                # buffer before t) so the suspicious value stays out of its
                # own training data. An anomaly keeps the previous model.
                candidate = self.engine.train(buffer)
                recheck = self.engine.predict(candidate, buffer)
                forecasts = (*forecasts[:-1], _float(recheck, "forecast at t={}", t))
                aare_value = scoring.aare(window, forecasts, self.config.epsilon)
                welford = _welford_add(history, aare_value)
                if aare_value <= thd:
                    model = candidate
            verdict = _NORMAL if aare_value <= thd else _ANOMALY
            forecast = _float(self.engine.predict(model, window), "forecast at t={}", t + 1)
        else:  # the 2b+1 ramp points: collecting, warm-up, bootstrap
            phase = Phase.COLLECTING if t < b - 1 else Phase.WARMUP if t < 2 * b - 1 else Phase.BOOTSTRAP
            aare_value = thd = forecast = None
            welford = history
            verdict = _PENDING
            retrained = False
            if phase is Phase.BOOTSTRAP:
                aare_value = scoring.aare(window, forecasts, self.config.epsilon)
                welford = _welford_add(history, aare_value)
            if phase is not Phase.COLLECTING:
                model = self.engine.train(window)
                forecast = _float(self.engine.predict(model, window), "forecast at t={}", t + 1)
        decision_time = time.perf_counter() - started

        # Commit point: nothing above changed the detector, so an exception
        # raised there leaves it as it was.
        self._state = (t, window, (*forecasts, forecast)[-b:], welford, model,
                       last_timestamp if timestamp is None else timestamp)
        # positional: keywords cost about twice as much on this hot path
        return DetectionRecord(
            t, timestamp, value, forecasts[-1], aare_value, thd, phase, verdict, retrained, decision_time
        )
