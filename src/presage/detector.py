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
import math
import numbers
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import Protocol, Sequence

from . import forecaster, scoring
from .errors import ConfigError, DataError, OrderingError
from .forecaster import LstmConfig, _check_types
from .scoring import _WELFORD_EMPTY, DEFAULT_EPSILON, _welford_add, _welford_std

__all__ = [
    "Phase",
    "Verdict",
    "DetectorConfig",
    "DetectionRecord",
    "ForecastEngine",
    "LstmEngine",
    "Detector",
    "phase_of",
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


def phase_of(t: int, look_back: int) -> Phase:
    """Phase of time index ``t`` under look-back count ``look_back``."""
    if look_back < 2:
        raise ValueError(f"look_back must be >= 2, got {look_back}")
    if t < 0:
        raise ValueError(f"time index must be >= 0, got {t}")
    if t < look_back - 1:
        return Phase.COLLECTING
    if t < 2 * look_back - 1:
        return Phase.WARMUP
    if t < 2 * look_back + 1:
        return Phase.BOOTSTRAP
    return Phase.DETECTING


def _check_order(previous: datetime, timestamp: datetime) -> None:
    """The one rule for consecutive timestamps: ``DataError`` if they differ in
    timezone awareness, ``OrderingError`` if ``timestamp`` comes earlier."""
    if (timestamp.utcoffset() is None) != (previous.utcoffset() is None):
        raise DataError(
            f"timestamp {timestamp} mixes timezone-aware and naive timestamps "
            f"(previous was {previous})"
        )
    if timestamp < previous:
        raise OrderingError(f"timestamp {timestamp} precedes previous {previous}")


def _finite_float(number, what: str, t: int) -> float:
    """``number``, the ``what`` at point ``t``, read by ``float()`` where it enters
    the detector: a complex number (numpy's too, which ``float()`` would cut to its
    real part) or a value ``float()`` refuses is a ``ValueError``; an int past the
    float range, NaN or inf is a ``DataError``."""
    if type(number) is not float:
        try:
            if isinstance(number, numbers.Complex) and not isinstance(number, numbers.Real):
                raise TypeError
            number = float(number)
        except OverflowError:
            raise DataError(f"{what} at t={t} is past the float range") from None
        except (TypeError, ValueError):
            raise ValueError(f"{what} at t={t} must be a real number, got {number!r}") from None
    if not math.isfinite(number):
        raise DataError(f"{what} at t={t} is not finite: {number}")
    return number


@dataclass(frozen=True)
class DetectorConfig:
    """Detector parameters. Forecasts are always one point ahead."""

    look_back: int = 3
    epsilon: float = DEFAULT_EPSILON
    lstm: LstmConfig = field(default_factory=LstmConfig)

    def __post_init__(self):
        _check_types(self)
        if self.look_back < 2:
            raise ConfigError(f"look_back must be >= 2, got {self.look_back}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")


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
    previously returned model, as a real number (NaN or inf fails the step).
    Implementations must be deterministic for replayability. An engine may
    keep caches, but its outputs depend only on ``(model, window)``.
    """

    def train(self, window: Sequence[float]) -> object: ...

    def predict(self, model: object, window: Sequence[float]) -> float: ...


class LstmEngine:
    """Default engine: a fresh from-scratch LSTM per training call.

    Every call trains from the same seed in the config, which keeps
    whole-stream replays bit-reproducible. The engine holds the memo of
    ``forecaster.predict_next``, so the next window of its last forecast steps
    warm; it serves one thread at a time. A copy or an unpickled engine starts
    with an empty memo, since copying would split its workspace's shared views.
    """

    def __init__(self, config: LstmConfig | None = None):
        self.config = config if config is not None else LstmConfig()
        self._memo = [None]

    def __getstate__(self):
        return {**self.__dict__, "_memo": [None]}

    def train(self, window: Sequence[float]) -> forecaster.LstmModel:
        return forecaster.train(window, self.config).model

    def predict(self, model: forecaster.LstmModel, window: Sequence[float]) -> float:
        return forecaster.predict_next(model, window, self._memo)


class Detector:
    """Sequential per-point anomaly detector over one stream.

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
        self.engine: ForecastEngine = (
            engine if engine is not None else LstmEngine(self.config.lstm)
        )
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
        raises leave the detector as it was. A value is read by ``float()``, as
        windows are, so text such as ``"1.5"`` or ``b"2"`` is accepted.
        """
        t, buffer, forecasts, history, model, last_timestamp = self._state
        t += 1
        if timestamp is not None and not isinstance(timestamp, datetime):
            raise ValueError(f"timestamp at t={t} must be a datetime or None, got {timestamp!r}")
        value = _finite_float(value, "observation", t)
        if timestamp is not None and last_timestamp is not None:
            _check_order(last_timestamp, timestamp)

        started = time.perf_counter()
        b = self.config.look_back
        phase = Phase.DETECTING if t > 2 * b else phase_of(t, b)
        window = (*buffer, value)[-b:]  # points t-b+1 .. t, as in forecasts
        aare_value: float | None = None
        thd: float | None = None
        welford = history
        verdict = Verdict.PENDING
        retrained = False

        if phase is Phase.BOOTSTRAP or phase is Phase.DETECTING:
            aare_value = scoring.aare(window, forecasts, self.config.epsilon)
            welford = _welford_add(history, aare_value)
        if phase is Phase.WARMUP or phase is Phase.BOOTSTRAP:
            model = self.engine.train(window)
        elif phase is Phase.DETECTING:
            thd = welford[1] + 3.0 * _welford_std(welford)
            if aare_value > thd:
                # Double check: retrain on the b points preceding t (the
                # buffer before t) so the suspicious value stays out of its
                # own training data. An anomaly keeps the previous model.
                retrained = True
                candidate = self.engine.train(buffer)
                recheck = self.engine.predict(candidate, buffer)
                forecasts = (*forecasts[:-1], _finite_float(recheck, "forecast", t))
                aare_value = scoring.aare(window, forecasts, self.config.epsilon)
                welford = _welford_add(history, aare_value)
                if aare_value <= thd:
                    model = candidate
            verdict = Verdict.NORMAL if aare_value <= thd else Verdict.ANOMALY
        forecast = None
        if phase is not Phase.COLLECTING:
            forecast = _finite_float(self.engine.predict(model, window), "forecast", t + 1)
        decision_time = time.perf_counter() - started

        # Commit point: nothing above changed the detector, so an exception
        # raised there leaves it as it was.
        self._state = (t, window, (*forecasts, forecast)[-b:], welford, model,
                       last_timestamp if timestamp is None else timestamp)
        # positional: keywords cost about twice as much on this hot path
        return DetectionRecord(
            t, timestamp, value, forecasts[-1], aare_value, thd, phase, verdict, retrained, decision_time
        )
