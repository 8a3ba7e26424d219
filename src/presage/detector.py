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
import time
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime
from typing import Protocol, Sequence

from . import forecaster, scoring
from .errors import ConfigError, DataError, OrderingError
from .forecaster import LstmConfig
from .scoring import _HUGE_SCORE, DEFAULT_EPSILON, _unit_of

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


@dataclass(frozen=True)
class DetectorConfig:
    """Detector parameters. Forecasts are always one point ahead."""

    look_back: int = 3
    epsilon: float = DEFAULT_EPSILON
    lstm: LstmConfig = field(default_factory=LstmConfig)

    def __post_init__(self):
        if self.look_back < 2:
            raise ConfigError(f"look_back must be >= 2, got {self.look_back}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class DetectionRecord:
    """Outcome of ingesting one data point.

    ``predicted``, ``aare`` and ``threshold`` stay ``None`` until the
    phase schedule makes them meaningful; ``aare`` carries the final
    score used for the verdict (the re-computed one when the double
    check ran). ``decision_time`` is wall-clock seconds spent deciding,
    excluding I/O.
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

    ``train`` fits a model to a look-back window of raw values and
    returns it; ``predict`` forecasts the raw value following ``window``
    using a previously returned model. Implementations must be
    deterministic for replayability.
    """

    def train(self, window: Sequence[float]) -> object: ...

    def predict(self, model: object, window: Sequence[float]) -> float: ...


class LstmEngine:
    """Default engine: a fresh from-scratch LSTM per training call.

    Every call trains from the same seed in the config, which keeps
    whole-stream replays bit-reproducible.
    """

    def __init__(self, config: LstmConfig | None = None):
        self.config = config if config is not None else LstmConfig()

    def train(self, window: Sequence[float]) -> forecaster.LstmModel:
        return forecaster.train(window, self.config).model

    def predict(self, model: forecaster.LstmModel, window: Sequence[float]) -> float:
        return forecaster.predict_next(model, window)


#: The running (count, mean, M2 / unit², unit) of no values; see ``_welford_add``.
_WELFORD_EMPTY = (0, 0.0, 0.0, 1.0)


def _welford_add(
    state: tuple[int, float, float, float], x: float
) -> tuple[int, float, float, float]:
    """Running (count, mean, M2 / unit², unit) with ``x`` added (Welford 1962).

    M2 is kept in units of a power of two (Chan, Golub & LeVeque 1983) that
    grows with the scores as ``scoring.threshold``'s does, so it cannot
    overflow. Scaling by a power of two is exact: until a score passes
    ``_HUGE_SCORE`` the unit is 1 and M2 the plain Welford sum.
    """
    count, mean, m2, unit = state
    if abs(x) > unit * _HUGE_SCORE:
        grown = _unit_of(x)
        m2 = m2 * (unit / grown) * (unit / grown)
        unit = grown
    count += 1
    delta = x - mean
    mean += delta / count
    return count, mean, m2 + (delta / unit) * ((x - mean) / unit), unit


def _welford_std(state: tuple[int, float, float, float]) -> float:
    """Population standard deviation of the values a Welford state has seen."""
    count, _, m2, unit = state
    return unit * math.sqrt(m2 / count)


class Detector:
    """Sequential per-point anomaly detector over one stream.

    Call ``step`` once per observation, in time order. Instances are not
    thread-safe; run one detector per stream. The state is O(look_back):
    the last b values, the forecasts made after each of them, and a
    running mean and variance of the error scores.
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
        b = self.config.look_back
        self.model: object | None = None
        self.retrain_count = 0
        self._t = -1
        self._buffer: deque[float] = deque(maxlen=b)
        # _forecasts[i] is the forecast made after ingesting _buffer[i], so
        # for the point after it; None while no model exists.
        self._forecasts: deque[float | None] = deque([None] * b, maxlen=b)
        self._welford = _WELFORD_EMPTY
        self._last_timestamp: datetime | None = None

    @property
    def time_index(self) -> int:
        """Index of the most recently ingested point, -1 before any."""
        return self._t

    def step(self, value: float, timestamp: datetime | None = None) -> DetectionRecord:
        """Ingest one observation and return the decision for it.

        All or nothing: ``DataError`` for a non-finite value or for a
        timestamp whose timezone awareness differs from the previous one's,
        ``OrderingError`` for a timestamp behind the previous one, and any
        exception an engine raises leave the detector as it was.
        """
        value = float(value)
        if not math.isfinite(value):
            raise DataError(f"observation at t={self._t + 1} is not finite: {value}")
        previous = self._last_timestamp
        if timestamp is not None and previous is not None:
            if (timestamp.utcoffset() is None) != (previous.utcoffset() is None):
                raise DataError(
                    f"timestamp {timestamp} mixes timezone-aware and naive "
                    f"timestamps (previous was {previous})"
                )
            if timestamp < previous:
                raise OrderingError(f"timestamp {timestamp} precedes previous {previous}")

        started = time.perf_counter()
        t = self._t + 1
        b = self.config.look_back
        phase = phase_of(t, b)
        window = [*self._buffer, value][-b:]
        forecasts = list(self._forecasts)  # made for points t-b+1 .. t
        model = self.model
        welford = self._welford
        aare_value: float | None = None
        thd: float | None = None
        verdict = Verdict.PENDING
        retrained = False

        if phase is Phase.BOOTSTRAP or phase is Phase.DETECTING:
            aare_value = scoring.aare(window, forecasts, self.config.epsilon)
            welford = _welford_add(self._welford, aare_value)
        if phase is Phase.WARMUP or phase is Phase.BOOTSTRAP:
            model = self.engine.train(window)
        elif phase is Phase.DETECTING:
            thd = welford[1] + 3.0 * _welford_std(welford)  # scoring.threshold
            if aare_value <= thd:
                verdict = Verdict.NORMAL
            else:
                # Double check: retrain on the b points preceding t (the
                # buffer before t) so the suspicious value stays out of its
                # own training data.
                retrained = True
                previous_window = list(self._buffer)
                candidate = self.engine.train(previous_window)
                forecasts[-1] = self.engine.predict(candidate, previous_window)
                aare_value = scoring.aare(window, forecasts, self.config.epsilon)
                welford = _welford_add(self._welford, aare_value)
                if aare_value <= thd:
                    verdict = Verdict.NORMAL
                    model = candidate
                else:
                    verdict = Verdict.ANOMALY  # keep the previous model
        forecast = None if phase is Phase.COLLECTING else self.engine.predict(model, window)
        decision_time = time.perf_counter() - started

        # Commit point: nothing above changed the detector, so an exception
        # raised there leaves it as it was.
        self._t = t
        self._buffer.append(value)
        self._forecasts[-1] = forecasts[-1]
        self._forecasts.append(forecast)
        self._welford = welford
        self.model = model
        self.retrain_count += retrained
        if timestamp is not None:
            self._last_timestamp = timestamp
        return DetectionRecord(
            time_index=t,
            timestamp=timestamp,
            value=value,
            predicted=forecasts[-1],
            aare=aare_value,
            threshold=thd,
            phase=phase,
            verdict=verdict,
            retrained=retrained,
            decision_time=decision_time,
        )
