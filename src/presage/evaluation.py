"""Accounting for a detection run and scoring it against expert labels.

``summarize_run`` is the one place that accounts for a run: its points,
retrains, anomalies and decision times, from which the retraining ratio
follows. ``evaluate_run`` is the one scorer: it adds lead times and false
warnings to that account, from the same pass over the records.

The central idea is lead time: for each labeled anomaly instant T we
look for the earliest anomaly report inside an evaluation window
``[T - pre_window, T + grace]`` and measure how many minutes before T it
arrived. Reports outside every label's window are false warnings. Each
anomaly report counts exactly once: it is attributed to the label whose
instant is nearest (ties to the earlier label), or to the false-warning
pool. Both spans are given in minutes; one that is not a real number, is
not finite, is negative or does not fit a ``timedelta`` is a
``ConfigError``, raised before any record is read.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Iterator, Sequence

from .detector import DetectionRecord, Phase, Verdict, _check_order
from .errors import ConfigError, DataError
from .scoring import _WELFORD_EMPTY, _real, _welford_add, _welford_std

__all__ = [
    "LeadStatus",
    "LeadTimeResult",
    "RunSummary",
    "EvaluationSummary",
    "summarize_run",
    "evaluate_run",
]

DEFAULT_PRE_WINDOW_MINUTES = 1440.0
DEFAULT_GRACE_MINUTES = 60.0


class LeadStatus(enum.Enum):
    PROACTIVE = "proactive"  # reported before the labeled instant
    ON_TIME = "on_time"  # reported exactly at the labeled instant
    LATE = "late"  # reported after it, within the grace period
    MISSED = "missed"  # no report inside the evaluation window


@dataclass(frozen=True)
class LeadTimeResult:
    label_timestamp: datetime
    first_report_timestamp: datetime | None
    lead_minutes: float | None
    status: LeadStatus


@dataclass
class RunSummary:
    """Aggregate outcome of one detection run.

    ``eligible_points`` counts the scored points, the records in phase
    ``bootstrap`` or ``detecting``; ``anomalies`` holds the anomaly records.
    Decision times are in seconds, their std the population one.
    """

    total_points: int
    retrain_count: int
    eligible_points: int
    avg_decision_time: float
    std_decision_time: float
    anomalies: list[DetectionRecord]

    @property
    def retraining_ratio(self) -> float:
        """Retrains per scored point; 0 for a run that never left the ramp."""
        return self.retrain_count / self.eligible_points if self.eligible_points else 0.0


@dataclass
class EvaluationSummary:
    lead_times: list[LeadTimeResult]
    false_warning_count: int
    run: RunSummary


def _checked(
    records: Iterable[DetectionRecord], labels: Sequence[datetime]
) -> Iterator[DetectionRecord]:
    """Yield ``records`` as they come, each after checking that it is in
    time order, agrees with the labels on timezone awareness and, if an
    anomaly, has a timestamp. Labels that mix awareness are rejected first."""
    # Aware and naive instants do not compare. Each timestamped record is
    # checked against the one before it, so the first must match the labels.
    naive = labels[0].utcoffset() is None if labels else None
    if any((label.utcoffset() is None) != naive for label in labels):
        raise DataError("labels mix timezone-aware and naive instants")
    previous = None
    for record in records:
        timestamp = record.timestamp
        if timestamp is not None:
            if previous is not None:
                _check_order(previous, timestamp, "record at index {}: ", record.time_index)
            elif labels and (timestamp.utcoffset() is None) != naive:
                raise DataError(f"record at index {record.time_index}: timestamp {timestamp} "
                                "and labels mix timezone awareness")
            previous = timestamp
        elif record.verdict is Verdict.ANOMALY:
            raise DataError(f"anomaly record at index {record.time_index} has no timestamp")
        yield record


def _span(minutes: float, name: str) -> timedelta:
    """``minutes`` as a time span: read by ``scoring._real`` (so a numpy scalar or a
    fraction is its float), then within what a ``timedelta`` holds, else ``ConfigError``."""
    value = _real(minutes, ConfigError, f"{name} must be a finite, non-negative number of minutes, got ")
    try:
        return timedelta(minutes=value)
    except OverflowError:
        raise ConfigError(f"{name} is longer than a time span can be") from None


def summarize_run(records: Iterable[DetectionRecord]) -> RunSummary:
    """Account for a run in one pass over its records: points, scored
    points, retrains, anomalies, and the decision-time mean and std
    (Welford's update). Each record's ``phase`` says whether it was scored.

    A decision time is read by ``scoring._real``: a numpy scalar is its
    float, and a ``bool``, a negative or a non-finite time is a ``DataError``.
    """
    retrains = scored = 0
    timing = _WELFORD_EMPTY
    anomalies = []
    for record in records:
        seconds = record.decision_time
        if not (type(seconds) is float and 0 <= seconds < math.inf):  # NaN fails too
            seconds = _real(seconds, DataError, f"record at index {record.time_index}: "
                            "decision times must be finite and non-negative, got ")
        retrains += record.retrained
        scored += record.phase is Phase.BOOTSTRAP or record.phase is Phase.DETECTING
        timing = _welford_add(timing, seconds)
        if record.verdict is Verdict.ANOMALY:
            anomalies.append(record)
    total, mean = timing[:2]
    return RunSummary(
        total_points=total,
        retrain_count=retrains,
        eligible_points=scored,
        avg_decision_time=mean,
        std_decision_time=_welford_std(timing) if total else 0.0,
        anomalies=anomalies,
    )


def evaluate_run(
    records: Iterable[DetectionRecord],
    labels: Sequence[datetime],
    *,
    pre_window_minutes: float = DEFAULT_PRE_WINDOW_MINUTES,
    grace_minutes: float = DEFAULT_GRACE_MINUTES,
) -> EvaluationSummary:
    """Full scoreboard for one run from one pass over its records: per-label
    lead times, false warnings, and the run summary. Positive lead minutes
    mean the warning preceded the labeled instant; a label with no
    attributed report is ``MISSED``. A run that never left the preparation
    ramp (an empty one included) has no retraining ratio: ``DataError``."""
    pre = _span(pre_window_minutes, "pre_window_minutes")
    grace = _span(grace_minutes, "grace_minutes")
    run = summarize_run(_checked(records, labels))
    if not run.eligible_points:
        raise DataError(
            f"run of {run.total_points} points never left the preparation ramp "
            "(no record was scored)"
        )
    # The anomalies are in time order, so a label's first report is its earliest.
    first: dict[int, datetime] = {}
    false_warning_count = 0
    for record in run.anomalies:
        # A label plus or minus a wide span can leave datetime's range; the
        # difference of two datetimes cannot. Ties go to the earlier label.
        near = [(abs(offset), label, i) for i, label in enumerate(labels)
                if -pre <= (offset := record.timestamp - label) <= grace]
        if near:
            first.setdefault(min(near)[2], record.timestamp)
        else:
            false_warning_count += 1

    lead_times = []
    for i, instant in enumerate(labels):
        report = first.get(i)
        if report is None:
            lead, status = None, LeadStatus.MISSED
        else:
            lead = (instant - report).total_seconds() / 60.0
            status = (LeadStatus.PROACTIVE if lead > 0
                      else LeadStatus.ON_TIME if lead == 0 else LeadStatus.LATE)
        lead_times.append(LeadTimeResult(instant, report, lead, status))
    return EvaluationSummary(lead_times, false_warning_count, run)
