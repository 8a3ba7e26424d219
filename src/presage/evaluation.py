"""Accounting for a detection run and scoring it against expert labels.

``summarize_run`` is the one place that accounts for a run: its points,
retrains, anomalies and decision times, from which the retraining ratio
follows.

The central idea is lead time: for each labeled anomaly instant T we
look for the earliest anomaly report inside an evaluation window
``[T - pre_window, T + grace]`` and measure how many minutes before T it
arrived. Reports outside every label's window are false warnings. Each
anomaly report counts exactly once: it is attributed to the label whose
instant is nearest (ties to the earlier label), or to the false-warning
pool.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Sequence

from .detector import _WELFORD_EMPTY, DetectionRecord, Verdict, _welford_add, _welford_std
from .errors import DataError, OrderingError, StateError

__all__ = [
    "LeadStatus",
    "LeadTimeResult",
    "RunSummary",
    "EvaluationSummary",
    "lead_time",
    "false_warnings",
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

    ``eligible_points`` counts the points past the preparation ramp of
    ``2*look_back - 1`` points; ``anomalies`` holds the anomaly records.
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
        """Retrains per eligible point; 0 for a run that never left the ramp."""
        return self.retrain_count / self.eligible_points if self.eligible_points else 0.0


@dataclass
class EvaluationSummary:
    lead_times: list[LeadTimeResult]
    false_warning_count: int
    run: RunSummary


def _anomaly_records(
    records: Sequence[DetectionRecord], labels: Sequence[datetime]
) -> list[DetectionRecord]:
    # Aware and naive instants do not compare: the first label, or without
    # labels the first timestamped record, fixes which kind the run uses.
    naive = labels[0].tzinfo is None if labels else None
    previous = None
    anomalies = []
    for record in records:
        if record.timestamp is not None:
            if naive is None:
                naive = record.timestamp.tzinfo is None
            elif (record.timestamp.tzinfo is None) != naive:
                raise DataError(
                    f"record at index {record.time_index} mixes timezone-aware and "
                    "naive timestamps with the labels or the records before it"
                )
            if previous is not None and record.timestamp < previous:
                raise OrderingError(
                    f"records are not time-ordered at index {record.time_index}"
                )
            previous = record.timestamp
        if record.verdict is Verdict.ANOMALY:
            if record.timestamp is None:
                raise DataError(
                    f"anomaly record at index {record.time_index} has no timestamp"
                )
            anomalies.append(record)
    return anomalies


def _attribute(
    records: Sequence[DetectionRecord],
    labels: Sequence[datetime],
    pre_window_minutes: float,
    grace_minutes: float,
) -> tuple[dict[int, list[DetectionRecord]], list[DetectionRecord]]:
    """Assign each anomaly report to the nearest covering label, or to
    the false-warning pool."""
    pre = timedelta(minutes=pre_window_minutes)
    grace = timedelta(minutes=grace_minutes)
    buckets: dict[int, list[DetectionRecord]] = {i: [] for i in range(len(labels))}
    unmatched: list[DetectionRecord] = []
    ordered = sorted(range(len(labels)), key=lambda i: labels[i])

    for record in _anomaly_records(records, labels):
        best = None
        best_distance = None
        for i in ordered:
            instant = labels[i]
            if instant - pre <= record.timestamp <= instant + grace:
                distance = abs(instant - record.timestamp)
                if best_distance is None or distance < best_distance:
                    best, best_distance = i, distance
        if best is None:
            unmatched.append(record)
        else:
            buckets[best].append(record)
    return buckets, unmatched


def lead_time(
    records: Sequence[DetectionRecord],
    labels: Sequence[datetime],
    pre_window_minutes: float = DEFAULT_PRE_WINDOW_MINUTES,
    grace_minutes: float = DEFAULT_GRACE_MINUTES,
) -> list[LeadTimeResult]:
    """Lead time of the earliest report attributed to each label.

    Positive lead minutes mean the warning preceded the labeled instant.
    A label with no attributed report is ``MISSED``.
    """
    buckets, _ = _attribute(records, labels, pre_window_minutes, grace_minutes)
    return _lead_times(buckets, labels)


def _lead_times(
    buckets: dict[int, list[DetectionRecord]], labels: Sequence[datetime]
) -> list[LeadTimeResult]:
    results = []
    for i, instant in enumerate(labels):
        matched = buckets[i]
        if not matched:
            results.append(LeadTimeResult(instant, None, None, LeadStatus.MISSED))
            continue
        first = min(record.timestamp for record in matched)
        lead = (instant - first).total_seconds() / 60.0
        if lead > 0:
            status = LeadStatus.PROACTIVE
        elif lead == 0:
            status = LeadStatus.ON_TIME
        else:
            status = LeadStatus.LATE
        results.append(LeadTimeResult(instant, first, lead, status))
    return results


def false_warnings(
    records: Sequence[DetectionRecord],
    labels: Sequence[datetime],
    pre_window_minutes: float = DEFAULT_PRE_WINDOW_MINUTES,
    grace_minutes: float = DEFAULT_GRACE_MINUTES,
) -> int:
    """Count anomaly reports outside every label's evaluation window."""
    _, unmatched = _attribute(records, labels, pre_window_minutes, grace_minutes)
    return len(unmatched)


def summarize_run(records: Iterable[DetectionRecord], look_back: int) -> RunSummary:
    """Account for a run in one pass over its records: points, retrains,
    anomalies, and the decision-time mean and std (Welford's update).

    A negative decision time is a ``DataError``.
    """
    retrains = 0
    timing = _WELFORD_EMPTY
    anomalies = []
    for record in records:
        if record.decision_time < 0:
            raise DataError(
                f"record at index {record.time_index}: decision times must be non-negative"
            )
        retrains += record.retrained
        timing = _welford_add(timing, record.decision_time)
        if record.verdict is Verdict.ANOMALY:
            anomalies.append(record)
    total, mean = timing[:2]
    return RunSummary(
        total_points=total,
        retrain_count=retrains,
        eligible_points=max(0, total - (2 * look_back - 1)),
        avg_decision_time=mean,
        std_decision_time=_welford_std(timing) if total else 0.0,
        anomalies=anomalies,
    )


def evaluate_run(
    records: Sequence[DetectionRecord],
    labels: Sequence[datetime],
    look_back: int,
    pre_window_minutes: float = DEFAULT_PRE_WINDOW_MINUTES,
    grace_minutes: float = DEFAULT_GRACE_MINUTES,
) -> EvaluationSummary:
    """Full scoreboard for one run: per-label lead times, false warnings,
    and the run summary. A run that never left the preparation ramp (an
    empty one included) has no retraining ratio: ``StateError``."""
    run = summarize_run(records, look_back)
    buckets, unmatched = _attribute(records, labels, pre_window_minutes, grace_minutes)
    if not run.eligible_points:
        raise StateError(
            f"run of {run.total_points} points never left the preparation ramp "
            f"(needs more than {2 * look_back - 1})"
        )
    return EvaluationSummary(_lead_times(buckets, labels), len(unmatched), run)
