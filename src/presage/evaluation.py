"""Scoring a detection run against expert labels.

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
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Sequence

from .detector import DetectionRecord, Verdict
from .errors import DataError, OrderingError, StateError

__all__ = [
    "LeadStatus",
    "LeadTimeResult",
    "EvaluationSummary",
    "lead_time",
    "false_warnings",
    "retrain_accounting",
    "retraining_ratio",
    "timing_stats",
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
class EvaluationSummary:
    lead_times: list[LeadTimeResult]
    false_warning_count: int
    retraining_ratio: float
    retrain_count: int
    eligible_points: int
    avg_decision_time: float
    std_decision_time: float


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


def retrain_accounting(records: Sequence[DetectionRecord], look_back: int) -> tuple[int, int]:
    """Retrain count, and the points past the preparation ramp of
    ``2*look_back - 1`` points (0 for a run that never left it)."""
    eligible = max(0, len(records) - (2 * look_back - 1))
    return sum(1 for r in records if r.retrained), eligible


def retraining_ratio(records: Sequence[DetectionRecord], look_back: int) -> float:
    """Retrains divided by the points past the preparation ramp."""
    retrains, eligible = retrain_accounting(records, look_back)
    if not eligible:
        raise StateError(
            f"run of {len(records)} points never left the preparation ramp "
            f"(needs more than {2 * look_back - 1})"
        )
    return retrains / eligible


def timing_stats(records: Sequence[DetectionRecord]) -> tuple[float, float]:
    """Mean and population stddev of per-point decision time, seconds."""
    if not records:
        raise StateError("cannot compute timing statistics of an empty run")
    times = [r.decision_time for r in records]
    if any(t < 0 for t in times):
        raise DataError("decision times must be non-negative")
    mean = sum(times) / len(times)
    variance = sum((t - mean) ** 2 for t in times) / len(times)
    return mean, math.sqrt(variance)


def evaluate_run(
    records: Sequence[DetectionRecord],
    labels: Sequence[datetime],
    look_back: int,
    pre_window_minutes: float = DEFAULT_PRE_WINDOW_MINUTES,
    grace_minutes: float = DEFAULT_GRACE_MINUTES,
) -> EvaluationSummary:
    """Full scoreboard for one run: per-label lead times, false warnings,
    retraining ratio, and timing statistics."""
    avg, std = timing_stats(records)
    retrains, eligible = retrain_accounting(records, look_back)
    return EvaluationSummary(
        lead_times=lead_time(records, labels, pre_window_minutes, grace_minutes),
        false_warning_count=false_warnings(records, labels, pre_window_minutes, grace_minutes),
        retraining_ratio=retraining_ratio(records, look_back),
        retrain_count=retrains,
        eligible_points=eligible,
        avg_decision_time=avg,
        std_decision_time=std,
    )
