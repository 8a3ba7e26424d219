"""Reading time series and labels, writing detection reports and summaries.

File formats (all documented here, bit-exactly):

* Series input: delimited text with a header line naming a ``timestamp``
  and a ``value`` column (case-insensitive; extra columns are ignored).
  Timestamps are ISO-like ``YYYY-MM-DD HH:MM[:SS[.ffffff]]``.
* Labels: JSON. Either a plain list of timestamps (all anomalies), or a
  map from dataset key to an entry; an entry is a list of anomaly
  timestamps or an object ``{"anomalies": [...], "signs": [...]}`` where
  ``signs`` holds labeled precursor instants.
* Report output: CSV with one row per ingested point and columns
  ``index,timestamp,value,predicted,aare,threshold,phase,verdict,
  retrained,decision_time_s``. Fields that are undefined for the row's
  phase are left empty. Floats use shortest round-trip repr, so a report
  read back yields the records it was written from.
* Run summary: JSON of an ``evaluation.RunSummary`` (its retraining
  ratio included, anomalies as index and timestamp) plus the detector
  config it came from.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from .detector import DetectionRecord, DetectorConfig, Phase, Verdict
from .errors import DataError, DatasetKeyError
from .evaluation import RunSummary

__all__ = [
    "Observation",
    "LabelSet",
    "read_series",
    "read_labels",
    "ReportWriter",
    "read_report",
    "write_summary",
]

REPORT_COLUMNS = [
    "index",
    "timestamp",
    "value",
    "predicted",
    "aare",
    "threshold",
    "phase",
    "verdict",
    "retrained",
    "decision_time_s",
]


@dataclass(frozen=True)
class Observation:
    timestamp: datetime
    value: float


@dataclass
class LabelSet:
    """Expert labels for one series: anomaly instants plus optional
    precursor ("sign") instants."""

    dataset_key: str
    anomaly_timestamps: list[datetime]
    sign_timestamps: list[datetime] = field(default_factory=list)


def _parse_timestamp(text: str, context: str) -> datetime:
    try:
        return datetime.fromisoformat(text.strip())
    except ValueError:
        raise DataError(f"{context}: unparsable timestamp {text!r}") from None


@contextmanager
def _open_text(path: Path, encoding: str = "utf-8"):
    """Open ``path`` for reading; bytes that are not UTF-8 and CSV syntax
    errors met anywhere in the ``with`` body are a ``DataError``."""
    try:
        with path.open(newline="", encoding=encoding) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def read_series(path: str | Path) -> list[Observation]:
    """Parse a series file into time-ordered observations.

    Duplicate timestamps are accepted in order; a decreasing timestamp,
    a timestamp whose timezone awareness differs from the first one, or a
    non-finite value is a ``DataError`` carrying the line number, and so
    is a file that is not UTF-8. A UTF-8 byte-order mark before the header
    is skipped.
    A ``UserWarning`` is emitted when intervals deviate from the file's
    modal cadence (the detector treats points as equally spaced).
    """
    path = Path(path)
    with _open_text(path, "utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        names = [col.strip().lower() for col in header]
        if "timestamp" not in names or "value" not in names:
            raise DataError(
                f"{path}: header must name 'timestamp' and 'value' columns, got {header!r}"
            )
        ts_col = names.index("timestamp")
        val_col = names.index("value")

        observations: list[Observation] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= max(ts_col, val_col):
                raise DataError(f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}")
            ts = _parse_timestamp(row[ts_col], f"{path}:{lineno}")
            try:
                value = float(row[val_col])
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: unparsable value {row[val_col]!r}"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value {value}")
            if observations and (ts.tzinfo is None) != (observations[0].timestamp.tzinfo is None):
                raise DataError(
                    f"{path}:{lineno}: timestamp {ts} mixes timezone-aware and naive "
                    f"timestamps (first was {observations[0].timestamp})"
                )
            if observations and ts < observations[-1].timestamp:
                raise DataError(
                    f"{path}:{lineno}: timestamp {ts} precedes previous "
                    f"{observations[-1].timestamp}"
                )
            observations.append(Observation(ts, value))

    if not observations:
        raise DataError(f"{path}: no data rows")
    _warn_on_irregular_cadence(path, observations)
    return observations


def _warn_on_irregular_cadence(path: Path, observations: list[Observation]):
    if len(observations) < 3:
        return
    deltas = [
        later.timestamp - earlier.timestamp
        for earlier, later in zip(observations, observations[1:])
    ]
    modal, _ = Counter(deltas).most_common(1)[0]
    off = sum(1 for d in deltas if d != modal)
    if off:
        warnings.warn(
            f"{path}: {off} of {len(deltas)} intervals deviate from the modal "
            f"cadence {modal}; points are treated as consecutive indices",
            UserWarning,
            stacklevel=3,
        )


def _parse_label_list(entries, context: str) -> list[datetime]:
    if not isinstance(entries, list):
        raise DataError(f"{context}: expected a list of timestamps, got {type(entries).__name__}")
    stamps = [_parse_timestamp(str(entry), context) for entry in entries]
    for earlier, later in zip(stamps, stamps[1:]):
        if (later.tzinfo is None) != (earlier.tzinfo is None):
            raise DataError(
                f"{context}: label {later} mixes timezone-aware and naive timestamps"
            )
        if later <= earlier:
            raise DataError(f"{context}: label timestamps must be strictly increasing")
    return stamps


def read_labels(path: str | Path, dataset_key: str | None = None) -> LabelSet:
    """Load the label set for ``dataset_key``.

    The file is either a map from dataset keys to label entries (the
    combined-labels layout, the documented default) or a plain list of
    timestamps, in which case the key is ignored and the whole list is
    returned as anomalies.
    """
    path = Path(path)
    try:
        with _open_text(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None

    if isinstance(payload, list):
        return LabelSet(
            dataset_key=dataset_key or "",
            anomaly_timestamps=_parse_label_list(payload, str(path)),
        )
    if not isinstance(payload, dict):
        raise DataError(f"{path}: labels must be a JSON list or object")

    if dataset_key not in payload:
        raise DatasetKeyError(
            f"{path}: dataset key {dataset_key!r} not found; "
            f"available: {sorted(payload)}"
        )
    entry = payload[dataset_key]
    if isinstance(entry, dict):
        anomalies = _parse_label_list(entry.get("anomalies", []), f"{path}[{dataset_key}]")
        signs = _parse_label_list(entry.get("signs", []), f"{path}[{dataset_key}]")
    else:
        anomalies = _parse_label_list(entry, f"{path}[{dataset_key}]")
        signs = []
    return LabelSet(dataset_key=dataset_key, anomaly_timestamps=anomalies, sign_timestamps=signs)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, datetime):
        return value.isoformat(sep=" ")
    return str(value)


class ReportWriter:
    """Incremental report writer: one row per record, flushed as it goes,
    so an interrupted run keeps every decided point."""

    def __init__(self, path: str | Path):
        self._fh = open(path, "w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(REPORT_COLUMNS)

    def write(self, record: DetectionRecord):
        self._writer.writerow(
            [
                record.time_index,
                _format_cell(record.timestamp),
                _format_cell(record.value),
                _format_cell(record.predicted),
                _format_cell(record.aare),
                _format_cell(record.threshold),
                record.phase.value,
                record.verdict.value,
                _format_cell(record.retrained),
                _format_cell(record.decision_time),
            ]
        )
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self) -> "ReportWriter":
        return self

    def __exit__(self, *exc_info):
        self.close()


def _parse_optional_float(text: str) -> float | None:
    return float(text) if text else None


def read_report(path: str | Path) -> list[DetectionRecord]:
    """Read a report back into the records it was written from."""
    path = Path(path)
    records = []
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != REPORT_COLUMNS:
            raise DataError(f"{path}: unexpected report header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(REPORT_COLUMNS):
                raise DataError(f"{path}:{lineno}: malformed report row")
            try:
                records.append(
                    DetectionRecord(
                        time_index=int(row[0]),
                        timestamp=_parse_timestamp(row[1], f"{path}:{lineno}") if row[1] else None,
                        value=float(row[2]),
                        predicted=_parse_optional_float(row[3]),
                        aare=_parse_optional_float(row[4]),
                        threshold=_parse_optional_float(row[5]),
                        phase=Phase(row[6]),
                        verdict=Verdict(row[7]),
                        retrained=row[8] == "true",
                        decision_time=float(row[9]),
                    )
                )
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return records


def write_summary(summary: RunSummary, config: DetectorConfig, path: str | Path):
    payload = {
        "total_points": summary.total_points,
        "retrain_count": summary.retrain_count,
        "eligible_points": summary.eligible_points,
        "retraining_ratio": summary.retraining_ratio,
        "avg_decision_time_s": summary.avg_decision_time,
        "std_decision_time_s": summary.std_decision_time,
        "anomalies": [
            {"index": record.time_index, "timestamp": _format_cell(record.timestamp) or None}
            for record in summary.anomalies
        ],
        "config": {
            "look_back": config.look_back,
            "predict_forward": 1,
            "seed": config.lstm.seed,
            "epsilon": config.epsilon,
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")

