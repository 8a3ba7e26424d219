"""Reading time series and labels, writing reports, run summaries and evaluations.

File formats (all documented here, bit-exactly):

* Series input: delimited text with a header line naming a ``timestamp``
  and a ``value`` column (case-insensitive; extra columns are ignored).
  Timestamps are ISO 8601 as ``datetime.fromisoformat`` reads it on Python 3.11+:
  ``YYYY-MM-DD HH:MM[:SS[.ffffff]]``, but also ``2014-01-01T00:05Z`` (aware,
  UTC), ``20140101T0005``, ``2014-W01-3 00:05`` or a bare date.
* Labels: JSON, each timestamp a JSON string. Either a plain list of
  timestamps (all anomalies), or a map from dataset key to an entry; an
  entry is a list of anomaly timestamps or an object ``{"anomalies": [...],
  "signs": [...]}`` where ``signs`` holds labeled precursor instants; any
  other key is an error. Signs are accepted and checked like anomalies,
  but not scored: ``read_labels`` returns only the anomalies.
* Report output: CSV with one row per ingested point and columns
  ``index,timestamp,value,predicted,aare,threshold,phase,verdict,
  retrained,decision_time_s``. Fields that are undefined for the row's
  phase are left empty; ``retrained`` is ``true`` or ``false``. Floats use
  shortest round-trip repr, so a report read back yields the records it
  was written from; read back, a NaN or inf in a number column is an error.
* Run summary: JSON of an ``evaluation.RunSummary`` (its retraining
  ratio included, anomalies as index and timestamp) plus the detector
  config it came from.
* Evaluation: JSON of an ``evaluation.EvaluationSummary`` (a lead time per
  label, the false warnings, the run summary's ratio and decision times)
  plus the settings it was scored with.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections import Counter
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path
from typing import Iterator

from .detector import DetectionRecord, DetectorConfig, Phase, Verdict, _check_order
from .errors import DataError, OrderingError
from .evaluation import EvaluationSummary, RunSummary

__all__ = [
    "read_series",
    "read_labels",
    "ReportWriter",
    "read_report",
    "write_summary",
    "write_evaluation",
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


def _parse_timestamp(text: str, where: str, *args) -> datetime:
    """The one timestamp parser; ``DataError`` after ``where.format(*args)`` if unparsable."""
    try:
        return datetime.fromisoformat(text.strip())
    except (AttributeError, ValueError):  # AttributeError: a label that is no JSON string
        raise DataError(f"{where.format(*args)}unparsable timestamp {text!r}") from None


@contextmanager
def _open_text(path: Path):
    """Open an input file as UTF-8 text, a leading byte-order mark skipped; bytes
    that are not UTF-8 and CSV errors met in the ``with`` body are a ``DataError``."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def read_series(path: str | Path) -> Iterator[tuple[datetime, float]]:
    """Iterate over a series file's ``(timestamp, value)`` pairs, parsing
    each row as it is consumed; the file is opened and its header checked
    on the call.

    A timestamp whose timezone awareness differs from the previous one's,
    or a non-finite value, is a ``DataError`` with the line number, and a
    decreasing timestamp an ``OrderingError`` (a ``DataError`` too);
    duplicate timestamps are accepted in order. The file is decoded as
    every input file is (``_open_text``). At the end, a file without rows
    is a ``DataError``, and a ``UserWarning`` says when intervals deviate
    from the modal cadence (points are treated as equally spaced).
    """
    rows = _series_rows(Path(path))
    next(rows)  # runs to the header check
    return rows


#: The cadence tally keeps at most this many distinct intervals, so it stays
#: small when every interval differs; later new intervals count as deviating.
_CADENCE_SLOTS = 32


def _series_rows(path: Path):
    with _open_text(path) as fh:
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
        yield None

        previous = None
        intervals: Counter = Counter()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= max(ts_col, val_col):
                raise DataError(f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}")
            ts = _parse_timestamp(row[ts_col], "{}:{}: ", path, lineno)
            try:
                value = float(row[val_col])
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparsable value {row[val_col]!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value {value}")
            if previous is not None:
                _check_order(previous, ts, "{}:{}: ", path, lineno)
                if (delta := ts - previous) in intervals or len(intervals) < _CADENCE_SLOTS:
                    intervals[delta] += 1
                else:
                    intervals[None] += 1
            previous = ts
            yield ts, value

    if previous is None:
        raise DataError(f"{path}: no data rows")
    total = intervals.total()
    modal = max((d for d in intervals if d is not None), key=intervals.__getitem__, default=None)
    off = total - intervals[modal]
    if off:
        warnings.warn(
            f"{path}: {off} of {total} intervals deviate from the modal "
            f"cadence {modal}; points are treated as consecutive indices",
            UserWarning,
            stacklevel=2,
        )


def _parse_label_list(entries, context: str) -> list[datetime]:
    if not isinstance(entries, list):
        raise DataError(f"{context}: expected a list of timestamps, got {type(entries).__name__}")
    stamps = [_parse_timestamp(entry, "{}: ", context) for entry in entries]
    rule = "{}: label timestamps must be strictly increasing, all aware or all naive: "
    for earlier, later in zip(stamps, stamps[1:]):
        _check_order(earlier, later, rule, context)
        if later == earlier:
            raise OrderingError(f"{rule.format(context)}timestamp {later} repeats the previous one")
    return stamps


def read_labels(path: str | Path, dataset_key: str | None = None) -> list[datetime]:
    """Load the anomaly instants labeled for ``dataset_key``.

    The file is either a map from dataset keys to label entries (the
    combined-labels layout, the documented default) or a plain list of
    timestamps, returned whole with the key ignored. A map read without a
    key, or one that lacks it, is a ``DataError`` naming the available keys.
    An entry's ``signs`` are checked like its anomalies, then dropped unscored.
    """
    path = Path(path)
    try:
        with _open_text(path) as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # ValueError: also an int past 4300 digits
        raise DataError(f"{path}: invalid JSON: {exc}") from None

    if isinstance(payload, list):
        return _parse_label_list(payload, str(path))
    if not isinstance(payload, dict):
        raise DataError(f"{path}: labels must be a JSON list or object")

    if dataset_key is None:
        raise DataError(
            f"{path} is a map of dataset keys to labels: pass --dataset-key "
            f"with one of {sorted(payload)}"
        )
    if dataset_key not in payload:
        raise DataError(
            f"{path}: dataset key {dataset_key!r} not found; "
            f"available: {sorted(payload)}"
        )
    entry = payload[dataset_key]
    context = f"{path}[{dataset_key}]"
    if not isinstance(entry, dict):
        return _parse_label_list(entry, context)
    unknown = sorted(entry.keys() - {"anomalies", "signs"})
    if unknown:
        raise DataError(
            f"{context}: unknown entry key {unknown[0]!r}; entries take only 'anomalies' and 'signs'"
        )
    anomalies = _parse_label_list(entry.get("anomalies", []), f"{context}.anomalies")
    _parse_label_list(entry.get("signs", []), f"{context}.signs")
    return anomalies


class ReportWriter:
    """Incremental report writer: one row per record, flushed as it goes,
    so an interrupted run keeps every decided point."""

    def __init__(self, path: str | Path):
        self._fh = open(path, "w", newline="", encoding="utf-8")
        self._fh.write(",".join(REPORT_COLUMNS) + "\r\n")

    def write(self, record: DetectionRecord):
        # Equal to ``csv.writer``'s bytes: no cell holds a delimiter, a quote
        # or a line break, so none needs quoting.
        r, ts = record, record.timestamp
        self._fh.write(
            f"{r.time_index},{'' if ts is None else ts.isoformat(sep=' ')},{r.value!r},"
            f"{'' if r.predicted is None else repr(r.predicted)},"
            f"{'' if r.aare is None else repr(r.aare)},"
            f"{'' if r.threshold is None else repr(r.threshold)},{r.phase.value},"
            f"{r.verdict.value},{'true' if r.retrained else 'false'},{r.decision_time!r}\r\n"
        )
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self) -> "ReportWriter":
        return self

    def __exit__(self, *exc_info):
        self.close()


def read_report(path: str | Path) -> list[DetectionRecord]:
    """Read a report back into the records it was written from; a bad cell, or a NaN
    or inf outside ``decision_time_s`` (``summarize_run``'s), is a ``DataError``."""
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
            timestamp = _parse_timestamp(row[1], "{}:{}: ", path, lineno) if row[1] else None
            if row[8] not in ("true", "false"):
                raise DataError(f"{path}:{lineno}: retrained must be true or false, got {row[8]!r}")
            try:
                value = float(row[2])
                predicted, aare, threshold = [float(cell) if cell else None for cell in row[3:6]]
                records.append(DetectionRecord(
                    int(row[0]), timestamp, value, predicted, aare, threshold,
                    Phase(row[6]), Verdict(row[7]), row[8] == "true", float(row[9]),
                ))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            for column, number in enumerate((value, predicted, aare, threshold), 2):
                if number is not None and not math.isfinite(number):
                    raise DataError(f"{path}:{lineno}: non-finite {REPORT_COLUMNS[column]} {number}")
    return records


def _run_fields(run: RunSummary) -> dict:
    """The fields both summary files take from a ``RunSummary``."""
    return {
        "retraining_ratio": run.retraining_ratio,
        "avg_decision_time_s": run.avg_decision_time,
        "std_decision_time_s": run.std_decision_time,
    }


def write_summary(summary: RunSummary, config: DetectorConfig, seed: int, path: str | Path):
    payload = {
        "total_points": summary.total_points,
        "retrain_count": summary.retrain_count,
        "eligible_points": summary.eligible_points,
        **_run_fields(summary),
        "anomalies": [
            {"index": r.time_index, "timestamp": r.timestamp and r.timestamp.isoformat(sep=" ")}
            for r in summary.anomalies
        ],
        "config": {
            "look_back": config.look_back,
            "predict_forward": 1,
            "seed": seed,
            "epsilon": config.epsilon,
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_evaluation(summary: EvaluationSummary, params: dict, path: str | Path):
    """Write an evaluation's scoreboard, with ``params`` (the settings it
    was scored with) echoed under ``"params"``."""
    payload = {
        "labels": [
            {
                "label_timestamp": r.label_timestamp.isoformat(sep=" "),
                "first_report_timestamp": (
                    r.first_report_timestamp and r.first_report_timestamp.isoformat(sep=" ")
                ),
                "lead_minutes": r.lead_minutes,
                "status": r.status.value,
            }
            for r in summary.lead_times
        ],
        "false_warnings": summary.false_warning_count,
        **_run_fields(summary.run),
        "params": params,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

