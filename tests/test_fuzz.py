"""Mutated series, report and labels files through ``presage.cli.main``, in process.

Every run must end with exit code 0, 1 or 2, raise nothing else, print at
most one ``error:`` line, leave its input files byte for byte as they were,
and, when it fails, write no summary. The mutations are those of a hand-run
fuzz: cells replaced by tokens that once broke a reader (``nan``, ``1e400``,
full-width digits, NUL, a byte-order mark, ``24:00``, year 9999, ...), rows
duplicated, deleted, truncated, swapped or inserted, other encodings and
line endings, and label files of every shape.
"""

import contextlib
import functools
import io
import json
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from presage.cli import main

START = datetime(2020, 1, 1)
STAMPS = [(START + k * timedelta(minutes=5)).isoformat(sep=" ") for k in range(24)]
SERIES_LINES = ["timestamp,value"] + [f"{s},{50 + (k * 7) % 5 + (30 if k == 17 else 0)}" for k, s in enumerate(STAMPS)]

TOKENS = st.sampled_from(
    [
        "nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0x10", "５０", "\x00", "﻿", "",
        " ", "-", '"', ",", "\\", "24:00", "2020-01-01 24:00:00", "9999-12-31 23:59:59",
        "0001-01-01 00:00:00", "2020-02-30 00:00:00", "2020-01-01T00:05:00+05:00", "true", "false",
        "normal", "anomaly", "pending", "detecting", "warmup", "-1", "1" * 5000, STAMPS[3],
    ]
) | st.text(max_size=8)
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["cell", "duplicate", "delete", "truncate", "swap", "insert"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        TOKENS,
    ),
    max_size=4,
)
ENCODINGS = st.sampled_from(["utf-8", "utf-8", "utf-8-sig", "latin-1", "utf-16"])
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


def mutate(lines: list[str], edits) -> list[str]:
    """``lines`` with each edit ``(kind, i, j, token)`` applied in turn; the row
    and cell indices wrap around what is there."""
    lines = list(lines)
    for kind, i, j, token in edits:
        if not lines:
            lines.append(token)
            continue
        i %= len(lines)
        if kind == "cell":
            cells = lines[i].split(",")
            cells[j % len(cells)] = token
            lines[i] = ",".join(cells)
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "delete":
            del lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][: j % (len(lines[i]) + 1)]
        elif kind == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, token)
    return lines


def encode(lines: list[str], newline: str, encoding: str) -> bytes:
    return newline.join(lines).encode(encoding, errors="replace")


def run_cli(argv: list[str], inputs: list[Path], summary: Path) -> int:
    """``main(argv)``'s exit code, after checking what every run must keep."""
    before = {path: path.read_bytes() for path in inputs}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) <= 1, err
    assert all(path.read_bytes() == data for path, data in before.items())
    if code != 0:
        assert not summary.exists(), err
    event(f"exit {code}")
    return code


@functools.lru_cache(maxsize=1)
def good_report_lines() -> tuple[str, ...]:
    """The report ``detect`` writes for the unmutated series."""
    with tempfile.TemporaryDirectory() as tmp:
        series, report = Path(tmp, "series.csv"), Path(tmp, "report.csv")
        series.write_text("\n".join(SERIES_LINES) + "\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["detect", "--input", str(series), "--report", str(report)]) == 0
        return tuple(report.read_text().splitlines())


LABEL_LISTS = st.lists(st.sampled_from(STAMPS) | TOKENS | st.integers() | st.none(), max_size=3)
LABEL_ENTRIES = LABEL_LISTS | st.fixed_dictionaries(
    {"anomalies": LABEL_LISTS}, optional={"signs": LABEL_LISTS, "other": st.integers()}
)
VALID_LABELS = st.lists(st.sampled_from(STAMPS), max_size=3, unique=True).map(sorted)
LABELS = st.one_of(
    VALID_LABELS,
    st.fixed_dictionaries({"s": VALID_LABELS | st.fixed_dictionaries({"anomalies": VALID_LABELS})}),
    LABEL_LISTS,
    st.dictionaries(st.sampled_from(["s", "other", ""]), LABEL_ENTRIES, max_size=2),
    st.integers() | st.floats() | st.none() | TOKENS,
)
LABEL_TEXTS = st.one_of(
    LABELS.map(json.dumps),
    st.sampled_from(["[" * 100_000, "1" * 5000, "[" + "1" * 5000 + "]", '{"s": ', "NaN", ""]),
)


@pytest.mark.filterwarnings("ignore:.*intervals deviate from the modal cadence:UserWarning")
@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    edits=EDITS,
    newline=NEWLINES,
    encoding=ENCODINGS,
    options=st.sampled_from([[], [], ["--look-back", "2"], ["--look-back", "5"], ["--epsilon", "nan"], ["--seed", "-1"]]),
)
def test_a_mutated_series_is_detected_or_refused_cleanly(edits, newline, encoding, options):
    with tempfile.TemporaryDirectory() as tmp:
        series, report, summary = Path(tmp, "series.csv"), Path(tmp, "report.csv"), Path(tmp, "summary.json")
        series.write_bytes(encode(mutate(SERIES_LINES, edits), newline, encoding))
        argv = ["detect", "--input", str(series), "--report", str(report), "--summary", str(summary), *options]
        run_cli(argv, [series], summary)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(
    edits=EDITS,
    newline=NEWLINES,
    encoding=ENCODINGS,
    labels=LABEL_TEXTS,
    label_edits=st.lists(st.tuples(st.integers(0, 10**6), TOKENS), max_size=1),
    key=st.sampled_from([["--dataset-key", "s"], [], ["--dataset-key", "other"]]),
    spans=st.sampled_from([[], [], [], ["--pre-window", "0"], ["--grace", "-1"], ["--pre-window", "1e300"]]),
)
def test_a_mutated_report_and_labels_are_evaluated_or_refused_cleanly(
    edits, newline, encoding, labels, label_edits, key, spans
):
    for at, token in label_edits:  # text edits, which may break the JSON
        at %= len(labels) + 1
        labels = labels[:at] + token + labels[at:]
    with tempfile.TemporaryDirectory() as tmp:
        report, labels_path = Path(tmp, "report.csv"), Path(tmp, "labels.json")
        summary = Path(tmp, "eval.json")
        report.write_bytes(encode(mutate(good_report_lines(), edits), newline, encoding))
        labels_path.write_bytes(labels.encode("utf-8", errors="replace"))
        argv = ["evaluate", "--report", str(report), "--labels", str(labels_path), "--summary", str(summary)]
        run_cli([*argv, *key, *spans], [report, labels_path], summary)
