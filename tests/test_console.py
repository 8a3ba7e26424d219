"""The console smoke cases, run through ``python -m presage.cli`` in a child
process: exit codes, the files each run leaves, and no traceback on stderr.
CI also runs the installed ``presage`` script once and checks its metadata."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import presage

SRC = Path(presage.__file__).resolve().parents[1]
TINY_LABELS = ["2020-01-01 02:00:00"]


def presage_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run ``presage`` with ``args`` in ``cwd``; no traceback may reach stderr. A file
    opened in the locale's encoding is an ``EncodingWarning``, raised as an error."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "presage.cli", *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert "Traceback" not in done.stderr, done.stderr
    return done


@pytest.fixture(scope="module")
def tiny(tmp_path_factory) -> Path:
    """A directory with a 60-point series, its labels and the report of ``presage detect``."""
    root = tmp_path_factory.mktemp("console")
    rows = [
        f"2020-01-01 {k // 12:02d}:{k % 12 * 5:02d}:00,{50 + 3 * math.sin(k / 4):.3f}\n" for k in range(60)
    ]
    (root / "tiny.csv").write_text("timestamp,value\n" + "".join(rows))
    (root / "tiny-labels.json").write_text(json.dumps(TINY_LABELS))
    assert presage_cli(root, "detect", "--input", "tiny.csv", "--report", "tiny-report.csv").returncode == 0
    return root


def test_evaluate_takes_plain_and_map_labels_and_byte_order_marks(tiny):
    signed = {"tiny.csv": {"anomalies": TINY_LABELS, "signs": ["2020-01-01 01:30:00"]}}
    (tiny / "tiny-map.json").write_text(json.dumps(signed))
    for name in ("tiny-report.csv", "tiny-labels.json"):
        (tiny / f"bom-{name.removeprefix('tiny-')}").write_bytes(b"\xef\xbb\xbf" + (tiny / name).read_bytes())
    for args in (
        ["--report", "tiny-report.csv", "--labels", "tiny-labels.json"],
        ["--report", "tiny-report.csv", "--labels", "tiny-map.json", "--dataset-key", "tiny.csv"],
        ["--report", "bom-report.csv", "--labels", "bom-labels.json"],
    ):
        assert presage_cli(tiny, "evaluate", *args).returncode == 0, args


def test_bad_inputs_exit_one(tiny):
    (tiny / "latin1.csv").write_bytes(b"timestamp,value\n2020-01-01 00:00:00,1.0 \xb0C\n")
    report = (tiny / "tiny-report.csv").read_text().splitlines(keepends=True)
    (tiny / "short-report.csv").write_text("".join(report[:5]))  # 4 of the ramp's 5 points
    (tiny / "misspelled-map.json").write_text(json.dumps({"tiny.csv": {"anomaly": TINY_LABELS}}))
    for args in (
        ["detect", "--input", "latin1.csv", "--report", "latin1-report.csv"],
        ["evaluate", "--report", "short-report.csv", "--labels", "tiny-labels.json"],
        ["evaluate", "--report", "tiny-report.csv", "--labels", "misspelled-map.json", "--dataset-key", "tiny.csv"],
    ):
        assert presage_cli(tiny, *args).returncode == 1, args


def test_a_bad_value_keeps_the_rows_decided_before_it(tiny):
    lines = (tiny / "tiny.csv").read_text().splitlines(keepends=True)
    (tiny / "midway.csv").write_text("".join([*lines[:31], "2020-01-01 02:30:00,oops\n", *lines[-5:]]))
    done = presage_cli(tiny, "detect", "--input", "midway.csv", "--report", "midway-report.csv")
    assert done.returncode == 1
    assert "midway.csv:32: unparsable value 'oops'" in done.stderr
    assert len((tiny / "midway-report.csv").read_text().splitlines()) == 31
    assert not (tiny / "midway-report.summary.json").exists()


def test_a_cadence_warning_is_one_warning_line(tiny):
    lines = (tiny / "tiny.csv").read_text().splitlines(keepends=True)
    (tiny / "gap.csv").write_text("".join([*lines[:31], *lines[32:]]))  # one 10-minute interval
    done = presage_cli(tiny, "detect", "--input", "gap.csv", "--report", "gap-report.csv")
    assert done.returncode == 0
    assert done.stderr == (
        "warning: gap.csv: 1 of 58 intervals deviate from the modal cadence 0:05:00; "
        "points are treated as consecutive indices\n"
    )


def test_usage_errors_exit_two_and_touch_no_file(tiny):
    before = {name: (tiny / name).read_bytes() for name in ("tiny.csv", "tiny-report.csv")}
    detect = ["detect", "--input", "tiny.csv", "--report", "usage-report.csv"]
    evaluate = ["evaluate", "--report", "tiny-report.csv", "--labels", "tiny-labels.json"]
    stderr = ""
    for args in (
        [*detect, "--seed", "-1"],
        [*detect, "--epsilon", "nan"],
        [*detect, "--look-back", "1"],
        [*evaluate, "--pre-window", "inf"],
        ["detect", "--input", "tiny.csv", "--report", "tiny.csv"],
        [*evaluate, "--summary", "tiny-report.csv"],
    ):
        done = presage_cli(tiny, *args)
        assert done.returncode == 2, args
        stderr += done.stderr
    assert "presage detect: error: look_back" in stderr
    assert not (tiny / "usage-report.csv").exists()
    assert {name: (tiny / name).read_bytes() for name in before} == before
