"""Lead time on series with a precursor, through ``presage detect`` and ``evaluate``.

Early warning is the paper's central claim, and the NAB replays that would
show it skip without their CSVs. These series (``precursors.py``) put a
288-point warning sign before a level drop. The table pins what the
detector does on each of them; it does not ask for a lead. Only verdict
indices are pinned, since verdicts are what holds across BLAS builds.
"""

import contextlib
import io
import json

import pytest

from presage.cli import main
from presage.data_io import read_report
from presage.detector import Verdict

from precursors import ONSET, PRECURSOR, write_precursor_files

# (family, seed): first anomaly index, onset label's status and lead minutes.
PINNED = {
    ("drift", 1): (6000, "on_time", 0.0),
    ("drift", 2): (6000, "on_time", 0.0),
    ("drift", 3): (6000, "on_time", 0.0),
    ("drift", 4): (6000, "on_time", 0.0),
    ("variance", 1): (5992, "proactive", 40.0),
    ("variance", 2): (6000, "on_time", 0.0),
    ("variance", 3): (6000, "on_time", 0.0),
    ("variance", 4): (5982, "proactive", 90.0),
    ("oscillation", 1): (6000, "on_time", 0.0),
    ("oscillation", 2): (6000, "on_time", 0.0),
    ("oscillation", 3): (6000, "on_time", 0.0),
    ("oscillation", 4): (6000, "on_time", 0.0),
}


@pytest.mark.parametrize("family, seed", list(PINNED), ids=[f"{f}-{s}" for f, s in PINNED])
def test_first_warning_and_lead_on_a_precursor_series(tmp_path, family, seed):
    series, labels, key = write_precursor_files(tmp_path, family, seed)
    report = tmp_path / "report.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["detect", "--input", str(series), "--report", str(report)]) == 0
        assert main(["evaluate", "--report", str(report), "--labels", str(labels),
                     "--dataset-key", key]) == 0
    anomalies = [r.time_index for r in read_report(report) if r.verdict is Verdict.ANOMALY]
    label, = json.loads(report.with_suffix(".eval.json").read_text())["labels"]

    first, status, lead = PINNED[family, seed]
    assert anomalies and anomalies[0] >= ONSET - PRECURSOR  # quiet before the precursor
    assert anomalies[0] == first
    assert (label["status"], label["lead_minutes"]) == (status, lead)
