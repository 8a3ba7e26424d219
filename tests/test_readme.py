"""The Python blocks of README's "Library" section run as written, in order,
in one namespace, with the names they leave to the reader supplied: a small
``stream`` with a spike, an ``alert``, a run's ``records`` and a
``series.csv`` in the working directory."""

import math
import re
from datetime import datetime, timedelta

from presage import DetectionRecord, Detector, RunSummary, Verdict

from helpers import REPO_ROOT, without_timing


def library_blocks() -> list[str]:
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_the_library_blocks_run(tmp_path, monkeypatch):
    start, tick = datetime(2021, 1, 1), timedelta(minutes=5)
    values = [50 + 3 * math.sin(k / 4) for k in range(60)]
    values[40] = 500.0
    stream = [(start + k * tick, v) for k, v in enumerate(values)]
    later = [(start + (60 + k) * tick, 50 + 3 * math.sin((60 + k) / 4)) for k in range(5)]
    (tmp_path / "series.csv").write_text(
        "timestamp,value\n" + "".join(f"{stamp:%Y-%m-%d %H:%M:%S},{value}\n" for stamp, value in later)
    )
    run = Detector()
    alerts = []
    namespace = {"stream": stream, "alert": alerts.append, "records": [run.step(v, t) for t, v in stream]}
    monkeypatch.chdir(tmp_path)

    blocks = library_blocks()
    assert len(blocks) == 3
    for block in blocks:
        exec(block, namespace)

    # the README's detector runs the defaults, so it alerts where the default run reports
    anomalies = [r for r in namespace["records"] if r.verdict is Verdict.ANOMALY]
    assert without_timing(alerts) == without_timing(anomalies) and alerts[0].time_index == 40
    assert isinstance(namespace["summary"], RunSummary) and namespace["summary"].total_points == 60
    record = namespace["record"]
    assert isinstance(record, DetectionRecord) and (record.time_index, record.timestamp) == (64, later[-1][0])
