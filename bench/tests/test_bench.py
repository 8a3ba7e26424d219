"""Tests of the replay benchmark itself.

Run with ``python -m pytest bench/tests``. The smoke runs replay a few
hundred points per workload in a subprocess, as the benchmark is run.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import series  # noqa: E402
import verify  # noqa: E402
from presage import Detector, DetectorConfig, Verdict  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every metric the benchmark documents, by the workloads it is defined on.
ALL = ("steady", "bursty", "cli_replay")
END_TO_END = {
    "points_per_s": ALL,
    "step_p50_us": ALL,
    "step_p99_us": ALL,
    "setup_s": ALL,
    "peak_rss_mib": ALL,
    "failed_point_ratio": ALL,
    "recheck_p50_ms": ("bursty",),
    "recheck_p90_ms": ("bursty",),
    "evaluate_s": ("cli_replay",),
}
PER_LAYER = [
    "forecaster.predict_next.calls",
    "forecaster.predict_next.mean_us",
    "forecaster.train.calls",
    "forecaster.train.mean_ms",
    "forecaster.train.epochs_mean",
    "forecaster.train.early_stop_ratio",
    "scoring.aare.calls",
    "scoring.aare.mean_us",
    "detector.self_us",
    "detector.retrain_ratio",
    "detector.model_swap_ratio",
    "data_io.read_series.s",
    "data_io.report_write.mean_us",
    "data_io.summary.s",
    "data_io.read_report.s",
    "data_io.read_labels.s",
    "evaluation.evaluate_run.s",
    "cli.run_detect.self_s",
    "trace_overhead",
    "failed_point_ratio",
]
# Long enough for bursty to reach its first dip, which follows the calm prefix.
SMOKE_POINTS = {"steady": 300, "bursty": 1400, "cli_replay": 300}


def smoke(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--points", str(SMOKE_POINTS[workload])],
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return proc.returncode, json.loads(lines[-1]), printed


@pytest.mark.parametrize("kind", ["steady", "bursty"])
def test_generators_are_deterministic_per_seed(kind):
    generate = getattr(series, kind)
    assert np.array_equal(generate(7, 2), generate(7, 2))
    assert not np.array_equal(generate(7, 2), generate(8, 2))
    assert not np.array_equal(generate(7, 2), generate(7, 3))
    assert series.labels(7, 1000) == series.labels(7, 1000)


def test_bursty_dips_are_isolated_and_follow_the_calm_prefix():
    dips = series.bursty_dips(5, 1)
    assert dips[0] >= series.BURSTY_CALM and dips[-1] < series.BURSTY_POINTS
    assert np.diff(dips).min() >= series.BURSTY_MIN_GAP
    values = series.bursty(5, 1)
    assert (values[dips] < series.LEVEL - 10).all()


def test_benchmark_json_matches_what_the_runs_emit():
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ALL)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_a_unit(workload, trace):
    code, result, printed = smoke(workload, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    expected = PER_LAYER if trace else [n for n, on in END_TO_END.items() if workload in on]
    for name in expected:
        assert name in printed, name
        assert printed[name][1]
    if trace:
        assert printed["trace_overhead"][0] > 0


def _replay(values):
    detector = Detector()
    return [detector.step(v) for v in values]


def test_reference_check_reports_mutated_verdicts_as_failed_points():
    values = series.bursty(1, 0)[:1400].tolist()
    records = _replay(values)
    reference = verify.summarize(records)
    config = DetectorConfig()
    assert reference["anomalies"] and reference["rechecks"]
    assert verify.reference_failures(records, reference) == set()
    assert verify.invariant_failures(values, records, config.look_back, config.epsilon) == set()

    normal = next(t for t, r in enumerate(records) if r.verdict is Verdict.NORMAL)
    alarm = reference["anomalies"][0]
    mutated = list(records)
    mutated[normal] = dataclasses.replace(records[normal], verdict=Verdict.ANOMALY)
    mutated[alarm] = dataclasses.replace(records[alarm], retrained=False)
    mutated[5] = None  # a step that raised
    assert verify.reference_failures(mutated, reference) == {5, normal, alarm}
    assert {normal, alarm} <= verify.invariant_failures(values, mutated, config.look_back, config.epsilon)


def test_reference_digest_covers_the_whole_verdict_column():
    values = series.steady(1, 0)[:300].tolist()
    records = _replay(values)
    reference = verify.summarize(records)
    reference["verdict_sha256"] = "0" * 64
    assert verify.reference_failures(records, reference) == set(range(len(records)))


def test_call_count_identities():
    n, b, r = 1000, 3, 7
    counts = {
        "detector.step": n,
        "forecaster.train": b + 2 + r,
        "forecaster.predict_next": n - b + 1 + r,
        "scoring.aare": n - 2 * b + 1 + r,
    }
    assert run.identity_problems(counts, n, b, r, cli=False) == []
    counts["forecaster.predict_next"] -= 1
    assert len(run.identity_problems(counts, n, b, r, cli=False)) == 1
    assert len(run.identity_problems(counts, n, b, r, cli=True)) == 10
