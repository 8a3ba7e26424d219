"""Acceptance suite: one test per criterion, loose tolerances, fixed seeds.

Criteria 1, 2 and 8 replay the two benchmark series; the CSVs are not
redistributable with this repo, so those tests skip unless the files
are present under data/nab/ (or NAB_DATA_DIR). Everything else runs
self-contained. Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines.
"""

import csv
import json
import time
from datetime import datetime

import numpy as np
import pytest

from presage.cli import main
from presage.data_io import read_labels, read_series
from presage.detector import Detector, DetectorConfig, LstmEngine, Verdict, _phase_of
from presage.evaluation import LeadStatus, evaluate_run, summarize_run
from presage.forecaster import LstmConfig
from presage.scoring import aare

from helpers import (
    CPU_B3B_KEY,
    DETECTOR_SEED,
    LABELS_PATH,
    MTSF_KEY,
    PerfectEngine,
    RecordingEngine,
    SPIKE_SHIFT_INDEX,
    aare_oracle,
    cpu_b3b_path,
    finite_difference_grads,
    loss_and_grads,
    max_relative_gradient_error,
    missing_dataset_reason,
    mtsf_path,
    phase_oracle,
    running_threshold,
    spike_timestamps,
    spike_values,
    threshold_oracle,
)
from test_forecaster import random_model

requires_cpu_b3b = pytest.mark.skipif(
    not cpu_b3b_path().exists(), reason=missing_dataset_reason(cpu_b3b_path())
)
requires_mtsf = pytest.mark.skipif(
    not mtsf_path().exists(), reason=missing_dataset_reason(mtsf_path())
)


def replay(path, seed=DETECTOR_SEED):
    observations = read_series(path)
    engine = RecordingEngine(LstmConfig(seed=seed))
    detector = Detector(engine=engine)
    started = time.perf_counter()
    records = [detector.step(value, timestamp) for timestamp, value in observations]
    elapsed = time.perf_counter() - started
    return records, detector, engine, elapsed


@pytest.fixture(scope="module")
def cpu_replay():
    return replay(cpu_b3b_path())


@pytest.fixture(scope="module")
def mtsf_replay():
    return replay(mtsf_path())


@requires_cpu_b3b
def test_criterion_1_cpu_b3b_replay(cpu_replay):
    records, detector, _, elapsed = cpu_replay
    assert len(records) == 4032

    labels = read_labels(LABELS_PATH, CPU_B3B_KEY)
    results = evaluate_run(records, labels).lead_times
    for result in results:
        assert result.status in (LeadStatus.ON_TIME, LeadStatus.PROACTIVE), (
            f"label {result.label_timestamp} has status {result.status.value}"
        )

    run = summarize_run(records)
    ratio = run.retraining_ratio
    assert ratio <= 0.03
    avg_decision = run.avg_decision_time
    assert avg_decision < 0.1
    assert elapsed < 600
    print(
        f"\n[PASS] criterion 1: CPU-b3b replay — statuses "
        f"{[r.status.value for r in results]}, retraining ratio {ratio:.2%}, "
        f"avg decision {avg_decision * 1000:.2f} ms, total {elapsed:.1f} s"
    )


@requires_mtsf
def test_criterion_2_mtsf_replay(mtsf_replay):
    records, detector, _, _ = mtsf_replay
    assert len(records) == 22695

    labels = read_labels(LABELS_PATH, MTSF_KEY)
    results = evaluate_run(records, labels).lead_times
    assert all(result.status is not LeadStatus.MISSED for result in results), (
        f"statuses: {[r.status.value for r in results]}"
    )
    first = results[0]
    assert first.status is LeadStatus.PROACTIVE and first.lead_minutes >= 60

    ratio = summarize_run(records).retraining_ratio
    assert ratio <= 0.03

    # ``read_labels`` does not return signs: read the precursor instant directly
    second_anomaly = labels[1]
    sign = datetime.fromisoformat(json.loads(LABELS_PATH.read_text())[MTSF_KEY]["signs"][0])
    quiet_span_warnings = sum(
        1
        for record in records
        if record.verdict is Verdict.ANOMALY
        and second_anomaly < record.timestamp < sign
    )
    assert quiet_span_warnings <= 5
    print(
        f"\n[PASS] criterion 2: MTSF replay — first lead "
        f"{first.lead_minutes:.0f} min, statuses {[r.status.value for r in results]}, "
        f"retraining ratio {ratio:.2%}, quiet-span warnings {quiet_span_warnings}"
    )


def test_criterion_3_aare_oracle_equivalence():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        size = int(rng.integers(1, 11))
        observed = rng.uniform(-100, 100, size)
        predicted = rng.uniform(-100, 100, size)
        if rng.random() < 0.1:
            observed[rng.integers(0, size)] *= 1e-7  # exercise the epsilon floor
        expected = aare_oracle(observed, predicted)
        # rel covers epsilon-floored scores of magnitude ~1e6, where 1e-12
        # absolute agreement is finer than float64 resolution
        assert aare(observed, predicted) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    print("\n[PASS] criterion 3: aare matches direct evaluation on 1000 random windows")


def test_criterion_4_threshold_oracle_equivalence():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        size = int(rng.integers(1, 51))
        history = rng.uniform(0, 5, size)
        assert running_threshold(history) == pytest.approx(
            threshold_oracle(history), abs=1e-12
        )
    assert running_threshold([0.1, 0.2, 0.3]) == pytest.approx(0.44495, abs=1e-5)
    print(
        "\n[PASS] criterion 4: the running threshold matches two-pass mean + 3*sigma "
        "on 1000 random histories and the 0.44495 fixture"
    )


def test_criterion_5_phase_guards_and_quiet_preparation():
    for look_back in range(2, 7):
        for t in range(0, 101):
            assert _phase_of(t, look_back) is phase_oracle(t, look_back)

    rng = np.random.default_rng(55)
    fast = LstmConfig(max_epochs=10, seed=DETECTOR_SEED)
    for _ in range(100):
        look_back = int(rng.integers(2, 7))
        series = rng.uniform(5, 95, 3 * look_back + 6)
        detector = Detector(DetectorConfig(look_back=look_back), LstmEngine(fast))
        for value in series:
            record = detector.step(value)
            if record.time_index < 2 * look_back + 1:
                assert record.verdict is not Verdict.ANOMALY
    print(
        "\n[PASS] criterion 5: phase guards hold for t in [0, 100], b in [2, 6]; "
        "no anomaly verdict before t = 2b+1 on 100 random series"
    )


def test_criterion_6_perfect_predictor_never_alarms():
    rng = np.random.default_rng(66)
    for trial in range(100):
        look_back = int(rng.integers(2, 5))
        magnitudes = rng.uniform(0.5, 100, 40)
        signs = np.where(rng.random(40) < 0.3, -1.0, 1.0) if trial % 2 else 1.0
        series = magnitudes * signs  # finite, never zero
        engine = PerfectEngine(series, look_back)
        detector = Detector(DetectorConfig(look_back=look_back), engine=engine)
        records = [detector.step(v) for v in series]
        assert not any(r.retrained for r in records)
        assert all(r.verdict is not Verdict.ANOMALY for r in records)
    print(
        "\n[PASS] criterion 6: a perfect predictor yields zero retrains and zero "
        "anomalies on 100 random zero-free series"
    )


def test_criterion_7_gradients_and_epoch_bounds():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        model = random_model(rng, hidden_units=int(rng.integers(2, 8)))
        steps = int(rng.integers(2, 6))
        inputs = rng.normal(size=steps)
        targets = rng.normal(size=steps)
        _, analytic = loss_and_grads(model, inputs, targets)
        numeric = finite_difference_grads(model, inputs, targets, step=1e-5)
        worst = max(worst, max_relative_gradient_error(analytic, numeric))
    assert worst <= 1e-4

    epoch_counts = list(_spike_replay()[2].epoch_counts)
    for path in (cpu_b3b_path(), mtsf_path()):
        if path.exists():
            epoch_counts.extend(replay(path)[2].epoch_counts)
    assert epoch_counts
    assert all(1 <= n <= 50 for n in epoch_counts)
    print(
        f"\n[PASS] criterion 7: worst gradient error {worst:.2e} over 20 pairs; "
        f"epochs within [1, 50] on {len(epoch_counts)} training calls"
    )


def test_criterion_7_gradients_on_long_windows_and_single_unit():
    # the default look-back trains on 2 steps; 12 steps exercise the
    # stacked gate-error accumulation across many steps
    rng = np.random.default_rng(78)
    worst = 0.0
    for hidden_units, steps in ((1, 2), (1, 12), (3, 12), (10, 12)):
        model = random_model(rng, hidden_units=hidden_units)
        inputs = rng.normal(size=steps)
        targets = rng.normal(size=steps)
        _, analytic = loss_and_grads(model, inputs, targets)
        numeric = finite_difference_grads(model, inputs, targets, step=1e-5)
        worst = max(worst, max_relative_gradient_error(analytic, numeric))
    assert worst <= 1e-4
    print(
        f"\n[PASS] criterion 7: worst gradient error {worst:.2e} on 12-step windows "
        "and hidden_units=1"
    )


@requires_cpu_b3b
def test_criterion_8_cpu_b3b_determinism(tmp_path):
    reports = []
    for name in ("first.csv", "second.csv"):
        report = tmp_path / name
        code = main(
            [
                "detect",
                "--input", str(cpu_b3b_path()),
                "--report", str(report),
                "--seed", str(DETECTOR_SEED),
            ]
        )
        assert code == 0
        reports.append(report)

    runs = []
    for report in reports:
        with open(report, newline="") as fh:
            runs.append([row[:-1] for row in csv.reader(fh)])  # drop decision_time
    assert runs[0] == runs[1]
    verdict_column = runs[0][0].index("verdict")
    retrained_column = runs[0][0].index("retrained")
    retrains = sum(1 for row in runs[0][1:] if row[retrained_column] == "true")
    print(
        f"\n[PASS] criterion 8: two seeded CPU-b3b runs identical except timing "
        f"({retrains} retrains, verdict column {verdict_column} matched on "
        f"{len(runs[0]) - 1} rows)"
    )


def _spike_replay():
    values = spike_values()
    stamps = spike_timestamps()
    engine = RecordingEngine(LstmConfig(seed=DETECTOR_SEED))
    detector = Detector(engine=engine)
    records = [detector.step(v, ts) for v, ts in zip(values, stamps)]
    return records, detector, engine


def test_criterion_9_synthetic_level_shift():
    records, _, _ = _spike_replay()
    anomalies = [r.time_index for r in records if r.verdict is Verdict.ANOMALY]
    near = [i for i in anomalies if abs(i - SPIKE_SHIFT_INDEX) <= 12]
    elsewhere = [i for i in anomalies if abs(i - SPIKE_SHIFT_INDEX) > 12]
    assert len(near) >= 1, f"no anomaly within 12 points of the shift; got {anomalies}"
    assert len(elsewhere) <= 3, f"too many anomalies away from the shift: {elsewhere}"
    print(
        f"\n[PASS] criterion 9: level-shift fixture flagged at {near}, "
        f"{len(elsewhere)} reports elsewhere"
    )
