import contextlib
import csv
import io
import json
import math
import os
import tracemalloc
import warnings
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from presage.cli import build_parser, main
from presage.data_io import read_report, read_series, write_summary
from presage.detector import Detector, DetectorConfig, LstmEngine, Verdict, _phase_of
from presage.evaluation import summarize_run
from presage.forecaster import LstmConfig

from helpers import (
    SPIKE_SHIFT_INDEX,
    SPIKE_START,
    make_record,
    spike_timestamps,
    spike_values,
    write_records,
    write_series_csv,
)


def detect_args(input_path, report_path, extra=()):
    return ["detect", "--input", str(input_path), "--report", str(report_path), *extra]


def rows_without_decision_time(path):
    with open(path, newline="") as fh:
        return [row[:-1] for row in csv.reader(fh)]


@pytest.fixture()
def spike_csv(tmp_path):
    path = tmp_path / "spike.csv"
    write_series_csv(path, spike_values())
    return path


class TestDetect:
    def test_constant_series_stays_quiet(self, tmp_path, capsys):
        series = tmp_path / "flat.csv"
        write_series_csv(series, [50.0] * 100)
        report = tmp_path / "report.csv"
        assert main(detect_args(series, report)) == 0

        records = read_report(report)
        assert len(records) == 100
        assert all(r.verdict is not Verdict.ANOMALY for r in records)
        assert not any(
            line.startswith("ANOMALY") for line in capsys.readouterr().out.splitlines()
        )
        summary = json.loads(report.with_suffix(".summary.json").read_text())
        assert summary["total_points"] == 100
        assert summary["anomalies"] == []

    def test_spike_series_notifies_on_stdout(self, tmp_path, spike_csv, capsys):
        report = tmp_path / "report.csv"
        assert main(detect_args(spike_csv, report, ["--seed", "42"])) == 0
        notifications = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("ANOMALY ")
        ]
        records = read_report(report)
        anomalies = [r for r in records if r.verdict is Verdict.ANOMALY]
        assert len(notifications) == len(anomalies) >= 1
        first = notifications[0]
        assert f"index={anomalies[0].time_index}" in first
        assert "timestamp=" in first and "value=" in first

    def test_reports_are_deterministic_modulo_timing(self, tmp_path, spike_csv):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(detect_args(spike_csv, first, ["--seed", "42"])) == 0
        assert main(detect_args(spike_csv, second, ["--seed", "42"])) == 0
        assert rows_without_decision_time(first) == rows_without_decision_time(second)

    def test_summary_path_flag(self, tmp_path, spike_csv):
        report = tmp_path / "report.csv"
        summary = tmp_path / "custom-summary.json"
        assert main(detect_args(spike_csv, report, ["--summary", str(summary)])) == 0
        assert summary.exists()

    def test_missing_input_leaves_no_partial_report(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(detect_args(tmp_path / "nope.csv", report))
        assert code == 1
        assert not report.exists()
        assert "error" in capsys.readouterr().err

    def test_a_cadence_warning_is_printed_and_the_callers_warning_state_kept(self, tmp_path, capsys):
        series = tmp_path / "gap.csv"
        write_series_csv(series, [50.0 + k % 5 for k in range(40)])
        lines = series.read_text().splitlines(keepends=True)
        series.write_text("".join([*lines[:20], *lines[21:]]))
        before = warnings.showwarning, list(warnings.filters)
        assert main(detect_args(series, tmp_path / "report.csv")) == 0
        assert (warnings.showwarning, warnings.filters) == before
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: ") and line.endswith("treated as consecutive indices")

    def test_mixed_timezones_exit_one_without_traceback(self, tmp_path, capsys):
        series = tmp_path / "mixed.csv"
        series.write_text(
            "timestamp,value\n2020-01-01 00:00:00+00:00,1.0\n2020-01-01 00:05:00,2.0\n"
        )
        code = main(detect_args(series, tmp_path / "report.csv"))
        err = capsys.readouterr().err
        assert code == 1
        assert "mixed.csv:3" in err and "timezone" in err
        assert "Traceback" not in err

    def test_non_utf8_input_exits_one_without_traceback(self, tmp_path, capsys):
        series = tmp_path / "latin1.csv"
        series.write_bytes("timestamp,value\n2020-01-01 00:00:00,1.0 \u00b0C\n".encode("latin-1"))
        code = main(detect_args(series, tmp_path / "report.csv"))
        err = capsys.readouterr().err
        assert code == 1
        assert "latin1.csv" in err and "UTF-8" in err
        assert "Traceback" not in err

    def test_malformed_line_mid_file_keeps_the_decided_rows(self, tmp_path, capsys):
        series = tmp_path / "midway.csv"
        write_series_csv(series, [50.0 + k % 5 for k in range(40)])
        lines = series.read_text().splitlines()
        lines.insert(31, "2021-03-01 02:30:00,oops")  # line 32 of the file
        series.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.csv"
        code = main(detect_args(series, report))
        err = capsys.readouterr().err
        assert code == 1
        assert "midway.csv:32: unparsable value 'oops'" in err
        assert "Traceback" not in err
        records = read_report(report)
        assert [r.time_index for r in records] == list(range(30))
        assert not report.with_suffix(".summary.json").exists()

    def test_peak_memory_does_not_grow_with_the_series(self, tmp_path):
        def peak(n):
            series = tmp_path / f"sine{n}.csv"
            write_series_csv(series, [50.0 + 3.0 * math.sin(k / 4) for k in range(n)])
            args = detect_args(series, tmp_path / f"report{n}.csv")
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call allocations
        # Keeping every observation and record costs about 0.45 KiB a point,
        # so 1500 more points would add about 670 KiB.
        assert peak(2000) - peak(500) < 32 * 1024

    def test_unsupported_horizon_is_a_usage_error(self, tmp_path, spike_csv, capsys):
        # The horizon and the LSTM's tuning are not options: the CLI runs the
        # paper's configuration, which the run summary then names in full.
        # evaluate takes no look-back: it scores each report row as written.
        report = tmp_path / "r.csv"
        removed = [
            ["--predict-forward", "2"],
            ["--hidden-units", "4"],
            ["--learning-rate", "0.1"],
            ["--max-epochs", "5"],
            ["--min-epochs", "2"],
            ["--early-stop-delta", "0.01"],
            ["--early-stop-patience", "2"],
        ]
        for argv in [detect_args(spike_csv, report, flag) for flag in removed] + [
            ["evaluate", "--report", str(report), "--labels", str(report), "--look-back", "3"]
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "Traceback" not in capsys.readouterr().err
        assert not report.exists()

    def test_summary_config_reproduces_the_report(self, tmp_path, spike_csv):
        report = tmp_path / "report.csv"
        flags = ["--look-back", "4", "--seed", "7", "--epsilon", "1e-6"]
        assert main(detect_args(spike_csv, report, flags)) == 0
        config = json.loads(report.with_suffix(".summary.json").read_text())["config"]
        assert config == {"look_back": 4, "predict_forward": 1, "seed": 7, "epsilon": 1e-6}
        detector = Detector(
            DetectorConfig(look_back=config["look_back"], epsilon=config["epsilon"]),
            LstmEngine(LstmConfig(seed=config["seed"])),
        )
        rebuilt = [detector.step(value, timestamp) for timestamp, value in read_series(spike_csv)]
        written = read_report(report)
        assert len(written) == len(rebuilt) == len(spike_values())
        assert [replace(r, decision_time=0.0) for r in written] == [
            replace(r, decision_time=0.0) for r in rebuilt
        ]

    def test_bad_look_back_is_a_usage_error(self, tmp_path, spike_csv):
        with pytest.raises(SystemExit) as exc:
            main(detect_args(spike_csv, tmp_path / "r.csv", ["--look-back", "1"]))
        assert exc.value.code == 2

    def test_bad_flag_values_are_usage_errors(self, tmp_path, spike_csv, capsys):
        # A negative seed would fail at the first training, after the report
        # was opened; a non-finite epsilon or a span of minutes that no
        # timedelta holds would run or fail with a raw numpy or datetime error.
        report = tmp_path / "r.csv"
        bad = [detect_args(spike_csv, report, flag) for flag in (
            ["--seed", "-1"], ["--epsilon", "nan"], ["--epsilon", "inf"], ["--epsilon", "0"],
        )] + [
            ["evaluate", "--report", str(report), "--labels", str(report), flag, value]
            for flag in ("--pre-window", "--grace")
            for value in ("nan", "inf", "-inf", "1e300")
        ]
        for argv in bad:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "Traceback" not in capsys.readouterr().err
        assert not report.exists()

    def test_config_is_checked_before_the_input_is_opened(self, tmp_path, capsys):
        report = tmp_path / "r.csv"
        missing = tmp_path / "missing.csv"
        for flag in (["--seed", "-1"], ["--look-back", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(detect_args(missing, report, flag))
            assert exc.value.code == 2, flag
            err = capsys.readouterr().err
            assert "Traceback" not in err and "missing.csv" not in err
        assert "presage detect: error: look_back must be >= 2, got 1" in err
        assert not report.exists()


class TestEvaluate:
    @pytest.fixture()
    def spike_report(self, tmp_path, spike_csv):
        report = tmp_path / "report.csv"
        assert main(detect_args(spike_csv, report, ["--seed", "42"])) == 0
        return report

    def test_scores_the_shift_label(self, tmp_path, spike_report, capsys):
        labels = tmp_path / "labels.json"
        shift_ts = spike_timestamps()[SPIKE_SHIFT_INDEX]
        labels.write_text(json.dumps([shift_ts.isoformat(sep=" ")]))
        summary_path = tmp_path / "eval.json"
        code = main(
            [
                "evaluate",
                "--report", str(spike_report),
                "--labels", str(labels),
                "--summary", str(summary_path),
            ]
        )
        assert code == 0
        payload = json.loads(summary_path.read_text())
        assert len(payload["labels"]) == 1
        assert payload["labels"][0]["status"] != "missed"
        assert payload["false_warnings"] == 0
        assert set(payload["params"]) == {"pre_window_minutes", "grace_minutes", "dataset_key"}
        out = capsys.readouterr().out
        assert "label" in out and "false warnings" in out and "retraining ratio" in out

    @pytest.mark.parametrize("prefixed", ["report", "labels"])
    def test_byte_order_mark_is_skipped_in_every_input(self, tmp_path, spike_report, prefixed):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([spike_timestamps()[SPIKE_SHIFT_INDEX].isoformat(sep=" ")]))
        inputs = {"report": spike_report, "labels": labels}

        def evaluation(report, labels, name):
            path = tmp_path / name
            argv = ["evaluate", "--report", str(report), "--labels", str(labels)]
            assert main([*argv, "--summary", str(path)]) == 0
            return path.read_bytes()

        plain = evaluation(inputs["report"], inputs["labels"], "plain.json")
        bom = tmp_path / f"bom-{inputs[prefixed].name}"
        bom.write_bytes(b"\xef\xbb\xbf" + inputs[prefixed].read_bytes())
        inputs[prefixed] = bom
        assert evaluation(inputs["report"], inputs["labels"], "bom.json") == plain

    def test_integer_past_the_digit_limit_in_the_labels_exits_one(self, tmp_path, spike_report, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text('{"other": [%s], "spike": []}' % ("9" * 5000))
        args = ["evaluate", "--report", str(spike_report), "--labels", str(labels), "--dataset-key", "spike"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "invalid JSON" in err and "Traceback" not in err

    def test_empty_label_list_counts_all_reports_as_false(self, tmp_path, spike_report):
        labels = tmp_path / "labels.json"
        labels.write_text("[]")
        summary_path = tmp_path / "eval.json"
        assert (
            main(
                [
                    "evaluate",
                    "--report", str(spike_report),
                    "--labels", str(labels),
                    "--summary", str(summary_path),
                ]
            )
            == 0
        )
        payload = json.loads(summary_path.read_text())
        assert payload["labels"] == []
        anomalies = [r for r in read_report(spike_report) if r.verdict is Verdict.ANOMALY]
        assert payload["false_warnings"] == len(anomalies)

    def test_zero_spans_are_accepted(self, tmp_path, spike_report):
        # The flags follow the library's rule: a span may be zero, not negative.
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([spike_timestamps()[SPIKE_SHIFT_INDEX].isoformat(sep=" ")]))
        zero = ["--pre-window", "0", "--grace", "0", "--summary", str(tmp_path / "eval.json")]
        assert main(["evaluate", "--report", str(spike_report), "--labels", str(labels), *zero]) == 0
        for value in ("-5", "-0.5"):
            with pytest.raises(SystemExit) as exc:
                main(["evaluate", "--report", str(spike_report), "--labels", str(labels),
                      "--grace", value])
            assert exc.value.code == 2

    def test_spans_past_the_calendar_are_scored(self, tmp_path, spike_report):
        # A label's window may reach past year 1 or 9999 and still fit a timedelta.
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([spike_timestamps()[SPIKE_SHIFT_INDEX].isoformat(sep=" ")]))
        summary_path = tmp_path / "eval.json"
        wide = ["--pre-window", "1.4e12", "--grace", "1.4e12", "--summary", str(summary_path)]
        assert main(["evaluate", "--report", str(spike_report), "--labels", str(labels), *wide]) == 0
        payload = json.loads(summary_path.read_text())
        anomalies = [r for r in read_report(spike_report) if r.verdict is Verdict.ANOMALY]
        assert anomalies and payload["false_warnings"] == 0
        assert payload["labels"][0]["status"] != "missed"

    def test_map_labels_without_a_key_name_the_option(self, tmp_path, spike_report, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"b.csv": [], "a.csv": []}))
        capsys.readouterr()
        code = main(["evaluate", "--report", str(spike_report), "--labels", str(labels)])
        err = capsys.readouterr().err
        assert code == 1
        assert "map of dataset keys" in err and "--dataset-key" in err
        assert "['a.csv', 'b.csv']" in err and "Traceback" not in err

    def test_aware_report_against_naive_labels_exits_one(self, tmp_path, capsys):
        series = tmp_path / "aware.csv"
        write_series_csv(series, spike_values(), start=SPIKE_START.replace(tzinfo=timezone.utc))
        report = tmp_path / "report.csv"
        assert main(detect_args(series, report, ["--seed", "42"])) == 0
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([spike_timestamps()[SPIKE_SHIFT_INDEX].isoformat(sep=" ")]))
        capsys.readouterr()
        code = main(["evaluate", "--report", str(report), "--labels", str(labels)])
        err = capsys.readouterr().err
        assert code == 1
        assert "timezone" in err
        assert "Traceback" not in err

    def test_missing_dataset_key_fails(self, tmp_path, spike_report, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"some/other.csv": []}))
        code = main(
            [
                "evaluate",
                "--report", str(spike_report),
                "--labels", str(labels),
                "--dataset-key", "missing.csv",
            ]
        )
        assert code == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_non_finite_report_numbers_exit_one(self, tmp_path, spike_report, capsys):
        # They were once read without error, and evaluate exited 0.
        lines = spike_report.read_text().splitlines(keepends=True)
        row = lines[10].split(",")
        row[2:5] = ["nan", "inf", "-1e999"]
        lines[10] = ",".join(row)
        spike_report.write_text("".join(lines))
        labels = tmp_path / "labels.json"
        labels.write_text("[]")
        capsys.readouterr()
        assert main(["evaluate", "--report", str(spike_report), "--labels", str(labels)]) == 1
        err = capsys.readouterr().err
        assert f"{spike_report}:11: non-finite value nan" in err and "Traceback" not in err

    def test_nan_decision_time_exits_one(self, tmp_path, spike_report, capsys):
        # It once passed the sign check and the evaluation JSON said NaN.
        lines = spike_report.read_text().splitlines(keepends=True)
        lines[10] = lines[10].rsplit(",", 1)[0] + ",nan\n"
        spike_report.write_text("".join(lines))
        labels = tmp_path / "labels.json"
        labels.write_text("[]")
        summary_path = tmp_path / "eval.json"
        capsys.readouterr()
        argv = ["evaluate", "--report", str(spike_report), "--labels", str(labels),
                "--summary", str(summary_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "decision times must be finite" in err and "Traceback" not in err
        assert not summary_path.exists()

    def test_report_cut_past_its_ramp_is_scored_as_the_whole(self, tmp_path, spike_report):
        # A tail slice keeps no warm-up row; it is scored as it stands.
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([spike_timestamps()[SPIKE_SHIFT_INDEX].isoformat(sep=" ")]))
        lines = spike_report.read_text().splitlines(keepends=True)
        tail = tmp_path / "tail.csv"
        tail.write_text("".join([lines[0], *lines[1 + 149:]]))  # rows 149.. of 0..299

        def evaluation(report):
            path = report.with_suffix(".eval.json")
            assert main(["evaluate", "--report", str(report), "--labels", str(labels)]) == 0
            return json.loads(path.read_text())

        whole, cut = evaluation(spike_report), evaluation(tail)
        assert cut["labels"] == whole["labels"] and cut["labels"][0]["status"] != "missed"
        assert cut["false_warnings"] == whole["false_warnings"]

    @pytest.mark.parametrize(
        "rows, message",
        [(2, "run of 2 points never left the preparation ramp"),
         (4, "run of 4 points never left the preparation ramp")],
        ids=["collecting-only", "ramp-only"],
    )
    def test_short_report_exits_one_with_one_error_line(
        self, tmp_path, spike_report, capsys, rows, message
    ):
        short = tmp_path / "short.csv"
        short.write_text("".join(spike_report.read_text().splitlines(keepends=True)[: rows + 1]))
        labels = tmp_path / "labels.json"
        labels.write_text("[]")
        capsys.readouterr()
        assert main(["evaluate", "--report", str(short), "--labels", str(labels)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not short.with_suffix(".eval.json").exists()


def refused(argv, capsys):
    """Run ``argv`` and expect a usage error naming an output path."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"presage {argv[0]}: error: output" in err and "Traceback" not in err


def alias_of(path, kind):
    """Another spelling, or another directory entry, of the file ``path``."""
    if kind == "same":
        return path
    if kind == "dotdot":
        return path.parent / "sub" / ".." / path.name
    alias = path.with_name(f"{kind}-{path.name}")
    if kind == "symlink":
        alias.symlink_to(path)
    else:
        os.link(path, alias)
    return alias


class TestOutputsNeverOverwriteInputs:
    """An output path naming an input or another output is a usage error,
    found before any file is opened."""

    @pytest.mark.parametrize("kind", ["same", "dotdot", "symlink", "hardlink"])
    def test_detect_report_naming_the_input(self, tmp_path, spike_csv, capsys, kind):
        before = spike_csv.read_bytes()
        refused(detect_args(spike_csv, alias_of(spike_csv, kind)), capsys)
        assert spike_csv.read_bytes() == before
        assert not list(tmp_path.glob("*.json"))

    def test_detect_summary_naming_the_input_or_the_report(self, tmp_path, spike_csv, capsys):
        before = spike_csv.read_bytes()
        report = tmp_path / "report.csv"
        for summary in (spike_csv, report):
            refused(detect_args(spike_csv, report, ["--summary", str(summary)]), capsys)
            assert spike_csv.read_bytes() == before
            assert not report.exists()

    def test_detect_default_summary_naming_the_input(self, tmp_path, spike_csv, capsys):
        series = tmp_path / "run.summary.json"
        series.write_bytes(spike_csv.read_bytes())
        refused(detect_args(series, tmp_path / "run.csv"), capsys)
        assert series.read_bytes() == spike_csv.read_bytes()
        assert not (tmp_path / "run.csv").exists()

    def test_symlink_loop_output_is_a_data_error(self, tmp_path, spike_csv, capsys):
        loop = tmp_path / "loop.csv"
        loop.symlink_to(loop)
        assert main(detect_args(spike_csv, loop)) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_evaluate_summary_naming_an_input(self, tmp_path, spike_csv, capsys):
        report = tmp_path / "report.csv"
        assert main(detect_args(spike_csv, report)) == 0
        labels = tmp_path / "labels.json"
        labels.write_text("[]")
        inputs = {path: path.read_bytes() for path in (report, labels)}
        for target in (report, labels):
            argv = ["evaluate", "--report", str(report), "--labels", str(labels)]
            refused([*argv, "--summary", str(target)], capsys)
            assert {path: path.read_bytes() for path in inputs} == inputs
        assert not report.with_suffix(".eval.json").exists()


def test_parser_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["detect", "--input", "s.csv", "--report", "r.csv"])
    config, engine = DetectorConfig(), LstmEngine()
    assert (args.look_back, args.seed, args.epsilon) == (
        config.look_back, engine.config.seed, config.epsilon
    )


GOLDEN_START = datetime(2021, 6, 1)
GOLDEN_TICK = timedelta(minutes=5)

# What ``write_summary`` and ``evaluate`` write for ``golden_records``, less
# the decision-time fields, whose last bits depend on the summation order.
GOLDEN_SUMMARY = {
    "total_points": 12,
    "retrain_count": 3,
    "eligible_points": 7,
    "retraining_ratio": 0.42857142857142855,
    "anomalies": [
        {"index": 8, "timestamp": "2021-06-01 00:40:00"},
        {"index": 10, "timestamp": "2021-06-01 00:50:00"},
    ],
    "config": {"look_back": 3, "predict_forward": 1, "seed": 42, "epsilon": 1e-08},
}
GOLDEN_EVALUATION = {
    "labels": [
        {
            "label_timestamp": "2021-06-01 00:45:00",
            "first_report_timestamp": "2021-06-01 00:40:00",
            "lead_minutes": 5.0,
            "status": "proactive",
        },
        {
            "label_timestamp": "2021-06-02 00:00:00",
            "first_report_timestamp": None,
            "lead_minutes": None,
            "status": "missed",
        },
    ],
    "false_warnings": 1,
    "retraining_ratio": 0.42857142857142855,
    "params": {
        "pre_window_minutes": 10.0,
        "grace_minutes": 3.0,
        "dataset_key": None,
    },
}
DECISION_TIME_KEYS = {"avg_decision_time_s", "std_decision_time_s"}


def golden_records():
    """12 points at b = 3: anomalies at 8 and 10, rechecks at 8, 9 and 10."""
    return [
        make_record(
            k,
            timestamp=GOLDEN_START + k * GOLDEN_TICK,
            value=50.0 + k,
            phase=_phase_of(k, 3),
            verdict=(
                Verdict.PENDING if k < 7 else (Verdict.ANOMALY if k in (8, 10) else Verdict.NORMAL)
            ),
            retrained=k in (8, 9, 10),
            decision_time=0.001 * (k + 1),
        )
        for k in range(12)
    ]


def test_summary_and_evaluation_json_golden(tmp_path):
    records = golden_records()
    summary_path = tmp_path / "summary.json"
    write_summary(summarize_run(records), DetectorConfig(), LstmConfig().seed, summary_path)
    summary = json.loads(summary_path.read_text())
    assert set(summary) == set(GOLDEN_SUMMARY) | DECISION_TIME_KEYS
    assert {k: v for k, v in summary.items() if k not in DECISION_TIME_KEYS} == GOLDEN_SUMMARY

    report = tmp_path / "report.csv"
    write_records(records, report)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(["2021-06-01 00:45:00", "2021-06-02 00:00:00"]))
    evaluation_path = tmp_path / "eval.json"
    argv = ["evaluate", "--report", str(report), "--labels", str(labels),
            "--pre-window", "10", "--grace", "3", "--summary", str(evaluation_path)]
    assert main(argv) == 0
    evaluation = json.loads(evaluation_path.read_text())
    assert set(evaluation) == set(GOLDEN_EVALUATION) | DECISION_TIME_KEYS
    assert {k: v for k, v in evaluation.items() if k not in DECISION_TIME_KEYS} == GOLDEN_EVALUATION
