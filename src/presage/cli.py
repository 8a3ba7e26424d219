"""Command-line entry points: replay detection over a series file and
score a finished report against labels.

Exit codes: 0 success, 1 data/runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from typing import Sequence

from .data_io import (
    ReportWriter, read_labels, read_report, read_series, write_evaluation, write_summary
)
from .detector import Detector, DetectorConfig, LstmEngine, Verdict
from .errors import ConfigError, PresageError
from .evaluation import (
    DEFAULT_GRACE_MINUTES, DEFAULT_PRE_WINDOW_MINUTES, _span, evaluate_run, summarize_run
)
from .forecaster import LstmConfig

__all__ = ["main", "build_parser", "run_detect", "run_evaluate"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="presage",
        description="Streaming time-series anomaly detection with an "
        "adaptive LSTM forecaster and a self-adjusting three-sigma threshold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser(
        "detect",
        help="replay a series file through the detector and write a per-point report",
    )
    detect.add_argument("--input", required=True, type=Path, help="series file (timestamp,value)")
    detect.add_argument("--report", required=True, type=Path, help="per-point report CSV to write")
    detect.add_argument(
        "--summary", type=Path,
        help="run summary JSON to write (default: report path with .summary.json)",
    )
    detect.add_argument(
        "--look-back", type=int, default=DetectorConfig.look_back,
        help="number of recent points used for training and prediction (default %(default)s)",
    )
    detect.add_argument(
        "--seed", type=int, default=LstmConfig.seed,
        help="seed for model initialization (default %(default)s)",
    )
    detect.add_argument(
        "--epsilon", type=float, default=DetectorConfig.epsilon,
        help="denominator floor for the relative-error score (default %(default)s)",
    )
    detect.set_defaults(func=run_detect, parser=detect)

    evaluate = sub.add_parser(
        "evaluate",
        help="score a finished report against labeled anomaly instants",
    )
    evaluate.add_argument("--report", required=True, type=Path, help="report CSV from detect")
    evaluate.add_argument("--labels", required=True, type=Path, help="labels JSON")
    evaluate.add_argument(
        "--dataset-key", default=None,
        help="key into a combined labels map (unused for plain-list label files)",
    )
    evaluate.add_argument(
        "--pre-window", type=float, default=DEFAULT_PRE_WINDOW_MINUTES,
        help="minutes before a label in which a report counts for it (default %(default)s)",
    )
    evaluate.add_argument(
        "--grace", type=float, default=DEFAULT_GRACE_MINUTES,
        help="minutes after a label in which a report still counts (default %(default)s)",
    )
    evaluate.add_argument(
        "--summary", type=Path,
        help="evaluation summary JSON to write (default: report path with .eval.json)",
    )
    evaluate.set_defaults(func=run_evaluate, parser=evaluate)
    return parser


def run_detect(args: argparse.Namespace) -> int:
    config = DetectorConfig(look_back=args.look_back, epsilon=args.epsilon)
    lstm = LstmConfig(seed=args.seed)
    summary_path = args.summary or args.report.with_suffix(".summary.json")
    _check_outputs([args.input], [args.report, summary_path])
    observations = read_series(args.input)
    detector = Detector(config, LstmEngine(lstm))

    with ReportWriter(args.report) as writer:
        summary = summarize_run(_decide(observations, detector, writer))
    write_summary(summary, config, lstm.seed, summary_path)
    print(
        f"processed {summary.total_points} points: "
        f"{len(summary.anomalies)} anomalies, "
        f"{summary.retrain_count} retrains "
        f"(ratio {summary.retraining_ratio:.2%}), "
        f"avg decision {summary.avg_decision_time:.4f} s"
    )
    print(f"report: {args.report}")
    print(f"summary: {summary_path}")
    return 0


def _decide(observations, detector, writer):
    for timestamp, value in observations:
        record = detector.step(value, timestamp)
        writer.write(record)
        if record.verdict is Verdict.ANOMALY:
            print(
                f"ANOMALY index={record.time_index} "
                f"timestamp={record.timestamp.isoformat(sep=' ')} "
                f"value={record.value}"
            )
        yield record


def _check_outputs(inputs: list[Path], outputs: list[Path]):
    """``ConfigError`` when an output path names an input or an earlier
    output, by resolved path or, for files that exist, by identity."""
    for k, output in enumerate(outputs):
        for other in [*inputs, *outputs[:k]]:
            if os.path.realpath(output) == os.path.realpath(other) or (
                output.exists() and other.exists() and os.path.samefile(output, other)
            ):
                raise ConfigError(f"output {output} would overwrite {other}")


def run_evaluate(args: argparse.Namespace) -> int:
    spans = {"pre_window_minutes": args.pre_window, "grace_minutes": args.grace}
    for name, minutes in spans.items():  # before the report is read, like the paths
        _span(minutes, name)
    summary_path = args.summary or args.report.with_suffix(".eval.json")
    _check_outputs([args.report, args.labels], [summary_path])
    records = read_report(args.report)
    labels = read_labels(args.labels, args.dataset_key)
    summary = evaluate_run(records, labels, **spans)
    write_evaluation(summary, {**spans, "dataset_key": args.dataset_key}, summary_path)

    for result in summary.lead_times:
        line = f"label {result.label_timestamp.isoformat(sep=' ')}  {result.status.value}"
        if result.first_report_timestamp is not None:
            line += (
                f"  lead {result.lead_minutes:+.1f} min"
                f"  first report {result.first_report_timestamp.isoformat(sep=' ')}"
            )
        print(line)
    print(f"false warnings: {summary.false_warning_count}")
    run = summary.run
    print(
        f"retraining ratio: {run.retraining_ratio:.2%} "
        f"({run.retrain_count}/{run.eligible_points})"
    )
    print(
        f"decision time: avg {run.avg_decision_time:.4f} s, "
        f"std {run.std_decision_time:.4f} s"
    )
    print(f"summary: {summary_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # one `warning:` line, like an error; restored on exit
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except ConfigError as exc:  # the subcommand's usage, as for argparse's own errors
            args.parser.error(str(exc))
        except (PresageError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
