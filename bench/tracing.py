"""In-memory span tracer for the benchmark's traced run.

The tracer wraps presage's public functions at the name each caller looks
up (``presage.forecaster.train`` for the engine, ``presage.cli.read_series``
for the CLI, and so on), so the program carries no instrumentation of
its own. Spans are kept in memory as ``(name, start, end, parent)``
and written out when the run ends. A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import csv
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from presage import cli, detector, forecaster, scoring

# (owner, attribute, span name). The owner is the namespace the caller
# reads the name from at call time.
TARGETS = [
    (forecaster, "train", "forecaster.train"),
    (forecaster, "predict_next", "forecaster.predict_next"),
    (scoring, "aare", "scoring.aare"),
    (detector.Detector, "step", "detector.step"),
    (cli, "read_series", "data_io.read_series"),
    (cli, "summarize_run", "data_io.summarize_run"),
    (cli, "write_summary", "data_io.write_summary"),
    (cli, "read_report", "data_io.read_report"),
    (cli, "read_labels", "data_io.read_labels"),
    (cli, "evaluate_run", "evaluation.evaluate_run"),
    (cli, "run_detect", "cli.run_detect"),
    (cli, "run_evaluate", "cli.run_evaluate"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.train_epochs: list[tuple[int, int]] = []  # (epochs_used, max_epochs)
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _record_train(self, args, outcome):
        self.train_epochs.append((outcome.epochs_used, args[1].max_epochs))

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        saved.append((cli, "ReportWriter", cli.ReportWriter))
        try:
            for owner, attr, name in TARGETS:
                on_result = self._record_train if name == "forecaster.train" else None
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))
            writer = cli.ReportWriter
            cli.ReportWriter = type(
                "TracedReportWriter",
                (writer,),
                {"write": self.wrap("data_io.report_write", writer.write)},
            )
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def counts(self, since: int = 0) -> Counter:
        return Counter(span[0] for span in self.spans[since:])

    def layer_metrics(self, replays: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures over all spans, with counts and totals per replay."""
        durations: dict[str, list[float]] = defaultdict(list)
        selfs: dict[str, list[float]] = defaultdict(list)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            selfs[name].append(end - start - child[i])

        def mean(name, scale):
            xs = durations[name]
            return scale * sum(xs) / len(xs) if xs else 0.0

        def per_replay(*names):
            return sum(sum(durations[n]) for n in names) / replays

        epochs = [used for used, _ in self.train_epochs]
        early = sum(1 for used, cap in self.train_epochs if used < cap)
        step_self = selfs["detector.step"]
        return {
            "forecaster.predict_next.calls": (len(durations["forecaster.predict_next"]) / replays, "count"),
            "forecaster.predict_next.mean_us": (mean("forecaster.predict_next", 1e6), "us"),
            "forecaster.train.calls": (len(durations["forecaster.train"]) / replays, "count"),
            "forecaster.train.mean_ms": (mean("forecaster.train", 1e3), "ms"),
            "forecaster.train.epochs_mean": (sum(epochs) / len(epochs) if epochs else 0.0, "count"),
            "forecaster.train.early_stop_ratio": (early / len(epochs) if epochs else 0.0, "ratio"),
            "scoring.aare.calls": (len(durations["scoring.aare"]) / replays, "count"),
            "scoring.aare.mean_us": (mean("scoring.aare", 1e6), "us"),
            "detector.self_us": (1e6 * sum(step_self) / len(step_self) if step_self else 0.0, "us"),
            "data_io.read_series.s": (per_replay("data_io.read_series"), "s"),
            "data_io.report_write.mean_us": (mean("data_io.report_write", 1e6), "us"),
            "data_io.summary.s": (per_replay("data_io.summarize_run", "data_io.write_summary"), "s"),
            "data_io.read_report.s": (per_replay("data_io.read_report"), "s"),
            "data_io.read_labels.s": (per_replay("data_io.read_labels"), "s"),
            "evaluation.evaluate_run.s": (per_replay("evaluation.evaluate_run"), "s"),
            "cli.run_detect.self_s": (sum(selfs["cli.run_detect"]) / replays, "s"),
        }

    def write(self, path: Path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent])
