#!/usr/bin/env python3
"""Replay benchmark for presage.

Replays seeded synthetic series through presage in one process on one
thread. The loop is closed: a single caller waits for each verdict before
it sends the next point. Real series arrive one point per 5 minutes,
about six orders of magnitude slower than a decision, so pacing at that
rate would measure nothing; replay speed is what matters when backfilling
a series, and step time is how long an alarm takes.

    python3 bench/run.py --workload steady --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` replays each
series twice, untraced then traced, and reports the per-layer metrics.
Both print every metric by name with its unit, then, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--record`` writes the reference for the
seed instead of measuring. See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"  # before numpy loads its BLAS

import series  # noqa: E402
import verify  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# The fast-path median is taken per block of this many steps. See
# "Measuring on a shared host" in bench/README.md.
BLOCK = 1000


@dataclass(frozen=True)
class Workload:
    kind: str  # series generator in series.py, and the reference name
    copies: int  # series in one input set
    cli: bool  # replayed through presage.cli rather than Detector.step
    block: int  # points in one block of the rate metric
    first_block: int  # index of the first block's first point


# Rate blocks hold the same work: on steady, 1000 points from the first
# detecting point (2b+1 = 7 at the default look-back); on bursty, one dip
# slot each, so each block holds exactly one dip.
WORKLOADS = {
    "steady": Workload("steady", 1, False, 1000, 7),
    "bursty": Workload("bursty", 8, False, series.BURSTY_SLOT, series.BURSTY_CALM),
    "cli_replay": Workload("steady", 1, True, 1000, 7),
}

# Metrics in the last line, as declared in BENCHMARK.json. The others are
# printed above it: each is defined on only some workloads, or, like
# step_p99_us, spreads wider between runs on a shared host than any bound
# allowed there.
END_TO_END = ("points_per_s", "step_p50_us", "setup_s", "peak_rss_mib")
PER_LAYER = (
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
    "trace_overhead",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Replay benchmark for presage.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for at least this long, in whole replays")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=None,
                        help="replay only the first N points of each series (smoke runs)")
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="directory of recorded references")
    parser.add_argument("--record", action="store_true",
                        help="record the reference for this seed instead of measuring")
    return parser.parse_args(argv)


def quantile(samples, q: float) -> float:
    """The q-quantile, as statistics.quantiles gives it (exclusive method)."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    cut = round(q * 100)
    return statistics.quantiles(samples, n=100)[cut - 1]


class Inputs:
    """One workload's generated inputs: values, timestamps and files."""

    def __init__(self, kind: str, count: int, cli: bool, seed: int, points, work: Path):
        generate = getattr(series, kind)
        self.values = [generate(seed, i)[:points].tolist() for i in range(count)]
        n = len(self.values[0])
        self.stamps = series.timestamps(n)
        self.csv = work / "series.csv"
        self.labels = work / "labels.json"
        if cli:
            with open(self.csv, "w") as fh:
                fh.write("timestamp,value\n")
                for ts, value in zip(self.stamps, self.values[0]):
                    fh.write(f"{ts.isoformat(sep=' ')},{value!r}\n")
            label_stamps = [ts.isoformat(sep=" ") for ts in series.labels(seed, n)]
            self.labels.write_text(json.dumps(label_stamps) + "\n")


class Replayer:
    """Runs replays and keeps what each one measured."""

    def __init__(self, inputs: Inputs, work: Path, block: int, first_block: int):
        from presage import Detector, cli, data_io

        self.inputs = inputs
        self.work = work
        self.block = block
        self.first_block = first_block
        self.Detector = Detector
        self.cli = cli
        self.read_report = data_io.read_report
        self.fast_times: list[float] = []
        self.fast_block_p50: list[float] = []
        self.block_times: list[float] = []
        self.recheck_times: list[float] = []
        self.walls: list[float] = []
        self.evaluate_walls: list[float] = []
        self.points = 0
        self.errors: list[str] = []

    def _record(self, records, starts, durations):
        """Keep one replay's step times: whole blocks of consecutive points
        for the rate, and blocks of fast-path steps for step time."""
        size = self.block
        self.block_times += [
            (starts[i + size] - starts[i]) / size for i in range(self.first_block, len(starts) - size, size)
        ]
        fast = []
        for rec, dt in zip(records, durations):
            if rec is None:
                continue
            if rec.retrained:
                self.recheck_times.append(dt)
            elif rec.phase.value == "detecting":
                fast.append(dt)
        if fast:  # a replay shorter than one block is one block
            for i in range(0, max(1, len(fast) - BLOCK + 1), BLOCK):
                self.fast_block_p50.append(statistics.median(fast[i : i + BLOCK]))
        self.fast_times += fast

    def in_memory(self, index: int, timed: bool):
        values, stamps = self.inputs.values[index], self.inputs.stamps
        detector = self.Detector()
        records, starts, durations = [], [], []
        clock = time.perf_counter
        started = clock()
        for value, ts in zip(values, stamps):
            t0 = clock()
            starts.append(t0)
            try:
                rec = detector.step(value, ts)
            except Exception:  # a failed point is counted, not fatal
                rec = None
                if len(self.errors) < 3:
                    self.errors.append(traceback.format_exc())
            durations.append(clock() - t0)
            records.append(rec)
        wall = clock() - started
        if timed:
            self._record(records, starts, durations)
        return records, wall

    def through_cli(self, index: int, timed: bool):
        inputs, cli = self.inputs, self.cli
        report = self.work / "report.csv"
        summary = self.work / "report.summary.json"
        evaluation = self.work / "report.eval.json"
        starts, durations = [], []
        original = cli.Detector
        if timed:
            class TimedDetector(original):
                def step(self, value, timestamp=None, _clock=time.perf_counter):
                    t0 = _clock()
                    starts.append(t0)
                    rec = original.step(self, value, timestamp)
                    durations.append(_clock() - t0)
                    return rec

            cli.Detector = TimedDetector
        report.unlink(missing_ok=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                started = time.perf_counter()
                detect_rc = self._main(["detect", "--input", str(inputs.csv), "--report", str(report),
                                        "--summary", str(summary)])
                detected = time.perf_counter()
                evaluate_rc = self._main(["evaluate", "--report", str(report), "--labels", str(inputs.labels),
                                          "--summary", str(evaluation)])
                evaluated = time.perf_counter()
        finally:
            cli.Detector = original
        if detect_rc or evaluate_rc:
            self.errors.append(f"detect exit {detect_rc}, evaluate exit {evaluate_rc}: {err.getvalue()}")
        n = len(inputs.values[index])
        records = self.read_report(report) if report.exists() else []
        records = records[:n] + [None] * (n - len(records))
        if evaluate_rc == 0 and not self._evaluation_matches(records, evaluation):
            self.errors.append("evaluate: false-warning count differs from the benchmark's own count")
        if timed:
            self._record(records, starts, durations)
            self.evaluate_walls.append(evaluated - detected)
        return records, detected - started

    def _main(self, argv) -> int:
        try:
            return self.cli.main(argv)
        except Exception:  # an escaped traceback is a failed run, not a crash
            traceback.print_exc()
            return -1

    def _evaluation_matches(self, records, path: Path) -> bool:
        from datetime import datetime, timedelta

        labels = [datetime.fromisoformat(s) for s in json.loads(self.inputs.labels.read_text())]
        before, after = timedelta(minutes=1440), timedelta(minutes=60)
        false_warnings = sum(
            1
            for r in records
            if r is not None and r.verdict.value == "anomaly"
            and not any(label - before <= r.timestamp <= label + after for label in labels)
        )
        payload = json.loads(path.read_text())
        return payload["false_warnings"] == false_warnings and len(payload["labels"]) == len(labels)


class Checker:
    """Counts failed points against the invariants, the reference and the
    first replay of the same series in this run."""

    def __init__(self, inputs: Inputs, reference, look_back: int, epsilon: float):
        self.inputs = inputs
        self.reference = reference or []
        self.look_back = look_back
        self.epsilon = epsilon
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, index: int, records) -> int:
        bad = verify.invariant_failures(self.inputs.values[index], records, self.look_back, self.epsilon)
        if index < len(self.reference):
            bad |= verify.reference_failures(records, self.reference[index])
        summary = verify.summarize(records)
        first = self.first.setdefault(index, summary)
        for key in ("anomalies", "rechecks"):
            bad |= set(first[key]) ^ set(summary[key])
        self.attempted += len(records)
        self.failed += len(bad)
        if bad:
            self.problems.append(f"series {index}: {len(bad)} failed points, first at index {min(bad)}")
        return sum(1 for r in records if r is not None and r.retrained)


def identity_problems(counts, n: int, b: int, rechecks: int, cli: bool) -> list[str]:
    """Every call the traced run must have caught in one replay."""
    expected = {
        "detector.step": n,
        "forecaster.train": b + 2 + rechecks,
        "forecaster.predict_next": n - b + 1 + rechecks,
        "scoring.aare": n - 2 * b + 1 + rechecks,
    }
    if cli:
        expected.update({
            "data_io.read_series": 1,
            "data_io.report_write": n,
            "data_io.summarize_run": 1,
            "data_io.write_summary": 1,
            "data_io.read_report": 1,
            "data_io.read_labels": 1,
            "evaluation.evaluate_run": 1,
            "cli.run_detect": 1,
            "cli.run_evaluate": 1,
        })
    return [
        f"traced {name}: {counts.get(name, 0)} calls, expected {want}"
        for name, want in expected.items()
        if counts.get(name, 0) != want
    ]


def environment(numpy) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "threads": {name: os.environ[name] for name in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "presage" / "__init__.py").is_file():
        print(f"error: presage sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import presage
    from presage import DetectorConfig

    if Path(presage.__file__).resolve().parent != (SRC / "presage").resolve():
        print(f"error: presage imported from {presage.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # Imports happen once per process, so each repeat of the set-up
    # imports presage in a fresh interpreter, timed from its start.
    import_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import presage"], check=True, cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        import_times.append(time.perf_counter() - t0)

    workload = WORKLOADS[args.workload]
    kind, count, through_cli = workload.kind, workload.copies, workload.cli
    work = OUT / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    prepare_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = Inputs(kind, count, through_cli, args.seed, args.points, work)
        prepare_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(prepare_times)

    config = DetectorConfig()
    b = config.look_back
    reference = None if args.record else verify.load_reference(args.references, kind, args.seed)
    checker = Checker(inputs, reference, b, config.epsilon)
    replayer = Replayer(inputs, work, workload.block, workload.first_block)
    replay = replayer.through_cli if through_cli else replayer.in_memory
    env = environment(numpy)

    if args.record:
        entries = []
        for index in range(count):
            records, _ = replay(index, timed=False)
            checker.check(index, records)
            entries.append(verify.summarize(records))
        if checker.failed or replayer.errors:
            print("\n".join(checker.problems + replayer.errors[:1]), file=sys.stderr)
            return 1
        path = verify.save_reference(args.references, kind, args.seed, entries)
        print(f"reference written: {path}")
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    problems: list[str] = []
    overheads: list[float] = []
    traced_rechecks = traced_eligible = traced_swaps = replays = 0
    peak_rss_mib = None
    measuring = time.perf_counter()
    index = 0
    while True:
        records, wall = replay(index, timed=not args.trace)
        rechecks = checker.check(index, records)
        if peak_rss_mib is None:
            # Later replays add only the benchmark's own timing samples, so
            # memory is taken here, where it does not depend on speed.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        replayer.walls.append(wall)
        replayer.points += len(records)
        if tracer is not None:
            mark = len(tracer.spans)
            with tracer.installed():
                traced, traced_wall = replay(index, timed=False)
            rechecks = checker.check(index, traced)
            overheads.append(traced_wall / wall)
            n = len(traced)
            problems += identity_problems(tracer.counts(mark), n, b, rechecks, through_cli)
            traced_rechecks += rechecks
            traced_swaps += sum(1 for r in traced if r is not None and r.retrained and r.verdict.value == "normal")
            traced_eligible += max(0, n - (2 * b - 1))
            replays += 1
        index = (index + 1) % count
        if time.perf_counter() - measuring >= args.seconds:
            break

    env["loadavg_end"] = list(os.getloadavg())
    problems += checker.problems + replayer.errors[:3]

    metrics: dict[str, tuple[float, str]] = {}
    if tracer is None:
        fast, slow = replayer.fast_times, replayer.recheck_times
        per_point = replayer.block_times or [sum(replayer.walls) / replayer.points]
        metrics["points_per_s"] = (1.0 / quantile(per_point, 0.90), "1/s")
        metrics["step_p50_us"] = (1e6 * quantile(replayer.fast_block_p50, 0.95), "us")
        metrics["step_p99_us"] = (1e6 * quantile(fast, 0.99), "us")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
        if slow:
            metrics["recheck_p50_ms"] = (1e3 * statistics.median(slow), "ms")
            metrics["recheck_p90_ms"] = (1e3 * quantile(slow, 0.90), "ms")
        if replayer.evaluate_walls:
            metrics["evaluate_s"] = (statistics.median(replayer.evaluate_walls), "s")
        declared = END_TO_END
        samples = {"setup": {"import_s": import_times, "inputs_s": prepare_times},
                   "replays": len(replayer.walls), "blocks": len(replayer.block_times),
                   "fast_blocks": len(replayer.fast_block_p50), "fast_steps": len(fast), "rechecks": len(slow),
                   "block_s_per_point": replayer.block_times, "fast_block_p50_s": replayer.fast_block_p50}
        whole_run = {
            "points_per_s": replayer.points / sum(replayer.walls),
            "step_p50_us": 1e6 * statistics.median(fast) if fast else 0.0,
        }
        samples["whole_run"] = whole_run
        plain = "whole run: " + ", ".join(f"{k} {v:.1f}" for k, v in whole_run.items())
    else:
        metrics.update(tracer.layer_metrics(replays))
        metrics["detector.retrain_ratio"] = (traced_rechecks / traced_eligible if traced_eligible else 0.0, "ratio")
        metrics["detector.model_swap_ratio"] = (traced_swaps / traced_rechecks if traced_rechecks else 0.0, "ratio")
        metrics["trace_overhead"] = (statistics.median(overheads), "ratio")
        declared = PER_LAYER
        samples = {"replays": replays, "spans": len(tracer.spans)}
        plain = f"traced replays: {replays}"
    metrics["failed_point_ratio"] = (checker.failed / max(1, checker.attempted), "ratio")

    correct = not problems and checker.failed == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "reference": "recorded" if reference else "none for this seed: invariants only",
        "samples": samples,
        "environment": env,
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv")

    print(f"# presage replay benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# environment: {json.dumps(env)}")
    counts = {k: v for k, v in samples.items() if not isinstance(v, list)}
    print(f"# samples: {json.dumps(counts)}; reference: {result['reference']}")
    print(f"# {plain}")
    for problem in problems:
        print("# problem: " + problem.strip().replace("\n", " | "))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
