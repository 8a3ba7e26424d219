import math
import re
import warnings
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from presage.data_io import read_labels, read_series
from presage.detector import Detector, DetectorConfig, Verdict
from presage.errors import ConfigError, DataError, OrderingError
from presage.evaluation import (
    LeadStatus,
    evaluate_run,
    summarize_run,
)

from helpers import PerfectEngine, make_record, phase_oracle

T0 = datetime(2021, 6, 1, 0, 0)
MIN = timedelta(minutes=1)


def anomaly_at(ts, index=0):
    return make_record(index, timestamp=ts, verdict=Verdict.ANOMALY)


def normal_at(ts, index=0):
    return make_record(index, timestamp=ts, verdict=Verdict.NORMAL)


# The look-back-3 preparation ramp of 5 points, as untimed records in the
# phases such a detector writes: ahead of the records under test, which are
# scored points, it lets ``evaluate_run`` score any of them.
RAMP = [make_record(k, phase=phase_oracle(k, 3)) for k in range(5)]


def score(records, labels, **spans):
    return evaluate_run([*RAMP, *records], labels, **spans)


class TestLeadTime:
    def test_proactive_report(self):
        label = T0 + 1000 * MIN
        records = [anomaly_at(label - 450 * MIN)]
        (result,) = score(records, [label]).lead_times
        assert result.status is LeadStatus.PROACTIVE
        assert result.lead_minutes == pytest.approx(450.0)

    def test_on_time_report(self):
        label = T0
        (result,) = score([anomaly_at(label)], [label]).lead_times
        assert result.status is LeadStatus.ON_TIME
        assert result.lead_minutes == 0.0

    def test_late_report_within_grace(self):
        label = T0
        (result,) = score([anomaly_at(label + 30 * MIN)], [label]).lead_times
        assert result.status is LeadStatus.LATE
        assert result.lead_minutes == pytest.approx(-30.0)

    def test_missed_label(self):
        label = T0 + 5000 * MIN
        records = [anomaly_at(T0)]  # far outside [label-1440, label+60]
        (result,) = score(records, [label]).lead_times
        assert result.status is LeadStatus.MISSED
        assert result.first_report_timestamp is None
        assert result.lead_minutes is None

    def test_earliest_report_wins(self):
        label = T0 + 600 * MIN
        records = [
            anomaly_at(label - 100 * MIN, index=1),
            anomaly_at(label - 400 * MIN, index=0),
        ]
        records.sort(key=lambda r: r.timestamp)
        (result,) = score(records, [label]).lead_times
        assert result.lead_minutes == pytest.approx(400.0)

    def test_unordered_records_rejected(self):
        records = [anomaly_at(T0 + 10 * MIN, index=1), anomaly_at(T0, index=0)]
        with pytest.raises(OrderingError):
            score(records, [T0])

    def test_anomaly_without_timestamp_rejected(self):
        with pytest.raises(DataError):
            score([make_record(0, timestamp=None, verdict=Verdict.ANOMALY)], [T0])

    def test_aware_records_against_naive_labels_rejected(self):
        aware = T0.replace(tzinfo=timezone.utc)
        with pytest.raises(DataError, match="timezone"):
            score([normal_at(aware), anomaly_at(aware + MIN, index=1)], [T0])

    def test_labels_mixing_aware_and_naive_rejected(self):
        labels = [datetime(2020, 1, 1), datetime(2020, 1, 2, tzinfo=timezone.utc)]
        with pytest.raises(DataError, match="labels mix timezone"):
            evaluate_run([make_record(k) for k in range(10)], labels)
        with pytest.raises(DataError, match="labels mix timezone"):
            evaluate_run([make_record(k) for k in range(10)], labels[::-1])

    def test_records_mixing_aware_and_naive_rejected(self):
        records = [anomaly_at(T0.replace(tzinfo=timezone.utc)), anomaly_at(T0 + MIN, index=1)]
        with pytest.raises(DataError, match="timezone"):
            score(records, [])


class TestAttribution:
    def test_report_goes_to_nearest_label(self):
        first = T0 + 1000 * MIN
        second = T0 + 1100 * MIN
        report = anomaly_at(first + 70 * MIN)  # 70 min after first, 30 before second
        results = score([report], [first, second]).lead_times
        assert results[0].status is LeadStatus.MISSED
        assert results[1].status is LeadStatus.PROACTIVE
        assert score([report], [first, second]).false_warning_count == 0

    def test_tie_goes_to_earlier_label(self):
        first = T0 + 1000 * MIN
        second = T0 + 1200 * MIN
        midpoint = first + 100 * MIN  # equidistant and inside both windows
        results = score([anomaly_at(midpoint)], [first, second], grace_minutes=120).lead_times
        assert results[0].status is LeadStatus.LATE  # attributed to the earlier label
        assert results[1].status is LeadStatus.MISSED

    def test_each_report_counted_once(self):
        label = T0 + 2000 * MIN
        inside = anomaly_at(label - 60 * MIN, index=1)
        outside = anomaly_at(T0, index=0)
        records = [outside, inside]
        assert score(records, [label]).false_warning_count == 1
        (result,) = score(records, [label]).lead_times
        assert result.first_report_timestamp == inside.timestamp


class TestFalseWarnings:
    def test_no_anomalies(self):
        assert score([normal_at(T0)], [T0 + 100 * MIN]).false_warning_count == 0

    def test_report_inside_window_is_not_false(self):
        label = T0 + 500 * MIN
        assert score([anomaly_at(label - 5 * MIN)], [label]).false_warning_count == 0

    def test_reports_far_from_all_labels(self):
        label = T0 + 5000 * MIN
        records = [anomaly_at(T0 + k * MIN, index=k) for k in (10, 20)]
        assert score(records, [label]).false_warning_count == 2

    def test_no_labels_everything_is_false(self):
        records = [anomaly_at(T0 + k * MIN, index=k) for k in range(3)]
        assert score(records, []).false_warning_count == 3

    def test_widening_pre_window_is_monotone(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            labels = sorted(T0 + int(m) * MIN for m in rng.integers(0, 3000, 3))
            records = [
                anomaly_at(T0 + int(m) * MIN, index=k)
                for k, m in enumerate(sorted(rng.integers(-500, 3500, 6)))
            ]
            narrow_results = score(records, labels, pre_window_minutes=200).lead_times
            wide_results = score(records, labels, pre_window_minutes=800).lead_times
            narrow_hits = sum(r.status is not LeadStatus.MISSED for r in narrow_results)
            wide_hits = sum(r.status is not LeadStatus.MISSED for r in wide_results)
            assert wide_hits >= narrow_hits
            assert (
                score(records, labels, pre_window_minutes=800).false_warning_count
                <= score(records, labels, pre_window_minutes=200).false_warning_count
            )


class TestRetrainingRatio:
    def test_reference_denominators(self):
        records = [make_record(k, retrained=k < 38, phase=phase_oracle(k, 3)) for k in range(4032)]
        assert summarize_run(records).retraining_ratio == pytest.approx(38 / 4027)
        records = [make_record(k, retrained=k < 134, phase=phase_oracle(k, 3)) for k in range(22695)]
        summary = summarize_run(records)
        assert summary.retraining_ratio == pytest.approx(134 / 22690)
        assert summary.retraining_ratio == pytest.approx(0.0059, abs=2e-4)

    def test_zero_retrains(self):
        records = [make_record(k) for k in range(100)]
        assert summarize_run(records).retraining_ratio == 0.0

    def test_run_shorter_than_ramp(self):
        records = [make_record(k, phase=phase_oracle(k, 3)) for k in range(5)]
        assert summarize_run(records).retraining_ratio == 0.0
        with pytest.raises(DataError, match="never left the preparation ramp"):
            evaluate_run(records, [T0])


class TestTimingStats:
    def test_constant_times(self):
        records = [make_record(k, decision_time=0.02) for k in range(5)]
        summary = summarize_run(records)
        assert (summary.avg_decision_time, summary.std_decision_time) == pytest.approx(
            (0.02, 0.0)
        )

    def test_two_values(self):
        records = [make_record(0, decision_time=0.01), make_record(1, decision_time=0.03)]
        summary = summarize_run(records)
        assert summary.avg_decision_time == pytest.approx(0.02)
        assert summary.std_decision_time == pytest.approx(0.01)

    def test_empty_run(self):
        assert summarize_run([]).total_points == 0
        with pytest.raises(DataError):
            evaluate_run([], [T0])

    def test_negative_time_rejected(self):
        # An int too long to print once escaped as a raw ValueError from the message.
        for bad in (-1.0, -(10**5000)):
            with pytest.raises(DataError, match="non-negative"):
                summarize_run([make_record(0, decision_time=bad)])
            with pytest.raises(DataError, match="non-negative"):
                evaluate_run([make_record(k, decision_time=bad) for k in range(10)], [T0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, bad):
        # A NaN time once passed the sign check and made the mean NaN.
        with pytest.raises(DataError, match="finite"):
            summarize_run([make_record(0), make_record(1, decision_time=bad)])
        with pytest.raises(DataError, match="finite"):
            evaluate_run([make_record(k, decision_time=bad) for k in range(10)], [T0])

    @pytest.mark.parametrize(
        "bad", [10**400, True, Decimal("0.001"), "1", 1 + 0j], ids=["int-1e400", "bool", "decimal", "str", "complex"]
    )
    def test_a_time_that_is_no_finite_real_number_is_a_data_error(self, bad):
        # 10**400 escaped as a raw OverflowError from _welford_add, True was read
        # as 1 s, and the others escaped as a raw TypeError.
        message = f"^record at index 1: decision times must be finite and non-negative, got {re.escape(repr(bad))}$"
        with pytest.raises(DataError, match=message):
            summarize_run([make_record(0), make_record(1, decision_time=bad)])
        with pytest.raises(DataError, match=message):
            evaluate_run([make_record(k, decision_time=bad if k == 1 else 0.0) for k in range(10)], [T0])

    def test_a_numpy_time_is_read_as_its_float(self):
        # An np.float32 time once made the mean an np.float32, and _unit_of's
        # compare with 2.0**400 overflowed in a cast to float32, with a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = summarize_run([make_record(0, decision_time=np.float32(0.5)), make_record(1, decision_time=1.5)])
        assert type(summary.avg_decision_time) is float and type(summary.std_decision_time) is float
        assert (summary.avg_decision_time, summary.std_decision_time) == (1.0, 0.5)

    def test_generator_input(self):
        records = (
            make_record(k, decision_time=0.001 * k, phase=phase_oracle(k, 3)) for k in range(10)
        )
        summary = summarize_run(records)
        assert (summary.total_points, summary.eligible_points) == (10, 5)
        assert summary.avg_decision_time == pytest.approx(0.0045)


class TestEvaluateRun:
    def test_composite_summary(self):
        label = T0 + 1000 * MIN
        records = [
            make_record(
                k,
                timestamp=T0 + k * 5 * MIN,
                verdict=Verdict.ANOMALY if k == 150 else Verdict.NORMAL,
                retrained=k in (80, 150),
                decision_time=0.002,
                phase=phase_oracle(k, 3),
            )
            for k in range(300)
        ]
        summary = evaluate_run(records, [label])
        assert summary.lead_times[0].status is LeadStatus.PROACTIVE
        assert summary.lead_times[0].lead_minutes == pytest.approx(1000 - 150 * 5)
        assert summary.false_warning_count == 0
        assert summary.run.retraining_ratio == pytest.approx(2 / 295)
        assert (summary.run.retrain_count, summary.run.eligible_points) == (2, 295)
        assert summary.run.avg_decision_time == pytest.approx(0.002)
        assert [r.time_index for r in summary.run.anomalies] == [150]

    def test_generator_gives_the_same_summary_as_the_list(self):
        labels = [T0 + 300 * MIN, T0 + 1000 * MIN]
        records = [
            make_record(
                k,
                timestamp=T0 + k * 5 * MIN,
                verdict=Verdict.ANOMALY if k in (70, 150, 290) else Verdict.NORMAL,
                retrained=k in (70, 150),
                decision_time=0.001 * (k % 7),
            )
            for k in range(300)
        ]
        expected = evaluate_run(records, labels)
        assert [r.status for r in expected.lead_times] == [LeadStatus.LATE, LeadStatus.PROACTIVE]
        assert expected.false_warning_count == 1
        assert evaluate_run(iter(records), labels) == expected
        assert evaluate_run((r for r in records), labels) == expected

    def test_generator_input_is_checked_in_the_same_pass(self):
        records = [normal_at(T0 + k * MIN, index=k) for k in range(10)]
        records[6] = normal_at(T0, index=6)
        with pytest.raises(OrderingError, match="index 6"):
            evaluate_run((r for r in records), [])


def unread_records():
    raise AssertionError("records were read before the spans were checked")
    yield


class TestSpans:
    """Both spans must be real numbers but no bools, finite, non-negative and fit a timedelta."""

    @pytest.mark.parametrize(
        "value",
        # A bool is a numbers.Real, but the configs' type rule refuses it, and so do the spans.
        [float("nan"), float("inf"), float("-inf"), 1e300, pytest.param(10**400, id="int-1e400"), -5.0, "1", None,
         True, False],
    )
    @pytest.mark.parametrize("span", ["pre_window_minutes", "grace_minutes"])
    @pytest.mark.parametrize(
        "labels", [[datetime(2020, 1, 1)], []], ids=["evaluate_run", "evaluate_run_no_labels"]
    )
    def test_bad_span_is_a_config_error_before_any_record(self, labels, span, value):
        # Checked even when no label would ever use the span.
        with pytest.raises(ConfigError, match=span):
            evaluate_run(unread_records(), labels, **{span: value})

    @pytest.mark.parametrize("value", [-(10**400), Fraction(-(10**400))], ids=["int", "fraction"])
    def test_a_negative_span_past_the_float_range_breaks_the_non_negative_rule(self, value):
        # A negative int past the float range was "longer than a time span can be".
        with pytest.raises(ConfigError, match="^grace_minutes must be a finite, non-negative number of minutes"):
            evaluate_run(unread_records(), [T0], grace_minutes=value)

    @pytest.mark.parametrize("value", [np.float32(60), np.int64(5), Fraction(1, 2)])
    def test_a_real_number_that_is_no_float_is_read_as_one(self, value):
        records = [anomaly_at(T0 - 40 * MIN, 0), anomaly_at(T0 - 2 * MIN, 1), anomaly_at(T0 + MIN, 2)]
        spans = {"pre_window_minutes": value, "grace_minutes": value}
        expected = score(records, [T0], **{name: float(minutes) for name, minutes in spans.items()})
        assert score(records, [T0], **spans) == expected

    def test_spans_are_keyword_only(self):
        # A positional 3, once the look-back, must not become a 3-minute pre-window.
        with pytest.raises(TypeError):
            evaluate_run(unread_records(), [T0], 3)

    def test_zero_spans_match_only_the_labeled_instant(self):
        records = [anomaly_at(T0 - MIN, 0), anomaly_at(T0, 1), anomaly_at(T0 + MIN, 2)]
        summary = score(records, [T0], pre_window_minutes=0.0, grace_minutes=0.0)
        [result] = summary.lead_times
        assert result.status is LeadStatus.ON_TIME
        assert summary.false_warning_count == 2


@pytest.mark.parametrize("look_back", range(2, 7))
def test_scored_points_are_the_points_past_the_ramp(look_back):
    # The phases a detector writes carry the ramp: no look-back is passed.
    ramp = 2 * look_back - 1
    for n in (0, 1, ramp - 1, ramp, ramp + 1, ramp + 2, ramp + 9):
        series = np.random.default_rng(n).uniform(10, 90, n)
        detector = Detector(DetectorConfig(look_back=look_back), PerfectEngine(series, look_back))
        records = [detector.step(v) for v in series]
        assert summarize_run(records).eligible_points == max(0, n - ramp), n


NAIVE = datetime(2021, 1, 1)
AWARE = NAIVE.replace(tzinfo=timezone.utc)
ORDER_CASES = {
    "equal": (NAIVE, NAIVE, None),
    "later": (NAIVE, NAIVE + MIN, None),
    "earlier": (NAIVE, NAIVE - MIN, OrderingError),
    "aware_after_naive": (NAIVE, AWARE + MIN, DataError),
    "naive_after_aware": (AWARE, NAIVE + MIN, DataError),
}


def step_pair(first, second, tmp_path):
    detector = Detector()
    detector.step(1.0, first)
    detector.step(2.0, second)


def read_pair(first, second, tmp_path):
    path = tmp_path / "pair.csv"
    path.write_text(f"timestamp,value\n{first.isoformat(sep=' ')},1\n{second.isoformat(sep=' ')},2\n")
    list(read_series(path))


def evaluate_pair(first, second, tmp_path):
    evaluate_run([make_record(0, timestamp=first), make_record(1, timestamp=second)], [])


# Where each consumer says the pair failed, ahead of the rule's own message.
ORDER_PREFIXES = {step_pair: "", read_pair: "{}:3: ", evaluate_pair: "record at index 1: "}


@pytest.mark.parametrize("case", ORDER_CASES)
@pytest.mark.parametrize("consume", [step_pair, read_pair, evaluate_pair])
def test_one_timestamp_order_rule(consume, case, tmp_path):
    """The detector, the series reader and the scorer judge the same pair of
    consecutive timestamps alike, down to the exception class, and each names
    its place once."""
    first, second, expected = ORDER_CASES[case]
    if expected is None:
        consume(first, second, tmp_path)
        return
    with pytest.raises(expected) as exc:
        consume(first, second, tmp_path)
    assert type(exc.value) is expected
    prefix = ORDER_PREFIXES[consume].format(tmp_path / "pair.csv")
    assert str(exc.value).startswith(prefix + "timestamp "), str(exc.value)


def test_braces_in_a_path_or_key_reach_the_message_unchanged(tmp_path):
    series = tmp_path / "a{}{0}.csv"
    series.write_text("timestamp,value\n2021-01-01 00:01,1\n2021-01-01 00:00,2\n")
    with pytest.raises(OrderingError) as exc:
        list(read_series(series))
    assert str(exc.value).startswith(f"{series}:3: timestamp ")
    labels = tmp_path / "labels{}.json"
    labels.write_text('{"k{}{0}": ["2021-01-02", "2021-01-01"], "x{}": ["noon"]}')
    with pytest.raises(OrderingError) as exc:
        read_labels(labels, "k{}{0}")
    assert str(exc.value).startswith(f"{labels}[k{{}}{{0}}]: label timestamps must be strictly increasing")
    with pytest.raises(DataError) as exc:
        read_labels(labels, "x{}")
    assert str(exc.value) == f"{labels}[x{{}}]: unparsable timestamp 'noon'"
