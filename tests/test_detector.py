import dataclasses
import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from presage.detector import (
    Detector,
    DetectorConfig,
    LstmEngine,
    Phase,
    Verdict,
    phase_of,
)
from presage.errors import ConfigError, DataError, OrderingError
from presage.forecaster import LstmConfig
from presage.scoring import aare

from helpers import (
    EngineFailure,
    FailingEngine,
    LargeErrorEngine,
    PerfectEngine,
    RecordingEngine,
    ScriptedEngine,
    make_record,
    threshold,
    without_timing,
)

# Small network for tests that exercise the state machine rather than
# the forecaster itself.
FAST_LSTM = LstmConfig(hidden_units=4, max_epochs=15, seed=42)


def phase_oracle(t, b):
    """Independent restatement of the phase guards."""
    if t >= 2 * b + 1:
        return Phase.DETECTING
    if t >= 2 * b - 1:
        return Phase.BOOTSTRAP
    if t >= b - 1:
        return Phase.WARMUP
    return Phase.COLLECTING


class TestPhaseOf:
    @pytest.mark.parametrize(
        "t,b,expected",
        [
            (0, 3, Phase.COLLECTING),
            (1, 3, Phase.COLLECTING),
            (2, 3, Phase.WARMUP),
            (4, 3, Phase.WARMUP),
            (5, 3, Phase.BOOTSTRAP),
            (6, 3, Phase.BOOTSTRAP),
            (7, 3, Phase.DETECTING),
            (100, 3, Phase.DETECTING),
        ],
    )
    def test_reference_points(self, t, b, expected):
        assert phase_of(t, b) is expected

    def test_matches_guard_oracle_exhaustively(self):
        for b in range(2, 7):
            for t in range(0, 101):
                assert phase_of(t, b) is phase_oracle(t, b)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            phase_of(-1, 3)
        with pytest.raises(ValueError):
            phase_of(0, 1)


class TestConfig:
    def test_defaults(self):
        config = DetectorConfig()
        assert config.look_back == 3

    def test_look_back_minimum(self):
        with pytest.raises(ConfigError):
            DetectorConfig(look_back=1)

    def test_epsilon_positive(self):
        # inf would score every point 0 and nan compares false with 0.
        for epsilon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                DetectorConfig(epsilon=epsilon)


class TestPhaseSchedule:
    def test_fresh_detector_has_no_points(self):
        detector = Detector(DetectorConfig(lstm=FAST_LSTM))
        assert detector.time_index == -1
        assert detector.model is None

    def test_records_follow_the_schedule(self):
        detector = Detector(DetectorConfig(lstm=FAST_LSTM))
        values = [50.0, 51.0, 49.5, 50.5, 50.2, 49.8, 50.1, 50.4, 49.9, 50.0]
        records = [detector.step(v) for v in values]

        for record in records[:2]:
            assert record.phase is Phase.COLLECTING
            assert record.verdict is Verdict.PENDING
            assert record.predicted is None and record.aare is None

        # first training happens at t = 2; predictions exist from t = 3 on
        assert detector.model is not None
        assert records[2].predicted is None
        for record in records[3:]:
            assert record.predicted is not None

        for record in records[2:5]:
            assert record.phase is Phase.WARMUP
            assert record.verdict is Verdict.PENDING
            assert record.aare is None
        for record in records[5:7]:
            assert record.phase is Phase.BOOTSTRAP
            assert record.verdict is Verdict.PENDING
            assert record.aare is not None and record.threshold is None
        for record in records[7:]:
            assert record.phase is Phase.DETECTING
            assert record.verdict in (Verdict.NORMAL, Verdict.ANOMALY)
            assert record.aare is not None and record.threshold is not None

    def test_history_length_tracks_time(self):
        b = 3
        detector = Detector(DetectorConfig(look_back=b, lstm=FAST_LSTM))
        records = [detector.step(50.0 + 0.1 * k) for k in range(20)]
        scored = sum(1 for r in records if r.aare is not None)
        assert scored == detector.time_index - 2 * b + 2

    def test_look_back_two_starts_detecting_at_five(self):
        detector = Detector(DetectorConfig(look_back=2, lstm=FAST_LSTM))
        records = [detector.step(v) for v in [10.0, 11.0, 10.5, 10.8, 10.2, 10.6, 10.4]]
        assert [r.verdict is Verdict.PENDING for r in records] == [True] * 5 + [False] * 2
        assert records[5].phase is Phase.DETECTING


class TestStepValidation:
    def test_non_finite_value_rejected_without_state_change(self):
        detector = Detector(DetectorConfig(lstm=FAST_LSTM))
        twin = Detector(DetectorConfig(lstm=FAST_LSTM))
        for v in [50.0, 51.0, 49.0, 50.5]:
            detector.step(v)
            twin.step(v)
        before = detector.time_index
        with pytest.raises(DataError):
            detector.step(float("nan"))
        assert detector.time_index == before
        # the stream continues with contiguous indices, as if the NaN never came
        after = [50.2, 49.7, 50.9, 50.1, 49.6]
        records = [detector.step(v) for v in after]
        assert records[0].time_index == before + 1
        assert without_timing(records) == without_timing([twin.step(v) for v in after])

    def test_timestamp_regression_rejected(self):
        detector = Detector(DetectorConfig(lstm=FAST_LSTM))
        t0 = datetime(2021, 1, 1, 0, 0)
        detector.step(1.0, t0)
        with pytest.raises(OrderingError):
            detector.step(2.0, t0 - timedelta(minutes=5))
        # duplicates are fine (index-based semantics)
        record = detector.step(2.0, t0)
        assert record.time_index == 1

    @pytest.mark.parametrize("aware_first", [False, True])
    def test_mixed_timezone_awareness_leaves_no_trace(self, aware_first):
        failed_t = 9
        series = 50 + 3 * np.sin(np.arange(20) / 4)
        tz = timezone.utc if aware_first else None
        stamps = [datetime(2021, 1, 1, tzinfo=tz) + k * timedelta(minutes=5) for k in range(20)]
        config = DetectorConfig(lstm=FAST_LSTM)
        detector = Detector(config)
        records = []
        for t, (value, stamp) in enumerate(zip(series, stamps)):
            if t == failed_t:
                other = stamp.replace(tzinfo=None if aware_first else timezone.utc)
                with pytest.raises(DataError, match="timezone-aware and naive"):
                    detector.step(value, other)
            else:
                records.append(detector.step(value, stamp))

        twin = Detector(config)
        expected = [twin.step(v, s) for t, (v, s) in enumerate(zip(series, stamps)) if t != failed_t]
        assert without_timing(records) == without_timing(expected)


class TestDoubleCheck:
    """Drive the retrain/re-check branches with a scripted engine."""

    B = 3
    SABOTAGE_T = 20

    def _series(self, n=30):
        rng = np.random.default_rng(55)
        return rng.uniform(10, 90, n)

    def test_perfect_predictions_never_retrain(self):
        series = self._series()
        engine = PerfectEngine(series, self.B)
        detector = Detector(DetectorConfig(look_back=self.B), engine=engine)
        records = [detector.step(v) for v in series]
        assert not any(r.retrained for r in records)
        assert all(r.verdict is not Verdict.ANOMALY for r in records)
        assert all(r.aare is None or r.aare == 0.0 for r in records)

    def test_recovered_recheck_swaps_model_and_stores_recomputed_error(self):
        series = self._series()
        engine = ScriptedEngine(
            series, self.B, lie_once={self.SABOTAGE_T: series[self.SABOTAGE_T] * 1.5}
        )
        detector = Detector(DetectorConfig(look_back=self.B), engine=engine)
        records = []
        model_before = None
        for index, value in enumerate(series):
            if index == self.SABOTAGE_T:
                model_before = detector.model
            records.append(detector.step(value))

        record = records[self.SABOTAGE_T]
        assert record.retrained is True
        assert record.verdict is Verdict.NORMAL
        assert [r.time_index for r in records if r.retrained] == [self.SABOTAGE_T]
        # the candidate model replaced the old one
        assert detector.model is not model_before
        # the recomputed (perfect) error is the point's score, and it entered
        # every later threshold in place of the bad one
        assert record.aare == 0.0
        aares = [r.aare for r in records if r.aare is not None]
        for later in records[self.SABOTAGE_T + 1 :]:
            prefix = aares[: later.time_index - (2 * self.B - 1) + 1]
            assert later.threshold == threshold(prefix)
        # the record carries the corrected forecast
        assert record.predicted == pytest.approx(series[self.SABOTAGE_T])
        assert all(r.verdict is not Verdict.ANOMALY for r in records)

    def test_persistent_misprediction_reports_anomaly_and_keeps_model(self):
        series = self._series()
        wrong = series[self.SABOTAGE_T] * 1.5
        engine = ScriptedEngine(series, self.B, lie_always={self.SABOTAGE_T: wrong})
        detector = Detector(DetectorConfig(look_back=self.B), engine=engine)
        records = []
        model_before = None
        for index, value in enumerate(series):
            if index == self.SABOTAGE_T:
                model_before = detector.model
            records.append(detector.step(value))

        record = records[self.SABOTAGE_T]
        assert record.verdict is Verdict.ANOMALY
        assert record.retrained is True
        assert [r.time_index for r in records if r.retrained] == [self.SABOTAGE_T]
        # anomaly branch retains the previous model
        assert detector.model is model_before
        expected_error = (
            abs(series[self.SABOTAGE_T] - wrong) / series[self.SABOTAGE_T] / self.B
        )
        assert record.aare == pytest.approx(expected_error)

    def test_anomaly_keeps_the_recheck_forecast_for_later_scores(self):
        # The first pass and the recheck forecast point t differently, so the
        # forecast stored for t after an ANOMALY shows which one was kept.
        series = self._series()
        t = self.SABOTAGE_T
        first, recheck = 1.5 * series[t], 2.0 * series[t]
        engine = ScriptedEngine(series, self.B, lie_in_turn={t: [first, recheck]})
        detector = Detector(DetectorConfig(look_back=self.B), engine=engine)
        records = [detector.step(v) for v in series]

        assert records[t].verdict is Verdict.ANOMALY
        assert records[t].predicted == recheck
        truth = [float(v) for v in series]
        forecasts = truth[:t] + [recheck] + truth[t + 1 :]
        for later in (t + 1, t + 2):
            start = later - self.B + 1
            assert records[later].aare == aare(
                truth[start : later + 1], forecasts[start : later + 1]
            )
        assert records[t + 3].aare == 0.0

    def test_no_anomaly_before_detection_starts(self):
        rng = np.random.default_rng(77)
        for b in (2, 3, 4):
            for _ in range(5):
                series = rng.uniform(5, 95, 4 * b)
                detector = Detector(
                    DetectorConfig(look_back=b, lstm=FAST_LSTM),
                )
                records = [detector.step(v) for v in series]
                for record in records:
                    if record.time_index < 2 * b + 1:
                        assert record.verdict is not Verdict.ANOMALY


class TestReplayDeterminism:
    def test_identical_runs_match_except_decision_time(self):
        rng = np.random.default_rng(31)
        series = np.cumsum(rng.normal(0, 1, 60)) + 100

        def run():
            detector = Detector(DetectorConfig(lstm=LstmConfig(seed=5)))
            return [detector.step(v) for v in series]

        first = run()
        second = run()
        for rec_a, rec_b in zip(first, second):
            assert rec_a.verdict == rec_b.verdict
            assert rec_a.predicted == rec_b.predicted
            assert rec_a.aare == rec_b.aare
            assert rec_a.threshold == rec_b.threshold
            assert rec_a.retrained == rec_b.retrained


class TestRecord:
    def test_takes_no_attribute_beyond_its_fields(self):
        record = make_record(7, value=2.5)
        with pytest.raises(AttributeError):
            record.note = "extra"
        assert not hasattr(record, "__dict__")
        assert dataclasses.replace(record, value=3.0) == make_record(7, value=3.0)


class TestEngineFailure:
    """An engine that raises leaves the detector as if the point never came."""

    B = 3
    SPIKE_T = 20

    def _series(self):
        rng = np.random.default_rng(55)
        series = 50 + 3 * np.sin(np.arange(30) / 4) + rng.normal(0, 0.3, 30)
        series[self.SPIKE_T] += 200.0
        return series

    # Engine calls with b = 3: train at t = 2..6 (warm-up, bootstrap) and
    # on each recheck; predict at every t >= 2, a recheck's before t's own.
    @pytest.mark.parametrize(
        "method,call,failed_t",
        [
            ("train", 1, 2),  # warm-up
            ("train", 4, 5),  # bootstrap
            ("predict", 6, 7),  # the first detecting forecast
            ("train", 6, SPIKE_T),  # the recheck train
            ("predict", SPIKE_T - 1, SPIKE_T),  # the recheck predict
        ],
    )
    def test_failed_point_leaves_no_trace(self, method, call, failed_t):
        series = self._series()
        config = DetectorConfig(look_back=self.B, lstm=FAST_LSTM)
        unfailing = Detector(config)
        rechecked = [t for t, v in enumerate(series) if unfailing.step(v).retrained]
        assert rechecked == [self.SPIKE_T]

        detector = Detector(config, engine=FailingEngine(LstmEngine(FAST_LSTM), method, call))
        records, failed = [], []
        for t, value in enumerate(series):
            try:
                records.append(detector.step(value))
            except EngineFailure:
                failed.append(t)
        assert failed == [failed_t]

        twin = Detector(config)
        expected = [twin.step(v) for t, v in enumerate(series) if t != failed_t]
        assert without_timing(records) == without_timing(expected)


class TestThresholdBookkeeping:
    def test_running_threshold_matches_pure_function(self):
        rng = np.random.default_rng(13)
        series = np.cumsum(rng.normal(0, 2, 80)) + 60
        # Scores of about 1e4 whose spread is 3e-4: the variance is 1e-15 of
        # the mean square, below what raw sums of squares can resolve.
        large = np.random.default_rng(21).uniform(1, 2, 5000)
        cases = [
            (series, Detector(DetectorConfig(lstm=FAST_LSTM))),
            (large, Detector(DetectorConfig(), engine=LargeErrorEngine(large, 3))),
        ]
        for values, detector in cases:
            records = [detector.step(v) for v in values]
            b = detector.config.look_back
            aares = [r.aare for r in records if r.aare is not None]
            for record in records:
                if record.threshold is None or record.retrained:
                    continue
                prefix = aares[: record.time_index - (2 * b - 1) + 1]
                assert record.threshold == pytest.approx(
                    threshold(prefix), rel=1e-9, abs=1e-12
                )

    def test_engine_epoch_accounting(self):
        engine = RecordingEngine(FAST_LSTM)
        detector = Detector(DetectorConfig(lstm=FAST_LSTM), engine=engine)
        rng = np.random.default_rng(3)
        for v in rng.uniform(20, 80, 25):
            detector.step(v)
        assert engine.epoch_counts  # warmup + bootstrap at minimum
        assert all(1 <= n <= FAST_LSTM.max_epochs for n in engine.epoch_counts)


class TestOverflow:
    """Windows whose spread or forecast leaves the float range, stepped
    with every floating-point warning and error turned into an exception."""

    def _step_all(self, series):
        detector = Detector(DetectorConfig(lstm=FAST_LSTM))
        outcomes = []
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in series:
                try:
                    outcomes.append(detector.step(value))
                except DataError:
                    outcomes.append(None)
        return outcomes

    def test_window_too_large_to_normalize_is_rejected_then_the_stream_goes_on(self):
        outcomes = self._step_all([50.0, 1.7e308, 1.7e308] + [50.0 + k for k in range(12)])
        assert outcomes[2] is None
        records = outcomes[:2] + outcomes[3:]
        assert [r.time_index for r in records] == list(range(len(records)))
        assert all(r.predicted is None or math.isfinite(r.predicted) for r in records)

    def test_alternating_huge_values_give_a_record_at_every_point(self):
        # The squared deviations of these windows overflow; they once left a
        # model with an infinite std whose NaN forecast failed every later step.
        records = self._step_all([1e160, -1e160] * 3 + [1.0 + k for k in range(10)])
        assert [r.time_index for r in records] == list(range(16))
        assert all(r.predicted is None or math.isfinite(r.predicted) for r in records)

    def test_subnormal_window_gives_a_record_or_data_error_at_every_point(self):
        # The window 1.7e308, -1.7e308, 50.0 normalizes 50.0 to about 2e-307,
        # and training on it or forecasting from it underflows.
        outcomes = self._step_all([50.0, 1.7e308, -1.7e308, 50.0, 51.0])
        records = [r for r in outcomes if r is not None]
        assert len(outcomes) == 5
        assert [r.time_index for r in records] == list(range(len(records)))

    def test_threshold_stays_finite_after_huge_scores(self):
        # Scores of about 1e159 once overflowed the running M2, and every
        # threshold from t=7 on was inf.
        records = self._step_all([1e160, -1e160] * 3 + [1.0 + k % 5 for k in range(20)])
        aares = [r.aare for r in records if r.aare is not None]
        for record in records[7:]:
            assert math.isfinite(record.threshold)
            if not record.retrained:
                prefix = aares[: record.time_index - (2 * 3 - 1) + 1]
                assert record.threshold == pytest.approx(
                    threshold(prefix), rel=1e-9, abs=1e-12
                )

    def test_score_past_the_float_range_is_rejected_and_leaves_no_trace(self):
        # The forecast for the 0.0 is about 1e301, so its relative error is
        # about 1e309. It once scored inf, the running statistics became NaN,
        # and every later point was rechecked and reported an anomaly.
        series = [1e301, 2e301, 1.5e301, 1.2e301, 1.7e301, 1.1e301, 1.3e301, 1.6e301]
        detector = Detector(DetectorConfig(lstm=FAST_LSTM))
        records = [detector.step(v) for v in series]
        state = (detector.model, list(detector._buffer), list(detector._forecasts),
                 detector._welford)
        with pytest.raises(DataError, match="score overflows"):
            detector.step(0.0)
        assert detector.time_index == 7
        assert state == (detector.model, list(detector._buffer), list(detector._forecasts),
                         detector._welford)
        records.append(detector.step(1.4e301))
        twin = Detector(DetectorConfig(lstm=FAST_LSTM))
        assert without_timing(records) == without_timing(
            [twin.step(v) for v in series + [1.4e301]]
        )
        assert math.isfinite(records[-1].threshold)

    def test_huge_spike_is_an_anomaly(self):
        series = [float(v) for v in 50 + 3 * np.sin(np.arange(40) / 4)]
        series[30] = -1e160
        records = self._step_all(series)
        assert [r.time_index for r in records] == list(range(40))
        assert records[30].verdict is Verdict.ANOMALY
