import copy
import dataclasses
import functools
import importlib.util
import math
import pickle
import sys
import tracemalloc
import types
import warnings
from collections import Counter
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from presage import forecaster, scoring
from presage.data_io import read_report
from presage.detector import (
    Detector,
    DetectorConfig,
    LstmEngine,
    Phase,
    Verdict,
    _phase_of,
)
from presage.errors import ConfigError, DataError, OrderingError
from presage.forecaster import LstmConfig
from presage.scoring import aare

from helpers import (
    REPO_ROOT,
    EngineFailure,
    FailingEngine,
    LargeErrorEngine,
    BadForecastEngine,
    PerfectEngine,
    RecordingEngine,
    ScriptedEngine,
    make_record,
    reference_detector,
    threshold,
    without_timing,
    write_records,
)

# Few epochs for tests that exercise the state machine rather than
# the forecaster itself.
FAST_LSTM = LstmConfig(max_epochs=15, seed=42)


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
        assert _phase_of(t, b) is expected

    def test_matches_guard_oracle_exhaustively(self):
        for b in range(2, 7):
            for t in range(0, 101):
                assert _phase_of(t, b) is phase_oracle(t, b)


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

    @pytest.mark.parametrize(
        "make,name,bad",
        [
            (DetectorConfig, "look_back", 2.5),
            (DetectorConfig, "look_back", "3"),
            (DetectorConfig, "look_back", True),
            (DetectorConfig, "epsilon", "1"),
            (DetectorConfig, "epsilon", True),  # was kept, and written as true into a run summary
            (LstmConfig, "max_epochs", 7.5),
            (LstmConfig, "max_epochs", True),  # would train for one epoch
            (LstmConfig, "seed", 1.5),
            (LstmConfig, "seed", False),  # would seed with 0
            (DetectorConfig, "epsilon", False),
            (DetectorConfig, "epsilon", None),
        ],
    )
    def test_a_field_of_the_wrong_type_is_a_config_error_naming_it(self, make, name, bad):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            make(**{name: bad})

    @pytest.mark.parametrize(
        "make,name,error",
        [
            (DetectorConfig, "look_back", ConfigError),
            (DetectorConfig, "epsilon", ConfigError),
            (LstmConfig, "max_epochs", ConfigError),
            (LstmConfig, "seed", ConfigError),
            (functools.partial(aare, [1.0], [1.0]), "epsilon", ValueError),
        ],
        ids=["look_back", "epsilon", "max_epochs", "seed", "aare-epsilon"],
    )
    def test_an_int_too_long_to_print_is_refused_naming_its_field(self, make, name, error):
        # Each message formatted the value, which raised a raw ValueError:
        # "Exceeds the limit (4300 digits) for integer string conversion".
        with pytest.raises(error, match=f"^{name} must be .*, got a value too long to print \\(int\\)$"):
            make(**{name: -(10**5000)})

    @pytest.mark.parametrize("bad", ["x", {}, DetectorConfig()], ids=["str", "dict", "DetectorConfig"])
    def test_an_engine_config_that_is_no_lstm_config_is_a_config_error(self, bad):
        # "x" was kept, and failed every step from t=b-1 on with an AttributeError.
        with pytest.raises(ConfigError, match="^config must be an LstmConfig or None, got "):
            LstmEngine(bad)

    @pytest.mark.parametrize("epsilon", [10**400, 2**1024 - 1, Fraction(10**400)], ids=["1e400", "2**1024-1", "fraction"])
    def test_an_epsilon_past_the_float_range_is_a_config_error_naming_it(self, epsilon):
        # math.isfinite raised a raw OverflowError for an int it cannot convert.
        with pytest.raises(ConfigError, match="^epsilon must be a real number, positive and finite, got "):
            DetectorConfig(epsilon=epsilon)
        assert DetectorConfig(epsilon=int(sys.float_info.max)).epsilon == sys.float_info.max

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"config": "x"}, "^config must be a DetectorConfig or None, got 'x'$"),
            ({"config": LstmConfig()}, "^config must be a DetectorConfig or None, got LstmConfig"),
            ({"engine": "x"}, "^engine must have callable train and predict methods, got 'x'$"),
            ({"engine": LstmConfig()}, "^engine must have callable train and predict methods, got LstmConfig"),
            ({"engine": types.SimpleNamespace(train=print, predict=None)}, "^engine must have callable train and"),
        ],
        ids=["str-config", "lstm-config", "str-engine", "config-engine", "predict-not-callable"],
    )
    def test_a_detector_checks_its_arguments_when_built(self, kwargs, message):
        # Each was kept, and failed at t=0 (config) or t=b-1 (engine) with an AttributeError.
        with pytest.raises(ConfigError, match=message):
            Detector(**kwargs)

    def test_a_duck_typed_engine_is_an_engine(self):
        series = [float(k * k) for k in range(12)]
        engine = types.SimpleNamespace(train=lambda window: None, predict=lambda model, window: 1.0)
        assert [r.predicted for r in map(Detector(engine=engine).step, series)][-1] == 1.0
        detector = Detector(DetectorConfig(look_back=2), PerfectEngine(series, 2))
        assert [r.verdict for r in map(detector.step, series)][-1] is Verdict.NORMAL

    def test_the_forecaster_is_configured_through_its_engine_only(self):
        with pytest.raises(TypeError):
            DetectorConfig(lstm=LstmConfig())
        assert Detector().engine.config == LstmEngine(None).config == LstmConfig()
        config = LstmConfig(seed=7)
        assert Detector(engine=LstmEngine(config)).engine.config is config

    def test_a_numpy_epsilon_gives_the_records_of_its_float(self, tmp_path):
        # Values below the floor are scored against it: an np.float32 once gave
        # np.float32 scores, whose casts overflowed in the running threshold and
        # which a report wrote as "np.float32(...)".
        series = [0.1 * math.sin(k) for k in range(12)]
        detectors = [Detector(DetectorConfig(epsilon=e), LstmEngine(FAST_LSTM)) for e in (np.float32(1.0), 1.0)]
        numpy_run, float_run = (without_timing([d.step(v) for v in series]) for d in detectors)
        assert numpy_run == float_run and type(numpy_run[-1].aare) is float
        write_records(numpy_run, tmp_path / "report.csv")
        assert without_timing(read_report(tmp_path / "report.csv")) == numpy_run

    def test_any_real_number_fills_a_real_field(self):
        # Each was kept as given, so every aare call took its slow conversion path.
        for epsilon in (np.float64(1e-6), 1, np.float32(0.5), Fraction(1, 2)):
            kept = DetectorConfig(epsilon=epsilon).epsilon
            assert type(kept) is float and kept == float(epsilon)


class TestPhaseSchedule:
    def test_fresh_detector_has_no_points(self):
        detector = Detector(engine=LstmEngine(FAST_LSTM))
        assert detector.time_index == -1
        assert detector.model is None

    def test_model_and_time_index_are_read_only(self):
        detector = Detector(engine=LstmEngine(FAST_LSTM))
        for name in ("model", "time_index"):
            with pytest.raises(AttributeError):
                setattr(detector, name, None)

    def test_records_follow_the_schedule(self):
        detector = Detector(engine=LstmEngine(FAST_LSTM))
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
        detector = Detector(DetectorConfig(look_back=b), LstmEngine(FAST_LSTM))
        records = [detector.step(50.0 + 0.1 * k) for k in range(20)]
        scored = sum(1 for r in records if r.aare is not None)
        assert scored == detector.time_index - 2 * b + 2

    def test_state_grows_with_the_points_not_with_the_look_back(self):
        tracemalloc.start()
        try:
            detector = Detector(DetectorConfig(look_back=10**7), LstmEngine(FAST_LSTM))
            records = [detector.step(50.0 + k) for k in range(5)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.phase for r in records] == [Phase.COLLECTING] * 5
        assert peak < 1024 * 1024  # (None,) * 10**7 alone is 80 MB
        detector = Detector(DetectorConfig(look_back=3), LstmEngine(FAST_LSTM))
        for k in range(10):
            detector.step(50.0 + 0.1 * k)
            _, buffer, forecasts, *_ = detector._state
            assert (len(buffer), len(forecasts)) == (min(k + 1, 3), min(k + 2, 3))

    def test_look_back_two_starts_detecting_at_five(self):
        detector = Detector(DetectorConfig(look_back=2), LstmEngine(FAST_LSTM))
        records = [detector.step(v) for v in [10.0, 11.0, 10.5, 10.8, 10.2, 10.6, 10.4]]
        assert [r.verdict is Verdict.PENDING for r in records] == [True] * 5 + [False] * 2
        assert records[5].phase is Phase.DETECTING


class TestStepValidation:
    @pytest.mark.parametrize(
        "bad", [pytest.param(float("nan"), id="nan"), pytest.param(10**400, id="int-past-float")]
    )
    def test_non_finite_value_rejected_without_state_change(self, bad):
        detector = Detector(engine=LstmEngine(FAST_LSTM))
        twin = Detector(engine=LstmEngine(FAST_LSTM))
        for v in [50.0, 51.0, 49.0, 50.5]:
            detector.step(v)
            twin.step(v)
        before = detector.time_index
        with pytest.raises(DataError, match=f"^observation at t={before + 1} "):
            detector.step(bad)
        assert detector.time_index == before
        # the stream continues with contiguous indices, as if the bad value never came
        after = [50.2, 49.7, 50.9, 50.1, 49.6]
        records = [detector.step(v) for v in after]
        assert records[0].time_index == before + 1
        assert without_timing(records) == without_timing([twin.step(v) for v in after])

    def test_timestamp_regression_rejected(self):
        detector = Detector(engine=LstmEngine(FAST_LSTM))
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
        detector = Detector(engine=LstmEngine(FAST_LSTM))
        records = []
        for t, (value, stamp) in enumerate(zip(series, stamps)):
            if t == failed_t:
                other = stamp.replace(tzinfo=None if aware_first else timezone.utc)
                with pytest.raises(DataError, match="timezone-aware and naive"):
                    detector.step(value, other)
            else:
                records.append(detector.step(value, stamp))

        twin = Detector(engine=LstmEngine(FAST_LSTM))
        expected = [twin.step(v, s) for t, (v, s) in enumerate(zip(series, stamps)) if t != failed_t]
        assert without_timing(records) == without_timing(expected)

    @pytest.mark.parametrize("stamped_first", [False, True])
    @pytest.mark.parametrize("bad", ["2020-01-01", 5, 1.0, 10**5000], ids=["str", "int", "float", "int-too-long-to-print"])
    def test_a_timestamp_that_is_no_datetime_is_refused_and_leaves_no_trace(self, bad, stamped_first):
        # Stored, such a timestamp would break the next stamped step's ordering check.
        detector = Detector(engine=LstmEngine(FAST_LSTM))
        t0 = datetime(2021, 1, 1)
        detector.step(50.0, t0 if stamped_first else None)
        state = detector._state
        with pytest.raises(ValueError, match="^timestamp at t=1 must be a datetime or None, got "):
            detector.step(51.0, bad)
        assert detector._state is state
        assert detector.step(51.0, t0 + timedelta(minutes=5)).time_index == 1

    @pytest.mark.parametrize(
        "bad,shown",
        [
            (np.complex64(3 + 4j), "np.complex64(3+4j)"),  # float() would keep 3.0 and warn
            (np.complex128(3 + 4j), "np.complex128(3+4j)"),
            (3 + 4j, "(3+4j)"),
            (None, "None"),
            ([1.0], "[1.0]"),
            ("x1", "'x1'"),
        ],
    )
    def test_a_value_that_is_no_real_number_is_named_and_leaves_no_trace(self, bad, shown):
        detector = Detector(engine=LstmEngine(FAST_LSTM))
        for v in [50.0, 51.0, 49.0, 50.5]:
            detector.step(v)
        state = detector._state
        with pytest.raises(ValueError) as raised:
            detector.step(bad)
        assert str(raised.value) == f"observation at t=4 must be a real number, got {shown}"
        assert detector._state is state

    def test_text_values_are_read_by_float(self):
        texts = ["50.5", b"51", " 49.25 ", b"50", "5e1", b"49.5", "50.75", "51.5"]
        detector, twin = (Detector(DetectorConfig(look_back=2), LstmEngine(FAST_LSTM)) for _ in range(2))
        records = [detector.step(text) for text in texts]
        assert without_timing(records) == without_timing([twin.step(float(t)) for t in texts])


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
                detector = Detector(DetectorConfig(look_back=b), LstmEngine(FAST_LSTM))
                records = [detector.step(v) for v in series]
                for record in records:
                    if record.time_index < 2 * b + 1:
                        assert record.verdict is not Verdict.ANOMALY


class TestReplayDeterminism:
    def test_identical_runs_match_except_decision_time(self):
        rng = np.random.default_rng(31)
        series = np.cumsum(rng.normal(0, 1, 60)) + 100

        def run():
            detector = Detector(engine=LstmEngine(LstmConfig(seed=5)))
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
        unfailing = Detector(DetectorConfig(look_back=self.B), LstmEngine(FAST_LSTM))
        rechecked = [t for t, v in enumerate(self._series()) if unfailing.step(v).retrained]
        assert rechecked == [self.SPIKE_T]
        engine = FailingEngine(LstmEngine(FAST_LSTM), method, call)
        self._assert_only_point_failed(engine, EngineFailure, failed_t)

    # A NaN forecast made at t = 11 is for t = 12; the recheck forecast at
    # SPIKE_T is for SPIKE_T itself.
    @pytest.mark.parametrize("call,failed_t", [(10, 11), (SPIKE_T - 1, SPIKE_T)])
    def test_a_nan_forecast_fails_only_the_step_that_made_it(self, call, failed_t):
        engine = BadForecastEngine(LstmEngine(FAST_LSTM), call, math.nan)
        self._assert_only_point_failed(engine, DataError, failed_t)

    @pytest.mark.parametrize("complex_type", [np.complex64, np.complex128])
    @pytest.mark.parametrize("call,failed_t", [(10, 11), (SPIKE_T - 1, SPIKE_T)])
    def test_a_complex_forecast_fails_only_the_step_that_made_it(self, complex_type, call, failed_t):
        engine = BadForecastEngine(LstmEngine(FAST_LSTM), call, complex_type(50 + 1j))
        self._assert_only_point_failed(engine, ValueError, failed_t)

    @pytest.mark.parametrize("bad,shown", [(None, "None"), ((50 + 1j), "(50+1j)"), ("x", "'x'")])
    def test_a_forecast_that_is_no_real_number_is_named_as_one_value(self, bad, shown):
        detector = Detector(DetectorConfig(look_back=self.B), engine=BadForecastEngine(LstmEngine(FAST_LSTM), 1, bad))
        detector.step(50.0)
        detector.step(51.0)
        with pytest.raises(ValueError) as raised:
            detector.step(52.0)
        assert str(raised.value) == f"forecast at t=3 must be a real number, got {shown}"

    def test_a_numpy_forecast_is_stored_as_a_float_and_its_report_reads_back(self, tmp_path):
        class NumpyEngine(LstmEngine):
            def predict(self, model, window):
                return np.float64(super().predict(model, window))

        detector = Detector(DetectorConfig(look_back=self.B), engine=NumpyEngine(FAST_LSTM))
        records = [detector.step(v) for v in self._series()]
        assert all(type(r.predicted) is float for r in records[self.B :])
        write_records(records, tmp_path / "report.csv")
        assert read_report(tmp_path / "report.csv") == records

    def _assert_only_point_failed(self, engine, error, failed_t):
        """Step the series through ``engine``: only point ``failed_t`` raises
        ``error``, and the records are a twin's that never saw that point."""
        series = self._series()
        config = DetectorConfig(look_back=self.B)
        detector = Detector(config, engine=engine)
        records, failed = [], []
        for t, value in enumerate(series):
            state = detector._state
            try:
                records.append(detector.step(value))
            except error:
                assert detector._state is state
                failed.append(t)
        assert failed == [failed_t]
        assert [r.time_index for r in records] == list(range(len(series) - 1))

        twin = Detector(config, LstmEngine(FAST_LSTM))
        expected = [twin.step(v) for t, v in enumerate(series) if t != failed_t]
        assert without_timing(records) == without_timing(expected)


class ColdEngine(LstmEngine):
    """``LstmEngine`` that forecasts without a memo: every forecast is cold."""

    def predict(self, model, window):
        return forecaster.predict_next(model, window)


def shift_and_dip(seed: int = 0, n: int = 80, shift: float = 25.0, dips=((60, 40.0),)) -> np.ndarray:
    """A seasonal series with a level ``shift`` at t=30 and each ``(t, depth)``
    of ``dips``. By default ``FAST_LSTM`` rechecks the shift and swaps for it
    at t=32, then rechecks the dip at t=60..62 and reports it as anomalies."""
    rng = np.random.default_rng(seed)
    series = 50 + 3 * np.sin(np.arange(n) / 4) + rng.normal(0, 0.3, n)
    series[30:] += shift
    for t, depth in dips:
        series[t] -= depth
    return series


class TestEngineMemo:
    """The engine's forecast memo changes no record."""

    def test_the_shift_and_dip_replay_swaps_and_reports(self):
        detector = Detector(engine=LstmEngine(FAST_LSTM))
        rechecks = [(r.time_index, r.verdict) for r in map(detector.step, shift_and_dip()) if r.retrained]
        assert (32, Verdict.NORMAL) in rechecks and (60, Verdict.ANOMALY) in rechecks

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        look_back=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        shift=st.floats(-25.0, 25.0),
        dips=st.lists(st.tuples(st.integers(15, 79), st.floats(-40.0, 40.0)), max_size=4),
    )
    @example(look_back=3, seed=0, shift=25.0, dips=[(60, 40.0)])  # shift_and_dip()
    def test_records_equal_those_of_forecasts_without_a_memo(self, look_back, seed, shift, dips):
        config = DetectorConfig(look_back=look_back)
        series = shift_and_dip(seed, shift=shift, dips=dips)
        warm_detector, cold_detector = (Detector(config, engine(FAST_LSTM)) for engine in (LstmEngine, ColdEngine))
        warm = [warm_detector.step(v) for v in series]
        cold = [cold_detector.step(v) for v in series]
        for verdict in {r.verdict.value for r in warm if r.retrained}:
            event(f"a recheck ends {verdict}")
        assert without_timing(warm) == without_timing(cold)

    def test_one_engine_shared_by_two_detectors(self):
        first, second = shift_and_dip(0), 20.0 + 2.0 * shift_and_dip(1)
        engine = LstmEngine(FAST_LSTM)
        shared = [Detector(engine=engine) for _ in range(2)]
        records = [[], []]
        for pair in zip(first, second):
            for detector, out, value in zip(shared, records, pair):
                out.append(detector.step(value))
        for series, got in zip((first, second), records):
            own = Detector(engine=LstmEngine(FAST_LSTM))
            assert without_timing(got) == without_timing([own.step(v) for v in series])

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_detector_copied_mid_stream_gives_its_twins_records(self, clone):
        series = shift_and_dip()
        original, twin = (Detector(engine=LstmEngine(FAST_LSTM)) for _ in range(2))
        for value in series[:40]:
            original.step(value)
            twin.step(value)
        copied = clone(original)
        expected = without_timing([twin.step(v) for v in series[40:]])
        assert without_timing([copied.step(v) for v in series[40:]]) == expected
        assert without_timing([original.step(v) for v in series[40:]]) == expected


class TestThresholdBookkeeping:
    def test_running_threshold_matches_pure_function(self):
        rng = np.random.default_rng(13)
        series = np.cumsum(rng.normal(0, 2, 80)) + 60
        # Scores of about 1e4 whose spread is 3e-4: the variance is 1e-15 of
        # the mean square, below what raw sums of squares can resolve.
        large = np.random.default_rng(21).uniform(1, 2, 5000)
        cases = [
            (series, Detector(engine=LstmEngine(FAST_LSTM))),
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
        detector = Detector(engine=engine)
        rng = np.random.default_rng(3)
        for v in rng.uniform(20, 80, 25):
            detector.step(v)
        assert engine.epoch_counts  # warmup + bootstrap at minimum
        assert all(1 <= n <= FAST_LSTM.max_epochs for n in engine.epoch_counts)


class TestOverflow:
    """Windows whose spread or forecast leaves the float range, stepped
    with every floating-point warning and error turned into an exception."""

    def _step_all(self, series):
        detector = Detector(engine=LstmEngine(FAST_LSTM))
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
        detector = Detector(engine=LstmEngine(FAST_LSTM))
        records = [detector.step(v) for v in series]
        state = detector._state
        with pytest.raises(DataError, match="score overflows"):
            detector.step(0.0)
        assert detector._state is state
        records.append(detector.step(1.4e301))
        twin = Detector(engine=LstmEngine(FAST_LSTM))
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


@functools.cache
def bursty_replay(scale: float, shape: str = "bursty") -> list:
    """The first 1500 points of the benchmark's bursty series, seed 1, in a
    ``shape``, times ``scale``, through a default detector whose ``epsilon`` is
    scaled too. ``flat`` holds points 600 to 699 at the value of point 600, a
    stuck sensor whose windows are constant; ``offset`` adds 2**40, so that the
    spread of a calm window is below 1e-12 of its magnitude."""
    spec = importlib.util.spec_from_file_location("bench_series", REPO_ROOT / "bench" / "series.py")
    series = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(series)
    values = series.bursty(1)[:1500]
    if shape == "flat":
        values[:100] = values[0]
    values = values + 2.0**40 if shape == "offset" else values
    detector = Detector(DetectorConfig(epsilon=DetectorConfig.epsilon * scale))
    return without_timing([detector.step(value * scale) for value in values.tolist()])


class TestUnitFree:
    """RePAD needs no domain knowledge, so the unit a series is written in
    changes no record: AARE is relative, ``epsilon`` is in the series' units,
    and ``train`` z-scores each window with its std floored relative to its
    magnitude. Scaling by a power of two is exact, so every bit holds."""

    @pytest.mark.parametrize(
        "shape, power",
        [("bursty", p) for p in (-80, -40, -20, 20, 40, 80)] + [(s, p) for s in ("flat", "offset") for p in (-40, 40)],
    )
    def test_a_series_scaled_by_a_power_of_two_gives_the_same_records(self, shape, power):
        # At 2**-40 the spread of a calm bursty window, about 4e-13, was below the
        # absolute floor 1e-12: every such window trained as a constant, and
        # 20 verdicts or retrained flags differed. A constant window's std was 1
        # in any unit, so the flat and offset series parted at every power.
        scale, unscaled = 2.0**power, bursty_replay(1.0, shape)
        assert sum(r.retrained for r in unscaled) > 0  # the recheck path ran
        assert bursty_replay(scale, shape) == [
            dataclasses.replace(r, value=r.value * scale, predicted=r.predicted and r.predicted * scale)
            for r in unscaled
        ]


@st.composite
def shaped_streams(draw, look_back: int) -> list:
    """Up to 200 points of a noisy wave, scaled to a magnitude from 1e-300 to
    1e300, with stretches spliced in: constant runs, repeats of an earlier
    stretch and back-to-back dips. A run is at most b points and a repeat
    fewer, so a constant window can occur while windows stay distinct, as
    ``PerfectEngine`` needs."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = 50.0 + 3.0 * np.sin(np.arange(n) / 4) + rng.normal(0.0, 0.3, n)
    splices = st.tuples(st.sampled_from(["run", "repeat", "dips"]), st.integers(0, n - 1), st.integers(1, look_back))
    for kind, start, length in draw(st.lists(splices, max_size=6)):
        stop = min(start + length, n)
        if kind == "run":
            values[start:stop] = values[start]
        elif kind == "repeat" and 0 < stop - start < look_back and start >= stop - start:
            source = draw(st.integers(0, 2 * start - stop))
            values[start:stop] = values[source : source + stop - start]
        elif kind == "dips":
            values[start:stop] -= 30.0
    return (values * 10.0 ** draw(st.integers(-301, 298))).tolist()


class TestReferenceLoop:
    """``Detector`` gives the records of ``helpers.reference_detector``, the
    paper's loop written plainly. Thresholds agree within 1e-12 relative: the
    detector keeps running statistics where the reference sums twice. So a
    score closer than that to its threshold, which a scripted engine can make
    equal to it in exact arithmetic, is a tie that rounding decides, and the
    records are compared up to the first one."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(look_back=st.integers(2, 6), kind=st.sampled_from(["perfect", "scripted", "lstm"]), data=st.data())
    def test_records_equal_those_of_the_reference_loop(self, look_back, kind, data):
        series = data.draw(shaped_streams(look_back))
        windows = [tuple(series[k : k + look_back]) for k in range(len(series) - look_back + 1)]
        assume(kind == "lstm" or len(set(windows)) == len(windows))
        targets = st.integers(2 * look_back + 1, max(len(series) - 1, 2 * look_back + 1))
        lies = data.draw(st.dictionaries(targets, st.sampled_from([0.5, 2.0]), max_size=6))
        lie_once = {t: series[t] * f for t, f in lies.items() if t < len(series) and f < 1}
        lie_always = {t: series[t] * f for t, f in lies.items() if t < len(series) and f > 1}

        def engine():
            if kind == "perfect":
                return PerfectEngine(series, look_back)
            if kind == "scripted":
                return ScriptedEngine(series, look_back, lie_once=lie_once, lie_always=lie_always)
            return LstmEngine(FAST_LSTM)

        config = DetectorConfig(look_back=look_back)
        detector = Detector(config, engine=engine())
        records = without_timing([detector.step(v) for v in series])
        ties = []
        expected = reference_detector(series, engine(), config, ties)
        if ties:
            event(f"{kind}: compared up to a tie")
            records, expected = records[: ties[0]], expected[: ties[0]]
        for verdict in {r.verdict.value for r in records if r.retrained}:
            event(f"{kind}: a recheck ends {verdict}")
        assert [dataclasses.replace(r, threshold=None) for r in records] == [
            dataclasses.replace(r, threshold=None) for r in expected
        ]
        for got, want in zip(records, expected):
            assert (got.threshold is None) == (want.threshold is None)
            if want.threshold is not None:
                assert got.threshold == pytest.approx(want.threshold, rel=1e-12, abs=0.0)

    def test_a_score_on_its_threshold_is_a_tie(self):
        # One nonzero score among ten lies on mean + 3 sigma in exact arithmetic. Here the
        # running threshold rounds below it and the two-pass one above, so the verdicts part.
        series = (50 + np.random.default_rng(2).uniform(-5, 5, 20)).tolist()
        config = DetectorConfig(look_back=2)
        engines = [ScriptedEngine(series, 2, lie_always={12: 2 * series[12]}) for _ in range(2)]
        detector = Detector(config, engines[0])
        records = without_timing([detector.step(v) for v in series])
        ties = []
        expected = reference_detector(series, engines[1], config, ties)
        assert ties == [12] and records[:12] == expected[:12]
        assert (records[12].verdict, expected[12].verdict) == (Verdict.ANOMALY, Verdict.NORMAL)


class TestTracedSeam:
    """The benchmark's traced run counts the calls to ``scoring.aare``,
    ``forecaster.train`` and ``forecaster.predict_next`` at those module
    attributes, so the detector must make every such call through them."""

    def test_every_call_goes_through_the_traced_module_attributes(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for owner, name in ((scoring, "aare"), (forecaster, "train"), (forecaster, "predict_next")):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        n, b = 100, 3
        rng = np.random.default_rng(1)
        series = 50 + 3 * np.sin(np.arange(n) / 4) + rng.normal(0, 0.3, n)
        series[[40, 70]] -= 30.0  # each dip is rechecked three times, at it and after it
        detector = Detector(DetectorConfig(look_back=b), LstmEngine(FAST_LSTM))
        rechecks = sum(detector.step(v).retrained for v in series)
        assert rechecks == 6
        # the identities bench/run.py checks on every traced replay
        assert counts == {
            "aare": n - 2 * b + 1 + rechecks,
            "train": b + 2 + rechecks,
            "predict_next": n - b + 1 + rechecks,
        }


class TestReadOnce:
    """A warm detecting step reads no window through ``_floats``: its values
    are the floats read once where they entered, which ``aare`` and a warm
    ``predict_next`` take as they are."""

    def _calls_per_step(self, monkeypatch, series):
        calls = []
        read = scoring._floats

        def counting(window, name):
            calls.append(name)
            return read(window, name)

        # the forecaster holds the name it imported, so both are patched
        monkeypatch.setattr(scoring, "_floats", counting)
        monkeypatch.setattr(forecaster, "_floats", counting)
        detector = Detector(engine=LstmEngine(FAST_LSTM))
        steps = []
        for value in series:
            before = len(calls)
            steps.append((detector.step(value), len(calls) - before))
        return steps

    def test_warm_detecting_steps_read_no_window(self, monkeypatch):
        steps = self._calls_per_step(monkeypatch, shift_and_dip(shift=0.0, dips=()))
        assert not any(record.retrained for record, _ in steps)
        assert {n for record, n in steps if record.phase is Phase.DETECTING} == {0}
        assert all(n for record, n in steps if record.phase in (Phase.WARMUP, Phase.BOOTSTRAP))

    def test_rechecks_still_read_their_windows(self, monkeypatch):
        steps = self._calls_per_step(monkeypatch, shift_and_dip())
        rechecks = [n for record, n in steps if record.retrained]
        assert len(rechecks) >= 4 and all(rechecks)


# Calm values keep the threshold low, so a spike among them is rechecked once
# enough scores have come in.
CALM, SPIKES = st.floats(49.0, 51.0), st.floats(150.0, 250.0)
VALUES = CALM | SPIKES


class AllOrNothing(RuleBasedStateMachine):
    """A detector whose steps sometimes fail, beside a twin that sees only the
    valid steps: after every failed step the two go on with equal records."""

    @initialize(look_back=st.integers(2, 4), calm=st.sampled_from([30, 8, 0]))
    def start(self, look_back, calm):
        """Two fresh detectors, stepped through the same ``calm`` points: after
        30 of them there are enough scores for a spike to be rechecked."""
        config = DetectorConfig(look_back=look_back)
        self.engine = LstmEngine(FAST_LSTM)
        self.detector = Detector(config, engine=self.engine)
        self.twin = Detector(config, LstmEngine(FAST_LSTM))
        self.stamp = datetime(2021, 1, 1)  # every valid step is stamped from here on
        self.calm_steps([50.0 + math.sin(k / 3) for k in range(calm)], 1)

    def _both_step(self, record, value):
        twin_record = self.twin.step(value, self.stamp)
        assert without_timing([record]) == without_timing([twin_record])

    @rule(values=st.lists(CALM, min_size=1, max_size=6), gap=st.integers(0, 2))
    def calm_steps(self, values, gap):
        for value in values:
            self.stamp += gap * timedelta(minutes=5)
            self._both_step(self.detector.step(value, self.stamp), value)

    @rule(value=SPIKES)
    def spike_step(self, value):
        self._both_step(self.detector.step(value, self.stamp), value)

    @rule()
    def nan_value(self):
        with pytest.raises(DataError, match="is not finite"):
            self.detector.step(math.nan, self.stamp)

    @precondition(lambda self: self.detector.time_index >= 0)
    @rule(value=VALUES)
    def out_of_order_timestamp(self, value):
        with pytest.raises(OrderingError):
            self.detector.step(value, self.stamp - timedelta(minutes=1))

    @precondition(lambda self: self.detector.time_index >= 0)
    @rule(value=VALUES)
    def mixed_timezone_timestamp(self, value):
        with pytest.raises(DataError, match="timezone-aware and naive"):
            self.detector.step(value, self.stamp.replace(tzinfo=timezone.utc))

    @rule(value=VALUES, method=st.sampled_from(["train", "predict"]))
    def raising_engine(self, value, method):
        self._faulty_step(FailingEngine(self.engine, method, 1), EngineFailure, value)

    @rule(value=VALUES)
    def nan_forecast(self, value):
        self._faulty_step(BadForecastEngine(self.engine, 1, math.nan), DataError, value)

    def _faulty_step(self, engine, error, value):
        """Step through ``engine`` for one point. A step that makes no call
        the engine fails (no train call, or none at all while collecting)
        is a valid step, and the twin takes it too."""
        self.detector.engine = engine
        try:
            record = self.detector.step(value, self.stamp)
        except error:
            return
        finally:
            self.detector.engine = self.engine
        self._both_step(record, value)

    @invariant()
    def same_point_count(self):
        assert self.detector.time_index == self.twin.time_index


TestAllOrNothing = AllOrNothing.TestCase
TestAllOrNothing.settings = settings(max_examples=40, stateful_step_count=40, deadline=None)


def half_plain(plain, *odd):
    """``plain`` half the time, else one of ``odd``, so that steps reach detection."""
    return st.booleans().flatmap(lambda take: plain if take else st.one_of(*odd))


# Every kind of value and timestamp a caller may hand to ``Detector.step``.
ANY_VALUE = half_plain(
    VALUES,
    st.floats(),
    st.just(10**400),
    st.text(max_size=6),
    st.binary(max_size=4),
    st.sampled_from(["50.5", b"49", "nan", "-inf", "1e400"]),
    st.none(),
    st.lists(st.floats(40.0, 60.0), max_size=2),
    st.decimals(),
    st.fractions(),
    st.builds(Decimal, st.floats(40.0, 60.0)),
    st.builds(np.float64, st.floats()),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.complex128, st.complex_numbers()),
    st.builds(np.complex64, st.complex_numbers(width=64)),
)
ZONES = st.sampled_from([timezone.utc, timezone(timedelta(hours=-5))])
ANY_STAMP = half_plain(
    st.none(),
    st.datetimes(datetime(2020, 1, 1), datetime(2020, 1, 3)),
    st.datetimes(datetime(2020, 1, 1), datetime(2020, 1, 3), timezones=ZONES),
    st.text(max_size=10),
    st.integers(),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(steps=st.lists(st.tuples(ANY_VALUE, ANY_STAMP), max_size=24))
def test_a_step_raises_only_input_errors_and_fails_whole(steps):
    detector = Detector(DetectorConfig(look_back=2), LstmEngine(LstmConfig(max_epochs=3)))
    for k in range(12):  # enough scores for a spike to be rechecked
        detector.step(50.0 + math.sin(k / 3))
    for value, stamp in steps:
        state = detector._state
        try:
            detector.step(value, stamp)
        except (DataError, OrderingError, ValueError):
            assert detector._state is state
