import warnings

import numpy as np
import pytest

from presage.detector import Detector, DetectorConfig, LstmEngine, Verdict
from presage.errors import ConfigError, DataError
from presage.forecaster import (
    LstmConfig,
    LstmModel,
    init_model,
    predict_next,
    train,
    _loss_and_grads,
    _run,
)

from helpers import finite_difference_grads, max_relative_gradient_error, reference_forward


def models_equal(a: LstmModel, b: LstmModel) -> bool:
    return (
        np.array_equal(a.w_x, b.w_x)
        and np.array_equal(a.w_h, b.w_h)
        and np.array_equal(a.b, b.b)
        and np.array_equal(a.w_out, b.w_out)
        and a.b_out == b.b_out
        and a.norm_mean == b.norm_mean
        and a.norm_std == b.norm_std
    )


def zero_model(hidden_units=4) -> LstmModel:
    return LstmModel(
        w_x=np.zeros(4 * hidden_units),
        w_h=np.zeros((4 * hidden_units, hidden_units)),
        b=np.zeros(4 * hidden_units),
        w_out=np.zeros(hidden_units),
        b_out=0.0,
    )


def random_model(rng, hidden_units=6, weight=0.5) -> LstmModel:
    return LstmModel(
        w_x=rng.uniform(-weight, weight, 4 * hidden_units),
        w_h=rng.uniform(-weight, weight, (4 * hidden_units, hidden_units)),
        b=rng.uniform(-weight, weight, 4 * hidden_units),
        w_out=rng.uniform(-weight, weight, hidden_units),
        b_out=float(rng.uniform(-weight, weight)),
    )


# (hidden units, weight bound, model norm stats, window centre, window spread).
# The last two put saturating weights on windows millions of model-stds away.
EXTREME_CASES = [
    (1, 0.5, (0.0, 1.0), 0.0, 1.0),
    (4, 0.5, (33.0, 4.5), 30.0, 5.0),
    (10, 5.0, (50.0, 2.0), 50.0, 3.0),
    (10, 50.0, (0.0, 1e-3), 1e6, 1e4),
    (32, 20.0, (-7.0, 0.01), -1e5, 10.0),
]


def extreme_cases(seed=31):
    """(model, raw window) pairs over EXTREME_CASES, windows of 3 and 12 points."""
    rng = np.random.default_rng(seed)
    for hidden_units, weight, (mean, std), centre, spread in EXTREME_CASES:
        for length in (3, 12):
            model = random_model(rng, hidden_units, weight)
            model.norm_mean, model.norm_std = mean, std
            yield model, centre + spread * rng.standard_normal(length)


class TestConfig:
    def test_defaults_are_valid(self):
        config = LstmConfig()
        assert config.hidden_units == 10
        assert config.learning_rate == 0.15
        assert (config.min_epochs, config.max_epochs) == (1, 50)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_units": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"min_epochs": 0},
            {"min_epochs": 10, "max_epochs": 5},
            {"early_stop_delta": -1e-9},
            {"early_stop_patience": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LstmConfig(**kwargs)

    def test_larger_epoch_cap_allowed_explicitly(self):
        assert LstmConfig(max_epochs=200).max_epochs == 200


class TestInitModel:
    def test_same_seed_gives_identical_models(self):
        config = LstmConfig(seed=7)
        assert models_equal(init_model(config), init_model(config))

    def test_different_seed_changes_weights(self):
        a = init_model(LstmConfig(seed=1))
        b = init_model(LstmConfig(seed=2))
        assert not models_equal(a, b)

    def test_shapes_and_biases(self):
        h = 10
        model = init_model(LstmConfig(hidden_units=h))
        assert model.w_x.shape == (4 * h,)
        assert model.w_h.shape == (4 * h, h)
        assert model.b.shape == (4 * h,)
        assert model.w_out.shape == (h,)
        # forget-gate bias starts at 1, everything else at 0
        assert np.all(model.b[h : 2 * h] == 1.0)
        assert np.all(model.b[:h] == 0.0) and np.all(model.b[2 * h :] == 0.0)
        assert model.b_out == 0.0
        assert (model.norm_mean, model.norm_std) == (0.0, 1.0)

    def test_weights_within_init_bounds(self):
        h = 16
        model = init_model(LstmConfig(hidden_units=h, seed=3))
        bound = 0.5 / np.sqrt(h)
        for arr in (model.w_x, model.w_h, model.w_out):
            assert np.all(np.abs(arr) <= bound)


def outputs(model: LstmModel, inputs) -> np.ndarray:
    """The recurrence's forecast after each input, from zero state."""
    return _run(model, np.asarray(inputs, dtype=float))[-1]


def z_scored(model: LstmModel, window) -> np.ndarray:
    return (np.asarray(window, dtype=float) - model.norm_mean) / model.norm_std


class TestForward:
    def test_zero_model_outputs_zero(self):
        assert np.all(outputs(zero_model(), [1.0, -2.0, 3.0]) == 0.0)

    def test_one_output_per_input(self):
        model = init_model(LstmConfig(hidden_units=3, seed=0))
        assert outputs(model, [0.1, 0.2, 0.3]).shape == (3,)

    def test_matches_textbook_recurrence(self):
        for model, window in extreme_cases():
            normed = z_scored(model, window)
            np.testing.assert_allclose(
                outputs(model, normed), reference_forward(model, normed), rtol=1e-12, atol=1e-12
            )


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            model = random_model(rng, hidden_units=int(rng.integers(2, 7)))
            steps = int(rng.integers(2, 6))
            inputs = rng.normal(size=steps)
            targets = rng.normal(size=steps)
            _, analytic = _loss_and_grads(model, inputs, targets)
            numeric = finite_difference_grads(model, inputs, targets, step=1e-5)
            assert max_relative_gradient_error(analytic, numeric) <= 1e-4


class TestTrain:
    def test_constant_window_is_learned(self):
        outcome = train([5.0, 5.0, 5.0], LstmConfig(seed=42))
        prediction = predict_next(outcome.model, [5.0, 5.0, 5.0])
        assert prediction == pytest.approx(5.0, abs=0.5)

    def test_epochs_within_bounds(self):
        rng = np.random.default_rng(5)
        config = LstmConfig(seed=9)
        for _ in range(10):
            window = rng.uniform(10, 90, 3)
            outcome = train(window, config)
            assert 1 <= outcome.epochs_used <= 50
            assert outcome.final_loss >= 0.0

    def test_deterministic_outcome(self):
        window = [10.0, 20.0, 30.0]
        config = LstmConfig(seed=123)
        first = train(window, config)
        second = train(window, config)
        assert first.epochs_used == second.epochs_used
        assert first.final_loss == second.final_loss
        assert models_equal(first.model, second.model)

    def test_training_reduces_loss_on_plain_windows(self):
        # final loss should not exceed the untrained model's loss
        for window in ([10.0, 20.0, 30.0], [4.0, 2.0, 7.0, 5.0], [100.0, 98.0, 103.0]):
            config = LstmConfig(seed=21)
            raw = np.asarray(window)
            normed = (raw - raw.mean()) / raw.std()
            initial_loss, _ = _loss_and_grads(init_model(config), normed[:-1], normed[1:])
            outcome = train(window, config)
            assert outcome.final_loss <= initial_loss + 1e-12

    def test_stores_window_statistics(self):
        window = np.array([10.0, 20.0, 30.0])
        outcome = train(window, LstmConfig(seed=1))
        assert outcome.model.norm_mean == pytest.approx(window.mean())
        assert outcome.model.norm_std == pytest.approx(window.std())

    def test_constant_window_uses_unit_std(self):
        outcome = train([7.0, 7.0, 7.0], LstmConfig(seed=1))
        assert outcome.model.norm_std == 1.0

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            train([1.0], LstmConfig())

    def test_non_finite_window_rejected(self):
        with pytest.raises(DataError):
            train([1.0, float("inf"), 2.0], LstmConfig())

    def test_overflowing_spread_taken_in_units_of_the_largest_value(self):
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train([1e160, -1e160, 1e160], LstmConfig(seed=1)).model
        assert model.norm_std == pytest.approx(np.std([1.0, -1.0, 1.0]) * 1e160, rel=1e-15)

    def test_overflowing_mean_rejected(self):
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="too large to normalize"):
                train([1.7e308, 1.7e308, 1.0], LstmConfig())


class TestPredictNext:
    def test_zero_model_identity_stats_predicts_zero(self):
        assert predict_next(zero_model(), [5.0, 6.0, 7.0]) == 0.0

    def test_denormalization_identity(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, hidden_units=4)
        model.norm_mean, model.norm_std = 33.0, 4.5
        window = rng.uniform(20, 40, 3)
        raw_output = outputs(model, (window - 33.0) / 4.5)[-1]
        assert predict_next(model, window) == pytest.approx(4.5 * raw_output + 33.0)

    def test_trained_model_prediction_is_finite_and_stable(self):
        outcome = train([10.0, 20.0, 30.0], LstmConfig(seed=42))
        first = predict_next(outcome.model, [10.0, 20.0, 30.0])
        second = predict_next(outcome.model, [10.0, 20.0, 30.0])
        assert np.isfinite(first)
        assert first == second

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            predict_next(zero_model(), [])

    def test_non_finite_window_rejected(self):
        with pytest.raises(DataError):
            predict_next(zero_model(), [1.0, float("nan"), 2.0])
        model = zero_model()
        model.norm_std = 0.0
        with pytest.raises(DataError):
            predict_next(model, [1.0, 2.0])

    def test_equals_last_forward_output(self):
        for model, window in extreme_cases():
            expected = outputs(model, z_scored(model, window))[-1] * model.norm_std + model.norm_mean
            assert predict_next(model, window) == pytest.approx(float(expected), rel=1e-12)

    def test_no_floating_point_exceptions_on_extreme_inputs(self):
        # the property an overflow-safe sigmoid exists for: saturating
        # weights and far-away windows never overflow or produce NaN
        windows = ([1e12, -3e12, 5e12, 7.0], [1e-9, 3e-9, 2e-9], [5.0, 5.0, 5.0], [-1e6, 0.0, 1e6])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for model, window in extreme_cases():
                assert np.isfinite(predict_next(model, window))
                normed = z_scored(model, window)
                loss, grads = _loss_and_grads(model, normed[:-1], normed[1:])
                assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())
            for window in windows:
                assert np.isfinite(train(window, LstmConfig(seed=3)).final_loss)


class TestNormalization:
    def test_round_trip(self):
        # A model whose output is the constant z-score of a value forecasts
        # that value: predict_next maps back with the stats it z-scores with.
        rng = np.random.default_rng(23)
        values = rng.uniform(-1000, 1000, 50)
        model = zero_model()
        model.norm_mean, model.norm_std = 12.5, 7.25
        back = []
        for z in z_scored(model, values):
            model.b_out = float(z)
            back.append(predict_next(model, [0.0, 1.0]))
        assert np.allclose(back, values, atol=1e-12, rtol=0)


def from_scratch(model: LstmModel, window) -> float:
    """The forecast for ``window`` by a fresh recurrence, one row at a time."""
    return float(outputs(model, z_scored(model, window))[-1]) * model.norm_std + model.norm_mean


def assert_forecast(model: LstmModel, window, forecast: float):
    # The batched step sums the recurrent products in another order than
    # the one-row step, so a forecast that cancels to near zero may differ
    # by rounding of the output's scale rather than of its value.
    scale = model.norm_std * (np.abs(model.w_out).sum() + abs(model.b_out))
    assert forecast == pytest.approx(from_scratch(model, window), rel=1e-12, abs=1e-12 * scale)


def poison(model: LstmModel):
    """Shift the carried suffix states, keeping the memo's key, so that a
    call which reuses them is visibly wrong."""
    key_and_weights, (hidden, cell) = model._suffixes[:4], model._suffixes[4:]
    model._suffixes = (*key_and_weights, hidden + 0.5, cell - 0.5)


class TestSuffixStates:
    """``predict_next`` carries the window's suffix states between calls."""

    def test_sliding_replay_matches_from_scratch(self):
        rng = np.random.default_rng(41)
        for look_back in range(2, 7):
            for hidden_units in (1, 4, 10, 32):
                for weight in (0.5, 5.0, 50.0):
                    model = random_model(rng, hidden_units, weight)
                    model.norm_mean, model.norm_std = 20.0, 4.0
                    series = 20.0 + 4.0 * rng.standard_normal(16)
                    for end in range(look_back, series.size + 1):
                        window = series[end - look_back : end]
                        assert_forecast(model, window, predict_next(model, window))

    def _primed(self, look_back=4, hidden_units=6):
        """A model whose memo holds poisoned states for window series[0:b]."""
        rng = np.random.default_rng(43)
        model = random_model(rng, hidden_units, 5.0)
        model.norm_mean, model.norm_std = 1.0, 2.0
        series = 1.0 + 2.0 * rng.standard_normal(12)
        predict_next(model, series[:look_back])
        poison(model)
        return model, series

    def test_poisoned_states_reach_the_next_adjacent_window(self):
        model, series = self._primed()
        assert predict_next(model, series[1:5]) != pytest.approx(from_scratch(model, series[1:5]))

    @pytest.mark.parametrize(
        "window",
        [slice(2, 6), slice(1, 6), slice(1, 4), slice(0, 4)],
        ids=["gap", "longer", "shorter", "same-window"],
    )
    def test_other_windows_recompute_from_zero(self, window):
        model, series = self._primed()
        assert_forecast(model, series[window], predict_next(model, series[window]))

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: setattr(m, "norm_mean", m.norm_mean + 0.25),
            lambda m: setattr(m, "norm_std", m.norm_std * 1.5),
            lambda m: setattr(m, "w_h", m.w_h.copy()),
            lambda m: setattr(m, "w_x", m.w_x.copy()),
            lambda m: setattr(m, "b", m.b.copy()),
        ],
        ids=["norm_mean", "norm_std", "w_h", "w_x", "b"],
    )
    def test_changed_model_recomputes_from_zero(self, change):
        model, series = self._primed()
        change(model)
        assert_forecast(model, series[1:5], predict_next(model, series[1:5]))

    def test_candidate_after_a_recheck_starts_from_zero(self):
        # A level shift makes the detector recheck and swap in the candidate.
        class LoggingEngine(LstmEngine):
            def __init__(self, config):
                super().__init__(config)
                self.calls = []

            def predict(self, model, window):
                cold = model._suffixes is None
                forecast = super().predict(model, window)
                self.calls.append((model, list(window), cold, forecast))
                return forecast

        rng = np.random.default_rng(0)
        series = 50 + 3 * np.sin(np.arange(40) / 4) + rng.normal(0, 0.3, 40)
        series[30:] += 25.0
        engine = LoggingEngine(LstmConfig(hidden_units=4, max_epochs=15, seed=42))
        detector = Detector(DetectorConfig(lstm=engine.config), engine=engine)
        records = [detector.step(v) for v in series]
        swaps = [r.time_index for r in records if r.retrained and r.verdict is Verdict.NORMAL]
        assert swaps
        firsts = {}
        for model, window, cold, forecast in engine.calls:
            assert_forecast(model, window, forecast)
            firsts.setdefault(id(model), cold)
        assert all(firsts.values())
        assert sum(not cold for *_, cold, _ in engine.calls) > len(series) // 2

    def test_steps_write_only_into_fresh_arrays_with_a_zero_last_row(self):
        rng = np.random.default_rng(47)
        model = random_model(rng, 6, 5.0)
        series = rng.standard_normal(10)
        # cold, then warm twice, then cold again after a gap
        for start in (0, 1, 2, 4):
            memo = model._suffixes
            snapshot = None if memo is None else [a.copy() for a in memo[4:]]
            predict_next(model, series[start : start + 4])
            if memo is not None:
                assert all(np.array_equal(a, s) for a, s in zip(memo[4:], snapshot))
            for carried in model._suffixes[4:]:
                assert carried.shape == (4, 6)
                assert not carried[-1].any()

    def test_trained_arrays_are_read_only(self):
        model = train([10.0, 20.0, 30.0], LstmConfig(seed=1)).model
        for weights in (model.w_x, model.w_h, model.b, model.w_out):
            with pytest.raises(ValueError):
                weights[0] += 1.0

    def test_overflowing_forecast_rejected_and_memo_kept(self):
        model, series = self._primed()
        memo = model._suffixes
        model.norm_std, model.b_out = 1e308, 10.0
        with pytest.raises(DataError, match="forecast overflows"):
            predict_next(model, series[1:5])
        assert model._suffixes is memo
