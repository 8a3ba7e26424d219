import contextlib
import copy
import pickle
import warnings

import numpy as np
import pytest

from presage.detector import Detector, DetectorConfig, LstmEngine, Verdict
from presage.errors import ConfigError, DataError
from presage import forecaster
from presage.forecaster import LstmConfig, LstmModel, predict_next, train
from presage.scoring import aare

from helpers import (
    descent,
    finite_difference_grads,
    init_model,
    loss_and_grads,
    max_relative_gradient_error,
    plain_forward,
    reference_forward,
    reference_predict,
    reference_train,
    run,
)


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
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"min_epochs": 0},
            {"min_epochs": 10, "max_epochs": 5},
            {"early_stop_delta": -1e-9},
            {"early_stop_delta": float("nan")},
            {"early_stop_patience": 0},
            {"seed": -1},
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

    def test_weights_are_drawn_once_per_config_and_cached_read_only(self):
        h, seed = 4, 11
        cached = forecaster._initial_theta(h, seed)
        assert forecaster._initial_theta(h, seed) is cached and not cached.flags.writeable
        rng = np.random.default_rng(seed)
        bound = 0.5 / np.sqrt(h)
        drawn = [rng.uniform(-bound, bound, 4 * h), rng.uniform(-bound, bound, (4 * h, h))]
        drawn.append(rng.uniform(-bound, bound, h))
        for _ in range(2):
            model = init_model(LstmConfig(hidden_units=h, seed=seed))
            for array, expected in zip((model.w_x, model.w_h, model.w_out), drawn):
                assert array.tobytes() == expected.tobytes()
            for array in (model.w_x, model.w_h, model.b, model.w_out):
                assert array.flags.writeable and not np.shares_memory(array, cached)
                array[...] = 0.0  # the next model is drawn as before

    def test_cached_weights_keep_configs_apart(self):
        window = [10.0, 20.0, 15.0]
        first = train(window, LstmConfig(seed=3))
        assert_same_outcome(train(window, LstmConfig(seed=3)), first)
        assert not models_equal(train(window, LstmConfig(seed=4)).model, first.model)
        wider = train(window, LstmConfig(hidden_units=11, seed=3)).model
        assert wider.hidden_units == 11 and not models_equal(wider, first.model)


def outputs(model: LstmModel, inputs) -> np.ndarray:
    """The recurrence's forecast after each input, from zero state."""
    return run(model, inputs)


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
            _, analytic = loss_and_grads(model, inputs, targets)
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
            initial_loss, _ = loss_and_grads(init_model(config), normed[:-1], normed[1:])
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


def assert_same_outcome(outcome, expected):
    """Equal bit for bit: weights, output bias, norm stats, epochs and loss."""
    got, want = outcome.model, expected.model
    for name in ("w_x", "w_h", "b", "w_out"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("b_out", "norm_mean", "norm_std"):
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes()
    assert outcome.epochs_used == expected.epochs_used
    assert np.float64(outcome.final_loss).tobytes() == np.float64(expected.final_loss).tobytes()


def assert_forward_is_plain(model, inputs):
    """Two passes of one workspace equal the plain forward bit for bit; the
    second pass starts from the buffers the first one left."""
    expected = plain_forward(model, inputs).tobytes()
    workspace = descent(model, inputs)
    for _ in range(2):
        assert workspace.forward().tobytes() == expected


class TestDescent:
    """``train`` runs its epochs through one workspace; a plain loop that
    builds everything afresh each epoch must give the same model."""

    def test_matches_the_plain_loop_for_every_look_back(self):
        rng = np.random.default_rng(61)
        for look_back in range(2, 9):
            for scale in (1e-5, 1.0, 1e5):
                window = scale * (3.0 + rng.standard_normal(look_back))
                config = LstmConfig(seed=int(rng.integers(100)))
                assert_same_outcome(train(window, config), reference_train(window, config))

    def test_matches_the_plain_loop_with_other_settings(self):
        window = [4.0, 2.0, 7.0, 5.0]
        config = LstmConfig(hidden_units=3, seed=4)
        assert_same_outcome(train(window, config), reference_train(window, config))
        early = LstmConfig(early_stop_delta=0.5, max_epochs=200)
        outcome = train(window, early)
        assert outcome.epochs_used < early.max_epochs
        assert_same_outcome(outcome, reference_train(window, early))

    @pytest.mark.parametrize(
        "window",
        [[5.0, 5.0, 5.0], [1e160, -1e160, 1e160], [50.0, 1.7e308, -1.7e308]],
        ids=["constant", "overflowing-spread", "subnormal"],
    )
    def test_matches_the_plain_loop_on_edge_windows(self, window):
        config = LstmConfig(seed=7)
        with np.errstate(all="raise"):
            assert_same_outcome(train(window, config), reference_train(window, config))

    @pytest.mark.parametrize("hidden_units", [1, 3, 10])
    def test_forward_equals_the_plain_forward_bit_for_bit(self, hidden_units):
        # Step 0 skips the recurrent products and the forget term of the
        # zero start state; the plain forward computes them.
        rng = np.random.default_rng(67 + hidden_units)
        for look_back in range(2, 9):
            for _ in range(6):
                model = random_model(rng, hidden_units)
                inputs = 2.0 * rng.standard_normal(look_back - 1)
                assert_forward_is_plain(model, inputs)

    def test_forward_on_a_constant_window_equals_the_plain_forward(self):
        # a constant window normalizes to exact zeros, so w_x * x is a signed zero
        for look_back in range(2, 9):
            window = [5.0] * look_back
            inputs = np.zeros(look_back - 1)
            config = LstmConfig(seed=look_back)
            for model in (init_model(config), train(window, config).model):
                assert_forward_is_plain(model, inputs)

    @pytest.mark.parametrize(
        "window", [[50.0, 1.7e308, -1.7e308], [1e-10, 1e300, -1e300]], ids=["tiny", "subnormal"]
    )
    def test_forward_on_subnormal_edge_windows_equals_the_plain_forward(self, window):
        # The first input normalizes to about 2e-307 or 8e-311, so step 0's
        # products with it underflow; inside train's scope that ignores only
        # underflow, a caller's raise on anything else still holds.
        config = LstmConfig(seed=7)
        trained = train(window, config).model
        with np.errstate(under="ignore"):
            inputs = ((np.asarray(window) - trained.norm_mean) / trained.norm_std)[:-1]
        with np.errstate(all="raise", under="ignore"):
            for model in (init_model(config), trained):
                assert_forward_is_plain(model, inputs)

    def test_trained_arrays_are_read_only_copies_of_their_own(self):
        config = LstmConfig(hidden_units=5, seed=2)
        h = config.hidden_units
        first, second = (train([10.0, 20.0, 15.0], config).model for _ in range(2))
        shapes = {"w_x": (4 * h,), "w_h": (4 * h, h), "b": (4 * h,), "w_out": (h,)}
        arrays = []
        for model in (first, second):
            for name, shape in shapes.items():
                array = getattr(model, name)
                assert array.shape == shape
                assert array.flags.c_contiguous and not array.flags.writeable
                assert array.base is None
                arrays.append(array)
        for i, array in enumerate(arrays):
            assert not any(np.shares_memory(array, other) for other in arrays[i + 1 :])

    def test_gradients_of_two_calls_do_not_alias(self):
        model = random_model(np.random.default_rng(3), hidden_units=4)
        inputs, targets = np.array([0.5, -1.0, 0.25]), np.array([-1.0, 0.25, 2.0])
        first = loss_and_grads(model, inputs, targets)[1]
        second = loss_and_grads(model, inputs, targets)[1]
        for name in ("w_x", "w_h", "b", "w_out"):
            assert np.array_equal(first[name], second[name])
            assert not np.shares_memory(first[name], second[name])


#: Every reader of a window, with the name its errors give the window.
WINDOW_CALLS = {
    "train": ("training window", lambda window: train(window, LstmConfig())),
    "predict_next": ("prediction window", lambda window: predict_next(zero_model(), window)),
    "aare-observed": ("observed window", lambda window: aare(window, [1.0, 2.0, 3.0])),
    "aare-predicted": ("predicted window", lambda window: aare([1.0, 2.0, 3.0], window)),
}


@pytest.mark.parametrize("name,call", WINDOW_CALLS.values(), ids=WINDOW_CALLS.keys())
@pytest.mark.parametrize(
    "window",
    [
        np.zeros((2, 2)),
        np.array(1.0),
        [[1.0], [2.0]],
        [None, 1.0, 2.0],
        [[1.0], 2.0, 3.0],
        [1 + 0j, 2.0, 3.0],
        np.array([1.0, None, 2.0], dtype=object),
    ],
    ids=["2x2", "0-d", "nested", "None", "ragged", "complex", "object-array"],
)
def test_window_that_is_not_one_dimensional_is_named(name, call, window):
    with pytest.raises(ValueError, match=f"^{name} must be one-dimensional, one number per point: "):
        call(window)


@pytest.mark.parametrize("name,call", WINDOW_CALLS.values(), ids=WINDOW_CALLS.keys())
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_window_value_stays_a_data_error(name, call, bad):
    with pytest.raises(DataError):
        call([1.0, bad, 2.0])


def test_short_one_dimensional_windows_keep_their_message():
    with pytest.raises(ValueError, match="at least 2 values, got 1"):
        train(np.array([1.0]), LstmConfig())
    with pytest.raises(ValueError, match="must be non-empty"):
        predict_next(zero_model(), np.array([]))


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
                loss, grads = loss_and_grads(model, normed[:-1], normed[1:])
                assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())
            for window in windows:
                assert np.isfinite(train(window, LstmConfig(seed=3)).final_loss)


def subnormal_weights_model(seed: int) -> LstmModel:
    model = random_model(np.random.default_rng(seed), 6, 1e-309)
    model.b_out = 1e-309
    return model


def tiny_values_model(seed: int) -> LstmModel:
    # Values near zero normalize to subnormals under a huge spread.
    model = random_model(np.random.default_rng(seed), 6, 5.0)
    model.norm_std = 1e300
    return model


class TestUnderflow:
    """Halving a subnormal weight or product is inexact and underflows; a
    caller that makes numpy raise gets the same result as one that does not."""

    @pytest.mark.parametrize("make", [subnormal_weights_model, tiny_values_model])
    def test_predict_next(self, make):
        series = [3e-11, -2e-10, 1e-10, 5e-11, -4e-11, 2e-10, 0.0]
        forecasts = []
        for scope in (contextlib.nullcontext(), np.errstate(all="raise")):
            model = make(59)
            with scope:
                forecasts.append([predict_next(model, series[k : k + 3]) for k in range(5)])
        assert forecasts[0] == forecasts[1]
        assert any(f != 0.0 for f in forecasts[0])

    def test_train(self):
        window = [1e300, 1e-10, -1e300]  # 1e-10 normalizes to about 8e-311
        outcomes = []
        for scope in (contextlib.nullcontext(), np.errstate(all="raise")):
            with scope:
                outcomes.append(train(window, LstmConfig(seed=5)))
        assert models_equal(outcomes[0].model, outcomes[1].model)
        assert outcomes[0].final_loss == outcomes[1].final_loss


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
    key_and_weights, (hidden, cell) = model._memo[:5], model._memo[5:]
    model._memo = (*key_and_weights, hidden + 0.5, cell - 0.5)


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
                cold = model._memo is None
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
            memo = model._memo
            snapshot = None if memo is None else [a.copy() for a in memo[5:]]
            predict_next(model, series[start : start + 4])
            if memo is not None:
                assert all(np.array_equal(a, s) for a, s in zip(memo[5:], snapshot))
            for carried in model._memo[5:]:
                assert carried.shape == (4, 6)
                assert not carried[-1].any()

    def test_trained_arrays_are_read_only(self):
        model = train([10.0, 20.0, 30.0], LstmConfig(seed=1)).model
        for weights in (model.w_x, model.w_h, model.b, model.w_out):
            with pytest.raises(ValueError):
                weights[0] += 1.0

    def test_overflowing_forecast_rejected_and_memo_kept(self):
        model, series = self._primed()
        memo = model._memo
        model.norm_std, model.b_out = 1e308, 10.0
        with pytest.raises(DataError, match="forecast overflows"):
            predict_next(model, series[1:5])
        assert model._memo is memo

    def test_overflowing_cold_forecast_stores_no_memo(self):
        rng = np.random.default_rng(43)
        model = random_model(rng, 6, 5.0)
        model.norm_mean, model.norm_std, model.b_out = 1.0, 1e308, 10.0
        with pytest.raises(DataError, match="forecast overflows"):
            predict_next(model, 1.0 + 2.0 * rng.standard_normal(4))
        assert model._memo is None


def assert_same_as_reference(model: LstmModel, window, memo):
    """``predict_next`` gives the reference forecast and carried states bit
    for bit; returns the reference's memo for the next call."""
    expected, memo = reference_predict(model, window, memo)
    assert predict_next(model, window) == expected
    for carried, reference in zip(model._memo[5:], memo[5:]):
        assert np.array_equal(carried, reference)
    return memo


class TestWorkspace:
    """A warm step writes into its model's own workspace, and every forecast
    equals the fresh-array reference bit for bit."""

    def test_sliding_gapped_and_rekeyed_windows_match_the_reference(self):
        rng = np.random.default_rng(53)
        for look_back in range(2, 7):
            for hidden_units in (1, 4, 10, 32):
                model = random_model(rng, hidden_units, 5.0)
                model.norm_mean, model.norm_std = 3.0, 2.0
                series = 3.0 + 2.0 * rng.standard_normal(16)
                memo, previous = None, None
                # slides, a gap, a repeat, and at 8 a new key of the same length
                for start in [0, 1, 2, 3, 5, 6, 7, 7, 8, 9]:
                    if start == 8:
                        model.w_x = model.w_x.copy()
                    state = None if model._memo is None else model._memo[3]
                    memo = assert_same_as_reference(model, series[start : start + look_back], memo)
                    if previous is not None and start == previous + 1 and start != 8:
                        assert model._memo[3] is state  # warm: the same workspace
                        _, sets = state
                        assert any(model._memo[5] is s[4] and model._memo[6] is s[5] for s in sets)
                    previous = start

    def test_a_failed_warm_call_leaves_the_memo_usable(self):
        rng = np.random.default_rng(59)
        model = random_model(rng, 6, 5.0)
        model.norm_mean, model.norm_std = 1.0, 2.0
        series = 1.0 + 2.0 * rng.standard_normal(8)
        memo = assert_same_as_reference(model, series[0:4], None)
        memo = assert_same_as_reference(model, series[1:5], memo)
        b_out, model.b_out = model.b_out, 1e308
        with pytest.raises(DataError, match="forecast overflows"):
            predict_next(model, series[2:6])
        model.b_out = b_out
        for start in (2, 3):
            memo = assert_same_as_reference(model, series[start : start + 4], memo)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_never_write_into_each_others_states(self, duplicate):
        rng = np.random.default_rng(61)
        model = random_model(rng, 10, 5.0)
        model.norm_mean, model.norm_std = 20.0, 4.0
        series = 20.0 + 4.0 * rng.standard_normal(10)
        other = series.copy()
        other[4:] += 3.0  # the same first four values, other last values
        memo = assert_same_as_reference(model, series[0:4], None)
        twin, twin_memo = duplicate(model), memo  # a copy shares the reference memo
        for start in range(1, 6):
            memo = assert_same_as_reference(model, series[start : start + 4], memo)
            twin_memo = assert_same_as_reference(twin, other[start : start + 4], twin_memo)
