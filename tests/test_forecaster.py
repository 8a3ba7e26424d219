import contextlib
import copy
import dataclasses
import math
import pickle
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from presage.detector import Detector, DetectorConfig, LstmEngine, Verdict
from presage.errors import ConfigError, DataError
from presage import forecaster
from presage.forecaster import LstmConfig, LstmModel, predict_next, train
from presage.scoring import aare

from helpers import (
    descent,
    finite_difference_grads,
    gate_weights,
    init_model,
    loss_and_grads,
    max_relative_gradient_error,
    outcome,
    plain_forward,
    plain_loss_and_grads,
    reference_forward,
    reference_predict,
    reference_train,
    run,
)


def models_equal(a: LstmModel, b: LstmModel) -> bool:
    return (
        np.array_equal(a.weights, b.weights)
        and np.array_equal(a.w_out, b.w_out)
        and a.b_out == b.b_out
        and a.norm_mean == b.norm_mean
        and a.norm_std == b.norm_std
    )


def zero_model(hidden_units=4) -> LstmModel:
    return LstmModel(
        weights=gate_weights(
            w_x=np.zeros(4 * hidden_units),
            w_h=np.zeros((4 * hidden_units, hidden_units)),
            b=np.zeros(4 * hidden_units),
        ),
        w_out=np.zeros(hidden_units),
        b_out=0.0,
    )


def random_model(rng, hidden_units=6, weight=0.5) -> LstmModel:
    return LstmModel(
        weights=gate_weights(
            w_x=rng.uniform(-weight, weight, 4 * hidden_units),
            w_h=rng.uniform(-weight, weight, (4 * hidden_units, hidden_units)),
            b=rng.uniform(-weight, weight, 4 * hidden_units),
        ),
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
            model = dataclasses.replace(model, norm_mean=mean, norm_std=std)
            yield model, centre + spread * rng.standard_normal(length)


class TestConfig:
    def test_defaults_are_valid(self):
        config = LstmConfig()
        assert (config.max_epochs, config.seed) == (50, 42)

    def test_each_setting_is_a_named_field(self):
        # A new knob shows up here as an edit; the paper's fixed settings are no fields.
        assert [f.name for f in dataclasses.fields(LstmConfig)] == ["max_epochs", "seed"]
        assert [f.name for f in dataclasses.fields(DetectorConfig)] == ["look_back", "epsilon"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_epochs": 0},
            {"seed": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LstmConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"early_stop_delta": 1e-4}, {"hidden_units": 10}], ids=["early_stop_delta", "hidden_units"]
    )
    def test_the_early_stopping_threshold_is_no_field(self, kwargs):
        # The paper's fixed 1e-4 and 10 units are constants, like the learning rate and the patience.
        with pytest.raises(TypeError):
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
        model = init_model(LstmConfig(), h)
        assert model.weights.shape == (4 * h, h + 2)
        assert model.w_out.shape == (h,)
        # forget-gate bias (column 1, rows H:2H) starts at 1, everything else at 0
        b = model.weights[:, 1]
        assert np.all(b[h : 2 * h] == 1.0)
        assert np.all(b[:h] == 0.0) and np.all(b[2 * h :] == 0.0)
        assert model.b_out == 0.0
        assert (model.norm_mean, model.norm_std) == (0.0, 1.0)

    def test_the_model_holds_one_gate_matrix(self):
        names = [spec.name for spec in dataclasses.fields(LstmModel)]
        assert names == ["weights", "w_out", "b_out", "norm_mean", "norm_std"]
        with pytest.raises(TypeError):
            LstmModel(w_x=np.zeros(4), w_h=np.zeros((4, 1)), b=np.zeros(4), w_out=np.zeros(1), b_out=0.0)

    def test_weights_within_init_bounds(self):
        h = 16
        model = init_model(LstmConfig(seed=3), h)
        bound = 0.5 / np.sqrt(h)
        for arr in (model.weights[:, 0], model.weights[:, 2:], model.w_out):
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
            model = init_model(LstmConfig(seed=seed), h)
            for array, expected in zip((model.weights[:, 0], model.weights[:, 2:], model.w_out), drawn):
                assert array.tobytes() == expected.tobytes()
            for array in (model.weights, model.w_out):
                assert array.flags.writeable and not np.shares_memory(array, cached)
                array[...] = 0.0  # the next model is drawn as before

    @pytest.mark.parametrize("h", [1, 4, 10])
    def test_the_sigmoid_row_scale_has_the_gate_matrix_shape(self, h):
        # The forecast step and the descent multiply the weights by it without a broadcast.
        scale = forecaster._sigmoid_row_scale(h)
        assert forecaster._sigmoid_row_scale(h) is scale and not scale.flags.writeable
        assert scale.shape == init_model(LstmConfig(), h).weights.shape == (4 * h, h + 2)
        assert np.all(scale[: 3 * h] == 0.5) and np.all(scale[3 * h :] == 1.0)

    def test_cached_weights_keep_configs_apart(self):
        window = [10.0, 20.0, 15.0]
        first = train(window, LstmConfig(seed=3))
        assert_same_outcome(train(window, LstmConfig(seed=3)), first)
        assert not models_equal(train(window, LstmConfig(seed=4)).model, first.model)

    def test_cached_weights_keep_widths_apart(self, monkeypatch):
        window = [10.0, 20.0, 15.0]
        first = train(window, LstmConfig(seed=3))
        monkeypatch.setattr(forecaster, "_HIDDEN_UNITS", 11)
        wider = train(window, LstmConfig(seed=3)).model
        assert wider.w_out.size == 11 and not models_equal(wider, first.model)


def outputs(model: LstmModel, inputs) -> np.ndarray:
    """The recurrence's forecast after each input, from zero state."""
    return run(model, inputs)


def z_scored(model: LstmModel, window) -> np.ndarray:
    return (np.asarray(window, dtype=float) - model.norm_mean) / model.norm_std


class TestForward:
    def test_zero_model_outputs_zero(self):
        assert np.all(outputs(zero_model(), [1.0, -2.0, 3.0]) == 0.0)

    def test_one_output_per_input(self):
        model = init_model(LstmConfig(seed=0), 3)
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

    def test_deterministic_outcome(self):
        window = [10.0, 20.0, 30.0]
        config = LstmConfig(seed=123)
        first = train(window, config)
        second = train(window, config)
        assert first.epochs_used == second.epochs_used
        assert models_equal(first.model, second.model)

    def test_training_reduces_loss_on_plain_windows(self):
        # final loss should not exceed the untrained model's loss
        for window in ([10.0, 20.0, 30.0], [4.0, 2.0, 7.0, 5.0], [100.0, 98.0, 103.0]):
            config = LstmConfig(seed=21)
            raw = np.asarray(window)
            normed = (raw - raw.mean()) / raw.std()
            initial_loss, _ = loss_and_grads(init_model(config), normed[:-1], normed[1:])
            model = train(window, config).model
            final_loss = float(np.mean((plain_forward(model, normed[:-1]) - normed[1:]) ** 2))
            assert final_loss <= initial_loss + 1e-12

    def test_stores_window_statistics(self):
        window = np.array([10.0, 20.0, 30.0])
        outcome = train(window, LstmConfig(seed=1))
        assert outcome.model.norm_mean == pytest.approx(window.mean())
        assert outcome.model.norm_std == pytest.approx(window.std())

    def test_constant_window_std_is_floored(self):
        # At 1e-12 of the largest |value|, so that it scales with the series; zeros take 1.
        assert train([7.0, 7.0, 7.0], LstmConfig(seed=1)).model.norm_std == 7e-12
        assert train([-(2.0**-40)] * 3, LstmConfig(seed=1)).model.norm_std == 2.0**-40 * 1e-12
        assert train([0.0, 0.0, 0.0], LstmConfig(seed=1)).model.norm_std == 1.0

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
    """Equal bit for bit: weights, output bias, norm stats and epochs."""
    got, want = outcome.model, expected.model
    for name in ("weights", "w_out"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("b_out", "norm_mean", "norm_std"):
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes()
    assert outcome.epochs_used == expected.epochs_used


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

    @pytest.mark.parametrize("hidden_units", [1, 4, 10, 32])
    def test_matches_the_plain_loop_for_every_look_back(self, hidden_units, monkeypatch):
        # The paper's width is a constant, but the descent is width-generic; other widths are set through it.
        monkeypatch.setattr(forecaster, "_HIDDEN_UNITS", hidden_units)
        rng = np.random.default_rng(61)
        for look_back in range(2, 18):
            for scale in (1e-5, 1.0, 1e5):
                window = scale * (3.0 + rng.standard_normal(look_back))
                config = LstmConfig(seed=int(rng.integers(100)))
                assert_same_outcome(train(window, config), reference_train(window, config, hidden_units))

    def test_matches_the_plain_loop_with_other_settings(self):
        window = [4.0, 2.0, 7.0, 5.0]
        config = LstmConfig(seed=4)
        assert_same_outcome(train(window, config), reference_train(window, config))
        # Under a raised cap the loss stalls partway through training, at epoch 883.
        early = LstmConfig(max_epochs=1000)
        outcome = train(window, early)
        assert 4 < outcome.epochs_used < early.max_epochs
        assert_same_outcome(outcome, reference_train(window, early))

    @pytest.mark.parametrize("value", [0.0, 5.0, -3e5])
    @pytest.mark.parametrize("look_back", [2, 3, 6])
    def test_a_constant_window_stops_at_epoch_four(self, value, look_back):
        # It normalizes to zeros, which the initial model fits with a loss of 0: every
        # epoch from the second counts as stalled, and the paper's patience is 3.
        outcome = train([value] * look_back, LstmConfig())
        assert_same_outcome(outcome, reference_train([value] * look_back, LstmConfig()))
        assert outcome.epochs_used == 4

    def test_a_rising_window_runs_every_epoch(self):
        # At learning rate 0.15 its loss improves by more than 1e-4 each epoch.
        outcome = train([1.0, 2.0, 3.0], LstmConfig())
        assert_same_outcome(outcome, reference_train([1.0, 2.0, 3.0], LstmConfig()))
        assert outcome.epochs_used == 50

    @pytest.mark.parametrize(
        "window",
        [[5.0, 5.0, 5.0], [1e160, -1e160, 1e160], [50.0, 1.7e308, -1.7e308]],
        ids=["constant", "overflowing-spread", "subnormal"],
    )
    def test_matches_the_plain_loop_on_edge_windows(self, window):
        config = LstmConfig(seed=7)
        with np.errstate(all="raise"):
            assert_same_outcome(train(window, config), reference_train(window, config))

    @pytest.mark.parametrize("hidden_units", [1, 3, 4, 10, 32])
    def test_forward_equals_the_plain_forward_bit_for_bit(self, hidden_units):
        # Step 0 skips the forget term of the zero start state; the plain
        # forward computes it, and takes each step's product on a fresh array.
        rng = np.random.default_rng(67 + hidden_units)
        for look_back in range(2, 18):
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

    @pytest.mark.parametrize("hidden_units", [1, 4, 10, 32])
    def test_loss_and_gradients_equal_plain_backpropagation_bit_for_bit(self, hidden_units):
        rng = np.random.default_rng(71 + hidden_units)
        for look_back in range(2, 18):
            for weight in (0.5, 3.0):
                model = random_model(rng, hidden_units, weight)
                inputs, targets = 2.0 * rng.standard_normal((2, look_back - 1))
                (loss, grads), (want_loss, want) = (
                    compute(model, inputs, targets) for compute in (loss_and_grads, plain_loss_and_grads)
                )
                assert loss.hex() == want_loss.hex()
                for name in ("weights", "w_out", "b_out"):
                    assert np.asarray(grads[name]).tobytes() == np.asarray(want[name]).tobytes(), name

    @pytest.mark.parametrize("hidden_units", [1, 3, 10])
    def test_two_passes_of_one_workspace_give_the_same_loss_and_gradients(self, hidden_units):
        # The second pass starts from every buffer the first one left, the zero
        # start state's partner row of the forget gate included.
        rng = np.random.default_rng(83 + hidden_units)
        for look_back in range(2, 7):
            model = random_model(rng, hidden_units)
            inputs, targets = 2.0 * rng.standard_normal((2, look_back - 1))
            workspace = descent(model, inputs, targets)
            first, second = ((workspace.loss_and_grads(), workspace.grad.copy()) for _ in range(2))
            assert first[0].hex() == second[0].hex() and first[1].tobytes() == second[1].tobytes()

    def test_trained_arrays_are_read_only_copies_of_their_own(self):
        h = forecaster._HIDDEN_UNITS
        first, second = (train([10.0, 20.0, 15.0], LstmConfig(seed=2)).model for _ in range(2))
        shapes = {"weights": (4 * h, h + 2), "w_out": (h,)}
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
        for name in ("weights", "w_out"):
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
        np.array([1.0, np.complex128(3 + 4j)], dtype=object),
    ],
    ids=["2x2", "0-d", "nested", "None", "ragged", "complex", "object-array", "object-complex"],
)
def test_window_that_is_not_one_dimensional_is_named(name, call, window):
    # a nested window's items, and a 0-d array, are no real numbers
    with pytest.raises(ValueError, match=f"^{name} (item must be a real number|must be a one-dimensional sequence of numbers), got "):
        call(window)


@pytest.mark.parametrize("name,call", WINDOW_CALLS.values(), ids=WINDOW_CALLS.keys())
@pytest.mark.parametrize("window", ["123", b"123", bytearray(b"123")], ids=type)
def test_a_text_window_is_refused_not_read_character_by_character(name, call, window):
    # str gives the digits 1, 2, 3 one by one, and bytes their codes 49, 50, 51
    with pytest.raises(ValueError) as refused:
        call(window)
    assert str(refused.value) == f"{name} must be a one-dimensional sequence of numbers, got {window!r}"


@pytest.mark.parametrize("name,call", WINDOW_CALLS.values(), ids=WINDOW_CALLS.keys())
@pytest.mark.parametrize(
    "item",
    [3 + 4j, np.complex128(3 + 4j), np.complex64(3 + 0j), True, "1.5", b"2", Decimal("1.5")],
    ids=type,
)
def test_an_item_that_is_no_real_number_is_refused(name, call, item):
    # float() would cut numpy's complex to its real part, with only a ComplexWarning,
    # and read the rest as numbers, which a setting refuses
    with pytest.raises(ValueError) as refused:
        call([1.0, 2.0, item])
    assert str(refused.value) == f"{name} item must be a real number, got {item!r}"


@pytest.mark.parametrize("name,call", WINDOW_CALLS.values(), ids=WINDOW_CALLS.keys())
@pytest.mark.parametrize(
    "bad",
    [
        np.nan,
        np.inf,
        -np.inf,
        pytest.param(10**400, id="int-past-float"),
        pytest.param(-(10**400), id="negative-int-past-float"),
    ],
)
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
        model = dataclasses.replace(random_model(rng, hidden_units=4), norm_mean=33.0, norm_std=4.5)
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
        model, memo = zero_model(), [None]
        predict_next(model, [5.0], memo)  # a memo whose window suffix is empty
        with pytest.raises(ValueError, match="must be non-empty"):
            predict_next(model, [], memo)

    def test_non_finite_window_rejected(self):
        with pytest.raises(DataError):
            predict_next(zero_model(), [1.0, float("nan"), 2.0])
        model = dataclasses.replace(zero_model(), norm_std=0.0)
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
                model = train(window, LstmConfig(seed=3)).model
                assert all(np.isfinite(w).all() for w in (model.weights, model.w_out, model.b_out))


def subnormal_weights_model(seed: int) -> LstmModel:
    return dataclasses.replace(random_model(np.random.default_rng(seed), 6, 1e-309), b_out=1e-309)


def tiny_values_model(seed: int) -> LstmModel:
    # Values near zero normalize to subnormals under a huge spread.
    return dataclasses.replace(random_model(np.random.default_rng(seed), 6, 5.0), norm_std=1e300)


class TestUnderflow:
    """Halving a subnormal weight or product is inexact and underflows; a
    caller that makes numpy raise gets the same result as one that does not."""

    @pytest.mark.parametrize("make", [subnormal_weights_model, tiny_values_model])
    def test_predict_next(self, make):
        series = [3e-11, -2e-10, 1e-10, 5e-11, -4e-11, 2e-10, 0.0]
        forecasts = []
        for scope in (contextlib.nullcontext(), np.errstate(all="raise")):
            model, memo = make(59), [None]
            with scope:
                forecasts.append([predict_next(model, tuple(series[k : k + 3]), memo) for k in range(5)])
        assert forecasts[0] == forecasts[1]
        assert any(f != 0.0 for f in forecasts[0])

    @pytest.mark.parametrize("make", [subnormal_weights_model, tiny_values_model])
    def test_a_step_that_raises_runs_again_without_reentering_predict_next(self, make, monkeypatch):
        # A wrapper of predict_next sees one call per forecast. A warm slide
        # steps inline, and the retry of a step that numpy raised on goes
        # through _step, not back through predict_next or its warm branch.
        calls = dict.fromkeys(["predict_next", "_step"], 0)

        def counting(name, inner):
            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(forecaster, name, counting(name, getattr(forecaster, name)))
        series = [3e-11, -2e-10, 1e-10, 5e-11, -4e-11, 2e-10, 0.0]
        warm_steps = []
        for scope in (contextlib.nullcontext(), np.errstate(all="raise")):
            model, memo = make(59), [None]
            calls.update(predict_next=0, _step=0)
            with scope:
                forecaster.predict_next(model, tuple(series[:3]), memo)
                cold_steps = calls["_step"]
                for k in range(1, 5):
                    forecaster.predict_next(model, tuple(series[k : k + 3]), memo)
            assert calls["predict_next"] == 5
            warm_steps.append(calls["_step"] - cold_steps)
        assert warm_steps[0] == 0 < warm_steps[1]

    def test_train(self):
        window = [1e300, 1e-10, -1e300]  # 1e-10 normalizes to about 8e-311
        outcomes = []
        for scope in (contextlib.nullcontext(), np.errstate(all="raise")):
            with scope:
                outcomes.append(train(window, LstmConfig(seed=5)))
        assert models_equal(outcomes[0].model, outcomes[1].model)
        assert outcomes[0].epochs_used == outcomes[1].epochs_used


class TestNormalization:
    def test_round_trip(self):
        # A model whose output is the constant z-score of a value forecasts
        # that value: predict_next maps back with the stats it z-scores with.
        rng = np.random.default_rng(23)
        values = rng.uniform(-1000, 1000, 50)
        model = dataclasses.replace(zero_model(), norm_mean=12.5, norm_std=7.25)
        back = []
        for z in z_scored(model, values):
            back.append(predict_next(dataclasses.replace(model, b_out=float(z)), [0.0, 1.0]))
        assert np.allclose(back, values, atol=1e-12, rtol=0)


def from_scratch(model: LstmModel, window) -> float:
    """The forecast for ``window`` by a fresh recurrence, one row at a time."""
    return float(outputs(model, z_scored(model, window))[-1]) * model.norm_std + model.norm_mean


def assert_forecast(model: LstmModel, window, forecast: float):
    # The step's one product sums the input, bias and recurrent terms in
    # another order than the one-row step, so a forecast that cancels to
    # near zero may differ by rounding of the output's scale, not its value.
    scale = model.norm_std * (np.abs(model.w_out).sum() + abs(model.b_out))
    assert forecast == pytest.approx(from_scratch(model, window), rel=1e-12, abs=1e-12 * scale)


def went_cold(window, name):
    """Patched over ``forecaster._floats``: fails a call that should step warm."""
    raise AssertionError(f"the {name} was read: the call went cold")


def carried(slot) -> tuple:
    """The ``(H, b)`` hidden and cell states that a memo's slot carries: views
    of its set k, whose column r holds the longest suffix and column r - 1 the
    empty one's zero state."""
    _, (_, _, sets), _, k, _ = slot
    return sets[k][2:4]


def poison(memo: list):
    """Shift the carried suffix states in place, keeping the memo's key, so
    that a call which reuses them is visibly wrong."""
    hidden, cell = carried(memo[0])
    hidden += 0.5
    cell -= 0.5


class TestSuffixStates:
    """``predict_next`` carries the window's suffix states between calls
    through the memo its caller passes. The windows are tuples of one list's
    float objects, as the detector's are, so that a slide steps warm."""

    def test_sliding_replay_matches_from_scratch(self):
        rng = np.random.default_rng(41)
        for look_back in range(2, 7):
            for hidden_units in (1, 4, 10, 32):
                for weight in (0.5, 5.0, 50.0):
                    model = random_model(rng, hidden_units, weight)
                    model = dataclasses.replace(model, norm_mean=20.0, norm_std=4.0)
                    series = (20.0 + 4.0 * rng.standard_normal(16)).tolist()
                    memo = [None]
                    for end in range(look_back, len(series) + 1):
                        window = tuple(series[end - look_back : end])
                        assert_forecast(model, window, predict_next(model, window, memo))

    def _primed(self, look_back=4, hidden_units=6):
        """A model and a memo holding poisoned states for window series[0:b]."""
        rng = np.random.default_rng(43)
        model = random_model(rng, hidden_units, 5.0)
        model = dataclasses.replace(model, norm_mean=1.0, norm_std=2.0)
        series = (1.0 + 2.0 * rng.standard_normal(12)).tolist()
        memo = [None]
        predict_next(model, tuple(series[:look_back]), memo)
        poison(memo)
        return model, series, memo

    def test_poisoned_states_reach_the_next_adjacent_window(self):
        model, series, memo = self._primed()
        forecast = predict_next(model, tuple(series[1:5]), memo)
        assert forecast != pytest.approx(from_scratch(model, series[1:5]))

    @pytest.mark.parametrize(
        "other",
        [list, np.array, lambda w: tuple(float(repr(v)) for v in w), lambda w: (*w[:-1], np.float64(w[-1]))],
        ids=["list", "ndarray", "equal-floats", "numpy-last"],
    )
    def test_an_equal_window_of_other_objects_recomputes_from_zero(self, other):
        model, series, memo = self._primed()
        assert_forecast(model, series[1:5], predict_next(model, other(tuple(series[1:5])), memo))

    def test_without_a_memo_every_forecast_is_cold(self):
        model, series, memo = self._primed()
        assert_forecast(model, series[1:5], predict_next(model, series[1:5]))

    @pytest.mark.parametrize(
        "window",
        [slice(2, 6), slice(1, 6), slice(1, 4), slice(0, 4)],
        ids=["gap", "longer", "shorter", "same-window"],
    )
    def test_other_windows_recompute_from_zero(self, window):
        model, series, memo = self._primed()
        assert_forecast(model, series[window], predict_next(model, tuple(series[window]), memo))

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: dataclasses.replace(m, norm_mean=m.norm_mean + 0.25),
            lambda m: dataclasses.replace(m, norm_std=m.norm_std * 1.5),
            lambda m: dataclasses.replace(m, weights=m.weights.copy()),
            lambda m: dataclasses.replace(m, w_out=m.w_out.copy()),
            lambda m: dataclasses.replace(m, b_out=m.b_out + 0.25),
            copy.copy,
        ],
        ids=["norm_mean", "norm_std", "weights", "w_out", "b_out", "copy"],
    )
    def test_changed_model_recomputes_from_zero(self, change):
        model, series, memo = self._primed()
        model = change(model)
        window = tuple(series[1:5])
        forecast = predict_next(model, window, memo)
        assert forecast == reference_predict(model, window)[0]  # cold: the poisoned states are not read
        assert_forecast(model, series[1:5], forecast)

    def test_candidate_after_a_recheck_starts_from_zero(self):
        # A level shift makes the detector recheck and swap in the candidate.
        class LoggingEngine(LstmEngine):
            def __init__(self, config):
                super().__init__(config)
                self.calls = []

            def predict(self, model, window):
                last = self._memo[0]
                forecast = super().predict(model, window)
                cold = last is None or self._memo[0][1] is not last[1]  # a fresh workspace
                self.calls.append((model, list(window), cold, forecast))
                return forecast

        rng = np.random.default_rng(0)
        series = 50 + 3 * np.sin(np.arange(40) / 4) + rng.normal(0, 0.3, 40)
        series[30:] += 25.0
        engine = LoggingEngine(LstmConfig(max_epochs=15, seed=42))
        detector = Detector(engine=engine)
        records = [detector.step(v) for v in series]
        swaps = [r.time_index for r in records if r.retrained and r.verdict is Verdict.NORMAL]
        assert swaps
        firsts = {}
        for model, window, cold, forecast in engine.calls:
            assert_forecast(model, window, forecast)
            firsts.setdefault(id(model), cold)
        assert all(firsts.values())
        assert sum(not cold for *_, cold, _ in engine.calls) > len(series) // 2

    def test_steps_write_only_into_the_set_not_carried_and_zero_column_r(self):
        rng = np.random.default_rng(47)
        model = random_model(rng, 6, 5.0)
        series = rng.standard_normal(10).tolist()
        memo = [None]
        # cold, then warm twice, then cold again after a gap: r is 0, 1, 2, 0
        # and column r - 1, the empty suffix, the one a step zeroed
        for start, r in ((0, 0), (1, 1), (2, 2), (4, 0)):
            last = memo[0]
            state, snapshot = (None, None) if last is None else (last[1], [a.copy() for a in carried(last)])
            predict_next(model, tuple(series[start : start + 4]), memo)
            assert (memo[0][1] is state) == (start in (1, 2))
            assert memo[0][4] == r
            if last is not None:
                assert all(np.array_equal(a, s) for a, s in zip(carried(last), snapshot))
            for states in carried(memo[0]):
                assert states.shape == (6, 4)
                assert not states[:, r - 1].any()
            for _, inputs, *_ in memo[0][1][2]:  # the constant row that multiplies b
                assert (inputs[1] == 1.0).all()

    def test_trained_arrays_are_read_only(self):
        model = train([10.0, 20.0, 30.0], LstmConfig(seed=1)).model
        for weights in (model.weights, model.w_out):
            with pytest.raises(ValueError):
                weights[0] += 1.0

    def test_overflowing_forecast_rejected_and_memo_kept(self):
        model, series, memo = self._primed()
        last = memo[0]
        model = dataclasses.replace(model, norm_std=1e308, b_out=10.0)
        with pytest.raises(DataError, match="forecast overflows"):
            predict_next(model, tuple(series[1:5]), memo)
        assert memo[0] is last

    def test_an_overflowing_warm_forecast_is_refused_and_the_memo_serves_the_next_slide(self, monkeypatch):
        # Zeros leave every state at zero; 1e308 is 10 model-stds out, which
        # saturates the gates, and 100 times the hidden state overflows at std 1e307.
        h = 4
        model = LstmModel(gate_weights(w_x=np.ones(4 * h), w_h=np.zeros((4 * h, h)), b=np.zeros(4 * h)),
                          w_out=np.full(h, 100.0), b_out=0.0, norm_std=1e307)
        w, slot = (0.0, 0.0, 0.0), [None]
        assert predict_next(model, w, slot) == 0.0
        last = slot[0]
        monkeypatch.setattr(forecaster, "_floats", went_cold)
        with pytest.raises(DataError, match="^forecast overflows: inf$"):
            predict_next(model, (*w[1:], 1e308), slot)
        assert slot[0] is last
        window = (*w[1:], 0.5)
        expected = reference_predict(model, window)[0]
        assert predict_next(model, window, slot) == expected and slot[0][1] is last[1]

    def test_overflowing_cold_forecast_stores_no_memo(self):
        rng = np.random.default_rng(43)
        model = random_model(rng, 6, 5.0)
        model = dataclasses.replace(model, norm_mean=1.0, norm_std=1e308, b_out=10.0)
        memo = [None]
        with pytest.raises(DataError, match="forecast overflows"):
            predict_next(model, 1.0 + 2.0 * rng.standard_normal(4), memo)
        assert memo == [None]

    def test_a_partial_window_whose_output_overflows_does_not_refuse_the_window(self):
        # Values of -1, 0 and 1 model-stds, and 30 times a hidden state scaled
        # by std 1e307: the output after some window's first values overflows
        # although the window's own forecast is finite. That output is no
        # forecast, so each window gets the reference's bits or refusal.
        rng = np.random.default_rng(71)
        h, refused = 4, 0
        for _ in range(300):
            weights = gate_weights(w_x=rng.uniform(-3, 3, 4 * h), w_h=rng.uniform(-1, 1, (4 * h, h)), b=np.zeros(4 * h))
            model = LstmModel(weights, w_out=np.full(h, 30.0), b_out=0.0, norm_std=1e307)
            window = tuple(rng.choice([-1e307, 0.0, 1e307], 3).tolist())
            expected = outcome(lambda: reference_predict(model, window)[0])
            assert outcome(lambda: predict_next(model, window, [None])) == expected
            refused += type(expected) is tuple
        assert 0 < refused < 300

    def test_a_model_is_a_frozen_value_that_forecasting_leaves_alone(self):
        model, series, memo = self._primed()
        fields = dict(vars(model))
        for start in (1, 2, 5):
            predict_next(model, series[start : start + 4], memo)
            predict_next(model, series[start : start + 4])
        assert vars(model).keys() == fields.keys()
        assert all(vars(model)[k] is v for k, v in fields.items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.b_out = 1.0


def equal_items(value: float) -> list:
    """Items equal to the float ``value`` that are not that object: another
    float object, numpy's float, an int, the other signed zero and complex
    numbers, which ``_floats`` refuses although ``3+0j == 3.0``. None of them
    is the object the memo stored, so a window holding one steps cold."""
    items = [float(repr(value)), np.float64(value), complex(value, 0.0), np.complex128(value)]
    if value.is_integer():
        items.append(int(value))
    if value == 0.0:
        items.append(-value)
    return items


class TestTupleWindows:
    """A tuple window steps warm exactly when it is an identity slide: its last
    item is an exact ``float`` and its other items are the floats the memo
    stored. Warm or cold, and for a window ``_floats`` refuses too, a call gives
    what the same call without a memo gives, bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        look_back=st.integers(1, 6),
        hidden_units=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        mean=st.sampled_from([0.0, -0.0, 1.5]),
        series=st.lists(st.sampled_from([0.0, -0.0, 3.0, -2.0]) | st.floats(-10.0, 10.0), min_size=10, max_size=10),
        data=st.data(),
    )
    def test_warm_calls_give_the_cold_calls_bits_and_refusals(
        self, look_back, hidden_units, seed, mean, series, data
    ):
        model = random_model(np.random.default_rng(seed), hidden_units, 5.0)
        model = dataclasses.replace(model, norm_mean=mean, norm_std=2.0)
        memo = [None]
        predict_next(model, tuple(series[:look_back]), memo)
        for start in range(1, len(series) - look_back + 1):
            window = tuple(series[start : start + look_back])  # the stored floats, mostly
            if data.draw(st.booleans()):
                window = tuple(data.draw(st.just(v) | st.sampled_from(equal_items(v))) for v in window)
            last = memo[0]
            warm = outcome(lambda: predict_next(model, window, memo))
            assert warm == outcome(lambda: predict_next(model, window))
            if memo[0] is not last:  # it returned: warm exactly when it is an identity slide
                slide = type(window[-1]) is float and all(a is b for a, b in zip(window, last[2]))
                assert (memo[0][1] is last[1]) == slide


def assert_same_as_reference(model: LstmModel, window, slot: list):
    """``predict_next`` through the memo ``slot``, warm or cold, gives the cold
    reference's forecast and carried states bit for bit. The reference ends
    at r = 0, so the slot's columns are rotated by its r to line up."""
    expected, *states = reference_predict(model, window)
    assert predict_next(model, window, slot) == expected
    for states_carried, reference in zip(carried(slot[0]), states, strict=True):
        assert np.array_equal(np.roll(states_carried, -slot[0][4], axis=1), reference)


class TestWorkspace:
    """A warm step writes into the workspace its memo holds, and every
    forecast equals the fresh-array reference bit for bit. The windows are
    tuples of one list's float objects, so that a slide steps warm."""

    def test_sliding_gapped_and_rekeyed_windows_match_the_reference(self):
        rng = np.random.default_rng(53)
        for look_back in range(2, 7):
            for hidden_units in (1, 4, 10, 32):
                model = random_model(rng, hidden_units, 5.0)
                model = dataclasses.replace(model, norm_mean=3.0, norm_std=2.0)
                series = (3.0 + 2.0 * rng.standard_normal(16)).tolist()
                slot, previous = [None], None
                # slides, a gap, a repeat, and at 8 a new key of the same length
                for start in [0, 1, 2, 3, 5, 6, 7, 7, 8, 9]:
                    if start == 8:
                        model = dataclasses.replace(model, weights=model.weights.copy())
                    last = slot[0]
                    window = tuple(series[start : start + look_back])
                    assert_same_as_reference(model, window, slot)
                    slid = previous is not None and start == previous + 1 and start != 8
                    assert (last is not None and slot[0][1] is last[1]) == slid  # warm: the same workspace
                    if slid:  # the other set is carried, and the next column spans the window
                        assert slot[0][3:] == (1 - last[3], (last[4] + 1) % look_back)
                    else:  # a cold call's last value read column b - 1, so r is 0 next
                        assert slot[0][4] == 0
                    previous = start

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        look_back=st.integers(2, 8),
        hidden_units=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        series=st.lists(st.floats(-10.0, 10.0), min_size=24, max_size=24),
    )
    def test_slides_past_every_column_wrap_the_ring_with_the_reference_bits(
        self, look_back, hidden_units, seed, series
    ):
        # 2b + 1 windows: each column spans a whole window at least twice.
        model = random_model(np.random.default_rng(seed), hidden_units, 5.0)
        model = dataclasses.replace(model, norm_mean=1.0, norm_std=2.0)
        slot = [None]
        assert_same_as_reference(model, tuple(series[:look_back]), slot)
        workspace = slot[0][1]
        for start in range(1, 2 * look_back + 1):
            assert_same_as_reference(model, tuple(series[start : start + look_back]), slot)
            assert slot[0][1] is workspace and slot[0][4] == start % look_back  # warm, r on by one

    def test_repeated_values_and_signed_zeros_match_the_reference(self):
        # The memo is keyed on the identity of the window's floats: repeats
        # make windows whose suffix equals the last window's although they are
        # no slide, and -0.0 == 0.0. The literals 0.0 and 1.5 are one object
        # each, so such a repeat can step warm. 1e-20 and 2e-20 are other
        # floats that normalize alike under mean 1.5: a window with one steps
        # cold where its normalized values repeat.
        rng = np.random.default_rng(67)
        series = [0.0, -0.0, 0.0, 1.5, 1.5, -0.0, 1.5, 0.0, 0.0, -0.0, -0.0, 1e-20, 2e-20, 1e-20]
        series += [1.5, 0.0, 1.5, -0.0, 0.0, 1.5]
        for look_back in (1, 2, 3, 5):
            for hidden_units in (1, 4, 10, 32):
                for mean, std in ((0.0, 1.0), (-0.0, 2.0), (1.5, 0.5)):
                    model = random_model(rng, hidden_units, 5.0)
                    model = dataclasses.replace(model, norm_mean=mean, norm_std=std)
                    slot, warm = [None], 0
                    jumps = [3, 4, 4, 0, 1, 13 - look_back, 13]
                    for start in [*range(len(series) - look_back + 1), *jumps]:
                        state = None if slot[0] is None else slot[0][1]
                        window = tuple(series[start : start + look_back])
                        assert_same_as_reference(model, window, slot)
                        warm += slot[0][1] is state
                    assert warm >= len(series) - look_back

    def test_a_failed_warm_call_leaves_the_memo_usable(self, monkeypatch):
        # A new value whose product with w_x overflows fails inside the warm
        # step when numpy raises on overflow, and a NaN fails before it.
        rng = np.random.default_rng(59)
        model = dataclasses.replace(random_model(rng, 6, 5.0), norm_mean=1.0, norm_std=2.0)
        series = (1.0 + 2.0 * rng.standard_normal(8)).tolist()
        slot = [None]
        assert_same_as_reference(model, tuple(series[0:4]), slot)
        assert_same_as_reference(model, tuple(series[1:5]), slot)
        last = slot[0]
        monkeypatch.setattr(forecaster, "_floats", went_cold)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            predict_next(model, (*series[2:5], 1.7e308), slot)
        with pytest.raises(DataError, match="non-finite"):
            predict_next(model, (*series[2:5], math.nan), slot)
        assert slot[0] is last
        for start in (2, 3):
            assert_same_as_reference(model, tuple(series[start : start + 4]), slot)
            assert slot[0][1] is last[1]

    @pytest.mark.parametrize(
        "scope, middle, error",
        [
            (contextlib.nullcontext, 1.7e308, DataError),
            (lambda: np.errstate(all="raise"), 5e307, FloatingPointError),
        ],
        ids=["normalizes-to-inf", "step-overflows"],
    )
    def test_a_cold_call_that_fails_at_its_middle_value_leaves_the_memo_as_it_was(self, scope, middle, error):
        # At std 0.5, 1.7e308 normalizes to inf, and 5e307 to 1e308, whose
        # product with some w_x overflows when numpy raises on overflow.
        rng = np.random.default_rng(73)
        model = dataclasses.replace(random_model(rng, 6, 5.0), norm_mean=1.0, norm_std=0.5)
        series = (1.0 + 0.5 * rng.standard_normal(8)).tolist()
        slot = [None]
        assert_same_as_reference(model, tuple(series[0:4]), slot)
        assert_same_as_reference(model, tuple(series[1:5]), slot)
        last = slot[0]
        with scope(), pytest.raises(error) as raised:
            predict_next(model, (series[5], middle, series[6]), slot)
        assert raised.type is error  # an overflow is retried once, not until recursion fails
        assert raised.value.__context__ is None or raised.value.__context__.__context__ is None
        assert slot[0] is last
        assert_same_as_reference(model, tuple(series[2:6]), slot)
        assert slot[0][1] is last[1]

    def test_a_cold_window_with_a_value_that_normalizes_to_inf_is_refused_before_any_step(self):
        # 5e307 normalizes to 1e308, whose step overflows when numpy raises;
        # the last value, 1.7e308, normalizes to inf and is what is refused.
        model = dataclasses.replace(random_model(np.random.default_rng(73), 6, 5.0), norm_mean=1.0, norm_std=0.5)
        with np.errstate(all="raise"), pytest.raises(DataError, match="non-finite"):
            predict_next(model, (1.0, 5e307, 1.7e308), [None])

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_forecast_the_reference_bits_through_one_memo_and_through_two(self, duplicate):
        rng = np.random.default_rng(61)
        model = random_model(rng, 10, 5.0)
        model = dataclasses.replace(model, norm_mean=20.0, norm_std=4.0)
        series = (20.0 + 4.0 * rng.standard_normal(10)).tolist()
        other = series[:4] + [v + 3.0 for v in series[4:]]  # the same first four values, other last values
        twin = duplicate(model)
        slot, twin_slot = [None], [None]
        for start in range(6):
            assert_same_as_reference(model, tuple(series[start : start + 4]), slot)
            assert_same_as_reference(twin, tuple(other[start : start + 4]), twin_slot)
        slot = [None]  # the two take turns in one memo
        for start in range(6):
            assert_same_as_reference(model, tuple(series[start : start + 4]), slot)
            assert_same_as_reference(twin, tuple(other[start : start + 4]), slot)
