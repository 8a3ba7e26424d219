import numpy as np
import pytest
from hypothesis import given, strategies as st

from presage.errors import DataError, StateError
from presage.scoring import aare, threshold

from helpers import aare_oracle, threshold_oracle

finite_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestAare:
    def test_hand_worked_window(self):
        assert aare([100, 200, 100], [110, 180, 90]) == pytest.approx(0.1, abs=1e-12)

    def test_perfect_prediction_is_zero(self):
        assert aare([3.5, -2.0, 7.25], [3.5, -2.0, 7.25]) == 0.0

    def test_zero_observation_with_zero_error(self):
        assert aare([0.0, 1.0, 1.0], [0.0, 1.0, 1.0], epsilon=1e-8) == 0.0

    def test_zero_observation_with_error_hits_epsilon_floor(self):
        # |0 - 0.5| / max(0, eps) = 0.5 / eps
        assert aare([0.0], [0.5], epsilon=1e-2) == pytest.approx(50.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            aare([1.0, 2.0], [1.0])

    def test_empty_window(self):
        with pytest.raises(ValueError):
            aare([], [])

    def test_non_finite_input(self):
        with pytest.raises(DataError):
            aare([1.0, float("nan")], [1.0, 1.0])
        with pytest.raises(DataError):
            aare([1.0, 2.0], [1.0, float("inf")])

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            aare([1.0], [1.0], epsilon=0.0)

    @pytest.mark.parametrize(
        "observed,predicted",
        [
            (np.ones((2, 2)), np.ones((2, 2))),
            (np.ones((1, 3)), np.ones(3)),
            (np.ones(3), np.ones((3, 1))),
            ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]),
            ([1.0, 2.0], [[1.0], [2.0]]),
            (np.float64(1.0), np.float64(1.0)),
        ],
    )
    def test_not_one_dimensional(self, observed, predicted):
        with pytest.raises(ValueError, match="one-dimensional"):
            aare(observed, predicted)

    def test_lists_and_arrays_agree(self):
        rng = np.random.default_rng(103)
        for size in range(1, 12):
            observed = rng.uniform(-100, 100, size)
            predicted = rng.uniform(-100, 100, size)
            expected = aare(observed.tolist(), predicted.tolist())
            assert aare(observed, predicted) == expected
            assert aare(observed, predicted.tolist()) == expected
            assert aare(tuple(observed), predicted) == expected

    @pytest.mark.parametrize("epsilon", [1e-8, 0.5, 3.0])
    def test_equals_the_vectorized_mean_below_eight_points(self, epsilon):
        # Below 8 values numpy's pairwise sum is a left-to-right loop.
        rng = np.random.default_rng(107)
        for size in range(1, 8):
            for _ in range(50):
                o = rng.uniform(-5, 5, size) * 10.0 ** rng.integers(-9, 9)
                p = o + rng.normal(0, 1, size) * 10.0 ** rng.integers(-9, 9)
                expected = float(np.mean(np.abs(o - p) / np.maximum(np.abs(o), epsilon)))
                assert aare(o, p, epsilon) == expected

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            size = rng.integers(1, 11)
            observed = rng.uniform(-100, 100, size)
            predicted = rng.uniform(-100, 100, size)
            expected = aare_oracle(observed, predicted)
            assert aare(observed, predicted) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(st.lists(finite_values, min_size=1, max_size=10))
    def test_non_negative(self, values):
        shifted = [v + 1.0 for v in values]
        assert aare(values, shifted) >= 0.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.5, max_value=4.0),
        st.booleans(),
    )
    def test_scale_and_sign_flip_invariance(self, pairs, k, negate):
        observed = [obs for obs, _ in pairs]
        predicted = [pred for _, pred in pairs]
        if negate:
            k = -k
        base = aare(observed, predicted)
        scaled = aare([k * o for o in observed], [k * p for p in predicted])
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestThreshold:
    def test_equal_history_collapses_to_mean(self):
        assert threshold([0.1, 0.1, 0.1]) == pytest.approx(0.1, abs=1e-15)

    def test_single_value(self):
        assert threshold([0.42]) == pytest.approx(0.42, abs=1e-15)

    def test_reference_history(self):
        # mean 0.2, population sigma sqrt(0.02/3)
        assert threshold([0.1, 0.2, 0.3]) == pytest.approx(0.44495, abs=1e-5)

    def test_empty_history(self):
        with pytest.raises(StateError):
            threshold([])

    def test_non_finite_history(self):
        with pytest.raises(DataError):
            threshold([0.1, float("nan")])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            size = rng.integers(1, 21)
            history = rng.uniform(0, 10, size)
            assert threshold(history) == pytest.approx(
                threshold_oracle(history), abs=1e-12
            )

    @pytest.mark.parametrize("exponent", [600, 1000])
    def test_huge_scores_scale_exactly(self, exponent):
        # The squared deviations of these scores overflow; taken in units of
        # a power of two, the threshold scales with them bit for bit.
        history = np.random.default_rng(5).uniform(0, 10, 20)
        assert threshold(history * 2.0**exponent) == threshold(history) * 2.0**exponent

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
    def test_never_below_mean(self, history):
        assert threshold(history) >= np.mean(history) - 1e-12

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
    def test_appending_the_mean_never_raises_it(self, history):
        mean = float(np.mean(history))
        assert threshold(history + [mean]) <= threshold(history) + 1e-12
