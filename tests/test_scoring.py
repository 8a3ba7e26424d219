import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from presage.errors import DataError
from presage.scoring import DEFAULT_EPSILON, aare

from helpers import aare_oracle, outcome, running_threshold, threshold, threshold_oracle

finite_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
wide_values = st.builds(
    math.copysign, st.floats(min_value=1e-300, max_value=1e300), st.sampled_from([1.0, -1.0])
)


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
        "epsilon", [True, "1", None, 1 + 0j, 10**400], ids=["bool", "str", "None", "complex", "int-past-float"]
    )
    def test_an_epsilon_that_is_no_real_number_is_refused(self, epsilon):
        # True once scored with epsilon 1 (0.25 here); the others escaped as a raw
        # TypeError, and an int past the float range as an OverflowError.
        message = f"^epsilon must be a real number, positive and finite, got {re.escape(repr(epsilon))}$"
        with pytest.raises(ValueError, match=message):
            aare([1.0, 2.0], [1.5, 2.0], epsilon)

    @pytest.mark.parametrize("epsilon", [1, np.float32(0.5), Fraction(1, 2)])
    def test_any_real_epsilon_scores_as_its_float(self, epsilon):
        # An np.float32 floor once made the score an np.float32.
        score = aare([0.0, 2.0], [0.25, 2.0], epsilon)
        assert type(score) is float and score == aare([0.0, 2.0], [0.25, 2.0], float(epsilon))

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # a NaN floor used to divide by zero, an infinite one to score 0.0
        with pytest.raises(ValueError, match="positive and finite"):
            aare([0.0, 2.0], [1.0, 1.0], epsilon=epsilon)

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
        # a nested window's items are no real numbers
        with pytest.raises(ValueError, match="(item must be a real number|must be a one-dimensional sequence of numbers), got "):
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

    @pytest.mark.parametrize(
        "observed, predicted, expected",
        [
            ([1.7e308], [-1.7e308], 2.0),
            ([1.0, 1.7e308], [1.0, -1.7e308], 1.0),
            ([-1.7e308, 1e308], [1.7e308, -1e308], 2.0),
            ([1e-10, 1e-10], [1e300, 1e300], 1e308),
        ],
    )
    def test_huge_differences_do_not_overflow(self, observed, predicted, expected):
        assert aare(observed, predicted) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "observed, predicted", [([0.0], [1e301]), ([1e-10, 0.0], [1e300, -1e301])]
    )
    def test_score_past_the_float_range_is_a_data_error(self, observed, predicted):
        # The relative error is about 1e309; it once came back as inf.
        with pytest.raises(DataError, match="score overflows"):
            aare(observed, predicted)

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

    @given(st.lists(st.tuples(wide_values, wide_values), min_size=1, max_size=8))
    def test_finite_windows_give_the_bits_of_the_left_to_right_sum(self, pairs):
        observed, predicted = [o for o, _ in pairs], [p for _, p in pairs]
        expected = aare_oracle(observed, predicted)
        assume(math.isfinite(expected))  # past the range, the sum is taken another way
        assert aare(observed, predicted) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("argument", ["observed", "predicted"])
    def test_a_non_finite_value_anywhere_is_a_data_error(self, argument, position, bad):
        windows = {"observed": [1.0, -2.0, 1e300], "predicted": [1.5, 2.0, -1e300]}
        windows[argument][position] = bad
        with pytest.raises(DataError, match=f"^{argument} window item is not finite: "):
            aare(windows["observed"], windows["predicted"])


# Floats of every kind: wide magnitudes, signed zeros, subnormals, NaN, inf,
# and values whose difference overflows, so scores take the divide-first branch.
ANY_FLOAT = (
    st.floats()
    | wide_values
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf])
)
# Exact floats, at twice the odds of each other kind of item a window may hold.
ANY_ITEM = st.one_of(
    ANY_FLOAT,
    ANY_FLOAT,
    st.integers(),
    st.builds(np.float64, ANY_FLOAT),
    st.fractions(),
    st.just("1.5"),
    st.complex_numbers(),
    st.builds(np.complex128, st.complex_numbers()),
)


class TestTuplesAsTheyAre:
    """Tuples of exact floats are scored without being read first; any input
    gives the result, or the error, that its list gives through ``_floats``."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(
        pairs=st.lists(st.tuples(ANY_ITEM, ANY_ITEM), max_size=5),
        extra=st.lists(ANY_ITEM, max_size=2),  # unequal lengths, or both empty
        to_observed=st.booleans(),
        epsilon=st.sampled_from([DEFAULT_EPSILON, 0.5]),
    )
    def test_a_tuple_scores_as_its_list(self, pairs, extra, to_observed, epsilon):
        observed, predicted = [o for o, _ in pairs], [p for _, p in pairs]
        (observed if to_observed else predicted).extend(extra)
        as_tuples = outcome(lambda: aare(tuple(observed), tuple(predicted), epsilon))
        assert as_tuples == outcome(lambda: aare(list(observed), list(predicted), epsilon))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=5))
    @example([(1.0, 1.0), (1.7e308, -1.7e308)])  # divided first
    @example([(1e-10, 1e300), (0.0, -1e301)])  # past the float range
    def test_exact_floats_score_as_their_list(self, pairs):
        observed, predicted = zip(*pairs)
        assert outcome(lambda: aare(observed, predicted)) == outcome(lambda: aare(list(observed), list(predicted)))


class TestThreshold:
    """The detector's threshold, mean + 3 * stddev of the running statistics."""

    def test_equal_history_collapses_to_mean(self):
        assert running_threshold([0.1, 0.1, 0.1]) == pytest.approx(0.1, abs=1e-15)

    def test_single_value(self):
        assert running_threshold([0.42]) == pytest.approx(0.42, abs=1e-15)

    def test_reference_history(self):
        # mean 0.2, population sigma sqrt(0.02/3)
        assert running_threshold([0.1, 0.2, 0.3]) == pytest.approx(0.44495, abs=1e-5)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            size = rng.integers(1, 21)
            history = rng.uniform(0, 10, size)
            assert running_threshold(history) == pytest.approx(
                threshold_oracle(history), abs=1e-12
            )

    @pytest.mark.parametrize("exponent", [600, 1000])
    def test_huge_scores_scale_exactly(self, exponent):
        # The squared deviations of these scores overflow; taken in units of
        # a power of two, the threshold scales with them bit for bit.
        history = np.random.default_rng(5).uniform(0, 10, 20)
        scaled = running_threshold(history * 2.0**exponent)
        assert scaled == running_threshold(history) * 2.0**exponent

    @pytest.mark.parametrize("exponent", [-600, -1000])
    def test_tiny_scores_scale_exactly(self, exponent):
        # The squared deviations of these scores are subnormal or zero, which
        # once cost the threshold about 1e-11 of its value, or its whole spread.
        history = np.random.default_rng(5).uniform(0, 10, 20)
        scaled = running_threshold(history * 2.0**exponent)
        assert scaled == running_threshold(history) * 2.0**exponent
        assert threshold(history * 2.0**exponent) == threshold(history) * 2.0**exponent

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
    def test_never_below_mean(self, history):
        assert running_threshold(history) >= np.mean(history) - 1e-12

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
    def test_appending_the_mean_never_raises_it(self, history):
        mean = float(np.mean(history))
        assert running_threshold(history + [mean]) <= running_threshold(history) + 1e-12
