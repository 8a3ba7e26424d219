"""Prediction-error scoring for the streaming detector.

``aare`` is the average absolute relative error between a window of
observed values and the one-step forecasts made for them. The running
statistics (``_welford_add``, ``_welford_std``) hold the mean and spread of
every score seen so far, from which the detector takes its three-sigma
threshold.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DataError

__all__ = ["aare"]

#: Default floor applied to |observed| in the AARE denominator so that
#: near-zero observations yield a large-but-finite relative error.
DEFAULT_EPSILON = 1e-8

#: Scores past this magnitude are taken in units of a power of two, so that
#: their squared deviations cannot overflow (Chan, Golub & LeVeque, 1983).
#: Scaling by a power of two is exact, so smaller scores change no bit.
_HUGE_SCORE = 2.0**400


def aare(
    observed: Sequence[float],
    predicted: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Average absolute relative error over an aligned window.

    Computes ``mean(|observed - predicted| / max(|observed|, epsilon))``,
    pairing each observed value with the forecast that was made for it.

    Args:
        observed: window of observed values, read by ``_floats``.
        predicted: forecasts for the same time points, same length.
        epsilon: denominator floor, must be positive and finite.

    Returns:
        A non-negative, finite relative-error score; one past the float
        range, or a NaN or inf in either window, is a ``DataError``.
    """
    if not 0 < epsilon < math.inf:  # NaN fails too
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    obs = _floats(observed, "observed window")
    pred = _floats(predicted, "predicted window")
    if not obs:
        raise ValueError("observed window is empty")
    if len(obs) != len(pred):
        raise ValueError(
            f"window length mismatch: {len(obs)} observed vs {len(pred)} predicted"
        )
    total = 0.0
    for o, p in zip(obs, pred):
        d = abs(o)
        total += abs(o - p) / (epsilon if epsilon > d else d)  # max(d, epsilon), NaN too, without a call
    if not total < math.inf:  # NaN fails too; a NaN or inf value gives NaN or inf
        if not all(map(math.isfinite, obs + pred)):
            raise DataError("observed/predicted values must be finite")
        # the values are finite, so o - p overflowed: divide before subtracting
        scales = [max(abs(o), epsilon) for o in obs]
        total = sum(abs(o / s - p / s) / len(obs) for o, p, s in zip(obs, pred, scales))
        if total == math.inf:
            raise DataError("score overflows the float range")
        return total
    return total / len(obs)


def _floats(window: Sequence[float], name: str) -> list[float]:
    """``window`` as a list of floats; any shape but 1-D (an ndarray becomes
    nested lists first) or an item ``float`` refuses is a ``ValueError`` naming it;
    an int past the float range is a ``DataError`` naming it."""
    try:
        return list(map(float, window.tolist() if isinstance(window, np.ndarray) else window))
    except OverflowError:
        raise DataError(f"{name} holds a value past the float range") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be one-dimensional, one number per point: {exc}") from None


def _unit_of(score: float) -> float:
    """The power of two a score is taken in: 1 up to ``_HUGE_SCORE``, else
    the largest power of two not above ``|score|``."""
    return 1.0 if abs(score) <= _HUGE_SCORE else math.ldexp(1.0, math.frexp(score)[1] - 1)


#: The running (count, mean, M2 / unit², unit) of no values; see ``_welford_add``.
_WELFORD_EMPTY = (0, 0.0, 0.0, 1.0)


def _welford_add(
    state: tuple[int, float, float, float], x: float
) -> tuple[int, float, float, float]:
    """Running (count, mean, M2 / unit², unit) with ``x`` added (Welford 1962).

    M2 is kept in units of a power of two (Chan, Golub & LeVeque 1983) that
    grows with the values, so it cannot overflow. Scaling by a power of two
    is exact: until a value passes ``_HUGE_SCORE`` the unit is 1 and M2 the
    plain Welford sum.
    """
    count, mean, m2, unit = state
    if abs(x) > unit * _HUGE_SCORE:
        grown = _unit_of(x)
        m2 = m2 * (unit / grown) * (unit / grown)
        unit = grown
    count += 1
    delta = x - mean
    mean += delta / count
    return count, mean, m2 + (delta / unit) * ((x - mean) / unit), unit


def _welford_std(state: tuple[int, float, float, float]) -> float:
    """Population standard deviation of the values a Welford state has seen."""
    count, _, m2, unit = state
    return unit * math.sqrt(m2 / count)
