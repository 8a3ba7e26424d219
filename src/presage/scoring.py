"""Prediction-error scoring for the streaming detector.

Two pure functions live here: ``aare``, the average absolute relative
error between a window of observed values and the one-step forecasts
made for them, and ``threshold``, the three-sigma detection threshold
derived from every error score seen so far.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DataError, StateError

__all__ = ["aare", "threshold"]

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
        observed: window of observed values.
        predicted: forecasts for the same time points, same length.
        epsilon: denominator floor, must be positive and finite.

    Returns:
        A non-negative, finite relative-error score.
    """
    if not 0 < epsilon < math.inf:  # NaN fails too
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    try:
        obs = [float(v) for v in _items(observed)]
        pred = [float(v) for v in _items(predicted)]
    except TypeError:
        raise ValueError("observed and predicted must be one-dimensional") from None
    if not obs:
        raise ValueError("observed window is empty")
    if len(obs) != len(pred):
        raise ValueError(
            f"window length mismatch: {len(obs)} observed vs {len(pred)} predicted"
        )
    if not all(map(math.isfinite, obs + pred)):
        raise DataError("observed/predicted values must be finite")
    total = 0.0
    for o, p in zip(obs, pred):
        total += abs(o - p) / max(abs(o), epsilon)
    if total == math.inf:  # o - p overflowed: divide before subtracting
        scales = [max(abs(o), epsilon) for o in obs]
        return sum(abs(o / s - p / s) / len(obs) for o, p, s in zip(obs, pred, scales))
    return total / len(obs)


def _items(values: Sequence[float]):
    """``values`` as an iterable of scalars; an ndarray becomes nested lists
    (a scalar for 0-d), so any shape but 1-D fails ``float`` with TypeError."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def threshold(history: Sequence[float]) -> float:
    """Dynamic detection threshold: mean + 3 * population stddev.

    Both statistics are taken over every stored error score, normalized
    by the actual count of scores. With all scores equal the threshold
    degenerates to the mean itself. Huge scores are taken in units of a
    power of two, so the threshold is finite whenever it is representable.
    """
    arr = np.asarray(history, dtype=float)
    if arr.size == 0:
        raise StateError("cannot compute a threshold from an empty history")
    if not np.isfinite(arr).all():
        raise DataError("history contains non-finite values")
    unit = _unit_of(float(np.abs(arr).max()))
    arr = arr / unit
    mu = float(arr.mean())
    sigma = float(np.sqrt(np.mean((arr - mu) ** 2)))
    return unit * (mu + 3.0 * sigma)


def _unit_of(score: float) -> float:
    """The power of two a score is taken in: 1 up to ``_HUGE_SCORE``, else
    the largest power of two not above ``|score|``."""
    return 1.0 if abs(score) <= _HUGE_SCORE else math.ldexp(1.0, math.frexp(score)[1] - 1)
