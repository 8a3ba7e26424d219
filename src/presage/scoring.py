"""Prediction-error scoring for the streaming detector.

``aare`` is the average absolute relative error between a window of
observed values and the one-step forecasts made for them. The running
statistics (``_welford_add``, ``_welford_std``) hold the mean and spread of
every score seen so far, from which the detector takes its three-sigma
threshold.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from typing import Sequence

import numpy as np

from .errors import DataError, _shown

__all__ = ["aare"]

#: Default floor applied to |observed| in the AARE denominator so that
#: near-zero observations yield a large-but-finite relative error.
DEFAULT_EPSILON = 1e-8

#: The rule ``aare`` and ``DetectorConfig`` hold ``epsilon`` to, as ``_real`` states it.
_EPSILON_RULE = "epsilon must be a real number, positive and finite, got "

#: Scores past this magnitude or below its inverse are taken in units of a power
#: of two, so that their squared deviations neither overflow nor underflow (Chan,
#: Golub & LeVeque, 1983). Scaling by a power of two is exact: others change no bit.
_HUGE_SCORE = 2.0**400


def aare(
    observed: Sequence[float],
    predicted: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Average absolute relative error over an aligned window.

    Computes ``mean(|observed - predicted| / max(|observed|, epsilon))``,
    pairing each observed value with the forecast that was made for it.

    Two tuples of the same nonzero length are scored as they are while every
    item is an exact finite ``float``, as the detector's windows are, so a
    detecting step reads no value twice. Any other input is read by ``_floats``
    first; the score is the same loop either way, so its bits and errors are too.

    Args:
        observed: window of observed values.
        predicted: forecasts for the same time points, same length.
        epsilon: denominator floor in the series' units, a positive finite real (no ``bool``).

    Returns:
        A non-negative, finite relative-error score; one past the float
        range, or a NaN or inf in either window, is a ``DataError``.
    """
    if type(epsilon) is not float or not 0 < epsilon < math.inf:  # NaN fails too
        epsilon = _real(epsilon, ValueError, _EPSILON_RULE, above=True)  # a numpy scalar would type the score
    if type(observed) is tuple and type(predicted) is tuple and len(observed) == len(predicted) != 0:
        score = _score(observed, predicted, epsilon)
        if score is not None:
            return score
    obs = _floats(observed, "observed window")
    pred = _floats(predicted, "predicted window")
    if not obs:
        raise ValueError("observed window is empty")
    if len(obs) != len(pred):
        raise ValueError(
            f"window length mismatch: {len(obs)} observed vs {len(pred)} predicted"
        )
    return _score(obs, pred, epsilon)


def _score(obs: tuple, pred: tuple, epsilon: float) -> float | None:
    """``aare`` of two nonempty windows of equal length, or None at the first
    item that is not an exact ``float`` or when a value is not finite."""
    total = 0.0
    for o, p in zip(obs, pred):
        if type(o) is not float or type(p) is not float:
            return None
        d = abs(o)
        total += abs(o - p) / (epsilon if epsilon > d else d)  # max(d, epsilon), NaN too, without a call
    if not total < math.inf:  # NaN fails too; a NaN or inf value gives NaN or inf
        if not all(map(math.isfinite, obs + pred)):
            return None  # only a tuple gets here: ``_floats`` refuses it, naming the window
        # the values are finite, so o - p overflowed: divide before subtracting
        scales = [max(abs(o), epsilon) for o in obs]
        total = sum(abs(o / s - p / s) / len(obs) for o, p, s in zip(obs, pred, scales))
        if total == math.inf:
            raise DataError("score overflows the float range")
        return total
    return total / len(obs)


def _float(number, what: str, t: int | None = None) -> float:
    """``number`` as a finite float, named in errors as ``what.format(t)``, built only
    when the read fails. An exact finite ``float`` returns first. Anything that is no
    ``numbers.Real`` or is a ``bool`` (text, a ``Decimal``, a 0-d array) is a ``ValueError``,
    as for a setting; a real past the float range, NaN or inf is a ``DataError``."""
    if type(number) is float and math.isfinite(number):
        return number
    if not isinstance(number, numbers.Real) or isinstance(number, bool):
        raise ValueError(f"{what.format(t)} must be a real number, got {_shown(number)}")
    try:
        real = float(number)
    except OverflowError:
        raise DataError(f"{what.format(t)} is past the float range") from None
    if not math.isfinite(real):
        raise DataError(f"{what.format(t)} is not finite: {real}")
    return real


def _real(value, error: type[Exception], rule: str, above: bool = False) -> float:
    """The one rule for a real number: ``_float(value)`` if that reads it and it is ``>= 0``
    (``> 0`` when ``above``), else ``error(rule + _shown(value))``."""
    with contextlib.suppress(ValueError):  # a DataError is one
        real = _float(value, "")
        if 0 < real if above else 0 <= real:
            return real
    raise error(rule + _shown(value))


def _floats(window: Sequence[float], name: str) -> tuple[float, ...]:
    """``window`` as a tuple of finite floats, each item read by ``_float``; a window
    that is text, a number or a 0-d array is a ``ValueError`` naming it. An ndarray
    becomes nested lists first, so a nested item is refused as no real number."""
    item = f"{name} item"
    try:
        if isinstance(window, (str, bytes, bytearray)):
            raise TypeError  # iterated, it would give characters or ints
        return tuple([_float(v, item) for v in (window.tolist() if isinstance(window, np.ndarray) else window)])
    except TypeError:
        raise ValueError(f"{name} must be a one-dimensional sequence of numbers, got {_shown(window)}") from None


def _unit_of(score: float) -> float:
    """The power of two a score is taken in: 1 for 0 and within a factor of
    ``_HUGE_SCORE`` of 1, else the largest power of two not above ``|score|``."""
    ordinary = not score or 1.0 / _HUGE_SCORE <= abs(score) <= _HUGE_SCORE
    return 1.0 if ordinary else math.ldexp(1.0, math.frexp(score)[1] - 1)


#: The running (count, mean, M2 / unit², unit) of no values; see ``_welford_add``.
_WELFORD_EMPTY = (0, 0.0, 0.0, 1.0)


def _welford_add(
    state: tuple[int, float, float, float], x: float
) -> tuple[int, float, float, float]:
    """Running (count, mean, M2 / unit², unit) with ``x`` added (Welford 1962).

    M2 is kept in units of a power of two (Chan, Golub & LeVeque 1983): that of
    the values while M2 is 0, so tiny values' spread cannot underflow, then grown
    with them, so it cannot overflow. Scaling by a power of two is exact: for
    values within a factor of ``_HUGE_SCORE`` of 1 the unit is 1, M2 the plain sum.
    """
    count, mean, m2, unit = state
    if not m2:
        unit = _unit_of(max(abs(x), abs(mean)))
    elif abs(x) > unit * _HUGE_SCORE:
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
