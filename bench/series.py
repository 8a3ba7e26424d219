"""Seeded synthetic series for the replay benchmark.

The NAB corpus CSVs are not shipped and cannot be fetched, so every
workload is generated. Lengths and the 5-minute cadence follow the NAB
series (Lavin & Ahmad, arXiv:1510.03336). Each series is a pure function
of ``(seed, index)``: the same pair always gives the same values.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

START = datetime(2014, 1, 1)
STEP = timedelta(minutes=5)
PERIOD = 288  # one day of 5-minute points
NOISE = 0.5
LEVEL = 50.0

STEADY_POINTS = 22695  # length of NAB machine_temperature_system_failure
STEADY_AMPLITUDE = 8.0

BURSTY_POINTS = 8064  # four weeks at the 5-minute cadence
BURSTY_AMPLITUDE = 2.0
BURSTY_CALM = 1000  # no dips here, so the threshold settles first
# A dip of 20 below a level of 50 gives a relative error of about 0.67 on
# its own point, far above the three-sigma threshold whatever the seed.
# Every dip is therefore rechecked (about four rechecks per dip, the dip
# and the steps whose windows still hold it), which keeps the recheck
# count, and so the work in a replay, nearly independent of the seed.
# Upward spikes of the same size cross the threshold only for some seeds.
BURSTY_DIP = 20.0
BURSTY_DIPS = 23  # 0.33% of points; about 1.2% of points are rechecked
# One dip per slot, at a seeded offset that leaves at least BURSTY_MIN_GAP
# points before the next slot, so no window holds two dips and each
# dip's rechecks stay inside its slot.
BURSTY_SLOT = (BURSTY_POINTS - BURSTY_CALM) // BURSTY_DIPS
BURSTY_MIN_GAP = 10


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    # SeedSequence takes non-negative entropy; the modulus leaves every
    # seed below 2**63 unchanged.
    return np.random.default_rng([seed % 2**63, index, stream])


def _seasonal(rng: np.random.Generator, n: int, amplitude: float) -> np.ndarray:
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n)
    return LEVEL + amplitude * np.sin(2.0 * np.pi * t / PERIOD + phase) + rng.normal(0.0, NOISE, n)


def steady(seed: int, index: int = 0) -> np.ndarray:
    """Daily seasonal series with nothing injected."""
    rng = _rng(seed, index, 0)
    return _seasonal(rng, STEADY_POINTS, STEADY_AMPLITUDE)


def bursty_dips(seed: int, index: int = 0) -> np.ndarray:
    """Indices of the dips in ``bursty(seed, index)``, increasing."""
    rng = _rng(seed, index, 2)
    offsets = rng.integers(0, BURSTY_SLOT - BURSTY_MIN_GAP, BURSTY_DIPS)
    return BURSTY_CALM + np.arange(BURSTY_DIPS) * BURSTY_SLOT + offsets


def bursty(seed: int, index: int = 0) -> np.ndarray:
    """Low-amplitude seasonal series: a calm prefix, then isolated dips."""
    rng = _rng(seed, index, 1)
    values = _seasonal(rng, BURSTY_POINTS, BURSTY_AMPLITUDE)
    values[bursty_dips(seed, index)] -= BURSTY_DIP
    return values


def timestamps(n: int) -> list[datetime]:
    return [START + k * STEP for k in range(n)]


def labels(seed: int, n: int, count: int = 3) -> list[datetime]:
    """Label instants for the evaluate stage, spread over the series."""
    rng = _rng(seed, 0, 3)
    picks = np.sort(rng.choice(np.arange(n // 10, n), size=count, replace=False))
    return [START + int(k) * STEP for k in picks]
