"""Seeded series whose level drop is announced by a precursor, for lead-time tests.

Each series has 8064 points (28 days) at a 5-minute cadence: level 50, a
daily cycle of amplitude 2 and Gaussian noise of sigma 0.5. The level drops
by 20 at ``ONSET``. The ``PRECURSOR`` points just before it carry one of
three families of warning sign, each growing linearly to full size at the
onset and gone from it on:

- ``drift``: the level rises by up to 6;
- ``variance``: the noise sigma grows to 2;
- ``oscillation``: a period-12 wave grows to amplitude 3.

The labels file names the onset as the anomaly and the precursor's first
instant as its sign, in the combined-labels layout ``read_labels`` reads.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import numpy as np

from helpers import write_series_csv

LENGTH = 8064
ONSET = 6000
PRECURSOR = 288
START = datetime(2021, 1, 1)
STEP = timedelta(minutes=5)
FAMILIES = ("drift", "variance", "oscillation")


def precursor_values(family: str, seed: int) -> np.ndarray:
    """The series of ``family`` drawn with ``seed``."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    t = np.arange(LENGTH)
    noise = np.random.default_rng(seed).normal(0.0, 1.0, LENGTH)
    ramp = np.zeros(LENGTH)
    ramp[ONSET - PRECURSOR:ONSET] = np.arange(1, PRECURSOR + 1) / PRECURSOR
    sigma = 0.5 + (1.5 * ramp if family == "variance" else 0.0)
    values = 50.0 + 2.0 * np.sin(2 * np.pi * t / 288) + sigma * noise
    if family == "drift":
        values += 6.0 * ramp
    elif family == "oscillation":
        values += 3.0 * ramp * np.sin(2 * np.pi * t / 12)
    values[ONSET:] -= 20.0
    return values


def instant(index: int) -> datetime:
    return START + index * STEP


def write_precursor_files(directory, family: str, seed: int):
    """Write the series CSV and its labels JSON under ``directory``;
    return ``(series_path, labels_path, dataset_key)``."""
    key = f"synthetic/{family}_seed{seed}.csv"
    series = directory / f"{family}_seed{seed}.csv"
    write_series_csv(series, precursor_values(family, seed), START, STEP)
    labels = directory / f"{family}_seed{seed}.labels.json"
    entry = {"anomalies": [instant(ONSET).isoformat(sep=" ")],
             "signs": [instant(ONSET - PRECURSOR).isoformat(sep=" ")]}
    labels.write_text(json.dumps({key: entry}))
    return series, labels, key
