"""One rule for a real number, held at every site that reads one: ``scoring._real``.

Each site reads a real number that is no ``bool`` and is finite and in range
as its float, so the call gives what it gives for that float; anything else
is the site's error with the site's message, showing the value as given.
"""

import math
import re
import warnings
from datetime import datetime, timedelta
from fractions import Fraction

import numpy as np
import pytest

from presage.detector import DetectorConfig, Verdict, _phase_of
from presage.errors import ConfigError, DataError
from presage.evaluation import evaluate_run, summarize_run
from presage.scoring import aare

from helpers import make_record

T0 = datetime(2021, 6, 1)
SECONDS = timedelta(seconds=20)
# A look-back-3 ramp, then a report inside half a minute either side of T0:
# a pre-window or grace of half a minute reaches it, one of 0 does not.
RECORDS = [
    *(make_record(k, phase=_phase_of(k, 3)) for k in range(5)),
    make_record(5, timestamp=T0 - SECONDS, verdict=Verdict.ANOMALY),
    make_record(6, timestamp=T0 + SECONDS, verdict=Verdict.ANOMALY),
]

# (call, error, message prefix, whether 0 is refused)
SITES = {
    "DetectorConfig.epsilon": (
        lambda v: DetectorConfig(epsilon=v).epsilon,
        ConfigError, "epsilon must be a real number, positive and finite, got ", True,
    ),
    "aare.epsilon": (
        lambda v: aare([0.0, 2.0], [0.25, 2.0], v),
        ValueError, "epsilon must be a real number, positive and finite, got ", True,
    ),
    "pre_window_minutes": (
        lambda v: evaluate_run(RECORDS, [T0], pre_window_minutes=v),
        ConfigError, "pre_window_minutes must be a finite, non-negative number of minutes, got ", False,
    ),
    "grace_minutes": (
        lambda v: evaluate_run(RECORDS, [T0], grace_minutes=v),
        ConfigError, "grace_minutes must be a finite, non-negative number of minutes, got ", False,
    ),
    "decision_time": (
        lambda v: summarize_run([make_record(0, decision_time=v)]).avg_decision_time,
        DataError, "record at index 0: decision times must be finite and non-negative, got ", False,
    ),
}

# (value, how it is shown, whether it is a real number in range at some site)
VALUES = {
    "bool": (True, "True", False),
    "float32": (np.float32(0.5), None, True),
    "fraction": (Fraction(1, 2), None, True),
    "int-1e400": (10**400, "1" + "0" * 400, False),
    "int--1e400": (-(10**400), "-1" + "0" * 400, False),
    "int-5000-digits": (10**5000, "a value too long to print (int)", False),
    "nan": (math.nan, "nan", False),
    "inf": (math.inf, "inf", False),
    "str": ("1", "'1'", False),
    "complex": (1 + 0j, "(1+0j)", False),
    "zero": (0, "0", True),
}


@pytest.mark.parametrize("value, shown, real", VALUES.values(), ids=VALUES.keys())
@pytest.mark.parametrize("call, error, rule, positive", SITES.values(), ids=SITES.keys())
def test_each_site_reads_a_real_number_as_its_float_and_refuses_the_rest(call, error, rule, positive, value, shown, real):
    # At the parent of this rule, summarize_run took True as 1 s, let a
    # np.float32 through with an overflow warning, and raised raw errors for
    # the others; aare showed an int 0 as 0.0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if real and not (positive and value == 0):
            result = call(value)
            assert type(result) is type(call(float(value))) and result == call(float(value))
        else:
            with pytest.raises(error, match=f"^{re.escape(rule + shown)}$"):
                call(value)
