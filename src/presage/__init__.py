"""presage: proactive anomaly detection for streaming time series.

A tiny LSTM forecaster is retrained on the fly over a short look-back
window; its relative prediction error is compared against a
self-adjusting three-sigma threshold, with a retrain-and-recheck double
check before any point is reported as an anomaly.
"""

from . import data_io, detector, errors, evaluation, forecaster, scoring
from .data_io import *
from .detector import *
from .errors import *
from .evaluation import *
from .forecaster import *
from .scoring import *

__version__ = "0.1.0"

__all__ = []
__all__ += data_io.__all__
__all__ += detector.__all__
__all__ += errors.__all__
__all__ += evaluation.__all__
__all__ += forecaster.__all__
__all__ += scoring.__all__
