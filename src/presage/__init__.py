"""presage: proactive anomaly detection for streaming time series.

A tiny LSTM forecaster is retrained on the fly over a short look-back
window; its relative prediction error is compared against a
self-adjusting three-sigma threshold, with a retrain-and-recheck double
check before any point is reported as an anomaly.
"""

from .detector import (
    DetectionRecord,
    Detector,
    DetectorConfig,
    ForecastEngine,
    LstmEngine,
    Phase,
    Verdict,
    phase_of,
)
from .data_io import (
    read_labels,
    read_report,
    read_series,
    write_evaluation,
    write_summary,
)
from .errors import (
    ConfigError,
    DataError,
    DatasetKeyError,
    OrderingError,
    PresageError,
)
from .evaluation import (
    EvaluationSummary,
    LeadStatus,
    LeadTimeResult,
    RunSummary,
    evaluate_run,
    summarize_run,
)
from .forecaster import LstmConfig, LstmModel, TrainOutcome, predict_next, train
from .scoring import aare

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DatasetKeyError",
    "DetectionRecord",
    "Detector",
    "DetectorConfig",
    "EvaluationSummary",
    "ForecastEngine",
    "LeadStatus",
    "LeadTimeResult",
    "LstmConfig",
    "LstmEngine",
    "LstmModel",
    "OrderingError",
    "Phase",
    "PresageError",
    "RunSummary",
    "TrainOutcome",
    "Verdict",
    "aare",
    "evaluate_run",
    "phase_of",
    "predict_next",
    "read_labels",
    "read_report",
    "read_series",
    "summarize_run",
    "train",
    "write_evaluation",
    "write_summary",
]
