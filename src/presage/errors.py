"""Exception hierarchy shared by all presage modules."""

__all__ = ["PresageError", "ConfigError", "DataError", "OrderingError"]


class PresageError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PresageError, ValueError):
    """A configuration object violates its invariants."""


class DataError(PresageError, ValueError):
    """Input data is malformed, non-finite, or otherwise unusable."""


class OrderingError(DataError):
    """Timestamps or records arrived out of order."""


def _shown(value) -> str:
    """``repr(value)`` for a message, or its type if too long to print (an int past 4300 digits)."""
    try:
        return repr(value)
    except ValueError:
        return f"a value too long to print ({type(value).__name__})"
