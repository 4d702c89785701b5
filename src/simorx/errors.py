"""Exception types shared across the package, and the number checks that
config validation uses."""

import math
import numbers


def is_finite_real(value) -> bool:
    """True for a finite real number; False for NaN, infinities, bools,
    strings and everything else that is not a number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def is_integer(value) -> bool:
    """True for a Python or NumPy integer; False for bools, floats (even
    integral ones), strings and everything else."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integers(obj, names, lo: int) -> None:
    """Raise ``ConfigError`` unless each ``obj.<name>`` is an integer >= ``lo``."""
    for name in names:
        value = getattr(obj, name)
        if not (is_integer(value) and value >= lo):
            raise ConfigError(f"{name} must be an integer >= {lo}, got {value!r}")


class SimorxError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(SimorxError, ValueError):
    """A configuration value or shape is inconsistent."""


class CheckpointError(SimorxError, ValueError):
    """A checkpoint file is malformed, truncated, or incompatible."""


class TrainingDiverged(SimorxError, RuntimeError):
    """Raised when a training step produces a non-finite loss or gradient.

    Carries the last consistent parameter snapshot so callers can persist it.
    """

    def __init__(self, message, iteration, checkpoint=None):
        super().__init__(message)
        self.iteration = iteration
        self.checkpoint = checkpoint
