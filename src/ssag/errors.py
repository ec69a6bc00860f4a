"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class SsagError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SsagError):
    """Two vectors or a vector and an objective disagree on dimension."""


class StratumViolationError(SsagError):
    """An index was used with a class partition cell it does not belong to."""


class UnsupportedObjectiveError(SsagError):
    """The requested operation is not defined for this objective kind."""


class SingularSystemError(SsagError):
    """A linear system required by a closed-form solve is singular."""


class SamplingError(SsagError):
    """Invalid sampling request (empty population, batch too large, ...)."""


class DivergenceError(SsagError):
    """An optimizer produced a non-finite iterate.

    Carries the last finite parameter vector so a run can be truncated
    instead of lost.
    """

    def __init__(self, message: str, last_finite: np.ndarray, steps: int):
        super().__init__(message)
        self.last_finite = last_finite
        self.steps = steps


class UndefinedBoundError(SsagError):
    """A bound formula is undefined for the given inputs (mu = 0, h*mu = 2)."""


class OutOfRegimeError(SsagError):
    """Inputs violate the validity regime of a bound (e.g. h outside (0, 2/L))."""


class LabelError(SsagError, ValueError):
    """A dataset's labels do not fit the objective kind built on it."""


class FormatError(SsagError):
    """A data file does not conform to its declared format."""


class ConfigError(SsagError):
    """An experiment configuration is malformed or inconsistent."""
