"""Error taxonomy shared across the package.

Every failure mode the library promises to clients maps to one subclass, so
the CLI can translate exception classes to exit codes and tests can assert
on failure kinds instead of message text.
"""

from __future__ import annotations

import numpy as np


class EntroError(Exception):
    """Base class for all library errors."""


class ShapeError(EntroError):
    """Operands have incompatible dimensions for the metric in force."""


class ConfigError(EntroError):
    """A parameter or configuration value is out of contract."""


class TooLargeError(EntroError):
    """A check that needs exact counts got a cloud above the exhaustive-search cap."""


class EmptyCloudError(EntroError):
    """A cloud has no points."""


class WindowError(EntroError):
    """A growth-rate fit window has fewer than three samples."""


class MeshError(EntroError):
    """Requested sampling mesh cannot resolve the construction."""


class EscapeError(EntroError):
    """An orbit left the system's domain.

    Carries the first bad step index and the last valid point so callers can
    truncate instead of aborting.
    """

    def __init__(self, step: int, last_point: np.ndarray, message: str = ""):
        self.step = step
        self.last_point = np.asarray(last_point)
        super().__init__(message or f"orbit escaped the domain at step {step}")


class UndefinedPointError(EntroError):
    """An orbit hit the excluded set of a piecewise map."""

    def __init__(self, step: int, point: float, message: str = ""):
        self.step = step
        self.point = point
        super().__init__(message or f"orbit hit the excluded set at step {step}")


class NotSemiconjugateError(EntroError):
    """The supplied factor map does not intertwine the two systems."""
