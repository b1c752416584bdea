"""Error taxonomy shared across the package.

Every failure mode the library promises to clients maps to one subclass with
a stable ``code`` string, so the CLI can translate exceptions to exit codes
and tests can assert on failure kinds instead of message text.
"""

from __future__ import annotations

import numpy as np


class EntroError(Exception):
    """Base class for all library errors."""

    code = "error"


class ShapeError(EntroError):
    """Operands have incompatible dimensions for the metric in force."""

    code = "shape"


class ConfigError(EntroError):
    """A parameter or configuration value is out of contract."""

    code = "config"


class TooLargeError(EntroError):
    """A check that needs exact counts got a cloud above the exhaustive-search cap."""

    code = "too-large"


class EmptyCloudError(EntroError):
    code = "empty"


class WindowError(EntroError):
    """A growth-rate fit window has fewer than three samples."""

    code = "window"


class MeshError(EntroError):
    """Requested sampling mesh cannot resolve the construction."""

    code = "mesh"


class EscapeError(EntroError):
    """An orbit left the system's domain.

    Carries the first bad step index and the last valid point so callers can
    truncate instead of aborting.
    """

    code = "escaped"

    def __init__(self, step: int, last_point: np.ndarray, message: str = ""):
        self.step = step
        self.last_point = np.asarray(last_point)
        super().__init__(message or f"orbit escaped the domain at step {step}")


class UndefinedPointError(EntroError):
    """An orbit hit the excluded set of a piecewise map."""

    code = "undefined-point"

    def __init__(self, step: int, point: float, message: str = ""):
        self.step = step
        self.point = point
        super().__init__(message or f"orbit hit the excluded set at step {step}")


class NotSemiconjugateError(EntroError):
    """The supplied factor map does not intertwine the two systems."""

    code = "not-semiconjugate"
