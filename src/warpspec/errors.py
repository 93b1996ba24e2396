"""Exception hierarchy for warpspec.

Every failure mode that callers are expected to handle gets its own class;
config/precondition problems are kept distinct from numerical failures so the
CLI can map them to different exit codes.
"""

from __future__ import annotations


class WarpspecError(Exception):
    """Base class for all package errors."""


class ConfigError(WarpspecError):
    """Invalid configuration or precondition violation (CLI exit code 2)."""


class InvalidProfileError(ConfigError):
    """Warp profile violates a structural requirement (n < 2, r_max <= r_min, kinks out of order...)."""


class ResolutionError(ConfigError):
    """Samples too few or too unevenly spaced for a finite-difference stencil."""


class CouplingTooWeakError(ConfigError):
    """Oscillation coupling below the resonance threshold for the dimension."""

    def __init__(self, message: str, *, threshold: float):
        super().__init__(message)
        self.threshold = threshold


class SingularOriginError(ConfigError):
    """Direct integration started inside the singular region of a channel potential."""


class NonOscillatoryError(ConfigError):
    """Phase-amplitude decomposition requested below the essential-spectrum edge."""


class InsufficientDataError(ConfigError):
    """Fit window contains too few samples or spans less than a decade."""


class OutsideRegimeError(ConfigError):
    """Requested spectral parameter outside the regime a routine supports."""


class ComparisonFailureError(WarpspecError):
    """Riccati comparison solution blew up before the target radius."""

    def __init__(self, message: str, *, blow_up_radius: float):
        super().__init__(message)
        self.blow_up_radius = blow_up_radius


class DetectorRefusalError(WarpspecError):
    """Eigenvalue detector refused to run: tail structure assumptions unverified."""


class NoDecayingSolutionError(WarpspecError):
    """No square-integrable solution exists for the requested parameters."""


class ConnectorFailureError(WarpspecError):
    """Monotone bridge construction failed for every admissible junction candidate.

    attempts counts the (junction, sigma) trials, in the unit of Connector.attempts.
    """

    def __init__(self, message: str, *, attempts: int, diagnostics: dict | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.diagnostics = diagnostics or {}


class HypothesisViolatedError(WarpspecError):
    """Profile does not satisfy the curvature-decay hypothesis of the growth theorem."""


class TwoRunMismatchError(WarpspecError):
    """Backward recovery runs from distinct anchors disagree beyond tolerance."""


__all__ = [name for name, obj in list(globals().items()) if isinstance(obj, type) and issubclass(obj, WarpspecError)]
