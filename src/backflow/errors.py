"""Exception types shared across the package."""

from __future__ import annotations


class BackflowError(Exception):
    """Base class for all package-specific errors."""


class NotHermitianError(BackflowError):
    """Input matrix is not Hermitian within tolerance."""


class DimensionMismatchError(BackflowError):
    """Operands have incompatible shapes or subsystem dimensions."""


class SubsystemIndexError(BackflowError):
    """A subsystem index is out of range for the given dims."""


class InvalidStateError(BackflowError):
    """A matrix fails the density-matrix requirements."""


class TimeOrderViolationError(BackflowError):
    """Times violate 0 <= t0 <= t1 <= domain end."""


class NonFiniteError(BackflowError):
    """A rate or time that must be a finite number is NaN or infinite."""


class EpsilonRangeError(BackflowError):
    """A perturbation or shrink parameter is outside its valid range."""


class DegenerateSplitError(BackflowError):
    """The equiprobable-measurement split hit a zero-weight eigenvalue."""


class ExpansionNotFoundError(BackflowError):
    """The trace-norm expansion search found no ratio above 1.

    Carries the best direction and ratio seen so the caller can still build
    a (non-expanding) probe or flag the result inconclusive.
    """

    def __init__(self, message: str, best_ratio: float, best_direction=None):
        super().__init__(message)
        self.best_ratio = best_ratio
        self.best_direction = best_direction


class NonBijectiveError(BackflowError):
    """The accumulated dynamics cannot be inverted (a decay factor ~ 0)."""


class ScaleUnderflowError(BackflowError):
    """Geometric shrinking of the perturbation hit the step limit."""


class BoundaryParameterError(BackflowError):
    """A family parameter sits on the boundary of its allowed interval."""


class DegenerateSpectrumError(BackflowError):
    """Spectral derivative requested where the scalar function blows up."""


class PreconditionError(BackflowError):
    """A scenario precondition does not hold; names the failing clause."""


class ConfigError(BackflowError):
    """A scenario configuration file is malformed or inconsistent."""
