"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: configuration problems -> 2,
numerical failures -> 3, gap-verification failures -> 4, statistically
inconclusive experiments -> 5.
"""


class SpecgapError(Exception):
    """Base class for all package errors."""


class ConfigError(SpecgapError):
    """Malformed or invalid configuration / arguments."""


class DimensionError(ConfigError):
    """Dimensions violate 0 < N < n or sizes are inconsistent."""


class DomainError(ConfigError):
    """A parameter is outside its admissible domain (e.g. rho not in [0,1))."""


class AssumptionViolation(SpecgapError):
    """An ensemble breaks the boundedness assumptions on the covariances."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InvalidSpectralPoint(ConfigError):
    """z lies on the nonnegative real axis where the resolvent is undefined."""


class ConvergenceError(SpecgapError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class BranchError(SpecgapError):
    """A complex-z solution left the Stieltjes branch (Im delta, Im m of the wrong sign)."""


class DivergenceError(SpecgapError):
    """Zero-point iterates exceeded the admissible growth cap."""


class JacobianIdentityError(SpecgapError):
    """Assembled Jacobian violates the linear identity J(1+l) = l."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularMatrixError(SpecgapError):
    """A bulk matrix turned out numerically singular; never regularized silently."""


class EmptySupportError(SpecgapError):
    """No grid point exceeded the density threshold."""


class WitnessError(SpecgapError):
    """A positive-system witness fails its structural invariants."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DominanceError(SpecgapError):
    """Entrywise Hadamard-dominance precondition is violated."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class InequalityViolation(SpecgapError):
    """A proven inequality failed numerically; indicates a real bug."""


class GapViolation(SpecgapError):
    """A Monte Carlo trial placed an eigenvalue inside the certified gap."""


class SignalBelowNoise(SpecgapError):
    """Measured bias is indistinguishable from Monte Carlo noise."""
