"""Exception hierarchy for the square-pulse control package."""


class ControlError(Exception):
    """Base class for all package errors."""


class NonMonotonicSpectrum(ControlError):
    """Energies are not strictly increasing."""


class GapStructureViolation(ControlError):
    """Gap pattern does not match the requested system kind."""


class IndexOutOfRange(ControlError):
    """Cycle or level index outside 1..N-1."""


class NonPositiveField(ControlError):
    """Field amplitude must be strictly positive."""


class NegativeDuration(ControlError):
    """Durations must be nonnegative."""


class EigenFailure(ControlError):
    """Eigendecomposition did not converge."""


class DimensionMismatch(ControlError):
    """Array lengths inconsistent with the system dimension."""


class NotNormalized(ControlError):
    """State magnitudes do not sum to one."""


class InfeasibleMagnitudes(ControlError):
    """Residual probability mass behind a vanished prefix product."""


class SingularPhaseSystem(ControlError):
    """Phase-matching linear system is rank deficient.

    No longer raised: the free-time congruences are always solvable.
    """


class WindingBoundExceeded(ControlError):
    """No nonnegative free-time solution within the winding bound.

    No longer raised: free times are solved exactly without a bound.
    """


class NotSkewHermitian(ControlError):
    """Generator is not skew-Hermitian."""


class MaxIterExceeded(ControlError):
    """Lie closure did not terminate within the iteration budget."""


class WitnessMismatch(ControlError):
    """A bracket recipe failed to evaluate to its target generator."""


class FidelityBelowFloor(ControlError):
    """Synthesized schedule fell below the expected fidelity floor."""
