"""Exception types shared across the library."""


class PTSimError(Exception):
    """Base class for all library errors."""


class InvalidMatrix(PTSimError):
    """Matrix input is malformed (non-finite entries, wrong shape)."""


class InvalidDensityMatrix(PTSimError):
    """Matrix fails the density-matrix invariants (Hermiticity, trace, positivity)."""


class DimMismatch(PTSimError):
    """Operands have incompatible dimensions."""


class UnsupportedFamily(PTSimError):
    """Hamiltonian family not handled by this constructor."""


class UnsupportedDimension(PTSimError):
    """Requested Hilbert-space dimension is not supported."""


class MetricUndefined(PTSimError):
    """The metric operator is singular or indefinite (non-Hermiticity at or beyond 1)."""


class StateAnnihilated(PTSimError):
    """Normalization trace vanished during non-unitary evolution."""


class NoOscillation(PTSimError):
    """Series does not recur on its grid, or its grid is too coarse to tell."""


class InvalidWindow(PTSimError):
    """Fit window is empty or contains values the fit cannot use."""


class NotPassive(PTSimError):
    """Target operator has spectral norm above 1 and cannot be realized passively."""


class NotUnitary(PTSimError):
    """Target operator is not unitary."""


class CompileFailed(PTSimError):
    """Angle synthesis exhausted its budget without reaching the residual goal."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"best residual {residual:.6g}")


class PostselectionImpossible(PTSimError):
    """Post-selected component of the state has vanishing weight."""


class NotInformationallyComplete(PTSimError):
    """Measurement set does not determine the state."""


class MleFailed(PTSimError):
    """Maximum-likelihood iteration degenerated or diverged."""


class ConfigError(PTSimError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
