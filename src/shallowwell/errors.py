"""Exception types shared across the package."""


class ShallowWellError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridSpec(ShallowWellError):
    """Quadrature grid parameters out of range."""


class LengthMismatch(ShallowWellError):
    """Grid function length does not match the grid."""


class BracketFailure(ShallowWellError):
    """No bound state to bracket: no attractive potential, or no level in the shooting search."""


class SingularPade(ShallowWellError):
    """Pade linear system is rank deficient."""


class PoleAtEvaluation(ShallowWellError):
    """Pade denominator vanishes at the evaluation point."""


class NonNormalizable(ShallowWellError):
    """Trial wavefunction norm underflows."""


class BelowWellFloor(ShallowWellError):
    """Variational minimum at or below the well floor -s * shape_max: the grid misses the trial."""


class ConfigError(ShallowWellError):
    """Run configuration is missing, malformed, or out of range."""
