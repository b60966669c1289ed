"""Exception hierarchy for cellwave."""


class CellWaveError(Exception):
    """Base class for all cellwave errors."""


class ParamError(CellWaveError, ValueError):
    """Invalid model parameters."""


class ForceLawError(CellWaveError, ValueError):
    """A force law violates its structural requirements."""


class AccuracyError(CellWaveError):
    """A special-function argument is outside the reliable range."""


class DegenerateThresholdError(CellWaveError):
    """The stability threshold is undefined for these parameters."""


class GeometryError(CellWaveError):
    """A boundary shape is degenerate (non-positive radius)."""


class SolverError(CellWaveError):
    """Generic nonlinear-solver failure."""


class NewtonConvergenceError(SolverError):
    """Damped Newton did not reach tolerance.

    Carries the best iterate seen (``best_x``) and its residual norm
    (``best_residual``).
    """

    def __init__(self, message, best_x, best_residual):
        super().__init__(message)
        self.best_x = best_x
        self.best_residual = best_residual


class ContinuationStalledError(SolverError):
    """Arclength/parameter continuation stalled after step underflow.

    Carries the partial ``Branch`` accepted so far (``points``).
    """

    def __init__(self, message, points):
        super().__init__(message)
        self.points = points


class ConfigError(CellWaveError, ValueError):
    """Malformed run configuration."""


class BranchRangeError(CellWaveError, ValueError):
    """A requested velocity lies beyond the computed branch."""
