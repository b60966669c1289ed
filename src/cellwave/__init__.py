"""cellwave: resting-state stability and traveling-wave branches for a
Darcy free-boundary cell motility model with membrane undercooling."""

from .errors import (
    AccuracyError,
    BranchRangeError,
    CellWaveError,
    ConfigError,
    ContinuationStalledError,
    DegenerateThresholdError,
    ForceLawError,
    GeometryError,
    NewtonConvergenceError,
    ParamError,
    SolverError,
)
from .forces import (
    ForceLaw,
    force_law_from_config,
    hill_active,
    linear_undercooling,
    tanh_undercooling,
    validate_force_law,
)
from .model import (
    ModelParams,
    RestingState,
    chi_c_star,
    resting_state,
    tw_concentration,
    tw_pressure,
)
from .solvers import arclength_continue, find_complex_roots, newton_solve
from .special import bessel_I
from .stability import (
    ModeSpectrum,
    StabilityReport,
    classify,
    mode_spectra,
    mode_spectrum,
    refine_threshold,
    zero_eigenspace_dimension,
)
from .waves import (
    BifurcationReport,
    Branch,
    Shape,
    TravelingWaveState,
    bifurcation_report,
    continue_branch,
    disk_shape,
    marker_normalization,
    solve_at_velocity,
)

__version__ = "0.1.0"
