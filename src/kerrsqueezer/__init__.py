"""Squeezed-light generation via cascaded up/down conversion in a cavity.

A desk-scale simulator and parameter-inference toolkit: Gaussian
quadrature-state algebra, temperature-tuned phase matching, coupled-mode
cascade propagation, Kerr-cavity steady states and squeezing spectra, a
detection-chain model, and reproducible measurement scenarios.
"""

from .cascade import (
    CascadeResult,
    CoupledModeState,
    FictitiousMirror,
    effective_kerr_phase,
    extract_cascade_result,
    fictitious_mirror,
    propagate,
)
from .cavity import (
    BranchArrays,
    CavityParams,
    CombAssignment,
    OperatingPoint,
    ResonanceProfile,
    SpectrumPoint,
    SteadyStateBranch,
    make_operating_point,
    scan_profile,
    sideband_comb_map,
    squeezing_spectrum,
    steady_state_branches,
)
from .detection import (
    EfficiencyFactor,
    LossBudget,
    TomographySettings,
    TomographyTrace,
    end_to_end_observe,
    fit_quadrature_ellipse,
    omc_sideband_transfer,
    simulate_tomography_trace,
    total_efficiency,
)
from .errors import (
    AccuracyError,
    DomainError,
    InconsistentObservationError,
    KerrSqueezerError,
    NoSolutionError,
    NumericalError,
    ThresholdError,
    ValidationError,
    ValidityError,
)
from .phasematch import (
    PhaseMatchModel,
    calibrate_from_extrema,
    conversion_sweep,
    delta_k,
    find_conversion_extrema,
    shg_efficiency,
)
from .states import (
    GaussianQuadratureState,
    LossOnlyFit,
    PhaseNoiseFit,
    SqueezeObservation,
    apply_loss,
    apply_phase_jitter,
    db_to_variance,
    dephase,
    infer_loss_only,
    infer_phase_noise,
    pure_squeezed,
    quadrature_variance,
    vacuum,
    variance_to_db,
)

__version__ = "0.1.0"
