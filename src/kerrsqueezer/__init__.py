"""Squeezed-light generation via cascaded up/down conversion in a cavity.

A desk-scale simulator and parameter-inference toolkit: Gaussian
quadrature-state algebra, temperature-tuned phase matching, coupled-mode
cascade propagation, Kerr-cavity steady states and squeezing spectra, a
detection-chain model, and reproducible measurement scenarios.
"""

from .cascade import (
    CascadeResult,
    effective_kerr_phase,
    extract_cascade_result,
)
from .cavity import (
    BranchArrays,
    CavityParams,
    CombAssignment,
    OperatingPoint,
    ResonanceProfile,
    SpectrumPoint,
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
    fit_quadrature_ellipse,
    omc_sideband_transfer,
    simulate_tomography_trace,
    total_efficiency,
)
from .errors import (
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
