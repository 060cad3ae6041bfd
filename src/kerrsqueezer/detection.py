"""Output filtering, efficiency budget and homodyne tomography synthesis.

Dark noise is treated as an additive white variance at ``10^(dark_db/10)``
relative to vacuum and is *not* subtracted from displayed traces; fits
of the quadrature ellipse can remove the known dark level.  Trace points
are displayed at the video-bandwidth rate and carry a multiplicative
estimator noise of relative width ``1/sqrt(rbw/vbw)``, a deliberate
simplification of spectrum-analyzer averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .states import GaussianQuadratureState, db_to_variance, quadrature_variance

__all__ = [
    "EfficiencyFactor",
    "LossBudget",
    "TomographySettings",
    "TomographyTrace",
    "EllipseFit",
    "total_efficiency",
    "omc_sideband_transfer",
    "scan_phase",
    "trace_samples",
    "simulate_tomography_trace",
    "fit_quadrature_ellipse",
]

SCAN_SHAPES = ("triangle", "sine", "sawtooth")


@dataclass(frozen=True)
class EfficiencyFactor:
    """One efficiency factor with a one-sigma absolute uncertainty."""

    value: float
    sigma: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise DomainError(f"efficiency must lie in (0, 1], got {self.value}")
        if self.sigma < 0.0 or not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class LossBudget:
    """Ordered chain of efficiencies between source and homodyne signal.

    ``visibility`` is the homodyne fringe visibility; by default it is
    assumed to be already contained in ``bhd_efficiency`` (set
    ``visibility_in_bhd=False`` to multiply the chain by visibility^2
    instead).
    """

    escape: EfficiencyFactor
    omc_transmission: EfficiencyFactor
    shg_residual: EfficiencyFactor
    bhd_efficiency: EfficiencyFactor
    visibility: float = 1.0
    visibility_in_bhd: bool = True

    def __post_init__(self):
        if not 0.0 < self.visibility <= 1.0:
            raise DomainError(f"visibility must lie in (0, 1], got {self.visibility}")

    @property
    def visibility_factor(self) -> float:
        """Chain factor of the visibility: 1.0 inside the BHD figure, else visibility^2."""
        return 1.0 if self.visibility_in_bhd else self.visibility**2

    def factors(self) -> tuple[tuple[str, EfficiencyFactor], ...]:
        return (
            ("escape", self.escape),
            ("omc_transmission", self.omc_transmission),
            ("shg_residual", self.shg_residual),
            ("bhd_efficiency", self.bhd_efficiency),
        )


def total_efficiency(budget: LossBudget) -> EfficiencyFactor:
    """Product of the chain with first-order uncertainty propagation.

    Relative uncertainties add in quadrature; the visibility (uncertainty-
    free) enters squared when not already inside the BHD figure.
    """
    value = 1.0
    rel_sq = 0.0
    for _, factor in budget.factors():
        value *= factor.value
        rel_sq += (factor.sigma / factor.value) ** 2
    value *= budget.visibility_factor
    return EfficiencyFactor(value, value * math.sqrt(rel_sq))


def omc_sideband_transfer(fsr_sqz: float, omc_finesse: float, f: float) -> float:
    """Power fraction of a sideband reflected off the mode cleaner to the BHD.

    The mode cleaner is a symmetric lossless two-mirror cavity held
    resonant for the carrier, with a free spectral range of exactly twice
    ``fsr_sqz``.  Resonant frequencies (carrier and even multiples of the
    squeezer FSR) are transmitted out of the signal path; odd multiples
    are anti-resonant and reflected to the detector with near-unity
    efficiency (lumped transmission losses live in the budget).
    """
    if fsr_sqz <= 0.0 or not math.isfinite(fsr_sqz):
        raise DomainError(f"fsr_sqz must be positive, got {fsr_sqz}")
    if omc_finesse <= 0.0 or not math.isfinite(omc_finesse):
        raise DomainError(f"omc_finesse must be positive, got {omc_finesse}")
    if f < 0.0 or not math.isfinite(f):
        raise DomainError(f"frequency must be >= 0, got {f}")
    # Mirror amplitude reflectivity from finesse = pi r / (1 - r^2).
    r = (-math.pi + math.sqrt(math.pi**2 + 4.0 * omc_finesse**2)) / (2.0 * omc_finesse)
    phi = math.pi * f / fsr_sqz  # round-trip phase; OMC FSR = 2 * fsr_sqz
    num = r * (1.0 - complex(math.cos(phi), math.sin(phi)))
    den = 1.0 - r * r * complex(math.cos(phi), math.sin(phi))
    return abs(num / den) ** 2


@dataclass(frozen=True)
class TomographySettings:
    """Spectrum-analyzer and phase-scan settings for a zero-span trace."""

    rbw: float = 500e3  # Hz
    vbw: float = 200.0  # Hz
    dark_db: float = -8.2  # electronic dark noise relative to vacuum
    scan_shape: str = "triangle"
    scan_period: float = 2.0  # s
    duration: float = 4.0  # s
    rng_seed: int = 0

    def __post_init__(self):
        if not self.rbw > self.vbw > 0.0:
            raise DomainError(f"need rbw > vbw > 0, got rbw={self.rbw}, vbw={self.vbw}")
        for name in ("duration", "scan_period", "dark_db"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.duration <= 0.0:
            raise DomainError(f"duration must be positive, got {self.duration}")
        if self.scan_period <= 0.0:
            raise DomainError(f"scan_period must be positive, got {self.scan_period}")
        if self.scan_shape not in SCAN_SHAPES:
            raise DomainError(f"scan_shape must be one of {SCAN_SHAPES}, got {self.scan_shape!r}")

    @property
    def n_effective(self) -> float:
        """Effective number of averages per displayed point."""
        return self.rbw / self.vbw

    @property
    def dark_variance(self) -> float:
        return db_to_variance(self.dark_db)


class TomographyTrace(NamedTuple):
    time: np.ndarray
    theta: np.ndarray
    measured_db: np.ndarray


class EllipseFit(NamedTuple):
    v_min: float
    v_max: float
    theta0: float


def scan_phase(settings: TomographySettings, t) -> np.ndarray:
    """Local-oscillator phase angle over time; one scan spans pi radians."""
    t = np.asarray(t, dtype=float)
    frac = (t / settings.scan_period) % 1.0
    if settings.scan_shape == "triangle":
        ramp = 2.0 * np.where(frac < 0.5, frac, 1.0 - frac)
    elif settings.scan_shape == "sine":
        ramp = 0.5 * (1.0 - np.cos(2.0 * math.pi * frac))
    else:  # sawtooth
        ramp = frac
    return math.pi * ramp


def trace_samples(duration: float, vbw: float) -> int:
    """Points of a zero-span trace: one per video-bandwidth interval, at least one."""
    return max(1, int(round(duration * vbw)))


def simulate_tomography_trace(
    state: GaussianQuadratureState,
    settings: TomographySettings,
) -> TomographyTrace:
    """Zero-span noise trace of ``state`` while the phase angle is scanned.

    The displayed level is the quadrature variance plus the dark variance,
    scaled by the per-point estimator noise; traces are reported in dB
    relative to the dark-free vacuum.  Identical settings and seed give a
    bit-identical trace.
    """
    n_points = trace_samples(settings.duration, settings.vbw)
    t = np.arange(n_points) / settings.vbw
    theta = scan_phase(settings, t)
    v_ideal = quadrature_variance(state, theta)
    rng = np.random.default_rng(settings.rng_seed)
    gain = 1.0 + rng.standard_normal(n_points) / math.sqrt(settings.n_effective)
    total = np.maximum((v_ideal + settings.dark_variance) * gain, 1e-12)
    return TomographyTrace(t, theta, 10.0 * np.log10(total))


def fit_quadrature_ellipse(
    theta: np.ndarray, measured_db: np.ndarray, dark_variance: float = 0.0
) -> EllipseFit:
    """Least-squares fit of V(theta) = c - s*cos(2(theta - theta0)) to a trace.

    The fit runs in the variance domain on the basis (1, cos 2theta,
    sin 2theta); ``dark_variance`` is removed from the fitted offset so the
    returned extrema describe the optical state alone.  A trace of fewer
    than 3 distinct phases modulo pi leaves the fit rank-deficient and
    raises :class:`DomainError`.
    """
    theta = np.asarray(theta, dtype=float)
    v = 10.0 ** (np.asarray(measured_db, dtype=float) / 10.0)
    basis = np.column_stack([np.ones_like(theta), np.cos(2.0 * theta), np.sin(2.0 * theta)])
    coef, _, rank, _ = np.linalg.lstsq(basis, v, rcond=None)
    if rank < 3:
        raise DomainError(f"the ellipse fit has rank {rank} < 3: the trace samples "
                          "fewer than 3 distinct phases modulo pi")
    c0, a, b = coef
    spread = math.hypot(a, b)
    theta0 = (0.5 * math.atan2(-b, -a)) % math.pi
    center = c0 - dark_variance
    return EllipseFit(center - spread, center + spread, theta0)
