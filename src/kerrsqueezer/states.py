"""Single-mode Gaussian quadrature states, decoherence channels and inversions.

Variances are normalized to the vacuum, i.e. a vacuum quadrature has unit
variance and squeeze factors in dB are plain ``10*log10`` of a variance.
States are carrier-free single sideband modes, described by the principal
variances of the squeezing ellipse and its orientation; a full covariance
matrix is never needed because loss and phase jitter preserve the
principal-axis form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InconsistentObservationError, NoSolutionError

__all__ = [
    "GaussianQuadratureState",
    "SqueezeObservation",
    "LossOnlyFit",
    "PhaseNoiseFit",
    "vacuum",
    "pure_squeezed",
    "db_to_variance",
    "variance_to_db",
    "quadrature_variance",
    "apply_loss",
    "dephase",
    "infer_loss_only",
    "infer_phase_noise",
]

# Absolute slack on the purity product v_min*v_max >= 1, to absorb float
# rounding when states are produced by chained channel applications.
_PURITY_SLACK = 1e-9
# infer_phase_noise tolerances: on variances, and on its forward check (dB).
_VARIANCE_TOL = 1e-10
_FORWARD_CHECK_DB = 1e-6


@dataclass(frozen=True)
class GaussianQuadratureState:
    """Squeezing ellipse of one sideband mode relative to vacuum.

    Attributes
    ----------
    v_min, v_max : float
        Principal quadrature variances (vacuum = 1), ``v_min <= v_max``.
    theta0 : float
        Orientation of the minor axis in radians, stored modulo pi.
    """

    v_min: float
    v_max: float
    theta0: float = 0.0

    def __post_init__(self):
        for name in ("v_min", "v_max", "theta0"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.v_min <= 0.0:
            raise DomainError(f"v_min must be positive, got {self.v_min}")
        if self.v_max < self.v_min:
            raise DomainError(
                f"v_max ({self.v_max}) must not be smaller than v_min ({self.v_min})"
            )
        if self.v_min * self.v_max < 1.0 - _PURITY_SLACK:
            raise DomainError(
                "purity bound violated: v_min*v_max = "
                f"{self.v_min * self.v_max} < 1"
            )
        object.__setattr__(self, "theta0", self.theta0 % math.pi)

    @property
    def squeeze_db(self) -> float:
        """dB below vacuum of the quietest quadrature (positive = squeezed)."""
        return -variance_to_db(self.v_min)

    @property
    def antisqueeze_db(self) -> float:
        return variance_to_db(self.v_max)


@dataclass(frozen=True)
class SqueezeObservation:
    """A measured squeeze/anti-squeeze pair in dB relative to vacuum.

    ``squeeze_db`` is positive for noise *reduction*; ``antisqueeze_db`` is
    positive for noise above vacuum.
    """

    squeeze_db: float
    antisqueeze_db: float

    def __post_init__(self):
        if not (math.isfinite(self.squeeze_db) and math.isfinite(self.antisqueeze_db)):
            raise DomainError("observation values must be finite")
        # Small slack so pairs computed through float chains stay legal.
        if self.squeeze_db >= 0.0 and self.antisqueeze_db < self.squeeze_db - 1e-9:
            raise DomainError(
                "mixed states require antisqueeze_db >= squeeze_db "
                f"(got {self.antisqueeze_db} < {self.squeeze_db})"
            )

    @property
    def v_low(self) -> float:
        """Variance of the squeezed quadrature."""
        return db_to_variance(-self.squeeze_db)

    @property
    def v_high(self) -> float:
        """Variance of the anti-squeezed quadrature."""
        return db_to_variance(self.antisqueeze_db)


class LossOnlyFit(NamedTuple):
    eta: float
    r: float


class PhaseNoiseFit(NamedTuple):
    r: float
    sigma: float
    residual_db: float


def vacuum() -> GaussianQuadratureState:
    return GaussianQuadratureState(1.0, 1.0, 0.0)


def pure_squeezed(r: float) -> GaussianQuadratureState:
    """Pure squeezed state with squeeze parameter ``r >= 0``, minor axis at theta = 0."""
    if not math.isfinite(r) or r < 0.0:
        raise DomainError(f"squeeze parameter must be finite and >= 0, got {r}")
    return GaussianQuadratureState(math.exp(-2.0 * r), math.exp(2.0 * r))


def db_to_variance(level_db: float) -> float:
    """Convert a signed dB level to a variance (vacuum = 0 dB = 1)."""
    if not math.isfinite(level_db):
        raise DomainError(f"dB level must be finite, got {level_db}")
    try:
        return 10.0 ** (level_db / 10.0)
    except OverflowError:
        raise DomainError(f"dB level {level_db} overflows a float variance") from None


def variance_to_db(variance: float) -> float:
    """Inverse of :func:`db_to_variance`."""
    if not math.isfinite(variance) or variance <= 0.0:
        raise DomainError(f"variance must be finite and positive, got {variance}")
    return 10.0 * math.log10(variance)


def quadrature_variance(state: GaussianQuadratureState, theta):
    """Variance of the quadrature at angle ``theta`` (scalar or array)."""
    d = np.asarray(theta, dtype=float) - state.theta0
    v = state.v_min * np.cos(d) ** 2 + state.v_max * np.sin(d) ** 2
    return float(v) if np.isscalar(theta) else v


def apply_loss(state: GaussianQuadratureState, eta: float) -> GaussianQuadratureState:
    """Beam-splitter loss channel: V -> eta*V + (1 - eta) on both axes.

    ``eta`` is the power transmission; orientation is unchanged and
    successive applications compose multiplicatively in eta.
    """
    if not math.isfinite(eta) or not 0.0 <= eta <= 1.0:
        raise DomainError(f"efficiency must lie in [0, 1], got {eta}")
    return GaussianQuadratureState(
        eta * state.v_min + (1.0 - eta),
        eta * state.v_max + (1.0 - eta),
        state.theta0,
    )


def dephase(state: GaussianQuadratureState, sigma: float) -> GaussianQuadratureState:
    """Effective state of ``state`` under Gaussian quadrature-angle jitter.

    For zero-mean Gaussian jitter of RMS ``sigma`` on the readout angle,
    averaging the cos(2 theta) dependence of the variance gives

        V_obs(theta) = (v_min + v_max)/2
                       - exp(-2 sigma^2) * cos(2 (theta - theta0)) * (v_max - v_min)/2,

    which is the variance of the returned state at every angle: the mean
    stays and the half spread is damped by exp(-2 sigma^2).
    """
    if not math.isfinite(sigma) or sigma < 0.0:
        raise DomainError(f"jitter RMS must be finite and >= 0, got {sigma}")
    mean = 0.5 * (state.v_min + state.v_max)
    half_spread = 0.5 * (state.v_max - state.v_min) * math.exp(-2.0 * sigma**2)
    return GaussianQuadratureState(mean - half_spread, mean + half_spread, state.theta0)


def infer_loss_only(obs: SqueezeObservation) -> LossOnlyFit:
    """Invert the pure-squeezing-plus-loss model for an observed dB pair.

    With V- = 10^(-S/10) and V+ = 10^(A/10) the closed form is

        exp(-2 r) = (1 - V-) / (V+ - 1),    eta = (1 - V-) / (1 - exp(-2 r)).

    Raises
    ------
    NoSolutionError
        If the observation shows no squeezing (V- >= 1) or no
        anti-squeezing (V+ <= 1).
    InconsistentObservationError
        If the pair would require eta > 1 (it violates the purity bound).
    """
    v_lo, v_hi = obs.v_low, obs.v_high
    if v_lo >= 1.0:
        raise NoSolutionError(
            f"no loss-only solution: squeezed variance {v_lo} is not below vacuum"
        )
    if v_hi <= 1.0:
        raise NoSolutionError(
            f"no loss-only solution: anti-squeezed variance {v_hi} is not above vacuum"
        )
    if v_lo * v_hi < 1.0 - 1e-12:
        raise InconsistentObservationError(
            "observation purer than vacuum-limited: would require eta > 1",
            residual=1.0 - v_lo * v_hi,
        )
    exp_m2r = (1.0 - v_lo) / (v_hi - 1.0)
    r = -0.5 * math.log(exp_m2r)
    eta = (1.0 - v_lo) / (1.0 - exp_m2r)
    return LossOnlyFit(min(eta, 1.0), r)


def infer_phase_noise(obs: SqueezeObservation, eta_known: float) -> PhaseNoiseFit:
    """Invert the loss-plus-phase-jitter model at a known efficiency.

    Solves for the source squeeze parameter ``r`` and the jitter RMS
    ``sigma`` such that a pure squeezed state sent through loss
    ``eta_known`` and then Gaussian angle jitter reproduces the observed
    dB pair.  Both unknowns have closed forms: the sum of the observed
    variances pins ``r = acosh(cosh_2r) / 2``, and the damping of their
    difference then pins ``sigma = sqrt(-ln(damping) / 2)``.  Variances
    are compared within ``_VARIANCE_TOL``, and the forward model must
    reproduce the pair within ``_FORWARD_CHECK_DB``.

    Raises :class:`InconsistentObservationError` with the residual when no
    (r >= 0, sigma >= 0) pair reproduces the observation.
    """
    if not math.isfinite(eta_known) or not 0.0 < eta_known <= 1.0:
        raise DomainError(f"eta_known must lie in (0, 1], got {eta_known}")
    v_lo, v_hi = obs.v_low, obs.v_high
    target_mean = 0.5 * (v_lo + v_hi)
    target_spread = 0.5 * (v_hi - v_lo)

    # Jitter preserves the mean of the two principal variances, so
    # eta*cosh(2r) + (1 - eta) = target_mean determines r alone.
    cosh_2r = (target_mean - (1.0 - eta_known)) / eta_known
    if cosh_2r < 1.0 - _VARIANCE_TOL:
        raise InconsistentObservationError(
            "mean observed variance below the vacuum level reachable at this eta",
            residual=1.0 - cosh_2r,
        )
    r = 0.5 * math.acosh(max(cosh_2r, 1.0))
    if r > 64.0:  # the largest source squeeze parameter accepted
        raise InconsistentObservationError(
            f"solved squeeze parameter r = {r:.6g} exceeds the cap of 64", residual=r - 64.0)

    # The spread is damped by exp(-2 sigma^2).
    spread_nojitter = eta_known * math.sinh(2.0 * r)
    if spread_nojitter <= 0.0:
        if target_spread > _VARIANCE_TOL:
            raise InconsistentObservationError(
                "observation has spread but solved squeeze parameter is zero",
                residual=target_spread,
            )
        sigma = 0.0
    else:
        damping = target_spread / spread_nojitter
        if damping > 1.0 + 1e-9:
            raise InconsistentObservationError(
                "observed spread exceeds the jitter-free prediction",
                residual=damping - 1.0,
            )
        if damping <= 0.0:
            raise InconsistentObservationError(
                "observed spread is not positive: no finite jitter reproduces it",
                residual=abs(damping),
            )
        # Within rounding of the jitter-free solution sigma is zero.
        sigma = 0.0 if damping >= 1.0 - 1e-12 else math.sqrt(-0.5 * math.log(damping))

    forward = dephase(apply_loss(pure_squeezed(r), eta_known), sigma)
    residual_db = max(
        abs(variance_to_db(forward.v_min) - variance_to_db(v_lo)),
        abs(variance_to_db(forward.v_max) - variance_to_db(v_hi)),
    )
    if residual_db > _FORWARD_CHECK_DB:
        raise InconsistentObservationError(
            f"forward model misses the observation by {residual_db:.3e} dB",
            residual=residual_db,
        )
    return PhaseNoiseFit(r, sigma, residual_db)
