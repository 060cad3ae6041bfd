"""Temperature tuning of quasi-phase-matched second-harmonic conversion.

The wavevector mismatch is modeled as linear in crystal temperature,
``delta_k(T) = dk_dt * (T - t_pm)``.  At low drive the single-pass
conversion follows the sinc^2 law

    eta_SHG = kappa^2 * p_in * L^2 * sinc^2(delta_k * L / 2),

with ``sinc(x) = sin(x)/x``.  ``kappa`` (units W^-1/2 m^-1) lumps the
effective nonlinearity and mode overlap and is a calibration input.  The
law's zeros and maxima calibrate the model and are the extrema listed here,
in closed form; nothing here evaluates the law itself.  The exact conversion
at any drive is :func:`kerrsqueezer.cascade.single_pass_conversion`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .roots import MAXITER, newton

__all__ = [
    "PhaseMatchModel",
    "delta_k",
    "calibrate_from_extrema",
    "find_conversion_extrema",
]

# find_conversion_extrema lists about two extrema per conversion order (pi
# in x = delta_k L / 2); a range reaching past this many orders from t_pm is
# refused before any list is built.
MAX_EXTREMA_ORDERS = 10**5


@dataclass(frozen=True)
class PhaseMatchModel:
    """Linear mismatch model: zero-mismatch temperature, slope and length."""

    t_pm: float  # deg C
    dk_dt: float  # rad / (m K)
    length: float  # m

    def __post_init__(self):
        if not (math.isfinite(self.t_pm) and math.isfinite(self.dk_dt) and math.isfinite(self.length)):
            raise DomainError("phase-match parameters must be finite")
        if self.length <= 0.0:
            raise DomainError(f"crystal length must be positive, got {self.length}")
        if self.dk_dt == 0.0:
            raise DomainError("mismatch slope dk_dt must be nonzero")


def delta_k(model: PhaseMatchModel, temperature):
    """Mismatch in rad/m at ``temperature`` (deg C), in its shape (np.float64 for a scalar)."""
    return model.dk_dt * (np.asarray(temperature, dtype=float) - model.t_pm)


def calibrate_from_extrema(t_max: float, t_min1: float, length: float) -> PhaseMatchModel:
    """Build a model from the conversion maximum and the first adjacent zero.

    The zero sits where ``delta_k * L = 2 pi``, so the slope follows from
    the temperature distance between the two extrema; the model then
    predicts further zeros at multiples of that distance.
    """
    if not (math.isfinite(t_max) and math.isfinite(t_min1)):
        raise DomainError("calibration temperatures must be finite")
    if t_min1 == t_max:
        raise DomainError("calibration extrema must be distinct temperatures")
    if length <= 0.0 or not math.isfinite(length):
        raise DomainError(f"crystal length must be positive, got {length}")
    dk_dt = 2.0 * math.pi / (length * (t_min1 - t_max))
    return PhaseMatchModel(t_pm=t_max, dk_dt=dk_dt, length=length)


def _tan_x_equals_x_roots(x_max: float) -> list[float]:
    """Positive roots of tan(x) = x up to ``x_max``, to sub-nanoradian accuracy."""
    # Root j lies above j pi + 1, so a bracket miscounted at x_max = j pi has
    # no root up to x_max either way.
    return [root for root in _first_tan_roots(math.floor(x_max / math.pi)) if root <= x_max]


@functools.lru_cache(maxsize=1)  # model-independent; a run asks for one bracket count
def _first_tan_roots(brackets: int) -> tuple[float, ...]:
    j = np.arange(1, brackets + 1)
    lo, hi = j * math.pi + 1e-12, (j + 0.5) * math.pi - 1e-12
    # f(x) = x cos x - sin x, with slope -x sin x, changes sign once on (j pi,
    # j pi + pi/2), falling for even j; its root is near hi - 1/hi.
    odd = j % 2 == 1
    roots = newton(lambda x, index: (x * np.cos(x) - np.sin(x), -x * np.sin(x)), hi - 1.0 / hi,
                   np.where(odd, lo, hi), np.where(odd, hi, lo), xtol=1e-12, rtol=8.9e-16,
                   maxiter=MAXITER, what="tan x = x")
    return tuple(roots.tolist())


def find_conversion_extrema(
    model: PhaseMatchModel, t_range: tuple[float, float]
) -> list[tuple[float, str]]:
    """Analytic extrema of the sinc^2 conversion curve inside ``t_range``.

    Returns (temperature, kind) pairs sorted by temperature, ``kind`` being
    ``"max"`` (global maximum at t_pm and the secondary maxima at the roots
    of tan x = x) or ``"min"`` (the exact zeros at delta_k * L = 2 pi m).
    A range reaching past ``MAX_EXTREMA_ORDERS`` orders from t_pm raises
    ``DomainError``.
    """
    lo, hi = min(t_range), max(t_range)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("temperature range must be finite")
    scale = model.dk_dt * model.length / 2.0  # x = scale * (T - t_pm)
    x_lo, x_hi = sorted((scale * (lo - model.t_pm), scale * (hi - model.t_pm)))
    x_abs_max = max(abs(x_lo), abs(x_hi))
    if x_abs_max / math.pi > MAX_EXTREMA_ORDERS:
        raise DomainError(f"temperature range ({lo}, {hi}) reaches {x_abs_max / math.pi:.3g} "
                          f"conversion orders from t_pm; at most {MAX_EXTREMA_ORDERS} are listed")

    def temperature_of(x: float) -> float:
        return model.t_pm + x / scale

    extrema: list[tuple[float, str]] = []
    if x_lo <= 0.0 <= x_hi:
        extrema.append((model.t_pm, "max"))
    m_lo = math.ceil(x_lo / math.pi)
    m_hi = math.floor(x_hi / math.pi)
    for m in range(m_lo, m_hi + 1):
        if m != 0:
            extrema.append((temperature_of(m * math.pi), "min"))
    for root in _tan_x_equals_x_roots(x_abs_max):
        for x in (root, -root):
            if x_lo <= x <= x_hi:
                extrema.append((temperature_of(x), "max"))
    extrema.sort(key=lambda item: item[0])
    return extrema
