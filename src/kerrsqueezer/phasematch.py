"""Temperature tuning of quasi-phase-matched second-harmonic conversion.

The wavevector mismatch is modeled as linear in crystal temperature,
``delta_k(T) = dk_dt * (T - t_pm)``, and low-depletion conversion follows
the usual sinc^2 law

    eta_SHG = kappa^2 * p_in * L^2 * sinc^2(delta_k * L / 2),

with ``sinc(x) = sin(x)/x``.  ``kappa`` (units W^-1/2 m^-1) lumps the
effective nonlinearity and mode overlap and is a calibration input.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .roots import brentq

__all__ = [
    "PhaseMatchModel",
    "delta_k",
    "shg_efficiency",
    "calibrate_from_extrema",
    "find_conversion_extrema",
    "conversion_sweep",
]

# Above this single-pass drive (kappa^2 * p * L^2) the low-conversion
# formula starts to misstate depletion noticeably.
LOW_CONVERSION_DRIVE = 0.05


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


def _sinc(x):
    """sin(x)/x with sinc(0) = 1 (numpy's sinc uses the normalized argument)."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def delta_k(model: PhaseMatchModel, temperature):
    """Phase mismatch in rad/m at ``temperature`` (scalar or array, deg C)."""
    dk = model.dk_dt * (np.asarray(temperature, dtype=float) - model.t_pm)
    return float(dk) if np.isscalar(temperature) else dk


def shg_efficiency(model: PhaseMatchModel, temperature, p_in: float, kappa: float):
    """Single-pass converted power fraction at the given drive power.

    Valid in the low-conversion regime; a warning is emitted once the
    drive ``kappa^2 * p_in * L^2`` exceeds ``LOW_CONVERSION_DRIVE``.
    """
    if not math.isfinite(p_in) or p_in < 0.0:
        raise DomainError(f"drive power must be >= 0, got {p_in}")
    drive = kappa**2 * p_in * model.length**2
    if drive > LOW_CONVERSION_DRIVE:
        warnings.warn(
            f"single-pass drive {drive:.3g} exceeds the low-conversion regime",
            stacklevel=2,
        )
    eff = _sinc2_conversion(model, temperature, drive)
    return float(eff) if np.isscalar(temperature) else eff


def _sinc2_conversion(model: PhaseMatchModel, temperature, drive: float):
    """The sinc^2 law at single-pass drive ``kappa^2 p L^2``, without the regime check."""
    return drive * _sinc(delta_k(model, temperature) * model.length / 2.0) ** 2


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
    count = int(np.sum(np.arange(1, math.floor(x_max / math.pi) + 2) * math.pi <= x_max))
    return [root for root in _first_tan_roots(count) if root <= x_max]


@functools.lru_cache(maxsize=64)  # model-independent constants: one solve per bracket count
def _first_tan_roots(brackets: int) -> tuple[float, ...]:
    j = np.arange(1, brackets + 1)
    lo, hi = j * math.pi, (j + 0.5) * math.pi
    # f(x) = x cos x - sin x changes sign on (j pi, j pi + pi/2); the brackets solve apart.
    roots = brentq(lambda x, index: x * np.cos(x) - np.sin(x), lo + 1e-12, hi - 1e-12,
                   xtol=1e-12, rtol=8.9e-16)
    return tuple(roots.tolist())


def find_conversion_extrema(
    model: PhaseMatchModel, t_range: tuple[float, float]
) -> list[tuple[float, str]]:
    """Analytic extrema of the sinc^2 conversion curve inside ``t_range``.

    Returns (temperature, kind) pairs sorted by temperature, ``kind`` being
    ``"max"`` (global maximum at t_pm and the secondary maxima at the roots
    of tan x = x) or ``"min"`` (the exact zeros at delta_k * L = 2 pi m).
    """
    lo, hi = min(t_range), max(t_range)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("temperature range must be finite")
    scale = model.dk_dt * model.length / 2.0  # x = scale * (T - t_pm)
    x_lo, x_hi = sorted((scale * (lo - model.t_pm), scale * (hi - model.t_pm)))

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
    x_abs_max = max(abs(x_lo), abs(x_hi))
    for root in _tan_x_equals_x_roots(x_abs_max):
        for x in (root, -root):
            if x_lo <= x <= x_hi:
                extrema.append((temperature_of(x), "max"))
    extrema.sort(key=lambda item: item[0])
    return extrema


def conversion_sweep(model: PhaseMatchModel, temperatures, p_in: float, kappa: float):
    """Mismatch and conversion arrays for a temperature grid (CSV-ready)."""
    temps = np.asarray(temperatures, dtype=float)
    return delta_k(model, temps), shg_efficiency(model, temps, p_in, kappa)
