"""Steady state and linearized fluctuation analysis of the squeezing resonator.

The classical circulating power obeys the implicit resonance equation

    p_circ = T1 * p_in / |1 - r_eff * exp(i (detuning + g * p_circ))|^2,

with ``r_eff = sqrt((1 - T1) (1 - loss))``; the Kerr phase ``g * p_circ``
(slope ``g`` in rad/W) skews the resonance and produces bistability.
For squeezing the cavity is locked: its length servo cancels the detuning
and the self-shift, and fluctuations around the steady state follow

    d(da)/dt = -gamma_total da + i epsilon exp(2 i arg(alpha)) da^dag + inputs,

where ``epsilon = g * p_circ * FSR`` is the effective parametric pump rate;
the threshold is ``|epsilon| = gamma_total``.  The :class:`OperatingPoint`
constructor is the one builder of a locked point; a locked run gives it
``epsilon`` from ``g``, the tangent of the cascade phase from a central
difference at the powers ``p_circ * scenarios.SLOPE_FACTORS``.
Output spectra are computed in a frame where the carrier phase is zero, so
ellipse orientations are relative to the carrier quadrature.

A sideband at absolute frequency f is mapped onto the nearest cavity comb
line n and analyzed with this quasi-degenerate baseband model at offset
``omega = 2 pi (f - n * FSR)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ThresholdError
from .roots import brentq

__all__ = [
    "CavityParams",
    "BranchArrays",
    "ResonanceProfile",
    "OperatingPoint",
    "SpectrumPoint",
    "CombAssignment",
    "steady_state_branches",
    "scan_profile",
    "squeezing_spectrum",
    "sideband_comb_map",
]

_C_LIGHT = 299_792_458.0  # speed of light in vacuum, m/s (exact in SI)

MONITOR_TRANSMISSION = 1e-4  # circulating power fraction through the monitor port


@dataclass(frozen=True)
class CavityParams:
    """Geometry and mirror budget of the traveling-wave resonator; no detuning."""

    round_trip_length: float  # m
    coupler_transmission: float  # T1, power fraction
    round_trip_loss: float  # all other intracavity power loss per round trip

    def __post_init__(self):
        if not math.isfinite(self.round_trip_length) or self.round_trip_length <= 0.0:
            raise DomainError(f"round_trip_length must be positive, got {self.round_trip_length}")
        if not 0.0 < self.coupler_transmission < 1.0:
            raise DomainError(
                f"coupler_transmission must lie in (0, 1), got {self.coupler_transmission}"
            )
        if not 0.0 <= self.round_trip_loss < 1.0:
            raise DomainError(
                f"round_trip_loss must lie in [0, 1), got {self.round_trip_loss}"
            )

    @property
    def fsr(self) -> float:
        """Free spectral range in Hz."""
        return _C_LIGHT / self.round_trip_length

    @property
    def r_eff(self) -> float:
        """Effective round-trip amplitude factor."""
        return math.sqrt((1.0 - self.coupler_transmission) * (1.0 - self.round_trip_loss))

    @property
    def finesse(self) -> float:
        return math.pi * math.sqrt(self.r_eff) / (1.0 - self.r_eff)

    @property
    def escape_efficiency(self) -> float:
        """Fraction of the total decay exiting through the coupler."""
        return self.coupler_transmission / (self.coupler_transmission + self.round_trip_loss)

    @property
    def resonant_buildup(self) -> float:
        """Circulating/input power ratio of the linear cavity on resonance."""
        return self.coupler_transmission / (1.0 - self.r_eff) ** 2

    @property
    def gamma_coupler(self) -> float:
        """Coupler half-linewidth decay rate, rad/s."""
        return 0.5 * self.coupler_transmission * self.fsr

    @property
    def gamma_loss(self) -> float:
        return 0.5 * self.round_trip_loss * self.fsr

    @property
    def gamma_total(self) -> float:
        return self.gamma_coupler + self.gamma_loss

    @property
    def linewidth_phase_fwhm(self) -> float:
        """Resonance full width at half maximum in round-trip phase, rad."""
        return 2.0 * (1.0 - self.r_eff) / math.sqrt(self.r_eff)


class BranchArrays(NamedTuple):
    p_circ: np.ndarray  # every root of a sweep, detuning by detuning, ascending within each
    stable: np.ndarray  # whether each root is stable
    count: np.ndarray  # the number of roots of each detuning


class SpectrumPoint(NamedTuple):
    v_min: float
    v_max: float
    theta_min: float


class CombAssignment(NamedTuple):
    index: int
    omega: float


# 2 pi = hi + lo to 1e-25: hi keeps 33 significant bits, so k * hi is exact for |k| < 2**20.
_TWO_PI_HI, _TWO_PI_LO = 6.2831853069365025, 2.430840202602477e-10


def _folds(r: float, t1_p_in: float, g: float) -> list:
    """The phases psi, ascending, where ``D(psi) = psi - g p(psi)`` folds: none or two.

    ``D' = 1 - g p'`` dips below 1 only where ``sign(psi) = -sign(g)``, most at
    ``cos psi* = 2C / (q + sqrt(q^2 + 2 C^2))``, ``B = (1 - r)^2``, ``C = 4 r``, ``q
    = B + C/2`` (taken through tan(psi*/2)).  If ``D'(psi*) < 0``, D' crosses 0
    once in [0, psi*] and once in [psi*, pi], each bisected to adjacent floats.
    """
    b, c = (1.0 - r) ** 2, 4.0 * r
    s = math.sqrt((b + 0.5 * c) ** 2 + 2.0 * c * c)  # q = b + c / 2
    peak = 2.0 * math.atan(math.sqrt(4.0 * b * c / ((s + 1.5 * c - b) * (s + 2.5 * c + b))))
    lean = 0.5 * c * abs(g) * t1_p_in  # |g p'(psi)| = lean sin(psi) / den^2

    def dips(psi):  # D'(psi) < 0, for 0 <= psi <= pi on the folding side
        return lean * math.sin(psi) > (b + c * math.sin(0.5 * psi) ** 2) ** 2

    if not dips(peak):
        return []
    folds = []
    for a, z in ((0.0, peak), (peak, math.pi)):
        low, mid = dips(a), 0.5 * (a + z)
        while a < mid < z:
            a, z = (mid, z) if dips(mid) == low else (a, mid)
            mid = 0.5 * (a + z)
        folds.append(a)
    return sorted(-math.copysign(f, g) for f in folds)


def steady_state_branches(params: CavityParams, p_in: float, g: float,
                          detuning: np.ndarray) -> BranchArrays:
    """Ascending circulating-power solutions at each detuning (rad) of the 1-D array ``detuning``.

    The Kerr phase is ``g p_circ``, with a finite slope ``g`` in rad/W.  ``p(psi)
    = T1 p_in / |1 - r_eff exp(i psi)|^2`` solves the resonance equation at
    round-trip phase psi, so the roots at detuning d are the psi in [-pi, pi]
    where ``D(psi) = psi - g p(psi)`` meets ``d + 2 pi k`` (Drummond & Walls, J.
    Phys. A 13, 725 (1980)).  Between -pi, the :func:`_folds` and pi, D is
    monotone and each target in its range is one root, refined with all others
    of the sweep by one array :func:`brentq` in psi.  As D(pi) = D(-pi) + 2 pi,
    the count is odd: a detuning whose target falls in the rounding gap of that
    seam gets its root at psi = pi.  Sorted by power, the roots alternate
    stable/unstable from a stable one, as F(p) = p |1 - r_eff exp(i(d + g
    p))|^2 - T1 p_in rises through a stable root from F(0) < 0.  A zero drive
    has no fold and one root per detuning, p = 0.  An overflowing peak Kerr
    phase raises :class:`DomainError`, an empty sweep's too.
    """
    sweep = np.asarray(detuning, dtype=float)
    if sweep.ndim != 1:
        raise DomainError("detuning must be a 1-D array")
    if not np.all(np.isfinite(sweep)):
        raise DomainError("detuning must be finite")
    if not math.isfinite(p_in) or p_in < 0.0:
        raise DomainError(f"input power must be >= 0, got {p_in}")
    if not math.isfinite(g):
        raise DomainError(f"Kerr slope g must be finite, got {g}")
    r, t1_p_in = params.r_eff, params.coupler_transmission * p_in
    peak = g * t1_p_in / (1.0 - r) ** 2  # the Kerr phase at the top of the resonance
    if not abs(peak) < 2.0**63 * math.tau:  # the candidate counts are int64 turns
        raise DomainError(f"peak Kerr phase g T1 p_in / (1 - r_eff)^2 = {peak} rad is "
                          "not finite or spans 2**63 turns or more")

    def power(psi):  # the resonance curve
        return t1_p_in / ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * psi) ** 2)

    def level(psi):  # D(psi)
        return psi - g * power(psi)

    ends = np.array([-math.pi, *_folds(r, t1_p_in, g), math.pi])
    heights = level(ends)
    lo, hi = np.minimum(heights[:-1], heights[1:]), np.maximum(heights[:-1], heights[1:])
    # Each k with lo <= d + 2 pi k < hi is a root on that run: a few candidate k
    # per (run, detuning), kept by the test on the target itself.
    first = np.floor((lo[:, None] - sweep) / math.tau).ravel()
    tries = (np.ceil((hi[:, None] - sweep) / math.tau).ravel() - first + 1).astype(int)
    cell = np.repeat(np.arange(len(tries)), tries)
    turns = first[cell] + np.arange(len(cell)) - np.repeat(np.cumsum(tries) - tries, tries)
    run, owner = np.divmod(cell, len(sweep))
    target = (sweep[owner] + turns * _TWO_PI_HI) + turns * _TWO_PI_LO
    keep = (lo[run] <= target) & (target < hi[run])
    run, owner, target = run[keep], owner[keep], target[keep]
    psi = brentq(lambda x, i: level(x) - target[i], ends[run], ends[run + 1],
                 xtol=1e-300, rtol=8.9e-16)
    found = np.bincount(owner, minlength=len(sweep))
    seam = np.flatnonzero(found % 2 == 0)  # its root fell in the seam's rounding gap
    owner, found[seam] = np.concatenate([owner, seam]), found[seam] + 1
    p = power(np.concatenate([psi, np.full(len(seam), math.pi)]))
    order = np.lexsort((p, owner))
    stable = (np.arange(len(p)) - np.repeat(np.cumsum(found) - found, found)) % 2 == 0
    return BranchArrays(p[order], stable, found)


@dataclass(frozen=True)
class ResonanceProfile:
    """Quasi-static cavity scan with adiabatic branch following."""

    detuning: np.ndarray
    p_circ: np.ndarray
    p_trans: np.ndarray
    direction: str
    asymmetry: float
    multi_branch: bool


def _half_max_asymmetry(x: np.ndarray, y: np.ndarray) -> float:
    """|w_left - w_right| / (w_left + w_right) of the half-maximum widths."""
    if x[-1] < x[0]:  # a decreasing sweep is read reversed
        x, y = x[::-1], y[::-1]
    i_pk = int(np.argmax(y))
    half = 0.5 * y[i_pk]
    below = y < half
    left, right = np.flatnonzero(below[:i_pk]), i_pk + 1 + np.flatnonzero(below[i_pk + 1:])
    if not len(left) or not len(right):
        return math.nan

    def crossing(j: int, k: int) -> float:
        # Linear interpolation between the last point above and first below.
        frac = (y[j] - half) / (y[j] - y[k])
        return float(x[j] + frac * (x[k] - x[j]))

    w_left = x[i_pk] - crossing(left[-1] + 1, left[-1])
    w_right = crossing(right[0] - 1, right[0]) - x[i_pk]
    if w_left + w_right == 0.0:
        return math.nan
    return abs(w_left - w_right) / (w_left + w_right)


def scan_profile(params: CavityParams, p_in: float, detunings: Sequence[float], g: float,
                 direction: str = "up") -> ResonanceProfile:
    """Sweep the detuning quasi-statically and follow one stable branch.

    One :func:`steady_state_branches` call with the Kerr slope ``g`` (rad/W)
    solves the sweep.  At bistable points the branch nearest the previous
    circulating power is kept, which reproduces hysteresis jumps at the fold
    points; the model has no scan-speed parameter.  ``p_trans`` is the
    leakage through a weak monitor port, ``MONITOR_TRANSMISSION * p_circ``.
    """
    if direction not in ("up", "down"):
        raise DomainError(f"direction must be 'up' or 'down', got {direction!r}")
    dets = np.asarray(detunings, dtype=float)
    if dets.ndim != 1 or len(dets) < 3:
        raise DomainError("detuning sweep needs at least 3 points")
    diffs = np.diff(dets)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise DomainError("detuning sweep must be strictly monotone")
    order = np.argsort(dets)[::1 if direction == "up" else -1]

    roots, stable, count = steady_state_branches(params, p_in, g, dets)
    starts = np.cumsum(count) - count
    p_follow = roots[starts]  # a detuning's only root, or its first stable one
    step = order[1] - order[0]  # the sweep visits the indices one by one
    for idx in order[count[order] >= 3].tolist():
        span = slice(starts[idx], starts[idx] + count[idx])
        choices = roots[span][stable[span]].tolist()
        if idx == order[0]:
            p_follow[idx] = choices[0] if direction == "up" else choices[-1]
        else:
            p_prev = float(p_follow[idx - step])
            p_follow[idx] = min(choices, key=lambda p: abs(p - p_prev))

    asym = _half_max_asymmetry(dets, p_follow)
    view = slice(None) if direction == "up" else slice(None, None, -1)
    return ResonanceProfile(
        detuning=dets[view].copy(),
        p_circ=p_follow[view].copy(),
        p_trans=MONITOR_TRANSMISSION * p_follow[view],
        direction=direction,
        asymmetry=asym,
        multi_branch=bool((count >= 3).any()),
    )


@dataclass(frozen=True)
class OperatingPoint:
    """Linearization data of one locked steady state.

    Rates are angular (rad/s): ``gamma_coupler = T1 * FSR / 2``,
    ``gamma_loss = loss * FSR / 2`` and ``epsilon = g * p_circ * FSR``.  A
    non-finite ``p_circ`` or ``epsilon`` or a negative ``p_circ`` raises :class:`DomainError`.
    """

    p_circ: float
    epsilon: float
    gamma_coupler: float
    gamma_loss: float

    def __post_init__(self):
        if not math.isfinite(self.p_circ) or self.p_circ < 0.0:
            raise DomainError(f"p_circ must be finite and >= 0, got {self.p_circ}")
        if not math.isfinite(self.epsilon):
            raise DomainError(f"epsilon must be finite, got {self.epsilon}")
        if self.gamma_coupler <= 0.0 or self.gamma_loss < 0.0:
            raise DomainError("decay rates must be positive (coupler) / non-negative (loss)")

    @property
    def gamma_total(self) -> float:
        return self.gamma_coupler + self.gamma_loss

    @property
    def headroom(self) -> float:
        """gamma_total / |epsilon|, the threshold over the pump (inf for epsilon = 0)."""
        if self.epsilon == 0.0:
            return math.inf
        return self.gamma_total / abs(self.epsilon)

    @property
    def below_threshold(self) -> bool:
        return abs(self.epsilon) < self.gamma_total


def squeezing_spectrum(op: OperatingPoint, omega) -> SpectrumPoint:
    """Output quadrature spectrum at sideband offset ``omega`` (rad/s).

    Input-output solution of the linearized dynamics with vacuum entering
    through both the coupler and the loss port (Collett & Gardiner, Phys.
    Rev. A 30, 1386 (1984)): ``v_mp = 1 -/+ 4 gamma_coupler |epsilon| /
    ((gamma_total +/- |epsilon|)^2 + omega^2)``.  The minor axis, relative
    to the carrier quadrature, is at pi/4 for ``epsilon < 0`` and 3 pi/4 for
    ``epsilon > 0``; without pump the output is vacuum, ``v = 1`` with
    angle 0.  For an array ``omega`` the fields are arrays of its shape.
    """
    if not op.below_threshold:
        raise ThresholdError(
            f"spectrum undefined at or above threshold (headroom {op.headroom:.3f})"
        )
    omegas = np.asarray(omega, dtype=float)
    gam, eps = op.gamma_total, abs(op.epsilon)
    gain, w2 = 4.0 * op.gamma_coupler * eps, omegas * omegas
    v_min = 1.0 - gain / ((gam + eps) ** 2 + w2)
    v_max = 1.0 + gain / ((gam - eps) ** 2 + w2)
    theta = 0.0 if eps == 0.0 else 0.25 * math.pi if op.epsilon < 0.0 else 0.75 * math.pi
    if not omegas.shape:
        return SpectrumPoint(float(v_min), float(v_max), theta)
    return SpectrumPoint(v_min, v_max, np.full(omegas.shape, theta))


def sideband_comb_map(fsr: float, frequency) -> CombAssignment:
    """Map an absolute sideband frequency onto (comb index, offset).

    ``fsr`` is the cavity's free spectral range in Hz.  The offset is
    ``omega = 2 pi (f - n * FSR)`` with ``n = round(f / FSR)``;
    the spectrum at comb line n is then evaluated with the baseband model
    at that offset (quasi-degenerate approximation).  For an array
    ``frequency`` both fields are arrays of its shape.
    """
    if fsr <= 0.0 or not math.isfinite(fsr):
        raise DomainError(f"FSR must be positive, got {fsr}")
    f = np.asarray(frequency, dtype=float)
    if not np.all(np.isfinite(f) & (f >= 0.0)):
        raise DomainError(f"frequency must be >= 0, got {frequency}")
    index = np.round(f / fsr)
    omega = 2.0 * math.pi * (f - index * fsr)
    if not f.shape:
        return CombAssignment(int(index), float(omega))
    return CombAssignment(index.astype(int), omega)
