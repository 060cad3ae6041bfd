"""Steady state and linearized fluctuation analysis of the squeezing resonator.

The classical circulating power obeys the implicit resonance equation

    p_circ = T1 * p_in / |1 - r_eff * exp(i (detuning + phi_nl(p_circ)))|^2,

with ``r_eff = sqrt((1 - T1) (1 - loss))``; an intensity-dependent
round-trip phase ``phi_nl`` skews the resonance and produces bistability.
Fluctuations around a steady state follow the standard linearization

    d(da)/dt = -(gamma_total + i delta_eff) da
               + i epsilon exp(2 i arg(alpha)) da^dag + inputs,

where ``epsilon = g * p_circ * FSR`` is the effective parametric pump rate
set by the Kerr slope ``g = d(phi_nl)/d(p_circ)``, and
``delta_eff = (detuning + 2 g p_circ) * FSR`` includes the self-shift.
:func:`linearize` assembles every :class:`OperatingPoint`, with ``g`` the tangent
from a central difference at the stacked powers ``p_circ * SLOPE_FACTORS``.
Output spectra are computed in a frame where the carrier phase is zero, so
ellipse orientations are relative to the carrier quadrature.

A sideband at absolute frequency f is mapped onto the nearest cavity comb
line n and analyzed with this quasi-degenerate baseband model at offset
``omega = 2 pi (f - n * FSR)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalError, ThresholdError
from .roots import brentq

__all__ = [
    "CavityParams",
    "SteadyStateBranch",
    "BranchArrays",
    "ResonanceProfile",
    "OperatingPoint",
    "SpectrumPoint",
    "CombAssignment",
    "steady_state_branches",
    "scan_profile",
    "linearize",
    "make_operating_point",
    "squeezing_spectrum",
    "sideband_comb_map",
]

_C_LIGHT = 299_792_458.0  # speed of light in vacuum, m/s (exact in SI)


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


class SteadyStateBranch(NamedTuple):
    p_circ: float
    stable: bool


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


# Points of the bracket grid over [0, resonant_buildup * p_in].
_SCAN_POINTS = 512


def steady_state_branches(
    params: CavityParams,
    p_in: float,
    phi_nl: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    detuning: float | np.ndarray = 0.0,
) -> list | BranchArrays:
    """All real circulating-power solutions at ``detuning`` (rad), sorted ascending.

    Roots of ``F(p) = p * |1 - r_eff exp(i(detuning + phi_nl(p)))|^2
    - T1 * p_in`` are bracketed on a grid over ``[0, resonant_buildup *
    p_in]`` and refined by Brent; ``phi_nl`` is called on 1-D arrays of
    circulating power only.  Each cell where ``F > 0`` flips brackets one
    root, and the direction of the flip is the slope criterion of the
    implicit map: a root is stable when F is increasing through it.  As
    F(0) < 0 < F(p_max), the roots alternate stable/unstable and the first
    and last are stable.

    A 1-D array ``detuning`` gives the sweep's :class:`BranchArrays` from one
    stacked solve: the grid and ``phi_nl`` on it are shared, F's signs on the
    grid come from the resonance manifold and every bracket of the sweep is
    refined by one array :func:`brentq`.  A float detuning is the same solve.
    """
    dets = np.asarray(detuning, dtype=float)
    if dets.ndim > 1:
        raise DomainError("detuning must be a float or a 1-D array")
    if not np.all(np.isfinite(dets)):
        raise DomainError("detuning must be finite")
    if not math.isfinite(p_in) or p_in < 0.0:
        raise DomainError(f"input power must be >= 0, got {p_in}")
    sweep = dets.reshape(-1)
    if p_in == 0.0 or not len(sweep):  # one root, p = 0, at each detuning
        if not dets.ndim:
            return [SteadyStateBranch(0.0, True)]
        return BranchArrays(np.zeros(len(sweep)), np.ones(len(sweep), bool),
                            np.ones(len(sweep), int))
    r = params.r_eff
    t1 = params.coupler_transmission

    def implicit(p, phase):
        return p * (1.0 + r * r - 2.0 * r * np.cos(phase)) - t1 * p_in

    def ranges(first, last):  # every integer of the ranges [first, last), and its range
        owner = np.repeat(np.arange(len(first)), last - first)
        return np.arange(len(owner)) + (last - np.cumsum(last - first))[owner], owner

    p_max = params.resonant_buildup * p_in * (1.0 + 1e-6)
    grid = np.linspace(0.0, p_max, _SCAN_POINTS)
    phi = np.zeros(_SCAN_POINTS) if phi_nl is None else phi_nl(grid)
    # F(p_j > 0) <= 0 iff cos(d + phi_j) >= c_j = (1 + r^2 - T1 p_in / p_j) / (2r): d within
    # arccos(c_j) of -phi_j mod 2 pi (Drummond & Walls, J. Phys. A 13, 725 (1980)).  ends[k, s]
    # holds the sorted rows of y = (d + pi) mod 2 pi at those ends + 2 pi k -+ eta: F is evaluated
    # only in between.  With eps = 2^-52 and cos, arccos within 4 ulp, cos(d + phi_j) misses F's
    # threshold by < D = eps (|d| + |phi_j| + 2 (1 + r^2) / r + 8) + 2^-1074 / (r p_j) (d + phi_j,
    # cos, F, c_j, subnormals); |arccos x - arccos c| <= pi sqrt(|x - c| / 2) at any c; arccos and
    # rounding y and the ends add < 2 eps (|d| + |phi_j| + 2 pi (|k| + 3)).  A non-finite phi_j
    # sets c_j = -1.  Column j is below where an odd number of its toggles lie at or before the
    # row; a cell changes sign in an odd number of the ranges between its columns' toggles.
    order = np.argsort(np.remainder(sweep + math.pi, 2.0 * math.pi))
    y = np.remainder(sweep[order] + math.pi, 2.0 * math.pi)
    phase = np.where(np.isfinite(phi[1:]), phi[1:], 0.0)
    c = np.where(phase == phi[1:], (1.0 + r * r - t1 * p_in / grid[1:]) / (2.0 * r), -1.0)
    turns = [round(v / (2.0 * math.pi) - 0.5) for v in (y[0] + phase.min(), y[-1] + phase.max())]
    k = [2.0 * math.pi * j for j in range(turns[0], turns[1] + 1)]
    rounding = 2.0**-52 * float(np.abs(sweep).max() + np.abs(phase).max())
    doubt = rounding + 2.0**-52 * (2.0 * (1.0 + r * r) / r + 8.0) + 5e-324 / (r * grid[1])
    eta = math.pi * math.sqrt(doubt / 2.0) + 2.0 * rounding + 2.0**-51 * (max(map(abs, k)) + 19.0)
    ends = np.searchsorted(y, np.add.outer(np.add.outer(k, (-eta, eta)), (math.pi - phase)
                           + np.multiply.outer((-1.0, 1.0), np.arccos(np.clip(c, -1.0, 1.0)))))
    toggles = np.vstack([[0] + [len(y)] * (2 * len(k) - 1),
                         ends[:, [0, 1], [0, 1]].reshape(2 * len(k), -1).T])
    rows, cell = ranges(*(f(toggles[:-1], toggles[1:]).ravel() for f in (np.minimum, np.maximum)))
    keys = [order[rows] * (_SCAN_POINTS - 1) + cell // (2 * len(k))]
    if np.any(ends[:, 1] > ends[:, 0]):
        at, band = ranges(ends[:, 0].ravel(), ends[:, 1].ravel())
        doubted = np.sort(at * _SCAN_POINTS + band % ends.shape[-1] + 1)
        at, col = np.divmod(doubted[np.diff(doubted, prepend=-1) > 0], _SCAN_POINTS)
        wrong = (implicit(grid[col], sweep[order[at]] + phi[col]) > 0.0) == (
            np.count_nonzero(toggles[col] <= at[:, None], axis=1) % 2 == 1)
        at, col = order[at[wrong]] * (_SCAN_POINTS - 1), col[wrong]
        keys += [at + col - 1, (at + col)[col < _SCAN_POINTS - 1]]
    keys, times = np.unique(np.concatenate(keys), return_counts=True)
    owners, cells = np.divmod(keys[times % 2 == 1], _SCAN_POINTS - 1)
    found = np.bincount(owners, minlength=len(sweep))
    if not found.all():
        f_0, f_max = implicit(grid[[0, -1]], sweep[np.argmin(found)] + phi[[0, -1]])
        raise NumericalError(
            "failed to bracket any steady state "
            f"(p_in={p_in}, detuning={float(sweep[np.argmin(found)])}, p_max={p_max}); "
            f"F(0)={f_0:.3e}, F(p_max)={f_max:.3e}"
        )

    def implicit_at(p, index):
        phase = sweep[owners[index]]
        return implicit(p, phase if phi_nl is None else phase + phi_nl(p))

    roots = brentq(implicit_at, grid[cells], grid[cells + 1], xtol=1e-300, rtol=8.9e-16)
    stable = (np.arange(len(roots)) - np.repeat(np.cumsum(found) - found, found)) % 2 == 0
    if dets.ndim:
        return BranchArrays(roots, stable, found)
    return [SteadyStateBranch(p, s) for p, s in zip(roots.tolist(), stable.tolist())]


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


def scan_profile(
    params: CavityParams,
    p_in: float,
    detunings: Sequence[float],
    phi_nl: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    direction: str = "up",
    monitor_transmission: float = 1e-4,
) -> ResonanceProfile:
    """Sweep the detuning quasi-statically and follow one stable branch.

    At bistable points the branch nearest the previous circulating power
    is kept, which reproduces hysteresis jumps at the fold points; the
    model has no scan-speed parameter.  ``p_trans`` is the leakage through
    a weak monitor port, ``monitor_transmission * p_circ``.
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

    roots, stable, count = steady_state_branches(params, p_in, phi_nl, dets)
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
        p_trans=monitor_transmission * p_follow[view],
        direction=direction,
        asymmetry=asym,
        multi_branch=bool((count >= 3).any()),
    )


@dataclass(frozen=True)
class OperatingPoint:
    """Linearization data of one steady state.

    Rates are angular (rad/s): ``gamma_coupler = T1 * FSR / 2``,
    ``gamma_loss = loss * FSR / 2``, ``epsilon = g * p_circ * FSR`` and
    ``delta_eff = (detuning + 2 g p_circ) * FSR``.
    """

    p_circ: float
    nl_phase_rt: float
    epsilon: float
    delta_eff: float
    gamma_total: float
    gamma_coupler: float
    gamma_loss: float

    def __post_init__(self):
        if self.gamma_coupler <= 0.0 or self.gamma_loss < 0.0:
            raise DomainError("decay rates must be positive (coupler) / non-negative (loss)")
        if abs(self.gamma_total - (self.gamma_coupler + self.gamma_loss)) > 1e-9 * self.gamma_total:
            raise DomainError("gamma_total must equal gamma_coupler + gamma_loss")

    @property
    def threshold_epsilon(self) -> float:
        """Pump rate at which the linearized dynamics turn unstable."""
        return math.hypot(self.gamma_total, self.delta_eff)

    @property
    def headroom(self) -> float:
        """threshold_epsilon / |epsilon| (inf for epsilon = 0)."""
        if self.epsilon == 0.0:
            return math.inf
        return self.threshold_epsilon / abs(self.epsilon)

    @property
    def below_threshold(self) -> bool:
        return abs(self.epsilon) < self.threshold_epsilon


# Relative power step of the central difference that gives the Kerr slope.
SLOPE_STEP = 1e-4
SLOPE_FACTORS = np.array([1.0 - SLOPE_STEP, 1.0, 1.0 + SLOPE_STEP])


def linearize(params: CavityParams, p_circ: float, phases,
              detuning: Optional[float] = None) -> OperatingPoint:
    """Linearization of the steady state at circulating power ``p_circ``.

    ``phases`` holds ``phi_nl`` at ``p_circ * SLOPE_FACTORS``; their central
    difference is ``g * p_circ``, so ``p_circ = 0`` gives ``epsilon = 0``.
    A float ``detuning`` is that of a free-running cavity; ``None`` is a
    locked cavity, whose length servo holds ``delta_eff`` at zero.
    """
    phi_lo, phi_at, phi_hi = (float(phi) for phi in phases)
    slope_p = (phi_hi - phi_lo) / (2.0 * SLOPE_STEP)
    fsr = params.fsr
    return OperatingPoint(
        p_circ=float(p_circ),
        nl_phase_rt=phi_at,
        epsilon=slope_p * fsr,
        delta_eff=0.0 if detuning is None else (detuning + 2.0 * slope_p) * fsr,
        gamma_total=params.gamma_total,
        gamma_coupler=params.gamma_coupler,
        gamma_loss=params.gamma_loss,
    )


def make_operating_point(
    params: CavityParams,
    p_in: float,
    phi_nl: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    detuning: float = 0.0,
    branch: Optional[int] = None,
    check_threshold: bool = True,
) -> OperatingPoint:
    """Select a steady state at ``detuning`` and assemble its linearization.

    ``branch`` indexes the sorted branch list and is required when the
    cavity is bistable; otherwise the unique stable branch is used.
    """
    branches = steady_state_branches(params, p_in, phi_nl, detuning)
    if branch is not None:
        if not 0 <= branch < len(branches):
            raise DomainError(f"branch index {branch} out of range (found {len(branches)})")
        selected = branches[branch]
    else:
        stable = [b for b in branches if b.stable]
        if len(stable) != 1:
            raise DomainError(
                f"{len(stable)} stable branches found; pass an explicit branch index"
            )
        selected = stable[0]
    p = selected.p_circ
    op = linearize(params, p, np.zeros(3) if phi_nl is None else phi_nl(p * SLOPE_FACTORS),
                   detuning)
    if check_threshold and not op.below_threshold:
        raise ThresholdError(
            f"operating point at or above threshold: |epsilon| = {abs(op.epsilon):.3e} >= "
            f"{op.threshold_epsilon:.3e} rad/s"
        )
    return op


def squeezing_spectrum(op: OperatingPoint, omega) -> SpectrumPoint:
    """Output quadrature spectrum at sideband offset ``omega`` (rad/s).

    Input-output solution of the linearized dynamics with vacuum entering
    through both the coupler and the loss port.  For ``delta_eff = 0`` it
    reduces to ``v_mp = 1 -/+ 4 gamma_coupler epsilon / ((gamma_total +/-
    epsilon)^2 + omega^2)``.  The returned minor-axis angle is relative to
    the carrier quadrature.  For an array ``omega`` the fields are arrays of
    the same shape, from one stacked solve.
    """
    if not op.below_threshold:
        raise ThresholdError(
            f"spectrum undefined at or above threshold (headroom {op.headroom:.3f})"
        )
    omegas = np.asarray(omega, dtype=float)
    if op.epsilon == 0.0:
        # Passive cavity: the output is exactly vacuum at every frequency.
        v_min, v_max, theta = np.ones(omegas.shape), np.ones(omegas.shape), np.zeros(omegas.shape)
    else:
        gam, gc, gl = op.gamma_total, op.gamma_coupler, op.gamma_loss
        delta, eps = op.delta_eff, op.epsilon

        # One 2x2 system per frequency; a scalar runs as a stack of one.
        w = omegas.reshape(-1, 1, 1)
        drift = np.array([[0.0, delta + eps], [eps - delta, 0.0]])
        m = np.linalg.inv((gam - 1j * w) * np.eye(2) - drift)
        t_in = 2.0 * gc * m - np.eye(2)
        s_out = t_in @ t_in.conj().swapaxes(-1, -2)
        if gl > 0.0:
            t_loss = 2.0 * math.sqrt(gc * gl) * m
            s_out = s_out + t_loss @ t_loss.conj().swapaxes(-1, -2)
        sym = s_out.real
        vals, vecs = np.linalg.eigh(0.5 * (sym + sym.swapaxes(-1, -2)))
        theta = np.arctan2(vecs[:, 1, 0], vecs[:, 0, 0]) % math.pi
        v_min, v_max, theta = (x.reshape(omegas.shape) for x in (vals[:, 0], vals[:, 1], theta))
    if not omegas.shape:
        return SpectrumPoint(float(v_min), float(v_max), float(theta))
    return SpectrumPoint(v_min, v_max, theta)


def sideband_comb_map(cavity, frequency) -> CombAssignment:
    """Map an absolute sideband frequency onto (comb index, offset).

    ``cavity`` may be a :class:`CavityParams` or a bare FSR in Hz.  The
    offset is ``omega = 2 pi (f - n * FSR)`` with ``n = round(f / FSR)``;
    the spectrum at comb line n is then evaluated with the baseband model
    at that offset (quasi-degenerate approximation).  For an array
    ``frequency`` both fields are arrays of its shape.
    """
    fsr = cavity.fsr if hasattr(cavity, "fsr") else float(cavity)
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
