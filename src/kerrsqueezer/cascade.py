"""Coupled-mode propagation of fundamental and harmonic through the crystal.

Conventions (fixed; any self-consistent alternative must still conserve
``|a1|^2 + |a2|^2`` and reproduce the phase-matched sech depletion law):

    da1/dz = i kappa conj(a1) a2 exp(+i delta_k z)
    da2/dz = i kappa a1^2      exp(-i delta_k z)

Amplitudes are in sqrt(W), so ``|a|^2`` is optical power and the sum of the
two powers is conserved exactly by the equations.  These are interaction-
picture amplitudes: without coupling nothing changes, so the phase of the
output fundamental is the nonlinear phase itself.  The integrator is
fixed-step classical Runge-Kutta, batched over rows of (amplitudes,
delta_k); its step count follows from the error budget of
:func:`step_count`, and power drift is monitored and reported.

In the low-conversion, strongly mismatched regime the accumulated
intensity-dependent phase of the fundamental follows the cascading
formula

    phi_nl = -(kappa^2 p L / delta_k) * (1 - sinc(delta_k L)),

which at the conversion zeros (delta_k L = 2 pi m) reduces to
``-kappa^2 p L^2 / (2 pi m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import AccuracyError, DomainError, ValidityError

__all__ = [
    "CoupledModeState",
    "CascadeResult",
    "FictitiousMirror",
    "step_count",
    "propagate",
    "effective_kerr_phase",
    "extract_cascade_result",
    "fictitious_mirror",
]

DEFAULT_DRIFT_TOL = 1e-9
MIN_STEPS = 100
# Error budget of one RK4 step: the mismatch phase delta_k * h and the
# coupling phase kappa * sqrt(p) * h it may advance.
MISMATCH_PHASE_PER_STEP = 0.05
COUPLING_PHASE_PER_STEP = 0.005
# Steps whose mismatch phasors are computed together (bounds their memory).
_NODE_BLOCK = 64


@dataclass(frozen=True)
class CoupledModeState:
    """Fundamental and harmonic envelope amplitudes at position ``z``.

    ``a1`` and ``a2`` are complex numbers or arrays of them (one per row).
    """

    a1: complex
    a2: complex
    z: float = 0.0

    @property
    def power(self):
        return abs(self.a1) ** 2 + abs(self.a2) ** 2


@dataclass(frozen=True)
class CascadeResult:
    """Nonlinear phase and residual conversion of a full crystal pass
    (floats, or arrays with one entry per row)."""

    nl_phase: float
    residual_conversion: float

    def __post_init__(self):
        residual = np.asarray(self.residual_conversion)
        if not np.all((residual >= -1e-12) & (residual <= 1.0 + 1e-12)):
            raise DomainError(
                f"residual conversion must lie in [0, 1], got {self.residual_conversion}"
            )


class FictitiousMirror(NamedTuple):
    r1: float
    phase_offset: float


def _wrap(phi):
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def _powers(p_in) -> np.ndarray:
    p = np.asarray(p_in, dtype=float)
    if not np.all(np.isfinite(p) & (p >= 0.0)):
        raise DomainError(f"power must be >= 0, got {p_in}")
    return p


def _launch(p_in, delta_k) -> tuple:
    """Broadcast powers and mismatches; every row enters as pure fundamental."""
    p, dk = np.broadcast_arrays(_powers(p_in), np.asarray(delta_k, dtype=float))
    return p, dk, CoupledModeState(np.sqrt(p), np.zeros(p.shape))


def _harmonic_fraction(state: CoupledModeState, p: np.ndarray) -> np.ndarray:
    return np.minimum(np.abs(state.a2) ** 2 / np.where(p > 0.0, p, 1.0), 1.0)


def step_count(p_in, delta_k, kappa: float, length: float) -> int:
    """RK4 steps that keep a crystal pass within its error budget.

    ``max(MIN_STEPS, ceil(max|delta_k| L / 0.05), ceil(kappa sqrt(max p) L
    / 0.005))`` for powers ``p_in`` and mismatches ``delta_k`` (scalars or
    arrays).  Against 16000-step references over kappa in {3.2, 14, 50,
    150}, p in {0.01, 1, 10, 32} W and delta_k L in {0, 1, 2 pi, 4 pi,
    13.5, 30}, the worst errors were 1.4e-8 relative in the phase and
    2.7e-10 in the residual conversion, with 1.2e-10 power drift.
    """
    p = _powers(p_in)
    if not (p.size and np.size(delta_k)):
        raise DomainError("step count needs at least one row")
    p_max = float(np.max(p))
    mismatch = float(np.max(np.abs(delta_k))) * length / MISMATCH_PHASE_PER_STEP
    coupling = abs(kappa) * math.sqrt(p_max) * length / COUPLING_PHASE_PER_STEP
    if not (math.isfinite(mismatch) and math.isfinite(coupling)):
        raise DomainError("step count needs finite delta_k, kappa and length")
    return max(MIN_STEPS, math.ceil(mismatch), math.ceil(coupling))


def propagate(
    state: CoupledModeState,
    delta_k,
    kappa: float,
    length: float,
    steps: Optional[int] = None,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> CoupledModeState:
    """Integrate the coupled-mode equations over ``length`` from ``state.z``.

    ``state.a1``, ``state.a2`` and ``delta_k`` broadcast against each other;
    every row advances in the same RK4 loop, and the result has their
    broadcast shape.  ``steps`` defaults to :func:`step_count` of the
    inputs.  Raises :class:`DomainError` for zero rows or a non-finite
    ``kappa``, ``delta_k`` or amplitude, and :class:`AccuracyError` when the relative
    power drift of any row exceeds ``drift_tol`` or is not a number
    (increase ``steps`` in that case).
    """
    if length <= 0.0 or not math.isfinite(length):
        raise DomainError(f"length must be positive, got {length}")
    if not math.isfinite(kappa):
        raise DomainError(f"kappa must be finite, got {kappa}")
    a1, a2, dk = np.broadcast_arrays(np.asarray(state.a1, dtype=complex),
                                     np.asarray(state.a2, dtype=complex),
                                     np.asarray(delta_k, dtype=float))
    shape = a1.shape
    # Rows of one element at least, so that a single row runs through the
    # same array loops as a batch and gives the same bits.
    a = np.stack((a1.reshape(-1), a2.reshape(-1)))  # [a1; a2]
    dk = dk.reshape(-1)
    if not dk.size:
        raise DomainError("propagate needs at least one row")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(dk))):
        raise DomainError("propagate needs finite amplitudes and delta_k")
    p_in = abs(a[0]) ** 2 + abs(a[1]) ** 2
    if steps is None:
        steps = step_count(p_in, dk, kappa, length)
    if steps < MIN_STEPS:
        raise DomainError(f"steps must be >= {MIN_STEPS}, got {steps}")
    z0 = float(state.z)
    h = length / steps
    c = 1j * kappa * h  # the coupling i kappa rides on the step
    half_c, sixth_c = 0.5 * c, c / 6.0
    nodes = z0 + 0.5 * h * np.arange(2 * steps + 1)
    # Rows that share a mismatch share its phasors: compute them per
    # distinct delta_k and gather them into rows.
    dk_distinct, row_dk = np.unique(dk, return_inverse=True)
    # The elementwise operations of the per-amplitude reference loop in
    # tests/test_cascade.py, on the same operands in the same order, but
    # stacked and in place; only the factors of a product swap, and x*c ==
    # c*x bit for bit.  A stage's point b = a + (f c) k_prev is written into
    # s = [conj b1, b1, b2, b1], so that one product gives both right-hand
    # sides [conj(b1) b2, b1 b1] and one more applies the phasors [up; down].
    s = np.empty((4, a.shape[1]), dtype=complex)
    conj_b1, b1, b, b1_copy, left, right = s[0], s[1], s[1:3], s[3], s[0:2], s[2:4]
    k1, k2, k3, k4, scaled = (np.empty_like(a) for _ in range(5))
    phasors = np.empty((2 * _NODE_BLOCK + 1, 2, a.shape[1]), dtype=complex)
    # (slope, previous slope, its step fraction times c, node offset)
    stages = ((k1, None, None, 0), (k2, k1, half_c, 1), (k3, k2, half_c, 1), (k4, k3, c, 2))
    for j in range(steps):
        i = 2 * (j % _NODE_BLOCK)
        if i == 0:
            # exp(+i delta_k z) and its conjugate at the RK4 nodes z0 + k h/2
            # of the next _NODE_BLOCK steps: (nodes, [up; down], rows).
            up = np.exp(1j * np.multiply.outer(nodes[2 * j:2 * (j + _NODE_BLOCK) + 1],
                                               dk_distinct))
            up_rows, down_rows = phasors[:len(up), 0], phasors[:len(up), 1]
            np.take(up, row_dk, axis=1, out=up_rows)
            np.conjugate(up_rows, out=down_rows)
        for k, k_prev, fc, node in stages:
            if k_prev is None:
                np.copyto(b, a)
            else:
                np.multiply(k_prev, fc, out=scaled)
                np.add(a, scaled, out=b)
            np.copyto(b1_copy, b1)
            np.conjugate(b1, out=conj_b1)
            np.multiply(left, right, out=k)
            k *= phasors[i + node]
        k2 += k3
        k2 *= 2
        k1 += k2
        k1 += k4
        k1 *= sixth_c
        a += k1
    a1, a2 = a
    # A row without power stays exactly empty, so its drift reads 0.
    p_out = abs(a1) ** 2 + abs(a2) ** 2
    drift = float(np.max(np.abs(p_out - p_in) / np.where(p_in > 0.0, p_in, 1.0)))
    if not drift <= drift_tol:
        raise AccuracyError(
            f"power drift {drift:.3e} exceeds tolerance {drift_tol:.1e}; "
            f"increase steps (got {steps})",
            measured=drift,
        )
    if not shape:
        return CoupledModeState(complex(a1[0]), complex(a2[0]), z0 + length)
    return CoupledModeState(a1.reshape(shape), a2.reshape(shape), z0 + length)


def effective_kerr_phase(p_in: float, delta_k: float, kappa: float, length: float) -> float:
    """Analytic cascade phase in the low-conversion, mismatched regime.

    Only valid for ``|delta_k * length| >= pi``; closer to phase matching
    direct conversion dominates and no clean phase shift exists.
    """
    if not math.isfinite(p_in) or p_in < 0.0:
        raise DomainError(f"power must be >= 0, got {p_in}")
    x = delta_k * length
    if abs(x) < math.pi:
        raise ValidityError(
            f"|delta_k * L| = {abs(x):.4f} < pi: outside cascade-phase validity"
        )
    sinc_x = math.sin(x) / x
    return -(kappa**2 * p_in * length / delta_k) * (1.0 - sinc_x)


def extract_cascade_result(
    p_in,
    delta_k,
    kappa: float,
    length: float,
    steps: Optional[int] = None,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> CascadeResult:
    """Nonlinear phase and residual conversion from the integrator.

    ``p_in`` and ``delta_k`` may be arrays; they broadcast, all rows run in
    one :func:`propagate` call, and the result holds one array entry per
    row.  In the interaction picture the linear phase is exactly zero, so
    the nonlinear phase is the phase of the output fundamental.
    """
    p, dk, start = _launch(p_in, delta_k)
    if steps is None:
        steps = step_count(p, dk, kappa, length)
    out = propagate(start, dk, kappa, length, steps, drift_tol)
    nl_phase = _wrap(np.angle(out.a1))
    residual = _harmonic_fraction(out, p)
    if not p.shape:
        return CascadeResult(float(nl_phase), float(residual))
    return CascadeResult(nl_phase, residual)


def fictitious_mirror(
    p_in,
    delta_k,
    kappa: float,
    length: float,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> FictitiousMirror:
    """Mid-crystal converted fraction and its phase lag.

    ``r1`` is the power fraction living at the harmonic halfway through
    the crystal, i.e. the reflectivity of the equivalent beam-splitter
    picture of the cascade; it stays finite at conversion zeros where the
    end-of-crystal conversion vanishes.  ``phase_offset`` is the phase of
    the mid-crystal harmonic relative to the local driving polarization
    (conversion drive), zero when phase matched; in the low-conversion
    limit it equals ``delta_k * length / 4``.  Arrays broadcast as in
    :func:`extract_cascade_result`; the half crystal gets the steps of
    :func:`step_count`.
    """
    p, dk, start = _launch(p_in, delta_k)
    half = length / 2.0
    mid = propagate(start, dk, kappa, half, step_count(p, dk, kappa, half), drift_tol)
    r1 = _harmonic_fraction(mid, p)
    lag = np.angle(mid.a2) - 2.0 * np.angle(mid.a1) + dk * half - 0.5 * math.pi
    phase_offset = np.where(np.abs(mid.a2) == 0.0, 0.0, _wrap(lag))
    if not p.shape:
        return FictitiousMirror(float(r1), float(phase_offset))
    return FictitiousMirror(r1, phase_offset)
