"""Coupled-mode propagation of fundamental and harmonic through the crystal.

Conventions (fixed; any self-consistent alternative must still conserve
``|a1|^2 + |a2|^2`` and reproduce the phase-matched sech depletion law):

    da1/dz = i kappa conj(a1) a2 exp(+i delta_k z)
    da2/dz = i kappa a1^2      exp(-i delta_k z)

Amplitudes are in sqrt(W), so ``|a|^2`` is optical power and the sum of the
two powers is conserved exactly by the equations.  These are interaction-
picture amplitudes: without coupling nothing changes, so the phase of the
output fundamental is the nonlinear phase itself.

Every row enters as pure fundamental, ``a1 = sqrt(p)``, ``a2 = 0``, and for
that launch the equations have an exact solution (Armstrong, Bloembergen,
Ducuing & Pershan, Phys. Rev. 127, 1918 (1962)).  With ``zeta = |kappa|
sqrt(p) z``, ``s = delta_k / (|kappa| sqrt(p))`` and ``w = |a2|^2 / p`` the
harmonic fraction,

    w(zeta)   = w_b sn^2(zeta / sqrt(w_b) | m = w_b^2),
    w_b       = 1 / (q + sqrt(q^2 - 1)),  q = 1 + s^2 / 8,
    phi(zeta) = -(s / 2) int_0^zeta w / (1 - w) dzeta',

where ``phi`` is the phase of the fundamental; ``s = 0`` gives the sech law
``w = tanh^2(zeta)`` and no phase.  Power is conserved by construction: the
fundamental carries ``1 - w`` of it.  The phase integral runs over whole
periods of ``sn^2`` plus a remainder, each folded at the quarter period K,
by 48-node Gauss-Legendre quadrature; ``sn`` and K come from the descending
AGM, so only numpy's ``sin``, ``arcsin`` and ``sqrt`` are involved.  Each row
is computed on its own, so a batch gives the bits of row-by-row calls.
``single_pass_conversion`` evaluates ``sn`` at the folded end alone, for
fig3's conversion sweep and each Newton step of the cavity lock; at low drive
``w -> zeta^2 sinc^2(delta_k L / 2)``, the law whose extrema ``phasematch`` lists.

In the low-conversion, strongly mismatched regime the accumulated
intensity-dependent phase of the fundamental follows the cascading
formula

    phi_nl = -(kappa^2 p L / delta_k) * (1 - sinc(delta_k L)),

which at the conversion zeros (delta_k L = 2 pi m) reduces to
``-kappa^2 p L^2 / (2 pi m)``.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidityError

__all__ = [
    "CascadeResult",
    "effective_kerr_phase",
    "extract_cascade_result",
    "single_pass_conversion",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class CascadeResult:
    """Nonlinear phase and residual conversion of a full crystal pass, one
    entry per row in the inputs' broadcast shape (np.float64 for scalars)."""

    nl_phase: float
    residual_conversion: float

    def __post_init__(self):
        residual = np.asarray(self.residual_conversion)
        if not np.all((residual >= -1e-12) & (residual <= 1.0 + 1e-12)):
            raise DomainError(
                f"residual conversion must lie in [0, 1], got {self.residual_conversion}"
            )


@functools.lru_cache(maxsize=None)
def _gauss_legendre() -> tuple:
    """48-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(48)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def _agm(w_b, w_c) -> list:
    """Descending AGM levels ``(a_i, c_i)`` of ``m = w_b^2``, from ``a_0 = 1``,
    ``b_0 = sqrt(1 - m)`` and ``c_0 = sqrt(m)``, with ``c_{i+1} = c_i^2 / (4
    a_{i+1})`` in place of the cancelling ``(a_i - b_i) / 2``.  A row stops at
    its first ``c_i <= eps a_i``; its later levels repeat ``a_i`` with ``c = 0``,
    which leave its ``sn`` and K bit for bit as they were."""
    a, b, c = np.ones_like(w_b), np.sqrt(w_c * (1.0 + w_b)), w_b
    levels = [(a, c)]
    while np.any(live := c > _EPS * a):
        a, b, c = (np.where(live, 0.5 * (a + b), a), np.where(live, np.sqrt(a * b), b),
                   np.where(live, c * c / (2.0 * (a + b)), 0.0))
        levels.append((a, c))
    return levels


def _sn_cn(u, levels) -> tuple:
    """Jacobi ``sn(u | m)`` and ``cn(u | m)`` by the AGM recursion of Cephes'
    ``ellpj``, for ``u`` of shape (rows, points) against per-row levels."""
    phi = u * (2.0 ** (len(levels) - 1) * levels[-1][0])
    for a, c in reversed(levels[1:]):
        phi = 0.5 * (np.arcsin(c * np.sin(phi) / a) + phi)
    return np.sin(phi), np.cos(phi)


def effective_kerr_phase(p_in: float, delta_k: float, kappa: float, length: float) -> float:
    """Analytic cascade phase in the low-conversion, mismatched regime.

    Only valid for ``|delta_k * length| >= pi``; closer to phase matching
    direct conversion dominates and no clean phase shift exists.
    """
    if not math.isfinite(p_in) or p_in < 0.0:
        raise DomainError(f"power must be >= 0, got {p_in}")
    if not (math.isfinite(delta_k) and math.isfinite(kappa) and math.isfinite(length)):
        raise DomainError(
            f"delta_k, kappa and length must be finite, got {delta_k}, {kappa}, {length}"
        )
    x = delta_k * length
    if abs(x) < math.pi:
        raise ValidityError(
            f"|delta_k * L| = {abs(x):.4f} < pi: outside cascade-phase validity"
        )
    sinc_x = math.sin(x) / x
    return -(kappa**2 * p_in * length / delta_k) * (1.0 - sinc_x)


_Orbit = namedtuple("_Orbit", "shape s w_b w_c elliptic levels quarter periods rest folded "
                              "residual")  # the input shape, then (rows, 1) arrays


def _orbit(p_in, delta_k, kappa: float, length: float) -> _Orbit:
    """Checks a pass's inputs and sets up each row's orbit from the closed form
    above, down to the ``rest`` of ``zeta / sqrt(w_b)`` after whole periods 2K
    of ``sn^2``, folded at ``quarter`` = K, and ``w`` there, the ``residual``."""
    if length <= 0.0 or not math.isfinite(length):
        raise DomainError(f"length must be positive, got {length}")
    if not math.isfinite(kappa):
        raise DomainError(f"kappa must be finite, got {kappa}")
    p, dk = np.broadcast_arrays(np.asarray(p_in, dtype=float), np.asarray(delta_k, dtype=float))
    if not np.all(np.isfinite(p) & (p >= 0.0)):
        raise DomainError(f"power must be >= 0, got {p_in}")
    if not p.size:
        raise DomainError("the cascade needs at least one row")
    if not np.all(np.isfinite(dk)):
        raise DomainError(f"delta_k must be finite, got {delta_k}")
    g = abs(kappa) * np.sqrt(p.reshape(-1, 1))
    dk = dk.reshape(-1, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = dk / g
        x = s * s / 8.0  # q - 1
        root = np.sqrt(x) * np.sqrt(x + 2.0)  # sqrt(q^2 - 1)
        w_b = 1.0 / (1.0 + x + root)
        w_c = (x + root) * w_b  # 1 - w_b, without cancellation
    # No coupling leaves w_b 0 or NaN; a mismatch too small to square
    # leaves w_c 0, and the row is phase matched: w = tanh^2(zeta), no phase.
    elliptic = (w_b > 0.0) & (w_c > 0.0)
    matched = (g > 0.0) & (w_c == 0.0)
    s = np.where(elliptic, s, 0.0)
    w_b, w_c = np.where(elliptic, w_b, 0.5), np.where(elliptic, w_c, 0.5)
    zeta, levels = g * length, _agm(w_b, w_c)
    quarter = 0.5 * math.pi / levels[-1][0]  # K
    u_end = zeta / np.sqrt(w_b)
    # u_end = 2K periods + rest, and sn^2 is even about K: a rest past K is
    # folded to 2K - rest, and sn^2(u_end) is sn^2 of the folded rest.
    periods = np.floor(u_end / (2.0 * quarter))
    rest = u_end - periods * (2.0 * quarter)
    folded = rest > quarter
    rest = np.where(folded, 2.0 * quarter - rest, rest)
    sn = _sn_cn(rest, levels)[0]
    residual = np.where(elliptic, w_b * sn * sn, np.where(matched, np.tanh(zeta) ** 2, 0.0))
    return _Orbit(p.shape, s, w_b, w_c, elliptic, levels, quarter, periods, rest, folded, residual)


def single_pass_conversion(p_in, delta_k, kappa: float, length: float) -> np.ndarray:
    """Harmonic power fraction ``w`` after one crystal pass, exactly, in the
    broadcast shape of ``p_in`` and ``delta_k`` (np.float64 for scalars): the
    bits of ``extract_cascade_result(...).residual_conversion`` without the
    phase quadrature.  Raises :class:`DomainError` as that function does."""
    orbit = _orbit(p_in, delta_k, kappa, length)
    return orbit.residual.reshape(orbit.shape)[()]


def extract_cascade_result(p_in, delta_k, kappa: float, length: float) -> CascadeResult:
    """Nonlinear phase and residual conversion of one crystal pass, exactly.

    ``p_in`` and ``delta_k`` broadcast, and both fields have one entry per
    row in that shape (np.float64 for scalars); each row's orbit (``s``,
    ``w_b`` and the AGM levels of ``m = w_b^2``) follows the closed form above.
    In the interaction picture the linear phase is exactly zero, so the
    nonlinear phase is the phase of the output fundamental.  Raises :class:`DomainError`
    for zero rows, a negative or non-finite power, a non-finite ``kappa`` or
    ``delta_k``, or a length that is not positive.
    """
    orbit = _orbit(p_in, delta_k, kappa, length)
    quarter, rest, w_b = orbit.quarter, orbit.rest, orbit.w_b
    nodes, weights = _gauss_legendre()
    sn, cn = _sn_cn(np.concatenate((quarter * nodes, rest * nodes), axis=1), orbit.levels)
    w = w_b * sn * sn
    integrand = w / (orbit.w_c + w_b * cn * cn)  # w / (1 - w), without cancellation near w_b = 1
    n = len(nodes)
    over_quarter = quarter * np.sum(weights * integrand[:, :n], axis=1, keepdims=True)
    over_rest = rest * np.sum(weights * integrand[:, n:], axis=1, keepdims=True)
    # A folded rest's integral is the whole period's less the folded part.
    integral = 2.0 * orbit.periods * over_quarter + np.where(
        orbit.folded, 2.0 * over_quarter - over_rest, over_rest)
    nl_phase = np.where(orbit.elliptic, -0.5 * orbit.s * np.sqrt(w_b) * integral, 0.0)
    nl_phase = (nl_phase + math.pi) % (2.0 * math.pi) - math.pi  # wrapped into [-pi, pi)
    return CascadeResult(nl_phase.reshape(orbit.shape)[()], orbit.residual.reshape(orbit.shape)[()])
