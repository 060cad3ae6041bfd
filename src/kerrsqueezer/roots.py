"""Bracketed root finding over a whole array of brackets at once.

:func:`newton` is Newton's method kept inside a bracket, for functions whose
slope comes in closed form: the cavity's steady states, its lock and the
tan x = x roots of :mod:`phasematch` solve with it.  Each pass steps every
unconverged element once, and each element stops on its own, so its root
does not depend on the array it is solved in.  The tests check its roots
against scipy's Brent and against a bisection to adjacent floats; the
package needs nothing from scipy at run time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError

__all__ = ["newton"]

RTOL_MIN = 4 * 2.220446049250313e-16  # four machine epsilons
MAXITER = 100  # step cap of the steady states and tan x = x


def newton(f: Callable, x0, neg, pos, xtol: float, rtol: float, maxiter: int,
           what: str) -> np.ndarray:
    """Roots of ``f`` by Newton's method from ``x0``, each inside its bracket ``neg``, ``pos``.

    ``f(x, index)`` gets the iterates of the elements at positions ``index``
    and returns their values and slopes.  The 1-D arrays ``neg`` and ``pos``
    are ends with ``f(neg) <= 0 <= f(pos)``, in either order; each iterate
    replaces the end of its sign, ``pos`` where ``f > 0``.  An iterate where
    ``f = 0`` stays.  A step that leaves the open bracket bisects it; a zero
    slope gives an inf or NaN step, which bisects too.  An element stops on
    its own, at the point it stepped to, once the step is at most ``xtol +
    rtol * |x|``, so its root is the same in any array.  Raises
    :class:`NumericalError`, its message led by ``what``, for the elements
    not stopped in ``maxiter`` steps.

    Next to a double root, where the slope vanishes with the value, Newton
    converges only linearly: a steady state whose target lies within a few
    ulps of a fold's height took up to 42 passes over 3,000 random cavities,
    where a normal call takes 3-5, against a cap of 100.  The step stays
    plain there: a safeguarded step would also change the last bits of the
    roots it finds now, fig3's profiles among them.
    """
    x = np.array(x0, dtype=float)
    neg, pos = np.array(neg, dtype=float), np.array(pos, dtype=float)
    live, steps = np.arange(x.size), 0
    while live.size:
        if (steps := steps + 1) > maxiter:
            raise NumericalError(f"{what} did not converge in {maxiter} Newton steps "
                                 f"for {live.size} row(s)")
        q = x[live]
        value, slope = f(q, live)
        up = value > 0.0
        pos[live], neg[live] = np.where(up, q, pos[live]), np.where(up, neg[live], q)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.where(value == 0.0, q, q - value / slope)
        a, b = neg[live], pos[live]
        inside = (np.minimum(a, b) < step) & (step < np.maximum(a, b)) | (step == q)
        x[live] = step = np.where(inside, step, 0.5 * (a + b))
        live = live[~(np.abs(q - step) <= xtol + rtol * np.abs(q))]
    return x
