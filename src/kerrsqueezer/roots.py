"""Bracketed root finding over a whole array of brackets at once.

:func:`newton` is Newton's method kept inside a bracket, for functions whose
slope comes in closed form: the cavity's steady states and its lock solve
with it.  Each pass steps every unconverged element once, and each element
stops on its own, so its root does not depend on the array it is solved in.

:func:`brentq` is Brent's method (R. P. Brent, *Algorithms for Minimization
Without Derivatives*, 1973, ch. 4) in the formulation of the C routine behind
``scipy.optimize.brentq``: the same iteration, the same order of floating-point
operations and the same input checks.  It serves the tan x = x roots of
:mod:`phasematch` and is the tests' oracle of the Newton solves.  The
package needs nothing else from scipy at run time.  It takes 1-D array
brackets and runs one lockstep loop that advances every unconverged bracket
by one Brent iteration per pass, so each element is bit for bit the root
scipy finds on that element's bracket.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError

__all__ = ["brentq", "newton"]

RTOL_MIN = 4 * 2.220446049250313e-16  # four machine epsilons
MAXITER = 100  # scipy's default iteration limit


def brentq(f: Callable, a, b, xtol: float, rtol: float) -> np.ndarray:
    """Roots of ``f`` in the sign-changing 1-D array brackets ``[a, b]``.

    ``f(x, index)`` gets the trial points of the brackets at positions
    ``index`` and returns their values.  Each root ``x`` satisfies ``|x - x0|
    <= xtol + rtol * |x|`` for a root ``x0`` of its bracket.  Raises
    ``ValueError`` for brackets that are not 1-D arrays of equal length,
    ``xtol <= 0``, ``rtol < RTOL_MIN``, ``f(a)`` and ``f(b)`` of the same sign,
    or a NaN value of ``f``, and ``RuntimeError`` when ``MAXITER`` iterations
    do not converge; the messages are scipy's for the failing bracket.

    Each pass computes both trial steps for every live bracket and keeps the
    one scipy would take; a division by zero gives inf or NaN, which fails
    the step test, so the iteration bisects as scipy does.  Converged
    brackets leave the live set, so ``f`` only sees the brackets still
    iterating.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    xpre = np.array(a, dtype=float)
    xcur = np.array(b, dtype=float)
    if xpre.ndim != 1 or xpre.shape != xcur.shape:
        raise ValueError("array brackets must be 1-D and of equal length")
    roots = np.empty_like(xpre)
    if not len(roots):
        return roots
    index = np.arange(len(xpre))

    def value(x, index):
        fx = np.asarray(f(x, index), dtype=float)
        nan = np.isnan(fx)
        if nan.any():
            x_nan = float(x[np.argmax(nan)])
            raise ValueError(f"The function value at x={x_nan} is NaN; solver cannot continue.")
        return fx

    fpre = value(xpre, index)
    fcur = value(xcur, index)
    at_a = fpre == 0.0
    at_b = ~at_a & (fcur == 0.0)
    roots[at_a], roots[at_b] = xpre[at_a], xcur[at_b]
    live = ~(at_a | at_b)
    # The values compared by sign are never zero or NaN, so ``< 0`` is their
    # sign bit.
    if np.any(live & ((fpre < 0.0) == (fcur < 0.0))):
        raise ValueError("f(a) and f(b) must have different signs")
    if not live.any():
        return roots
    index, xpre, xcur, fpre, fcur = (v[live] for v in (index, xpre, xcur, fpre, fcur))
    # Rebound by np.where every pass, never written in place, so one array
    # serves all four.
    xblk = fblk = spre = scur = np.zeros_like(xpre)
    for _ in range(MAXITER):
        flip = (fpre < 0.0) != (fcur < 0.0)
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        step = xcur - xpre
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        abs_sbis = np.abs(sbis)
        done = (fcur == 0.0) | (abs_sbis < delta)
        if done.any():
            roots[index[done]] = xcur[done]
            live = ~done
            if not live.any():
                return roots
            index, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, abs_sbis = (
                v[live] for v in (index, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                  delta, sbis, abs_sbis))

        # dpre is scipy's (fpre - fcur) / (xpre - xcur): negating both sides
        # is exact, and where a zero's sign could differ the step test
        # already fails on |fcur| < |fpre|.
        dx, df = xcur - xpre, fcur - fpre
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # interpolate
            secant = -fcur * dx / df
            # extrapolate
            dpre = df / dx
            dblk = (fblk - fcur) / (xblk - xcur)
            inverse_quadratic = (-fcur * (fblk * dblk - fpre * dpre)
                                 / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, secant, inverse_quadratic)
        abs_spre = np.abs(spre)
        # good short step; spre is never NaN, so np.minimum picks as scipy's
        # comparison does
        short = ((abs_spre > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(abs_spre, 3 * abs_sbis - delta)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        # A live bracket has |sbis| >= delta > 0, so copysign is scipy's
        # ``sbis > 0 ? delta : -delta``.
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
        fcur = value(xcur, index)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")


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
