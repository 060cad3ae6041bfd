"""Bracketed root finding, one bracket or a whole array of them.

:func:`brentq` is Brent's method (R. P. Brent, *Algorithms for Minimization
Without Derivatives*, 1973, ch. 4) in the formulation of the C routine behind
``scipy.optimize.brentq``: the same iteration, the same order of floating-point
operations and the same input checks, so it returns the same float for the
same bracket.  The package needs nothing else from scipy at run time.

Float brackets run the scalar loop.  1-D array brackets run a lockstep loop
that advances every unconverged bracket by one Brent iteration per pass, with
the same operations in the same order, so each element is bit for bit the root
the scalar loop (and scipy) finds on that element's bracket.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["brentq"]

RTOL_MIN = 4 * 2.220446049250313e-16  # four machine epsilons
MAXITER = 100  # scipy's default iteration limit


def brentq(f: Callable, a, b, xtol: float, rtol: float):
    """Root of ``f`` in the sign-changing bracket ``[a, b]``.

    The result ``x`` satisfies ``|x - x0| <= xtol + rtol * |x|`` for a root
    ``x0`` of ``f``.  Raises ``ValueError`` for ``xtol <= 0``, ``rtol <
    RTOL_MIN``, ``f(a)`` and ``f(b)`` of the same sign, or a NaN value of
    ``f``, and ``RuntimeError`` when ``MAXITER`` iterations do not converge.

    For 1-D arrays ``a`` and ``b``, ``f(x, index)`` gets the trial points of
    the brackets at positions ``index`` and returns their values; the result
    is the array of roots.  A bracket that fails raises what the scalar call
    on it raises, with the same message.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    if np.ndim(a):
        return _lockstep(f, a, b, xtol, rtol)

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # The values compared by sign are never zero or NaN (a zero fcur returns
    # below), so ``< 0`` is their sign bit.
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # In IEEE arithmetic the quotient is inf or NaN, and either
                # fails the step test below, so the iteration bisects.
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")


def _lockstep(f: Callable, a, b, xtol: float, rtol: float) -> np.ndarray:
    """The scalar loop of :func:`brentq` run elementwise over 1-D brackets.

    Each pass computes both trial steps for every live bracket and keeps the
    one the scalar loop would take; a division by zero gives inf or NaN,
    which fails the step test exactly as the scalar ``ZeroDivisionError``
    path does.  Converged brackets leave the live set, so ``f`` only sees
    the brackets still iterating.
    """
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
    if np.any(live & ((fpre < 0.0) == (fcur < 0.0))):
        raise ValueError("f(a) and f(b) must have different signs")
    if not live.any():
        return roots
    index, xpre, xcur, fpre, fcur = (v[live] for v in (index, xpre, xcur, fpre, fcur))
    xblk, fblk, spre, scur = (np.zeros_like(xpre) for _ in range(4))
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
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            roots[index[done]] = xcur[done]
            live = ~done
            if not live.any():
                return roots
            index, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[live] for v in (index, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                  delta, sbis))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # interpolate
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            # extrapolate
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            inverse_quadratic = (-fcur * (fblk * dblk - fpre * dpre)
                                 / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, secant, inverse_quadratic)
        bound = 3 * np.abs(sbis) - delta
        # good short step
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.where(np.abs(spre) < bound, np.abs(spre), bound)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = value(xcur, index)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
