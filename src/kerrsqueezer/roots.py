"""Bracketed scalar root finding.

:func:`brentq` is Brent's method (R. P. Brent, *Algorithms for Minimization
Without Derivatives*, 1973, ch. 4) in the formulation of the C routine behind
``scipy.optimize.brentq``: the same iteration, the same order of floating-point
operations and the same input checks, so it returns the same float for the
same bracket.  The package needs nothing else from scipy at run time.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["brentq"]

RTOL_MIN = 4 * 2.220446049250313e-16  # four machine epsilons
MAXITER = 100  # scipy's default iteration limit


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the sign-changing bracket ``[a, b]``.

    The result ``x`` satisfies ``|x - x0| <= xtol + rtol * |x|`` for a root
    ``x0`` of ``f``.  Raises ``ValueError`` for ``xtol <= 0``, ``rtol <
    RTOL_MIN``, ``f(a)`` and ``f(b)`` of the same sign, or a NaN value of
    ``f``, and ``RuntimeError`` when ``MAXITER`` iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")

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
