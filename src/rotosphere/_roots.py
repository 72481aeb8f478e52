"""Brent's root finder (Brent 1973, ch. 4), transcribed step for step from SciPy's C `brentq`."""

import math

_XTOL, _RTOL, _MAXITER = 2e-12, 4 * 2.0**-52, 100  # SciPy's defaults


def brentq(f, a, b):
    """SciPy's root of f in [a, b] at its default tolerances (bit for bit without FMA),
    or an endpoint where f is 0.
    ValueError on a same-sign bracket or a NaN of f, RuntimeError after _MAXITER steps."""
    def value(x):  # as in SciPy, a NaN of f stops the search at once
        if math.isnan(fx := float(f(x))):
            raise ValueError(f"f is NaN at {x}")
        return fx
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short and xpre == xblk:  # interpolate
            stry = -fcur * (xcur - xpre) / (fcur - fpre)
        elif short:  # extrapolate
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if short and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {_MAXITER} iterations, value is {xcur}")
