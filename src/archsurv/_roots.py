"""Brent's scalar root finder and bounded minimizer (Brent 1973, *Algorithms
for Minimization without Derivatives*, ch. 4-5), in plain Python floats.

`brentq` follows scipy's `brentq.c` step for step and `minimize_bounded`
follows `scipy.optimize._optimize._minimize_scalar_bounded`, so both take the
same iterates and the same number of function evaluations as those routines.
The package's estimates, and the evaluation counts it records, therefore do
not depend on whether scipy is installed; the tests compare both routines
with scipy's.
"""

from __future__ import annotations

import math
import sys

from .errors import NoRootError

RTOL_MIN = 4 * sys.float_info.epsilon


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def brentq(f, a, b, xtol, rtol=RTOL_MIN, maxiter=100):
    """Root of f on the bracket [a, b] as (root, function_calls).

    The root x0 satisfies |x - x0| <= xtol + rtol * |x0| for the exact root x.
    Raises NoRootError if f(a) and f(b) have the same sign, if f returns NaN,
    or if `maxiter` iterations do not converge.
    """
    calls = 0

    def call(x):
        nonlocal calls
        fx = float(f(x))
        calls += 1
        if math.isnan(fx):
            raise NoRootError(f"f({x!r}) is NaN; the root search cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre, calls
    if fcur == 0:
        return xcur, calls
    if _signbit(fpre) == _signbit(fcur):
        raise NoRootError(f"f({a!r}) = {fpre:.4g} and f({b!r}) = {fcur:.4g} have the same sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, calls

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NoRootError(f"no convergence in {maxiter} iterations (last x = {xcur!r})")


def minimize_bounded(f, lo, hi, xatol, maxiter=500):
    """Minimum of f on [lo, hi] by golden section with parabolic steps, as
    (x, f(x)); the search stops once x is known to within about `xatol`, or
    after `maxiter` evaluations."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"bounds must be finite with lo <= hi, got ({lo}, {hi})")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx
