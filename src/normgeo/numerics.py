"""Small root-finding and fitting helpers used across the package."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                *, xtol: float = 1e-13, max_iter: int = 200) -> float:
    """Root of ``f`` on ``[lo, hi]``; the endpoint signs must differ.

    Works for nonincreasing and nondecreasing ``f`` alike.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    rising = flo < 0.0
    for _ in range(max_iter):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (f(mid) <= 0.0) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_root_tight(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection driven to the last representable midpoint."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    rising = flo < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if (f(mid) <= 0.0) == rising:
            lo = mid
        else:
            hi = mid


def bisect_first_true(pred: Callable[[float], bool], lo: float, hi: float,
                      *, xtol: float = 1e-13, max_iter: int = 200) -> float:
    """Boundary of a monotone predicate (False on ``lo`` side, True at ``hi``)."""
    if pred(lo):
        return lo
    if not pred(hi):
        raise ValueError("predicate is false on the whole interval")
    for _ in range(max_iter):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def golden_max(f: Callable[[np.ndarray], np.ndarray], a, b,
               *, max_iter: int = 90) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Golden-section maximisation of locally unimodal functions, bracket-wise.

    ``a`` and ``b`` are 1D arrays of bracket ends.  ``f`` maps an array of
    abscissae to the array of values; each step calls it once, on the live
    brackets only.  A bracket stops when its width falls below
    ``1e-14 * (1 + |a| + |b|)``, so every bracket gives bit for bit the
    result it gives alone.  Returns ``(x, f(x), converged)``, where
    ``converged`` is False for the brackets still open after ``max_iter``
    steps.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = np.asarray(f(x1), dtype=float)
    f2 = np.asarray(f(x2), dtype=float)

    def open_brackets():  # a NaN bracket stays open
        return ~(np.abs(b - a) < 1e-14 * (1.0 + np.abs(a) + np.abs(b)))

    for _ in range(max_iter):
        live = np.flatnonzero(open_brackets())
        if live.size == 0:
            break
        right = f1[live] < f2[live]
        up, down = live[right], live[~right]
        a[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        x2[up] = a[up] + _INVPHI * (b[up] - a[up])
        b[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x1[down] = b[down] - _INVPHI * (b[down] - a[down])
        fresh = f(np.where(right, x2[live], x1[live]))
        f2[up] = fresh[right]
        f1[down] = fresh[~right]
    first = f1 >= f2
    return np.where(first, x1, x2), np.where(first, f1, f2), ~open_brackets()


def fit_quadratic(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares fit ``y = c0 + c1*x + c2*x**2``.

    Returns ``(c0, c1, c2, rms_residual)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(x), x, x * x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return float(coef[0]), float(coef[1]), float(coef[2]), resid


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of log(y) against log(x); inputs must be positive."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
