"""Curvature of a planar curve measured with an arbitrary norm.

At a curve point ``x`` the two curve points ``a, a'`` at norm-distance
``delta`` define the ratio ``r(delta) = (2 d - ||a - a'||) / d^3`` with
``d = ||x - a||``; the curvature is ``2 sqrt(lim r)``.  The limit is taken
by fitting ``r = L + c1 d + c2 d^2`` on a geometric schedule, with explicit
detection of divergence (corner in a foreign norm) and of identically flat
configurations (straight pieces measured in a compatible norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .norms import Norm, radial_points_vec
from .numerics import TWO_PI, bisect_root_tight, fit_quadratic, loglog_slope

__all__ = [
    "ClosedCurve", "CurvatureEstimate", "TwoPointConditionError",
    "circle_curve", "ellipse_curve", "sphere_curve",
    "normed_curvature", "corner_ratio", "DEFAULT_DELTAS",
]

DEFAULT_DELTAS: tuple[float, ...] = tuple(0.1 * 2.0 ** (-k) for k in range(8))


@dataclass(frozen=True)
class ClosedCurve:
    """A closed parametric curve ``t -> R^2`` with the given period."""

    fn: Callable[[np.ndarray], np.ndarray]
    period: float = TWO_PI

    def points(self, ts) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_1d(np.asarray(ts, dtype=float))))

    def point(self, t: float) -> np.ndarray:
        return self.points([t])[0]


def circle_curve(radius: float = 1.0, center=(0.0, 0.0)) -> ClosedCurve:
    cx, cy = float(center[0]), float(center[1])

    def fn(ts):
        return np.column_stack([cx + radius * np.cos(ts), cy + radius * np.sin(ts)])

    return ClosedCurve(fn)


def ellipse_curve(a: float, b: float, center=(0.0, 0.0)) -> ClosedCurve:
    cx, cy = float(center[0]), float(center[1])

    def fn(ts):
        return np.column_stack([cx + a * np.cos(ts), cy + b * np.sin(ts)])

    return ClosedCurve(fn)


def sphere_curve(norm: Norm) -> ClosedCurve:
    """The unit sphere of a 2D norm as a closed curve."""
    if norm.dim != 2:
        raise ValueError("sphere_curve requires a 2D norm")
    return ClosedCurve(lambda ts: radial_points_vec(norm, ts))


class TwoPointConditionError(ValueError):
    """The level set ``curve ∩ (x + delta S)`` did not have exactly two points."""

    def __init__(self, delta: float, count: int):
        super().__init__(
            f"distance sphere of radius {delta} meets the curve in {count} "
            "bracketed points, expected exactly 2")
        self.delta = delta
        self.count = count


def _two_points_at_distance(ambient: Norm, curve: ClosedCurve, t0: float,
                            delta: float, grid: int = 4096):
    """The two curve points at ambient distance ``delta`` from ``curve(t0)``.

    Bracketed sign changes of ``||x - curve(t)|| - delta`` are counted on a
    dense grid; anything other than exactly two is an error.  Each bracket is
    then driven to the last representable midpoint so that straight pieces
    yield exactly additive chords.
    """
    x = curve.point(t0)
    ts = t0 + np.linspace(0.0, curve.period, grid, endpoint=False)
    vals = ambient(curve.points(ts) - x) - delta
    sign_lo = vals < 0.0
    crossings = [i for i in range(grid)
                 if sign_lo[i] != sign_lo[(i + 1) % grid]]
    if len(crossings) != 2:
        raise TwoPointConditionError(delta, len(crossings))
    step = curve.period / grid
    out = []
    for i in crossings:
        lo = float(ts[i])

        def f(t: float) -> float:
            return float(ambient(curve.point(t) - x)) - delta

        root = bisect_root_tight(f, lo, lo + step)
        out.append(curve.point(root))
    return x, out[0], out[1]


@dataclass(frozen=True)
class CurvatureEstimate:
    """Extrapolated curvature with its ratio sequence and quality flags.

    ``value`` is ``2 sqrt(limit)`` when the limit exists, ``inf`` for a
    divergent ratio sequence, and ``None`` when the fitted limit is negative
    beyond tolerance.
    """

    value: float | None
    ratios: tuple[tuple[float, float], ...]
    limit: float | None
    fit_residual: float
    divergent: bool
    negative_radicand: bool

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "divergent": self.divergent,
            "residual": self.fit_residual,
        }


def normed_curvature(ambient: Norm, curve: ClosedCurve, t0: float,
                     deltas=DEFAULT_DELTAS, *, grid: int = 4096,
                     zero_ratio_tol: float = 1e-5) -> CurvatureEstimate:
    """Curvature of ``curve`` at ``curve(t0)`` measured with ``ambient``.

    The schedule must be strictly decreasing and small enough that every
    distance sphere meets the curve exactly twice.  Ratios below
    ``zero_ratio_tol`` across the whole schedule are treated as exactly flat.
    """
    ds = [float(d) for d in deltas]
    if any(b >= a for a, b in zip(ds, ds[1:])) or not ds:
        raise ValueError("the delta schedule must be strictly decreasing")
    ratios = []
    for delta in ds:
        x, a, b = _two_points_at_distance(ambient, curve, t0, delta, grid)
        d = float(ambient(x - a))
        r = (2.0 * d - float(ambient(a - b))) / d ** 3
        ratios.append((delta, r))
    rvals = np.asarray([r for _, r in ratios])
    darr = np.asarray(ds)

    # flatness first: on a straight piece the rounding noise in the ratios
    # grows like d^-3 and would pass the divergence test below
    if np.abs(rvals).max() <= zero_ratio_tol:
        return CurvatureEstimate(0.0, tuple(ratios), 0.0,
                                 float(np.abs(rvals).max()), False, False)
    tail = rvals[-4:]
    divergent = bool(np.all(tail > 0.0)
                     and loglog_slope(darr[-4:], tail) < -0.5)
    if divergent:
        return CurvatureEstimate(math.inf, tuple(ratios), None,
                                 float("nan"), True, False)
    limit, _, _, resid = fit_quadratic(darr, rvals)
    if limit < -1e-9:
        return CurvatureEstimate(None, tuple(ratios), limit, resid, False, True)
    value = 2.0 * math.sqrt(max(limit, 0.0))
    return CurvatureEstimate(value, tuple(ratios), limit, resid, False, False)


def corner_ratio(norm: Norm, theta: float, deltas=DEFAULT_DELTAS,
                 *, grid: int = 4096) -> float:
    """Limit of ``||a - a'|| / delta`` on the norm's own sphere at angle ``theta``.

    Equals 2 at smooth sphere points; a corner pulls the limit strictly
    below 2.  The extrapolated value is clipped to [0, 2].
    """
    curve = sphere_curve(norm)
    qs = []
    ds = [float(d) for d in deltas]
    for delta in ds:
        x, a, b = _two_points_at_distance(norm, curve, float(theta), delta, grid)
        d = float(norm(x - a))
        qs.append(float(norm(a - b)) / d)
    intercept, _, _, _ = fit_quadratic(np.asarray(ds), np.asarray(qs))
    return float(min(2.0, max(0.0, intercept)))
