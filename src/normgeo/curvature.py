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

from .norms import Norm, _number, radial_points_vec
from .numerics import TWO_PI, bracket_search, fit_quadratic, loglog_slope

__all__ = [
    "ClosedCurve", "CurvatureEstimate", "TwoPointConditionError",
    "circle_curve", "ellipse_curve", "sphere_curve",
    "normed_curvature", "corner_ratio", "DEFAULT_DELTAS",
]

DEFAULT_DELTAS: tuple[float, ...] = tuple(0.1 * 2.0 ** (-k) for k in range(8))
# Curve parameters over one period on which each radius's two crossings are
# bracketed before they are searched down to adjacent floats.
_GRID = 4096
# Ratios within this of 0 over the whole schedule are a straight piece.  The
# ratios of a curvature k tend to k^2 / 4, so curvatures below 2 sqrt(1e-5),
# 6.3e-3, read as 0.
_ZERO_RATIO = 1e-5
# A fitted limit below this is a negative radicand, not the fit noise of a
# nearly flat point, and gives no curvature.
_NEGATIVE_LIMIT = -1e-9


@dataclass(frozen=True)
class ClosedCurve:
    """A closed parametric curve ``t -> R^2`` with the given period."""

    fn: Callable[[np.ndarray], np.ndarray]
    period: float = TWO_PI

    def __post_init__(self):
        if not 0.0 < self.period < math.inf:  # also rejects NaN
            raise ValueError(f"period must be finite and positive, got {self.period!r}")

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


def _points_at_distances(ambient: Norm, curve: ClosedCurve, t0: float, deltas):
    """``curve(t0)`` and, for each radius of ``deltas``, the two curve points
    at that ambient distance from it, as rows of ``a`` and ``b``.

    Sign changes of ``||x - curve(t)|| - delta`` are counted on ``_GRID``
    parameters over one period from ``t0``; a radius with other than
    exactly two is an error, and the first such radius in the schedule is
    the one named.  All the brackets, two per radius, are then searched
    together down to adjacent floats, so that straight pieces yield exactly
    additive chords; the search gives each bracket bit for bit what it
    gives alone.
    """
    # exact for t0 in [0, period); from a large t0 the grid would keep only
    # the parameter's own ulp
    t0 = t0 % curve.period
    x = curve.point(t0)
    ts = t0 + np.linspace(0.0, curve.period, _GRID, endpoint=False)
    level = np.asarray(deltas, dtype=float)[:, None]
    sign_lo = ambient(curve.points(ts) - x) - level < 0.0
    changes = sign_lo != np.roll(sign_lo, -1, axis=1)
    counts = changes.sum(axis=1)
    if (counts != 2).any():
        r = int(np.argmax(counts != 2))
        raise TwoPointConditionError(float(level[r, 0]), int(counts[r]))
    rows, crossings = np.nonzero(changes)  # two per radius, in schedule order
    below, level = sign_lo[rows, crossings, None], level[rows]

    def crossed(t: np.ndarray, at: np.ndarray):
        gap = ambient(curve.points(t.ravel()) - x).reshape(t.shape) - level[at]
        return (gap < 0.0) != below[at], np.where(below[at], gap, -gap)

    # each crossing between the grid nodes whose signs differ
    ends = np.append(ts, ts[0] + curve.period)
    lo, hi = bracket_search(crossed, ends[crossings], ends[crossings + 1], xtol=0.0)
    points = curve.points(0.5 * (lo + hi))
    return x, points[0::2], points[1::2]


def _finite(value, name: str) -> float:
    t = _number(value, name)
    if not math.isfinite(t):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return t


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
                     deltas=DEFAULT_DELTAS) -> CurvatureEstimate:
    """Curvature of ``curve`` at ``curve(t0)`` measured with ``ambient``.

    The schedule must be strictly decreasing and small enough that every
    distance sphere meets the curve exactly twice.  Ratios below
    ``_ZERO_RATIO`` across the whole schedule are treated as exactly flat.
    Every radius is searched in one bracket search.

    Raises ``ValueError`` naming ``deltas`` when the schedule is empty, not
    strictly decreasing or has a radius that is not finite and positive, and
    naming ``t0`` when it is not finite; ``TwoPointConditionError`` names
    the first radius whose sphere does not meet the curve exactly twice.
    """
    try:
        ds = [float(d) for d in deltas]
    except (TypeError, ValueError):
        raise ValueError(f"deltas must be numbers, got {deltas!r}") from None
    if not all(0.0 < d < math.inf for d in ds):
        raise ValueError(f"deltas must be finite and positive, got {ds!r}")
    if any(b >= a for a, b in zip(ds, ds[1:])) or not ds:
        raise ValueError(f"the deltas schedule must be strictly decreasing, got {ds!r}")
    x, a, b = _points_at_distances(ambient, curve, _finite(t0, "t0"), ds)
    dists, chords = ambient(x - a).tolist(), ambient(a - b).tolist()
    ratios = [(delta, (2.0 * d - chord) / d ** 3) for delta, d, chord in zip(ds, dists, chords)]
    rvals = np.asarray([r for _, r in ratios])
    darr = np.asarray(ds)

    # flatness first: on a straight piece the rounding noise in the ratios
    # grows like d^-3 and would pass the divergence test below
    if np.abs(rvals).max() <= _ZERO_RATIO:
        return CurvatureEstimate(0.0, tuple(ratios), 0.0,
                                 float(np.abs(rvals).max()), False, False)
    tail = rvals[-4:]
    divergent = bool(np.all(tail > 0.0)
                     and loglog_slope(darr[-4:], tail) < -0.5)
    if divergent:
        return CurvatureEstimate(math.inf, tuple(ratios), None,
                                 float("nan"), True, False)
    limit, _, _, resid = fit_quadratic(darr, rvals)
    if limit < _NEGATIVE_LIMIT:
        return CurvatureEstimate(None, tuple(ratios), limit, resid, False, True)
    value = 2.0 * math.sqrt(max(limit, 0.0))
    return CurvatureEstimate(value, tuple(ratios), limit, resid, False, False)


def corner_ratio(norm: Norm, theta: float) -> float:
    """Limit of ``||a - a'|| / delta`` on the norm's own sphere at angle ``theta``.

    Equals 2 at smooth sphere points; a corner pulls the limit strictly
    below 2.  The extrapolated value is clipped to [0, 2].  The radii are
    ``DEFAULT_DELTAS``, all searched in one bracket search; a ``theta`` that
    is not finite raises ``ValueError``.
    """
    curve = sphere_curve(norm)
    x, a, b = _points_at_distances(norm, curve, _finite(theta, "theta"), DEFAULT_DELTAS)
    qs = norm(a - b) / norm(x - a)
    intercept, _, _, _ = fit_quadratic(np.asarray(DEFAULT_DELTAS), qs)
    return float(min(2.0, max(0.0, intercept)))
