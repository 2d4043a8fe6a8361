"""Modulus of convexity and strict-convexity testing.

In a normed plane ``delta(eps) = inf {1 - ||b1 + b2||/2 : ||b1 - b2|| >= eps}``
is reached at ``||b1 - b2|| = eps`` (Figiel 1976), and the chord from ``b1``
grows monotonically along either half circle, so each ``b1`` has one partner
``b2`` per side and ``delta`` is a 1-D search over the angle of ``b1``.  Flat
faces reach the sum 2 and give exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import Norm, radial_points_vec
from .numerics import TWO_PI

__all__ = ["ModulusCurve", "modulus_of_convexity", "modulus_curve",
           "is_strictly_convex"]

# Lockstep halvings of [0, pi]: pi / 2**45 = 8.9e-14 < 1e-13 in angle.
_HALVINGS = 45
# A sum this close to 2 is a midpoint on the sphere: delta is exactly 0.  The
# margin also keeps a face exactly eps long, whose far vertex the bisection
# may overshoot by 1e-13 when rounding puts its chord just below eps.
_FLAT_FLOOR = 2.0 - 1e-12
# The first grid has 8 * resolution angles, both sides, so that the best grid
# angle lies within a step of the global maximum.  Each zoom takes 65 angles
# over one step either side of the best 4 (a step 32 times finer).  Two zooms
# bring a smooth maximum within 1e-12, but a polygon's sum peaks on a kink
# (the partner at a vertex) and errs by about the step: five zooms leave
# 2pi / (8 * resolution * 32**5), 4.5e-11 at the default resolution.
_GRID_MULTIPLE, _CANDIDATES, _ZOOM_POINTS, _ZOOMS = 8, 4, 65, 5
# 8 * 64 first-grid angles still give the closed forms within 1e-13.
_MIN_RESOLUTION = 64


def _checked_resolution(norm: Norm, name: str, chord: float, resolution) -> int:
    if not (0.0 < chord <= 2.0):  # also rejects NaN
        raise ValueError(f"{name} must lie in (0, 2], got {chord}")
    if norm.dim != 2:
        raise ValueError("the partner search works on 2D spheres")
    if (isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer))
            or resolution < _MIN_RESOLUTION):
        raise ValueError(f"resolution must be an integer >= {_MIN_RESOLUTION}, "
                         f"got {resolution!r}")
    return int(resolution)


def _partner_sums(norm: Norm, eps: float, thetas: np.ndarray,
                  sides: np.ndarray) -> np.ndarray:
    """``||x + y||`` for ``x = s(theta)`` and ``y = s(theta + side * t)``, ``t``
    the first point of ``[0, pi]`` whose chord ``||x - y||`` reaches ``eps``.

    All brackets are halved in lockstep, two batched norm calls per halving.
    """
    x = radial_points_vec(norm, thetas)
    lo, hi = np.zeros_like(thetas), np.full_like(thetas, math.pi)
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        far = norm(x - radial_points_vec(norm, thetas + sides * mid)) >= eps
        lo, hi = np.where(far, lo, mid), np.where(far, mid, hi)
    return norm(x + radial_points_vec(norm, thetas + sides * hi))


def _best_sum(norm: Norm, eps: float, resolution: int) -> float:
    """Largest ``||b1 + b2||`` over sphere pairs with ``||b1 - b2|| = eps``."""
    count = _GRID_MULTIPLE * resolution
    step = TWO_PI / count
    thetas = np.tile(np.arange(count) * step, 2)
    sides = np.repeat([1.0, -1.0], count)
    sums = _partner_sums(norm, eps, thetas, sides)
    best = float(sums.max())
    for _ in range(_ZOOMS):
        if best >= _FLAT_FLOOR:
            break
        top = np.argpartition(sums, -_CANDIDATES)[-_CANDIDATES:]
        thetas = (thetas[top, None] + np.linspace(-step, step, _ZOOM_POINTS)).ravel()
        sides = np.repeat(sides[top], _ZOOM_POINTS)
        step *= 2.0 / (_ZOOM_POINTS - 1)
        sums = _partner_sums(norm, eps, thetas, sides)
        best = max(best, float(sums.max()))
    return best


def modulus_of_convexity(norm: Norm, eps: float, resolution: int = 512) -> float:
    """``delta(eps)`` for a 2D norm; exactly 0 where a flat face holds ``eps``.

    At the default ``resolution``, for ``eps < 2``: within 1e-13 of the closed
    forms of the round, l_3 and l_1.5 spheres and their linear images, and
    within 1.5e-11 on hexagon images (the sum peaks on a kink).  At ``eps = 2``,
    where
    ``delta`` is not Lipschitz, rounding in the chord leaves 7.3e-6 on l_3.
    """
    best = _best_sum(norm, eps, _checked_resolution(norm, "eps", eps, resolution))
    return 0.0 if best >= _FLAT_FLOOR else 1.0 - 0.5 * best


@dataclass(frozen=True)
class ModulusCurve:
    """Sampled modulus of convexity ``(eps, delta(eps))``."""

    norm_kind: str
    samples: tuple[tuple[float, float], ...]

    def epsilons(self) -> np.ndarray:
        return np.asarray([e for e, _ in self.samples])

    def deltas(self) -> np.ndarray:
        return np.asarray([d for _, d in self.samples])

    def to_json(self) -> dict:
        return {"norm": self.norm_kind,
                "samples": [[e, d] for e, d in self.samples]}


def modulus_curve(norm: Norm, eps_values, resolution: int = 512) -> ModulusCurve:
    vals = [(float(e), modulus_of_convexity(norm, float(e), resolution))
            for e in eps_values]
    return ModulusCurve(norm.kind, tuple(vals))


def is_strictly_convex(norm: Norm, resolution: int = 512,
                       *, separation: float = 5e-3,
                       threshold: float = 1e-10) -> bool:
    """True when no two distinct sphere points have a midpoint on the sphere.

    Decided as ``delta(separation) > threshold`` by the modulus search.  The
    separation floor keeps high-order but strictly convex contact (a p-norm
    sphere at an axis point has third-order flatness) above the detection
    threshold.
    """
    resolution = _checked_resolution(norm, "separation", separation, resolution)
    return 1.0 - 0.5 * _best_sum(norm, separation, resolution) > threshold
