"""Modulus of convexity and strict-convexity testing.

The modulus ``delta(eps) = inf {1 - ||b1 + b2||/2 : ||b1 - b2|| >= eps}`` is
computed by a coarse grid over sphere pairs followed by a golden-section
refinement along the active constraint ``||b1 - b2|| = eps``; for spheres
with flat faces the infimum 0 is recognised exactly and returned without
refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import Norm, radial_points_vec, radial_vec
from .numerics import TWO_PI, bisect_first_true, golden_max

__all__ = ["ModulusCurve", "modulus_of_convexity", "modulus_curve",
           "is_strictly_convex"]


def _pair_grids(norm: Norm, resolution: int):
    res = resolution + (resolution % 2)
    thetas = np.linspace(0.0, TWO_PI, res, endpoint=False)
    pts = radial_points_vec(norm, thetas)
    diff = pts[:, None, :] - pts[None, :, :]
    chords = norm(diff.reshape(-1, 2)).reshape(res, res)
    sums = norm((pts[:, None, :] + pts[None, :, :]).reshape(-1, 2)).reshape(res, res)
    return thetas, chords, sums


def _partner_at_chord(norm: Norm, theta: float, eps: float, side: float) -> np.ndarray:
    """Sphere point at chordal distance ``eps`` from ``s(theta)``, on one side.

    The chord grows monotonically from 0 to 2 along the half circle, so the
    first crossing is found by predicate bisection.
    """
    base = radial_vec(norm, theta)

    def big_enough(t: float) -> bool:
        return float(norm(base - radial_vec(norm, theta + side * t))) >= eps - 1e-12

    t = bisect_first_true(big_enough, 0.0, math.pi, xtol=1e-13)
    return radial_vec(norm, theta + side * t)


def _refined_sum(norm: Norm, thetas: np.ndarray, sums: np.ndarray,
                 feasible: np.ndarray, chord: float) -> float:
    """Largest ``||b1 + b2||`` on the constraint ``||b1 - b2|| = chord``.

    Golden-section search over ``b1`` near the best feasible grid pair, with
    ``b2`` kept on the same side of ``b1`` as in that pair.
    """
    i, j = np.unravel_index(int(np.argmax(np.where(feasible, sums, -np.inf))),
                            sums.shape)
    step = float(thetas[1] - thetas[0])
    gap = (thetas[j] - thetas[i]) % TWO_PI
    side = 1.0 if gap <= math.pi else -1.0

    def objective(theta: float) -> float:
        b1 = radial_vec(norm, theta)
        b2 = _partner_at_chord(norm, theta, chord, side)
        return float(norm(b1 + b2))

    _, refined = golden_max(objective, float(thetas[i]) - 2 * step,
                            float(thetas[i]) + 2 * step)
    return refined


def modulus_of_convexity(norm: Norm, eps: float, resolution: int = 512,
                         *, refine: bool = True) -> float:
    """``delta(eps)`` for a 2D norm, accurate to roughly 1e-4 at the default grid."""
    if not (0.0 < eps <= 2.0):
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    if norm.dim != 2:
        raise ValueError("the optimisation grid works on 2D spheres")
    thetas, chords, sums = _pair_grids(norm, resolution)
    feasible = chords >= eps - 1e-12
    best = float(sums[feasible].max())
    if best >= 2.0 - 1e-12:
        return 0.0
    if refine:
        best = max(best, _refined_sum(norm, thetas, sums, feasible, eps))
    return max(0.0, 1.0 - 0.5 * best)


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

    Grid pairs at chordal distance >= ``separation`` are scanned for midpoint
    norms reaching 1; the best candidate is refined on the constraint
    ``chord = separation`` before deciding.  The separation floor keeps
    high-order but strictly convex contact (a p-norm sphere at an axis point
    has third-order flatness) above the detection threshold.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    if norm.dim != 2:
        raise ValueError("the midpoint scan works on 2D spheres")
    thetas, chords, sums = _pair_grids(norm, resolution)
    feasible = chords >= separation
    mid_best = 0.5 * float(sums[feasible].max())
    if mid_best >= 1.0 - threshold:
        return False
    refined = 0.5 * _refined_sum(norm, thetas, sums, feasible, separation)
    return max(mid_best, refined) < 1.0 - threshold
