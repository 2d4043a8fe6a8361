"""Modulus of convexity and strict-convexity testing.

In a normed plane ``delta(eps) = inf {1 - ||b1 + b2||/2 : ||b1 - b2|| >= eps}``
is reached at ``||b1 - b2|| = eps`` (Figiel 1976), and the chord from ``b1``
grows monotonically along either half circle, so each ``b1`` has one partner
``b2`` per side and ``delta`` is a 1-D search over the angle of ``b1``.  Flat
faces reach the sum 2 and give exactly 0.

Each partner is found by the same 45 lockstep halvings of ``[0, pi]``, but
most midpoints cost no norm call.  A cubic fit through partners already
found gives each angle a bracket ``[a, b]``, checked once at both ends: the
chord is below ``eps`` at ``a`` and at least ``eps`` at ``b``.  By
monotonicity a midpoint ``<= a`` is then short of ``eps`` and one ``>= b``
reaches it, so the halvings take the same steps and end on the same partner
as with a norm call at every midpoint.  An end whose check fails reverts to
0 or pi.  The first grid searches every 8th angle of each side in full and
fits the angles at stride 4, 2 and 1 from the coarser partners; every zoom
angle is fitted from the whole first grid.  The chord as computed is
monotone up to rounding, which can only reorder chords within about 1e-16 of
``eps``: that matters where the chord is flat at ``eps``, as at ``eps = 2``
(the antipode), so there every midpoint is evaluated.
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
# 2pi / (8 * resolution * 32**5), 4.5e-11 at the default resolution.  The
# multiple is a power of two: every 8th angle is searched in full, and the
# angles between are fitted at strides 4, 2 and 1.
_GRID_MULTIPLE, _CANDIDATES, _ZOOM_POINTS, _ZOOMS = 8, 4, 65, 5
# 8 * 64 first-grid angles still give the closed forms within 1e-13.
_MIN_RESOLUTION = 64
# Half-width of a fitted bracket: 1/16 of the larger 4th difference of the
# partners around it (a cubic fit errs by about 3/128 of it) plus 16 last
# halvings, the noise of the partners it is fitted to.  Both set only how many
# midpoints cost a norm call, never which partner is found.
_FIT_SHARE, _FIT_SLACK = 1.0 / 16.0, 16.0 * math.pi / 2.0 ** _HALVINGS


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


def _chords(norm: Norm, x: np.ndarray, thetas: np.ndarray, sides: np.ndarray,
            t) -> np.ndarray:
    """``||x - s(theta + side * t)||``, the chord to a partner candidate."""
    return norm(x - radial_points_vec(norm, thetas + sides * t))


def _partners(norm: Norm, eps: float, x: np.ndarray, thetas: np.ndarray,
              sides: np.ndarray, a, b) -> np.ndarray:
    """The first ``t`` of ``[0, pi]``, to the last halving, whose chord
    reaches ``eps``, for ``x = s(theta)``.

    All brackets are halved in lockstep.  The chord is known to be below
    ``eps`` at ``t <= a`` and at least ``eps`` at ``t >= b``, so only the
    midpoints strictly inside ``(a, b)`` cost a norm call.
    """
    lo, hi = np.zeros_like(thetas), np.full_like(thetas, math.pi)
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        far = mid >= b
        inside = np.flatnonzero((mid > a) ^ far)
        if inside.size:
            far[inside] = _chords(norm, x[inside], thetas[inside], sides[inside],
                                  mid[inside]) >= eps
        lo, hi = np.where(far, lo, mid), np.where(far, mid, hi)
    return hi


def _checked_partners(norm: Norm, eps: float, x: np.ndarray, thetas: np.ndarray,
                      sides: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_partners`` within brackets ``[a, b]`` whose ends are checked first.

    An end whose check fails reverts to 0 or pi, so a poor bracket costs norm
    calls but never changes a partner.  At ``eps = 2`` no bracket is used:
    the chord is flat at the antipode, where rounding breaks its monotonicity.
    """
    if eps == 2.0:
        return _partners(norm, eps, x, thetas, sides, 0.0, math.pi)
    a = np.where(_chords(norm, x, thetas, sides, a) < eps, a, 0.0)
    b = np.where(_chords(norm, x, thetas, sides, b) >= eps, b, math.pi)
    return _partners(norm, eps, x, thetas, sides, a, b)


def _fitted_partners(norm: Norm, eps: float, x: np.ndarray, thetas: np.ndarray,
                     sides: np.ndarray, table: np.ndarray, pos: np.ndarray
                     ) -> np.ndarray:
    """``_checked_partners`` in brackets around a cubic fit of ``table``.

    ``table`` holds known partners at equal angle steps, one periodic row per
    side (+1, then -1), and ``pos`` the position of each angle in steps.  The
    fit runs through the four nearest partners; the 4th differences of the
    six nearest set its margin.
    """
    near = np.floor(pos)
    f = pos - near
    cols = (near.astype(int)[:, None] + np.arange(-2, 4)) % table.shape[1]
    known = table[(sides < 0.0).astype(int)[:, None], cols]
    fit = ((f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0 * known[:, 2]
           - (f + 1.0) * f * (f - 2.0) / 2.0 * known[:, 3]
           + f * (f - 1.0) / 6.0 * ((f + 1.0) * known[:, 4] - (f - 2.0) * known[:, 1]))
    margin = _FIT_SHARE * np.abs(np.diff(known, 4, axis=1)).max(axis=1) + _FIT_SLACK
    return _checked_partners(norm, eps, x, thetas, sides,
                             np.clip(fit - margin, 0.0, math.pi),
                             np.clip(fit + margin, 0.0, math.pi))


def _grid_partners(norm: Norm, eps: float, x: np.ndarray, thetas: np.ndarray,
                   sides: np.ndarray) -> np.ndarray:
    """Partners of the first grid: every ``_GRID_MULTIPLE``-th angle of each
    side searched in full, then the angles halfway between known partners
    fitted from them, halving the stride down to 1."""
    rows = np.arange(thetas.size).reshape(2, -1)
    partners = np.empty_like(thetas)
    stride = _GRID_MULTIPLE
    new = rows[:, ::stride].ravel()
    partners[new] = _partners(norm, eps, x[new], thetas[new], sides[new], 0.0, math.pi)
    while stride > 1:
        half = stride // 2
        new = rows[:, half::stride].ravel()
        partners[new] = _fitted_partners(
            norm, eps, x[new], thetas[new], sides[new], partners[rows[:, ::stride]],
            (new % rows.shape[1]) / stride)
        stride = half
    return partners


def _best_sum(norm: Norm, eps: float, resolution: int) -> float:
    """Largest ``||b1 + b2||`` over sphere pairs with ``||b1 - b2|| = eps``."""
    count = _GRID_MULTIPLE * resolution
    step = TWO_PI / count
    thetas = np.tile(np.arange(count) * step, 2)
    sides = np.repeat([1.0, -1.0], count)
    x = radial_points_vec(norm, thetas)
    partners = _grid_partners(norm, eps, x, thetas, sides)
    sums = norm(x + radial_points_vec(norm, thetas + sides * partners))
    best = float(sums.max())
    table, grid_step = partners.reshape(2, count), step
    for _ in range(_ZOOMS):
        if best >= _FLAT_FLOOR:
            break
        top = np.argpartition(sums, -_CANDIDATES)[-_CANDIDATES:]
        thetas = (thetas[top, None] + np.linspace(-step, step, _ZOOM_POINTS)).ravel()
        sides = np.repeat(sides[top], _ZOOM_POINTS)
        step *= 2.0 / (_ZOOM_POINTS - 1)
        x = radial_points_vec(norm, thetas)
        partners = _fitted_partners(norm, eps, x, thetas, sides, table,
                                    thetas / grid_step)
        sums = norm(x + radial_points_vec(norm, thetas + sides * partners))
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
