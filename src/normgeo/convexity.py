"""Modulus of convexity and strict-convexity testing.

Strict convexity, and the modulus wherever a face holds ``eps``, come from
one scan of the chords between the sphere points at the grid angles, with
no search: a chord is flat when its midpoint is on the sphere to
``_FLAT_FLOOR``, the floor at which the modulus is exactly 0.  The sphere is
strictly convex when no chord between neighbouring points is flat.  The
scan finds every face at least two grid steps wide, and reads l_p right up
to p = 5 at 512 angles and to p = 10 at 64; beyond, an axis point's contact
sags less than the floor over one step.  A run of flat chords on one line
at least ``eps`` long gives ``delta(eps) = 0`` before the search.

In a normed plane ``delta(eps) = inf {1 - ||b1 + b2||/2 : ||b1 - b2|| >= eps}``
is reached at ``||b1 - b2|| = eps`` (Figiel 1976), and the chord from ``b1``
grows monotonically along either half circle, so each ``b1`` has one partner
``b2`` per side and ``delta`` is a 1-D search over the angle of ``b1``.  Flat
faces reach the sum 2 and give exactly 0.

Every partner is the high end of one ``numerics.bracket_search`` of
``[0, pi]``, closed to ``_PARTNER_XTOL``, with the chord short of ``eps``
at its low end and at least ``eps`` at its high end.  The predicate gives
the chord minus ``eps`` with its truths, so the search interpolates
(Chandrupatla's method) from the first midpoint for the first-grid angles,
and for the zoom angles from a bracket around a cubic fit of the first
grid's partners.  The truths decide every side, so a poor estimate costs
chord evaluations but never misplaces a partner.  At ``eps = 2`` the chord
is flat at ``eps`` at the antipode, where interpolation has nothing to go
on: the predicate gives its truths alone, and the search is plain
bisection to ``DEFAULT_TOLS.angle``, every midpoint evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import Norm, _integer, radial_points_vec
from .numerics import TWO_PI, bracket_search

__all__ = ["ModulusCurve", "modulus_of_convexity", "modulus_curve",
           "is_strictly_convex"]

# A sum this close to 2 is a midpoint on the sphere: delta is exactly 0, and
# the chord scan calls the chord flat.  The margin also keeps a face exactly
# eps long, whose far vertex the bisection may overshoot by 1e-13 when
# rounding puts its chord just below eps.
_FLAT_FLOOR = 2.0 - 1e-12
# The first grid has ``resolution`` angles, both sides.  Each zoom takes 65
# angles over one step either side of the best 4 (a step 32 times finer).  Two
# zooms bring a smooth maximum within 1e-12, but a polygon's sum peaks on a
# kink (the partner at a vertex) and errs by about the step: six zooms leave
# 2pi / (resolution * 32**6), 1.14e-11 at the default resolution.
_CANDIDATES, _ZOOM_POINTS, _ZOOMS = 4, 65, 6
# At 64 first-grid angles the round, l_3 and l_1.5 spheres keep their closed
# forms to 2.4e-15 over eps in [0.05, 1.99], as at 512.
_MIN_RESOLUTION = 64
# Half-width of a fitted bracket: 1/16 of the larger 4th difference of the
# partners around it (a cubic fit errs by about 3/128 of it; from the first
# grid at the default resolution, by at most 0.04 of it on l_3 and l_1.5) plus
# 16 times pi / 2**45 (1.4e-12), far above the noise of the partners it is
# fitted to.  Both set only how many norm calls a partner costs: the truths
# decide every partner, within ``_PARTNER_XTOL``, whatever the bracket.
_FIT_SHARE, _FIT_SLACK = 1.0 / 16.0, 16.0 * math.pi / 2.0 ** 45
# Width of a partner's bracket.  Chord rounding (~2e-15) puts the last
# interpolated angle a few 1e-15 from the partner, on either side, and the
# search then closes at most half its width past it; at 1e-14 the closed
# forms of the round, l_3 and l_1.5 spheres and their linear images are kept
# within 5e-15, where 1e-13 left up to 4.6e-14 (l_1.5 images).
_PARTNER_XTOL = 1e-14


def _checked_resolution(norm: Norm, resolution) -> int:
    if norm.dim != 2:
        raise ValueError("the convexity scans work on 2D spheres")
    resolution = _integer(resolution, "resolution")
    if resolution < _MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {_MIN_RESOLUTION}, got {resolution!r}")
    return resolution


def _chords(norm: Norm, x: np.ndarray, thetas: np.ndarray, sides: np.ndarray,
            t) -> np.ndarray:
    """``||x - s(theta + side * t)||``, the chord to a partner candidate.

    One angle is evaluated as two: numpy multiplies a single row on another
    path, which in the polygon and linear-image gauges can round it an ulp
    away from the same row in a larger batch.
    """
    if np.size(thetas) == 1:
        two = np.repeat(x, 2, axis=0), np.repeat(thetas, 2), np.repeat(sides, 2)
        return _chords(norm, *two, np.repeat(t, 2))[:1]
    return norm(x - radial_points_vec(norm, thetas + sides * t))


def _partners(norm: Norm, eps: float, x: np.ndarray, thetas: np.ndarray,
              sides: np.ndarray, guess=None) -> np.ndarray:
    """The first ``t`` of ``[0, pi]``, to ``_PARTNER_XTOL``, whose chord
    reaches ``eps``, for ``x = s(theta)``: one ``bracket_search``, the
    partners its high ends, which ``guess`` may bracket.

    The chord is 0 at ``t = 0`` and 2 at the antipode up to rounding, so the
    ends are answered without a norm call.  At ``eps = 2`` the chord is
    flat at ``eps`` there: the truths come alone, and the search is plain
    bisection to ``DEFAULT_TOLS.angle``.
    """
    flat = eps == 2.0

    def chord_gap(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        return _chords(norm, x.take(rows, 0), thetas.take(rows), sides.take(rows), t) - eps

    def gap(t: np.ndarray, at: np.ndarray):
        if t.shape[1] == 1 and t.max() < math.pi:  # the chord at t = 0 is exactly 0
            v = chord_gap(at, t[:, 0])[:, None]
        else:
            v = np.where(t > 0.0, 2.0 - eps, -eps)
            r, c = np.nonzero((t > 0.0) & (t < math.pi))
            if r.size:
                v[r, c] = chord_gap(at[r], t[r, c])
        return v >= 0.0 if flat else (v >= 0.0, v)
    zeros = np.zeros_like(thetas)
    if flat:
        return bracket_search(gap, zeros, zeros + math.pi)[1]
    return bracket_search(gap, zeros, zeros + math.pi, xtol=_PARTNER_XTOL, guess=guess)[1]


def _fitted_bracket(table: np.ndarray, sides: np.ndarray, pos: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """A bracket ``[a, b]`` around a cubic fit of ``table``, the guess of
    ``_partners``.

    ``table`` holds known partners at equal angle steps, one periodic row per
    side (+1, then -1), and ``pos`` the position of each angle in steps.  The
    fit runs through the four nearest partners; the 4th differences of the
    six nearest set its margin.
    """
    padded = np.concatenate([table[:, -2:], table, table[:, :3]], axis=1)
    bound = np.abs(np.diff(padded, 4, axis=1))  # column j: table[j - 2 .. j + 2]
    near = np.floor(pos)
    f = pos - near
    side, col = (sides < 0.0).astype(int), near.astype(int) % table.shape[1]
    k1, k2, k3, k4 = (padded[side, col + i] for i in range(1, 5))
    fit = ((f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0 * k2
           - (f + 1.0) * f * (f - 2.0) / 2.0 * k3
           + f * (f - 1.0) / 6.0 * ((f + 1.0) * k4 - (f - 2.0) * k1))
    margin = _FIT_SHARE * np.maximum(bound[side, col], bound[side, col + 1]) + _FIT_SLACK
    return np.clip(fit - margin, 0.0, math.pi), np.clip(fit + margin, 0.0, math.pi)


def _best_sum(norm: Norm, eps: float, resolution: int) -> float:
    """Largest ``||b1 + b2||`` over sphere pairs with ``||b1 - b2|| = eps``."""
    step = TWO_PI / resolution
    thetas = np.tile(np.arange(resolution) * step, 2)
    sides = np.repeat([1.0, -1.0], resolution)
    x = radial_points_vec(norm, thetas)
    partners = _partners(norm, eps, x, thetas, sides)
    sums = norm(x + radial_points_vec(norm, thetas + sides * partners))
    best = float(sums.max())
    table, grid_step = partners.reshape(2, resolution), step
    for _ in range(_ZOOMS):
        if best >= _FLAT_FLOOR:
            break
        top = np.argpartition(sums, -_CANDIDATES)[-_CANDIDATES:]
        thetas = (thetas[top, None] + np.linspace(-step, step, _ZOOM_POINTS)).ravel()
        sides = np.repeat(sides[top], _ZOOM_POINTS)
        step *= 2.0 / (_ZOOM_POINTS - 1)
        x = radial_points_vec(norm, thetas)
        partners = _partners(norm, eps, x, thetas, sides,
                             _fitted_bracket(table, sides, thetas / grid_step))
        sums = norm(x + radial_points_vec(norm, thetas + sides * partners))
        best = max(best, float(sums.max()))
    return best


def _flat_chords(norm: Norm, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The sphere points at ``resolution`` grid angles, and which grid chords
    are flat: row 0 for the chords from point ``k`` to ``k + 1``, row 1 for
    those from ``k`` to ``k + 2`` (indices mod ``resolution``).

    A chord is flat when its midpoint is on the sphere to the floor at which
    the modulus search returns 0: ``||b1 + b2|| >= _FLAT_FLOOR``.
    """
    x = radial_points_vec(norm, np.arange(resolution) * (TWO_PI / resolution))
    sums = norm(np.concatenate([x + np.roll(x, -1, axis=0), x + np.roll(x, -2, axis=0)]))
    return x, sums.reshape(2, resolution) >= _FLAT_FLOOR


def _longest_face(norm: Norm, resolution: int) -> float:
    """The own-norm length of the longest sampled face segment, 0 if none.

    A face segment is a maximal run of flat span-1 chords in which every
    span-2 chord is flat too.  Then each three points in a row have their
    outer midpoint on the sphere, so the whole run lies on one segment of
    the sphere, and a run never bends round a vertex that falls on a grid
    angle.
    """
    x, (flat, flat2) = _flat_chords(norm, resolution)
    link = flat & np.roll(flat, -1) & flat2  # chords k and k + 1 on one segment
    starts = np.flatnonzero(flat & ~np.roll(link, 1))
    ends = np.flatnonzero(flat & ~link)
    if not starts.size:  # no flat chord
        return 0.0
    ends = np.roll(ends, -int(ends[0] < starts[0]))  # a run across angle 0
    return float(norm(x[(ends + 1) % resolution] - x[starts]).max())


def modulus_of_convexity(norm: Norm, eps: float, resolution: int = 512) -> float:
    """``delta(eps)`` for a 2D norm; exactly 0 where a flat face holds ``eps``.

    A face segment sampled at the ``resolution`` grid angles (see
    ``_longest_face``) at least ``eps`` long gives 0 without the search: its
    first point has a partner on it, whose midpoint is on the sphere.

    At the default ``resolution``, for ``eps < 2``: within 5e-15 of the closed
    forms of the round, l_3 and l_1.5 spheres and their linear images (4.2e-15
    at most, measured over 25 eps in [0.05, 1.99] and five seeded images),
    and within 1.5e-11 on hexagon images (the sum peaks on a kink, so the
    last zoom's angle step, 1.14e-11, bounds the error; 4.4e-12 measured).
    At ``eps = 2``, where ``delta`` is not Lipschitz, rounding in the chord
    leaves 7.3e-6 on l_3.
    """
    if not (0.0 < eps <= 2.0):  # also rejects NaN
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    resolution = _checked_resolution(norm, resolution)
    if _longest_face(norm, resolution) >= eps:
        return 0.0
    best = _best_sum(norm, eps, resolution)
    return 0.0 if best >= _FLAT_FLOOR else 1.0 - 0.5 * best


@dataclass(frozen=True)
class ModulusCurve:
    """Sampled modulus of convexity ``(eps, delta(eps))``."""

    norm_kind: str
    samples: tuple[tuple[float, float], ...]

    def deltas(self) -> np.ndarray:
        return np.asarray([d for _, d in self.samples])

    def to_json(self) -> dict:
        return {"norm": self.norm_kind,
                "samples": [[e, d] for e, d in self.samples]}


def modulus_curve(norm: Norm, eps_values, resolution: int = 512) -> ModulusCurve:
    """``modulus_of_convexity`` at each of ``eps_values``, in order, at the
    given ``resolution``; each value is what the single call returns."""
    vals = [(float(e), modulus_of_convexity(norm, float(e), resolution))
            for e in eps_values]
    return ModulusCurve(norm.kind, tuple(vals))


def is_strictly_convex(norm: Norm, resolution: int = 512) -> bool:
    """True when no two distinct sphere points have a midpoint on the sphere.

    Decided on the ``resolution`` grid angles: True when no chord between
    neighbouring sphere points is flat, ``||b1 + b2|| >= 2 - 1e-12``, the
    floor at which ``modulus_of_convexity`` returns 0.  A face whose angular
    width is at least two grid steps holds two neighbouring points, so it is
    always found; a narrower one may be missed.  Contact of high order reads
    as flat too: on l_p the sag ``1 - ||b1 + b2|| / 2`` of the flattest grid
    chord falls like ``step**p`` at an axis, and like ``(p - 1) * step**2`` at
    a diagonal.  So the verdict is right for l_p with 1.001 <= p <= 5 at 512
    angles (the sag of l_5 is 2.6e-11, that of l_6 2.8e-13) and with
    1.001 <= p <= 10 at 64 (l_10 4.3e-12, l_11 3.8e-13).
    """
    _, flat = _flat_chords(norm, _checked_resolution(norm, resolution))
    return not flat[0].any()
