"""Modulus of convexity and strict-convexity testing.

In a normed plane ``delta(eps) = inf {1 - ||b1 + b2||/2 : ||b1 - b2|| >= eps}``
is reached at ``||b1 - b2|| = eps`` (Figiel 1976), and the chord from ``b1``
grows monotonically along either half circle, so each ``b1`` has one partner
``b2`` per side and ``delta`` is a 1-D search over the angle of ``b1``.  Flat
faces reach the sum 2 and give exactly 0.

Each partner is the one that 45 lockstep halvings of ``[0, pi]`` find with
a norm call at every midpoint, but it costs a handful of calls.  Checked
angles bracket it (the chord below ``eps`` at ``a``, at least ``eps`` at
``b``) and the secant through the bracket estimates it as ``p``.  The
halvings are walked by arithmetic alone to their last bracket
``lo < p <= hi`` (a cell), and both ends are checked in one call.  If the
chord is below ``eps`` at ``lo`` and at least ``eps`` at ``hi``, every
earlier midpoint lies at or below ``lo`` or at or above ``hi``, so
monotonicity decides it as the norm call would, and the halvings end on
``hi``.  A failed check tightens the bracket for the next secant; after a
few cells the plain halvings take over, with a norm call only at the
midpoints inside the bracket.  So a poor bracket costs calls but never
changes a partner.

The chord as computed is monotone only up to rounding, about 2e-15.  So a
cell decides only where the chord rises across it by more than a bound of
rounding, and the plain halvings start from angles whose chords clear
``eps`` by more than it; where the chord is flat at ``eps``, as at
``eps = 2`` (the antipode), every midpoint is evaluated.

The first grid brackets every 8th angle of each side by regula falsi steps
from ``[0, pi]``, and the angles at stride 4, 2 and 1 by a cubic fit of the
coarser partners, checked at both ends; the angles no cell settles, from
every stride, share one run of the plain halvings.  Every zoom angle is
fitted from the whole first grid.  Where a polygon's chord has a flat side,
the secant runs through the other side's last two angles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .norms import Norm, _integer, radial_points_vec
from .numerics import TWO_PI

__all__ = ["ModulusCurve", "modulus_of_convexity", "modulus_curve",
           "is_strictly_convex"]

# Lockstep halvings of [0, pi]: pi / 2**45 = 8.9e-14 < 1e-13 in angle.
_HALVINGS = 45
_CELL = math.pi / 2.0 ** _HALVINGS
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
# multiple is a power of two: every 8th angle is searched from [0, pi], and
# the angles between are fitted at strides 4, 2 and 1.
_GRID_MULTIPLE, _CANDIDATES, _ZOOM_POINTS, _ZOOMS = 8, 4, 65, 5
# 8 * 64 first-grid angles still give the closed forms within 1e-13.
_MIN_RESOLUTION = 64
# Half-width of a fitted bracket: 1/16 of the larger 4th difference of the
# partners around it (a cubic fit errs by about 3/128 of it) plus 16 last
# halvings, the noise of the partners it is fitted to.  Both set only how many
# norm calls a partner costs, never which partner is found.
_FIT_SHARE, _FIT_SLACK = 1.0 / 16.0, 16.0 * math.pi / 2.0 ** _HALVINGS
# A fitted bracket wider than this (2**35 last halvings) straddles a kink of
# the partners, as on polygons; smooth spheres fit within 1e-6.  A zoom with
# such a fit runs the plain halvings for every angle at once.
_WIDE_FIT = 2.0 ** 35 * _CELL
# Regula falsi steps from [0, pi] for the angles without a fitted bracket:
# 12 bring nearly every partner of the round, l_3 and lens spheres into its
# last bracket for eps up to 1.9.
_FALSI_STEPS = 12
# Cells tried before the plain halvings: three leave ~1% of the angles of the
# smooth spheres open (sweep inputs); polygons leave more, at kinks, where the
# chord has a corner or a flat side.
_CELL_TRIES = 3
# Rounding leaves the computed chord within ~2e-15 of a monotone function of
# t (second differences at three adjacent midpoints, measured on the builtin
# norms and seeded images).  A checked chord decides the midpoints beyond it
# only if it clears eps by more than this bound, and a checked cell only if
# the chord rises across it by more: else rounding could reorder them.
_ROUNDING = 2.0 ** -46
# A chord that changes by no more than rounding between two angles at least
# 1024 last halvings apart is flat there, as where partners slide along a
# polygon face: the regula falsi would creep along it, so the other side is
# extrapolated instead.
_FLAT_SPAN = 1024 * _CELL
# The first 16 halvings are looked up in a table of their 2**16 + 1 bracket
# ends (512 kB); the other 29 are walked.
_TABLED = 16


def _checked_resolution(norm: Norm, name: str, chord: float, resolution) -> int:
    if not (0.0 < chord <= 2.0):  # also rejects NaN
        raise ValueError(f"{name} must lie in (0, 2], got {chord}")
    if norm.dim != 2:
        raise ValueError("the partner search works on 2D spheres")
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


@functools.cache
def _lockstep_nodes() -> np.ndarray:
    """The ends of the ``2**_TABLED`` brackets left by the first ``_TABLED``
    lockstep halvings of ``[0, pi]``, in order; built on first use."""
    nodes = np.array([0.0, math.pi])
    for _ in range(_TABLED):
        finer = np.empty(2 * nodes.size - 1)
        finer[::2], finer[1::2] = nodes, 0.5 * (nodes[:-1] + nodes[1:])
        nodes = finer
    nodes.flags.writeable = False
    return nodes


def _cell(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last bracket ``lo < p <= hi`` of the lockstep halvings of
    ``[0, pi]``, found by arithmetic alone: the first ``_TABLED`` halvings
    from a table, the rest walked."""
    nodes = _lockstep_nodes()
    at = np.clip(np.searchsorted(nodes, p), 1, nodes.size - 1)
    ends = nodes[np.column_stack([at - 1, at])]
    flat, first = ends.reshape(-1), np.arange(0, ends.size, 2)
    lo, hi = ends.T
    for _ in range(_HALVINGS - _TABLED):
        mid = 0.5 * (lo + hi)
        flat[first + (mid >= p)] = mid  # a far midpoint is the new hi
    return lo, hi


# Rows of a bracket array, one column per angle.  For each end, ``a`` (short)
# and ``b`` (far): the angle, its chord minus eps weighted for the regula
# falsi, the same unweighted, the end before it and its chord minus eps, and
# 1 where that side is flat (its chord changed by no more than rounding over
# at least ``_FLAT_SPAN`` when the end last moved).  Then which end moved last
# (-1 ``a``, 1 ``b``), and the clear angles: checked angles whose chords fall
# short of or pass eps by more than ``_ROUNDING``, so that every midpoint of
# the halvings at or below the first is short and at or above the second
# far, whatever the rounding.
_A, _B, _LAST, _C0, _C1 = 0, 6, 12, 13, 14


def _new_brackets(eps: float, n: int) -> np.ndarray:
    """Brackets ``[0, pi]`` for ``n`` angles: the chord is 0 at t = 0 and 2
    at the antipode, up to rounding there."""
    bracket = np.zeros((15, n))
    bracket[[_B, _C1]] = math.pi
    bracket[_A + 1:_A + 3] = -eps
    bracket[_B + 1:_B + 3] = 2.0 - eps
    bracket[[_A + 3, _A + 4, _B + 3, _B + 4]] = np.nan
    return bracket


def _clear(bracket: np.ndarray, t: np.ndarray, f: np.ndarray) -> None:
    """Tighten the clear angles in place by angles ``t``, one or more per
    column, whose chords minus ``eps`` are ``f``."""
    c0, c1 = bracket[_C0], bracket[_C1]
    for t, f in zip(t.reshape(-1, c0.size), f.reshape(-1, c0.size)):
        np.copyto(c0, t, where=(f < -_ROUNDING) & (t > c0))
        np.copyto(c1, t, where=(f > _ROUNDING) & (t < c1))


def _tighten(bracket: np.ndarray, t: np.ndarray, f: np.ndarray) -> None:
    """Tighten the brackets in place by angles ``t`` whose chord minus
    ``eps`` is ``f``: a short ``t`` above ``a`` becomes ``a``, a far one below
    ``b`` becomes ``b``.  An end kept while the other moves a second time in
    a row is weighted down (Anderson-Bjorck)."""
    a, b, last = bracket[_A], bracket[_B], bracket[_LAST]
    far = f >= 0.0
    up, down = ~far & (t > a), far & (t < b)
    for end, move, other, again in ((_A, up, _B, last < 0), (_B, down, _A, last > 0)):
        at, weight, value, before, value_before, flat = bracket[end:end + 6]
        with np.errstate(divide="ignore", invalid="ignore"):
            shrink = 1.0 - f / weight
        w = bracket[other + 1]
        np.multiply(w, np.where(shrink > 0.0, shrink, 0.5), out=w, where=move & again)
        np.copyto(flat, (np.abs(f - value) <= _ROUNDING) & (np.abs(at - t) >= _FLAT_SPAN),
                  where=move)
        np.copyto(before, at, where=move)
        np.copyto(value_before, value, where=move)
        np.copyto(at, t, where=move)
        np.copyto(weight, f, where=move)
        np.copyto(value, f, where=move)
    last[...] = down
    last -= up
    _clear(bracket, t, f)


def _secant(bracket: np.ndarray) -> np.ndarray:
    """The next estimate: the regula falsi of ``[a, b]``; where one side is
    flat, the secant through the other side's last two ends if it falls
    inside ``(a, b)``, else the midpoint."""
    a, wa, fa, a2, fa2, flat_a = bracket[_A:_A + 6]
    b, wb, fb, b2, fb2, flat_b = bracket[_B:_B + 6]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = a - wa * (b - a) / (wb - wa)
        left = a - fa * (a - a2) / (fa - fa2)
        right = b - fb * (b - b2) / (fb - fb2)
    flat = (flat_a > 0.0) | (flat_b > 0.0)
    side = np.where(flat_b > 0.0, left, right)
    p = np.where(flat, 0.5 * (a + b), p)
    return np.where(flat & (side > a) & (side < b), side, p)


def _settled_partners(norm: Norm, eps: float, x: np.ndarray, thetas: np.ndarray,
                      sides: np.ndarray, a=None, b=None, tries: int = _CELL_TRIES
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The partners that checked cells settle, bit for bit ``_partners`` on
    ``[0, pi]``, from brackets ``[a, b]`` checked at both ends, or without
    them from ``_FALSI_STEPS`` regula falsi steps.

    The secant through each bracket falls in a last bracket (cell) of the
    halvings, checked at both ends in one call; a failed check tightens the
    bracket for the next secant.  Returns the partners, the rows left open
    after ``tries`` cells or where the chord is too flat for a cell to decide
    (their partners hold the last estimate), and their clear angles.  At
    ``eps = 2`` every row is left open on ``[0, pi]``: the chord is flat at
    the antipode.
    """
    rows = np.arange(thetas.size)
    bracket = _new_brackets(eps, rows.size)
    if eps == 2.0:
        return np.full(thetas.size, math.pi), rows, bracket[[_C0, _C1]]

    def f(at: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Chord minus ``eps`` at ``t`` for the angles ``rows[at % rows.size]``."""
        at = rows[at % rows.size]
        return _chords(norm, x[at], thetas[at], sides[at], t) - eps if at.size else t
    if a is not None:
        ft = f(np.arange(2 * rows.size), np.concatenate([a, b]))
        _tighten(bracket, a, ft[:rows.size])
        _tighten(bracket, b, ft[rows.size:])
    else:
        for _ in range(_FALSI_STEPS):
            t = _secant(bracket)
            _tighten(bracket, t, f(np.arange(rows.size), t))
    partners = _secant(bracket)
    parked = []
    for _ in range(tries if rows.size else 0):
        cell = np.concatenate(_cell(_secant(bracket)))
        partners[rows] = cell[rows.size:]
        # chords minus eps at both ends; an end at or past a clear angle
        # needs no norm call
        known = np.concatenate([cell[:rows.size] <= bracket[_C0],
                                cell[rows.size:] >= bracket[_C1]])
        fc = np.repeat([-np.inf, np.inf], rows.size)
        fc[~known] = f(np.flatnonzero(~known), cell[~known])
        _clear(bracket, cell, fc)
        f_lo, f_hi = fc[:rows.size], fc[rows.size:]
        hit = ~(f_lo >= 0.0) & (f_hi >= 0.0)
        # a cell decides only if the chord rises across it by more than
        # rounding; else the midpoints next to it may round the other way
        flat = np.flatnonzero(hit & ~(f_hi - f_lo > _ROUNDING))
        held = bracket[:, flat]
        if flat.size:
            # probe out from the cell, by its rise, to where the chord clears
            # rounding, so that the plain halvings start close
            reach = 4.0 * _CELL * _ROUNDING / np.maximum(f_hi - f_lo, 2.0 ** -16 * _ROUNDING)
            out = np.concatenate([cell[flat] - reach[flat],
                                  cell[flat + rows.size] + reach[flat]]).clip(0.0, math.pi)
            _clear(held, out, f(np.concatenate([flat, flat]), out))
        parked.append((rows[flat], held[[_C0, _C1]]))
        # a far lo or else a short hi tightens the bracket
        miss = ~hit
        probe = np.where(f_lo >= 0.0, 0, rows.size) + np.arange(rows.size)
        rows, bracket = rows[miss], bracket[:, miss]
        if not rows.size:
            break
        _tighten(bracket, cell[probe[miss]], fc[probe[miss]])
    return (partners, np.concatenate([rows] + [r for r, _ in parked]),
            np.concatenate([bracket[[_C0, _C1]]] + [c for _, c in parked], axis=1))


def _checked_partners(norm: Norm, eps: float, x: np.ndarray, thetas: np.ndarray,
                      sides: np.ndarray, a=None, b=None) -> np.ndarray:
    """``_settled_partners`` with ``_partners`` for the rows left open.

    Where some fit is too loose to try, the plain halvings run anyway, and
    the other rows ride along in their norm calls for less than tries cost.
    """
    tries = 0 if a is not None and (b - a > _WIDE_FIT).any() else _CELL_TRIES
    partners, rows, clear = _settled_partners(norm, eps, x, thetas, sides, a, b, tries)
    if rows.size:
        partners[rows] = _partners(norm, eps, x[rows], thetas[rows], sides[rows], *clear)
    return partners


def _fitted_bracket(table: np.ndarray, sides: np.ndarray, pos: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """A bracket ``[a, b]`` around a cubic fit of ``table`` for
    ``_checked_partners``.

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


def _grid_partners(norm: Norm, eps: float, x: np.ndarray, thetas: np.ndarray,
                   sides: np.ndarray) -> np.ndarray:
    """Partners of the first grid: every ``_GRID_MULTIPLE``-th angle of each
    side searched from ``[0, pi]``, then the angles halfway between known
    partners fitted from them, halving the stride down to 1.  The rows no
    cell settles, from every stride, share one run of ``_partners``; until
    then their estimates serve the fits."""
    rows = np.arange(thetas.size).reshape(2, -1)
    partners = np.empty_like(thetas)
    open_rows, open_clear = [], []
    stride, new, bracket = _GRID_MULTIPLE, rows[:, ::_GRID_MULTIPLE].ravel(), ()
    while True:
        partners[new], left, clear = _settled_partners(
            norm, eps, x[new], thetas[new], sides[new], *bracket)
        open_rows.append(new[left])
        open_clear.append(clear)
        if stride == 1:
            break
        half = stride // 2
        new = rows[:, half::stride].ravel()
        bracket = _fitted_bracket(partners[rows[:, ::stride]], sides[new],
                                  (new % rows.shape[1]) / stride)
        stride = half
    left = np.concatenate(open_rows)
    if left.size:
        partners[left] = _partners(norm, eps, x[left], thetas[left], sides[left],
                                   *np.concatenate(open_clear, axis=1))
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
        partners = _checked_partners(norm, eps, x, thetas, sides,
                                     *_fitted_bracket(table, sides, thetas / grid_step))
        sums = norm(x + radial_points_vec(norm, thetas + sides * partners))
        best = max(best, float(sums.max()))
    return best


def modulus_of_convexity(norm: Norm, eps: float, resolution: int = 512) -> float:
    """``delta(eps)`` for a 2D norm; exactly 0 where a flat face holds ``eps``.

    At the default ``resolution``, for ``eps < 2``: within 1e-13 of the closed
    forms of the round, l_3 and l_1.5 spheres and their linear images, and
    within 5e-11 on hexagon images (the sum peaks on a kink, so the last
    zoom's angle step, 4.5e-11, bounds the error).  At ``eps = 2``, where
    ``delta`` is not Lipschitz, rounding in the chord leaves 7.3e-6 on l_3.
    """
    best = _best_sum(norm, eps, _checked_resolution(norm, "eps", eps, resolution))
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
    threshold.  Raises ``ValueError`` unless ``threshold`` is finite and
    ``>= 0``: a negative one would call flat spheres strictly convex.
    """
    if not 0.0 <= threshold < math.inf:  # also rejects NaN
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    resolution = _checked_resolution(norm, "separation", separation, resolution)
    return 1.0 - 0.5 * _best_sum(norm, separation, resolution) > threshold
