"""Metric structure of 2D unit spheres: distances, arcs, stars, bisectors.

Angle sets are represented as unions of closed intervals normalised to
``[0, 2pi)``; all searches exploit that the distance from a fixed sphere
point to a moving one is monotone along each arc toward the antipode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOLS
from .norms import (Norm, PolygonNorm, SpherePoint, radial_point,
                    radial_points_vec, radial_vec, sphere_point)
from .numerics import TWO_PI, bracket_search

__all__ = [
    "ArcSet", "SphereSegment", "BisectorPair", "arcset", "arc_hausdorff",
    "sphere_distance", "diametral_set", "star", "is_flat", "maximal_segments",
    "bisector_points", "is_isosceles_orthogonal", "self_circumference",
    "arc_length_map",
]


# Angles per interval in ``ArcSet.sample``, the grid on which
# ``arc_distinguishes`` compares distances along an arc.
_SAMPLES_PER_INTERVAL = 512
# Slack of ``ArcSet.contains`` in angle: ten times the resolution
# (``DEFAULT_TOLS.angle``) to which the searches find arc ends.
_CONTAINS_SLACK = 1e-12


@dataclass(frozen=True)
class ArcSet:
    """Union of closed angle intervals on the circle, owned by a 2D norm."""

    intervals: tuple[tuple[float, float], ...]
    norm: Norm | None = None

    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def contains(self, theta: float, tol: float = _CONTAINS_SLACK) -> bool:
        t = theta % TWO_PI
        return any(a - tol <= t <= b + tol
                   or a - tol <= t + TWO_PI <= b + tol
                   for a, b in self.intervals)

    def negated(self) -> "ArcSet":
        """The set of antipodes: every angle shifted by pi."""
        return arcset([(a + math.pi, b + math.pi) for a, b in self.intervals],
                      norm=self.norm)

    def endpoints(self) -> list[float]:
        out: list[float] = []
        for a, b in self.intervals:
            out.extend((a, b))
        return out

    def sample(self) -> np.ndarray:
        """``_SAMPLES_PER_INTERVAL`` angles along each interval, endpoints included."""
        parts = [np.linspace(a, b, _SAMPLES_PER_INTERVAL) for a, b in self.intervals]
        return np.concatenate(parts) % TWO_PI

    def to_json(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.intervals]}


def arcset(intervals, norm: Norm | None = None) -> ArcSet:
    """Normalise raw intervals: reduce mod 2pi, split wraps, merge near-abutting,
    and drop a sliver left across the seam."""
    pieces: list[tuple[float, float]] = []
    for lo, hi in intervals:
        if hi < lo:
            raise ValueError(f"interval endpoints out of order: ({lo}, {hi})")
        if hi - lo >= TWO_PI:
            return ArcSet(((0.0, TWO_PI),), norm)
        shift = math.floor(lo / TWO_PI) * TWO_PI
        lo, hi = lo - shift, hi - shift
        if hi <= TWO_PI:
            pieces.append((lo, hi))
        else:
            pieces.append((lo, TWO_PI))
            pieces.append((0.0, hi - TWO_PI))
    pieces.sort()
    merged: list[list[float]] = []
    for lo, hi in pieces:
        if merged and lo - merged[-1][1] < DEFAULT_TOLS.arc_merge:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # A piece narrower than the merge gap on one side of the 0/2pi seam, with
    # a wider piece on the other side, is an arc's rounding overshoot past
    # the seam (a search's level offset), not a set of its own.
    if len(merged) > 1 and merged[0][0] == 0.0 and merged[-1][1] == TWO_PI:
        first, last = merged[0][1] - merged[0][0], merged[-1][1] - merged[-1][0]
        if last < DEFAULT_TOLS.arc_merge <= first:
            merged.pop()
        elif first < DEFAULT_TOLS.arc_merge <= last:
            merged.pop(0)
    # a set touching the 0/2pi seam stays split; circular metrics see one arc
    return ArcSet(tuple((a, b) for a, b in merged), norm)


def _circular_point_distance(theta: float, intervals) -> float:
    best = math.inf
    for a, b in intervals:
        for shift in (-TWO_PI, 0.0, TWO_PI):
            t = theta + shift
            if a <= t <= b:
                return 0.0
            best = min(best, abs(t - a), abs(t - b))
    return best


def arc_hausdorff(first: ArcSet, second: ArcSet) -> float:
    """Hausdorff distance between two angle sets, in the circular metric.

    The supremum of the distance-to-set function over a union of arcs is
    attained at arc endpoints or at gap midpoints of the other set, so the
    computation is exact up to roundoff.
    """
    def directed(a: ArcSet, b: ArcSet) -> float:
        cands = list(a.endpoints())
        gaps = sorted(x % TWO_PI for x in b.endpoints())
        for i in range(len(gaps)):
            lo = gaps[i]
            hi = gaps[(i + 1) % len(gaps)] + (TWO_PI if i + 1 == len(gaps) else 0.0)
            mid = 0.5 * (lo + hi)
            if a.contains(mid):
                cands.append(mid)
        return max(_circular_point_distance(t % TWO_PI, b.intervals) for t in cands)

    if not first.intervals or not second.intervals:
        raise ValueError("hausdorff distance needs nonempty sets")
    return max(directed(first, second), directed(second, first))


def _require_owner(norm: Norm, p: SpherePoint) -> None:
    if p.owner != norm:
        raise ValueError("sphere point belongs to a different norm")


def sphere_distance(norm: Norm, p: SpherePoint, q: SpherePoint) -> float:
    """Chordal distance ``||p - q||`` between two points of the same sphere."""
    _require_owner(norm, p)
    _require_owner(norm, q)
    return norm(p.vec - q.vec)


def _theta_of(p: SpherePoint) -> float:
    if p.theta is not None:
        return p.theta % TWO_PI
    return math.atan2(p.v[1], p.v[0]) % TWO_PI


def _both_sides(alphas: np.ndarray, pred, xtol: float = DEFAULT_TOLS.angle) -> np.ndarray:
    """One ``bracket_search``, to ``xtol``, for the first angle ``t`` in
    ``[0, pi]``, on each side of each start angle, at which ``pred`` holds.

    Row ``2i`` looks forward from ``alphas[i]`` and row ``2i + 1`` backward:
    ``pred`` gets the sphere angles ``alpha + t`` or ``alpha + (2pi - t)``
    of an ``(n, k)`` grid of ``t``, and returns its truths with the values
    they threshold, which steer the search's spines.  Returns the ``n``
    angles ``t``.
    """
    start = np.repeat(alphas, 2)[:, None]
    back = np.tile([False, True], len(alphas))[:, None]
    zeros = np.zeros(2 * len(alphas))
    return bracket_search(lambda t, at: pred(start[at] + np.where(back[at], TWO_PI - t, t)),
                          zeros, zeros + math.pi, xtol=xtol)[1]


def _diametral_arcs(norm: Norm, points, xtol: float = DEFAULT_TOLS.angle) -> list[ArcSet]:
    """Distance-2 sets of several sphere points: both sides of all in one
    search, to ``xtol`` in angle."""
    xvs = np.array([p.vec for p in points])
    alphas = np.array([_theta_of(p) for p in points])
    # anchor the level at the attained maximum so near-sphere inputs stay safe
    levels = norm(xvs - radial_points_vec(norm, alphas + math.pi)) - DEFAULT_TOLS.evaluation
    row_xvs = np.repeat(xvs, 2, axis=0)[:, None, :]
    row_levels = np.repeat(levels, 2)[:, None]

    def reached(theta):
        pts = radial_points_vec(norm, theta.ravel()).reshape(*theta.shape, 2)
        gap = norm((row_xvs - pts).reshape(-1, 2)).reshape(theta.shape) - row_levels
        return gap >= 0.0, gap

    t = _both_sides(alphas, reached, xtol).tolist()
    return [arcset([(alpha + t_fwd, alpha + TWO_PI - t_bwd)], norm=norm)
            for alpha, t_fwd, t_bwd in zip(alphas.tolist(), t[::2], t[1::2])]


def diametral_set(norm: Norm, x: SpherePoint) -> ArcSet:
    """Sphere points at chordal distance exactly 2 from ``x``.

    The distance to ``x`` rises monotonically from 0 to 2 along each arc
    toward ``-x``, so one bracket search finds the boundary of the level set
    {distance = 2} on both sides at once; the result is one closed arc that
    always contains the antipode of ``x``.
    """
    if norm.dim != 2:
        raise ValueError("diametral_set requires a 2D norm")
    _require_owner(norm, x)
    return _diametral_arcs(norm, [x])[0]


def star(norm: Norm, x: SpherePoint) -> ArcSet:
    """Points x' whose segment [x, x'] lies inside the sphere.

    By convexity this is exactly {x' : ||(x + x')/2|| = 1}; the midpoint norm
    decreases monotonically away from ``x`` on both sides, whose ends one
    bracket search finds together.
    """
    if norm.dim != 2:
        raise ValueError("star requires a 2D norm")
    _require_owner(norm, x)
    xv = x.vec
    alpha = _theta_of(x)
    level = float(norm(0.5 * (xv + radial_vec(norm, alpha)))) - 0.5 * DEFAULT_TOLS.evaluation

    def left(theta):
        pts = radial_points_vec(norm, theta.ravel())
        gap = level - norm(0.5 * (xv + pts)).reshape(theta.shape)
        return gap > 0.0, gap

    t_fwd, t_bwd = _both_sides(np.array([alpha]), left).tolist()
    return arcset([(alpha - t_bwd, alpha + t_fwd)], norm=norm)


# ``is_flat`` finds the ends of its diametral arcs to ``_FLAT_XTOL`` in angle,
# so a locally constant distance-2 set differs from its probes' by about that,
# three orders below ``_FLAT_HAUSDORFF``; a moving one moves by about the
# probe radius (1e-3 by default).
_FLAT_XTOL = 1e-9
_FLAT_HAUSDORFF = 1e-6


def is_flat(norm: Norm, x: SpherePoint, radius: float = 1e-3) -> bool:
    """True when the distance-2 set is locally constant around ``x``.

    Probes one point at sphere distance ``radius`` on each side of ``x`` (one
    bracket search for both) and compares the three diametral sets (one
    search for all six sides, to ``_FLAT_XTOL``) in the circular Hausdorff
    metric, up to ``_FLAT_HAUSDORFF``.
    """
    if not 0.0 < radius < 2.0:  # the probes must lie strictly between x and -x
        raise ValueError(f"radius must lie in (0, 2), got {radius!r}")
    if norm.dim != 2:
        raise ValueError("is_flat requires a 2D norm")
    _require_owner(norm, x)
    alpha = _theta_of(x)
    xv = x.vec
    side = np.array([[1.0], [-1.0]])

    def beyond(t, at):
        pts = radial_points_vec(norm, (alpha + side[at] * t).ravel())
        gap = norm(xv - pts).reshape(t.shape) - radius
        return gap > 0.0, gap

    t_lo, t_hi = bracket_search(beyond, [0.0, 0.0], [math.pi, math.pi])
    t = 0.5 * (t_lo + t_hi)
    probes = [radial_point(norm, alpha + sign * ti)
              for sign, ti in zip((1.0, -1.0), t.tolist())]
    base, *others = _diametral_arcs(norm, [x, *probes], _FLAT_XTOL)
    return all(arc_hausdorff(base, other) <= _FLAT_HAUSDORFF for other in others)


@dataclass(frozen=True)
class SphereSegment:
    """A straight segment contained in a unit sphere."""

    start: SpherePoint
    end: SpherePoint
    length: float
    maximal: bool
    spans_unit: bool


def maximal_segments(norm: PolygonNorm) -> list[SphereSegment]:
    """The faces of a polygon sphere, with own-norm lengths."""
    if not isinstance(norm, PolygonNorm):
        raise TypeError("maximal segments are defined for polygon norms")
    verts = norm.vertex_array()
    n = verts.shape[0]
    out = []
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        length = float(norm(b - a))
        out.append(SphereSegment(
            sphere_point(norm, a), sphere_point(norm, b),
            length, True, length >= 1.0 - DEFAULT_TOLS.evaluation))
    return out


@dataclass(frozen=True)
class BisectorPair:
    """The (antipodal) sphere points equidistant from ``x`` and ``-x``."""

    point: SpherePoint
    antipode: SpherePoint
    unique: bool


# ``|g| <= _BISECTOR_TIE`` is a tie: g is a difference of two norm values up
# to 2, whose rounding is ~1e-15.  Tie edges are found within 1e-13, so a tie
# interval wider than ``_BISECTOR_WIDTH`` is a flat piece of g, not one root.
_BISECTOR_TIE = 1e-10
_BISECTOR_WIDTH = 1e-6
# The root bracket stops this far short of x and -x, where g is -2 and 2;
# the root lies near pi / 2 from either.
_BISECTOR_END_GAP = 1e-9


def bisector_points(norm: Norm, x: SpherePoint) -> BisectorPair:
    """Solve ``||z - x|| = ||z + x||`` on the sphere.

    ``g(theta) = ||s - x|| - ||s + x||`` rises monotonically from -2 to 2 on
    the half circle, so one bracket search finds its root and a second one
    both edges of the interval where ``|g| <= _BISECTOR_TIE``.  If that
    interval is wider than ``_BISECTOR_WIDTH`` the result is flagged
    non-unique and the interval midpoint is returned.
    """
    if norm.dim != 2:
        raise ValueError("bisector_points requires a 2D norm")
    _require_owner(norm, x)
    alpha = _theta_of(x)
    xv = x.vec

    def g(t):
        s = radial_points_vec(norm, (alpha + t).ravel())
        return (norm(s - xv) - norm(s + xv)).reshape(t.shape)

    def rising(t, at):
        gt = g(t)
        return gt > 0.0, gt

    lo, hi = bracket_search(rising, [_BISECTOR_END_GAP], [math.pi - _BISECTOR_END_GAP],
                            xtol=DEFAULT_TOLS.angle)
    root = float(0.5 * (lo[0] + hi[0]))
    # the tie interval's edges: forward from 0 and backward from pi, together
    back = np.array([[False], [True]])

    def tied(u, at):
        slack = _BISECTOR_TIE - np.abs(g(np.where(back[at], math.pi - u, u)))
        return slack >= 0.0, slack

    hi = bracket_search(tied, [0.0, 0.0], [root, math.pi - root],
                        xtol=DEFAULT_TOLS.angle)[1]
    t_lo, t_hi = float(hi[0]), math.pi - float(hi[1])
    unique = (t_hi - t_lo) <= _BISECTOR_WIDTH
    t_mid = 0.5 * (t_lo + t_hi)
    z = radial_point(norm, alpha + t_mid)
    return BisectorPair(z, z.antipode(), unique)


def is_isosceles_orthogonal(norm: Norm, x, z,
                            tol: float = DEFAULT_TOLS.geometric) -> bool:
    """True when ``||x + z|| == ||x - z||`` within ``tol``."""
    xa = np.asarray(x, dtype=float)
    za = np.asarray(z, dtype=float)
    return abs(norm(xa + za) - norm(xa - za)) <= tol


def _sphere_angle_grid(norm: Norm, resolution: int) -> np.ndarray:
    base = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    corners = np.asarray(norm.corner_angles(), dtype=float)
    if corners.size:
        base = np.unique(np.concatenate([base, corners % TWO_PI]))
    return base


def _closed_chords(norm: Norm, pts: np.ndarray) -> np.ndarray:
    """Own-norm chords ``p_i -> p_{i+1}`` of a closed polyline."""
    return norm(np.roll(pts, -1, axis=0) - pts)


def self_circumference(norm: Norm, resolution: int = 4096) -> float:
    """Length of the unit sphere measured in its own norm.

    Inscribed-polyline length over a uniform angle grid; corner angles are
    inserted so polygon spheres are measured exactly at any resolution.
    """
    if norm.dim != 2:
        raise ValueError("self_circumference requires a 2D norm")
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    thetas = _sphere_angle_grid(norm, resolution)
    return float(_closed_chords(norm, radial_points_vec(norm, thetas)).sum())


# 2^13 segments: polygon and p >= 2 lengths have settled to rounding there,
# while at 2^14 the rounding summed over the face segments exceeds 1e-12
_ARC_MAP_NODES = 1 << 13


class _ArcLengthMap:
    """Arc-length parametrization of a 2D unit sphere, in its own norm.

    Nodes are a uniform angle grid of ``2^13`` points with the corner angles
    inserted, so every segment between two nodes is smooth or lies in a
    straight face.  A segment's length is the midpoint Richardson estimate
    ``h + (h - c) / 3`` from its chord ``c`` and the sum ``h`` of the two
    half-chords through the radial point at the mid-angle: exact on straight
    faces, with error O(step^5) where the curvature is bounded.

    ``point_at`` evaluates the quartic, in arc fraction, through the radial
    points at 0, 1/4, 1/2, 3/4 and 1 of the segment's angle span (arc
    fractions from the quarter chords), then projects radially onto the
    sphere.  On a face the quartic is the face itself.

    Circumferences of the round, square, diamond and hexagonal spheres (and
    their linear images) match the closed forms to ~1e-12.  Where the
    curvature is unbounded without a corner, as at the axis points of the
    p-norms with p < 2, the length converges only like ``step^1.75``: the
    p = 1.5 circumference comes out ~7e-8 short.
    """

    def __init__(self, norm: Norm):
        self.norm = norm
        thetas = _sphere_angle_grid(norm, _ARC_MAP_NODES)
        step = np.diff(thetas, append=thetas[0] + TWO_PI)
        start = radial_points_vec(norm, thetas)
        pts = np.stack([start]
                       + [radial_points_vec(norm, thetas + k * step / 4) for k in (1, 2, 3)]
                       + [np.roll(start, -1, axis=0)])
        c = _closed_chords(norm, start)
        h = norm(pts[2] - pts[0]) + norm(pts[4] - pts[2])
        self._seglen = h + (h - c) / 3.0
        self._cum = np.concatenate([[0.0], np.cumsum(self._seglen)])
        self.circumference = float(self._cum[-1])
        quarters = norm((pts[1:] - pts[:-1]).reshape(-1, 2)).reshape(4, -1)
        cs = np.cumsum(quarters, axis=0)
        frac = np.concatenate([np.zeros((1, cs.shape[1])), cs / cs[-1]])
        # Newton divided differences of the five points over their arc fractions
        table, coef = pts, [pts[0]]
        for k in range(1, 5):
            table = (table[1:] - table[:-1]) / (frac[k:] - frac[:-k])[:, :, None]
            coef.append(table[0])
        # coordinate-major, so that point_at gathers and combines contiguous rows
        self._coef = np.ascontiguousarray(np.stack(coef).transpose(0, 2, 1))
        self._frac = frac[:4]

    def point_at(self, arc) -> np.ndarray:
        """Sphere points at the given arc lengths, one per row."""
        return self.coords_at(arc).T

    def coords_at(self, arc) -> np.ndarray:
        """``point_at`` coordinate-major: a ``(2, N)`` array of x and y rows."""
        t = np.mod(np.asarray(arc, dtype=float), self.circumference)
        # t == circumference after rounding lands at the end of the last segment
        idx = np.minimum(np.searchsorted(self._cum, t, side="right") - 1,
                         len(self._seglen) - 1)
        s = (t - self._cum[idx]) / self._seglen[idx]
        coef = self._coef.take(idx, axis=2)
        shifted = s - self._frac.take(idx, axis=1)
        p = coef[4]
        for k in (3, 2, 1, 0):
            p = coef[k] + shifted[k] * p
        return p / self.norm(p.T)


@lru_cache(maxsize=32)
def arc_length_map(norm: Norm):
    """Cached arc-length parametrization of the sphere of a 2D norm."""
    if norm.dim != 2:
        raise ValueError("arc-length parametrization requires a 2D norm")
    return _ArcLengthMap(norm)
