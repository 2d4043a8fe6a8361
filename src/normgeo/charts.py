"""Coordinate charts from sphere bases, and determination tests for sphere maps.

A chart identifies a space with R^n by sending a basis of unit vectors to the
standard basis; a sphere map between charted spaces extends linearly exactly
when its coordinate representation is the identity, which the linearity
defect measures directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .norms import Norm, SpherePoint, _float_array, _integer, radial_points_vec
from .sphere import ArcSet
from .numerics import TWO_PI, bracket_search

__all__ = [
    "CoordinateChart", "LinearImageNorm", "SphereMapSample", "LinearityReport",
    "InjectivityResult", "ConeDistanceCheck", "make_chart", "linearity_defect",
    "antipodality_defect", "four_distance_injectivity", "arc_distinguishes",
    "cone_distance_check", "cone_reconstruct_abscissa", "top_face_half_width",
    "base_leftmost_crossing", "sample_sphere_map",
]


@dataclass(frozen=True)
class LinearImageNorm(Norm):
    """``v -> base(B @ v)``: the norm making a chosen basis orthonormal-like.

    ``matrix`` holds the basis vectors as columns, so coordinates map back to
    vectors by ``B @ coords``.
    """

    base: Norm
    matrix: tuple[tuple[float, ...], ...]
    kind = "linear-image"

    def __post_init__(self):
        arr = _float_array(self.matrix, (self.base.dim, self.base.dim), "matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"matrix must be finite, got {arr.tolist()}")
        if np.linalg.matrix_rank(arr) < self.base.dim:
            raise ValueError(f"matrix must be nonsingular, got {arr.tolist()}")
        object.__setattr__(self, "dim", self.base.dim)
        object.__setattr__(self, "_matrix_arr", arr)

    def _gauge(self, batch):
        return self.base._gauge(batch @ self._matrix_arr.T)

    def corner_angles(self):
        """The base's corners carried back by ``B^-1``: ``v`` is a corner
        direction exactly when ``B v`` is one of the base."""
        base = np.asarray(self.base.corner_angles(), dtype=float)
        if base.size == 0:
            return ()
        v = np.linalg.solve(self._matrix_arr, np.vstack([np.cos(base), np.sin(base)]))
        return tuple(sorted(float(a) for a in np.mod(np.arctan2(v[1], v[0]), TWO_PI)))

    def payload(self):
        raise TypeError("chart-induced norms are not serialisable")


@dataclass(frozen=True)
class CoordinateChart:
    """Linear identification of a normed space with R^n via a sphere basis."""

    norm: Norm
    basis: tuple[tuple[float, ...], ...]
    condition_number: float
    induced_norm: LinearImageNorm

    @property
    def matrix(self) -> np.ndarray:
        """Basis vectors as columns."""
        return np.asarray(self.basis, dtype=float).T

    def to_coordinates(self, vectors) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(vectors, dtype=float))
        return np.linalg.solve(self.matrix, arr.T).T

    def from_coordinates(self, coords) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(coords, dtype=float))
        return (self.matrix @ arr.T).T


def _vectors_of(points) -> np.ndarray:
    rows = []
    for p in points:
        rows.append(p.vec if isinstance(p, SpherePoint) else np.asarray(p, dtype=float))
    return np.asarray(rows, dtype=float)


# Vectors whose determinant is below this are a dependent pair up to rounding:
# a chart basis relative to the product of its Euclidean lengths (Hadamard's
# bound, floored at _LENGTH_FLOOR so that an underflowed product still
# compares), the scan's u1, u2 as they stand.
_DEPENDENT = 1e-12
_LENGTH_FLOOR = 1e-300
# A chart basis vector counts as sampled when a source matches it to this in
# every coordinate; one sphere point computed two ways agrees to ~1e-15.
_SAMPLED_BASIS = 1e-8


def make_chart(norm: Norm, basis) -> CoordinateChart:
    """Chart sending ``basis[i]`` (unit vectors) to the standard basis.

    Raises when the basis is linearly dependent or not normalised; the
    condition number of the basis matrix is reported, not capped.
    """
    vecs = _vectors_of(basis)
    n = norm.dim
    if vecs.shape != (n, n):
        raise ValueError(f"need {n} basis vectors of dimension {n}, got {vecs.shape}")
    values = norm(vecs)
    if np.abs(values - 1.0).max() > DEFAULT_TOLS.geometric:
        raise ValueError(f"basis vectors must have norm 1, got {values.tolist()}")
    matrix = vecs.T
    scale = float(np.prod(np.sqrt((vecs * vecs).sum(axis=1))))
    det = float(np.linalg.det(matrix))
    if abs(det) < _DEPENDENT * max(scale, _LENGTH_FLOOR):
        raise ValueError(f"basis vectors are linearly dependent: {vecs.tolist()}")
    cond = float(np.linalg.cond(matrix))
    induced = LinearImageNorm(norm, tuple(tuple(float(x) for x in row) for row in matrix))
    return CoordinateChart(norm, tuple(tuple(float(x) for x in v) for v in vecs),
                           cond, induced)


class SphereMapSample:
    """Paired samples of a map between unit spheres."""

    def __init__(self, norm_x: Norm, norm_y: Norm, sources, images,
                 *, tol: float = DEFAULT_TOLS.geometric):
        src = np.asarray(sources, dtype=float)
        img = np.asarray(images, dtype=float)
        if src.shape[0] != img.shape[0]:
            raise ValueError("sources and images must pair up")
        for name, pts in (("sources", src), ("images", img)):
            if not np.isfinite(pts).all():
                raise ValueError(f"{name} must be finite")
        off_src = float(np.abs(norm_x(src) - 1.0).max())
        off_img = float(np.abs(norm_y(img) - 1.0).max())
        if not off_src <= tol:  # also rejects NaN
            raise ValueError(f"sources leave the sphere by {off_src:.2e}")
        if not off_img <= tol:
            raise ValueError(f"images leave the sphere by {off_img:.2e}")
        self.norm_x = norm_x
        self.norm_y = norm_y
        self.sources = src
        self.images = img

    def __len__(self) -> int:
        return self.sources.shape[0]


def sample_sphere_map(norm_x: Norm, norm_y: Norm, fn, n: int = 256) -> SphereMapSample:
    """Sample a 2D sphere map at ``n`` angles, antipodal pairs guaranteed.

    Angles are taken as ``theta`` and ``theta + pi`` together so antipodality
    can be tested without interpolation.
    """
    if norm_x.dim != 2:
        raise ValueError("sampling requires a 2D source norm")
    half = max(2, n // 2)
    base = np.linspace(0.0, math.pi, half, endpoint=False)
    thetas = np.concatenate([base, base + math.pi])
    sources = radial_points_vec(norm_x, thetas)
    images = np.asarray([fn(s) for s in sources], dtype=float)
    return SphereMapSample(norm_x, norm_y, sources, images)


@dataclass(frozen=True)
class LinearityReport:
    """Coordinate discrepancy of a sampled sphere map against linearity."""

    max_defect: float
    antipodal_defect: float
    condition_x: float
    condition_y: float
    samples: int

    def to_json(self) -> dict:
        return {
            "max_defect": self.max_defect,
            "antipodal_defect": self.antipodal_defect,
            "samples": self.samples,
        }


def antipodality_defect(sample: SphereMapSample) -> float:
    """``max ||tau(-x) + tau(x)||_Y`` over the sample.

    Every source must come with its exact antipode; a missing antipode is a
    sampler bug and raises.  The antipode of a source is the source of
    least L1 gap ``|x + x'|_1``, the lowest index among ties; it is found in
    a sorted window of one coordinate instead of among all pairs.
    """
    partner = _antipodes(sample.sources, DEFAULT_TOLS.geometric)
    return float(sample.norm_y(sample.images + sample.images[partner]).max())


# Antipodes are matched on the key x . (1, 1/phi, 1/phi^2, ...), one
# coordinate in a frame no polygon face of the package lies along, so a face
# does not put a whole side of the sample in one window.  The key moves by at
# most the L1 gap, and its window is widened by this multiple of the largest
# L1 length of a source against the rounding of the keys.
_KEY_SLACK = 2.0 ** -48
# Pairs per block when the error path computes every row's least gap.
_ERROR_BLOCK = 2 ** 18


def _antipodes(src: np.ndarray, tol: float) -> np.ndarray:
    """For each row ``x`` of ``src``, the lowest index among the rows ``x'``
    of least L1 gap ``|x + x'|_1``; raises when that gap exceeds ``tol``.

    A pair within ``tol`` has keys within it, so only the rows whose key
    lies in a window about minus the row's key are compared.  When a row
    has no partner there, the worst gap of the whole sample is computed in
    row chunks for the error.
    """
    n, dim = src.shape
    key = src @ ((math.sqrt(5.0) - 1.0) / 2.0) ** np.arange(dim)
    half = tol + _KEY_SLACK * float(np.abs(src).sum(axis=1).max(initial=0.0))
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    start = np.searchsorted(ranked, -key - half, "left")
    count = np.searchsorted(ranked, -key + half, "right") - start
    total = int(count.sum())
    rows = np.repeat(np.arange(n), count)
    cols = order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(total)]
    gaps = np.abs(src[cols] + src[rows]).sum(axis=1)
    if count.all():
        firsts = np.cumsum(count) - count
        least = np.minimum.reduceat(gaps, firsts)
        if least.max() <= tol:
            cols = np.where(gaps == least[rows], cols, n)
            return np.minimum.reduceat(cols, firsts)
    step = max(1, _ERROR_BLOCK // n)
    worst = float(np.max([np.abs(src[None, :, :] + src[lo:lo + step, None, :])
                          .sum(axis=2).min(axis=1).max() for lo in range(0, n, step)]))
    raise ValueError(f"sample is missing antipodes (worst gap {worst:.2e})")


def _locate_rows(haystack: np.ndarray, needles: np.ndarray, tol: float) -> list[int]:
    out = []
    for needle in needles:
        gaps = np.abs(haystack - needle[None, :]).max(axis=1)
        idx = int(np.argmin(gaps))
        if gaps[idx] > tol:
            raise ValueError(
                f"chart basis vector {needle.tolist()} is not among the sampled sources")
        out.append(idx)
    return out


def linearity_defect(sample: SphereMapSample, chart_x: CoordinateChart,
                     chart_y: CoordinateChart) -> LinearityReport:
    """Max coordinate gap ``||phi_Y(tau(x)) - phi_X(x)||_2`` over the sample.

    The chart bases must be present among the sampled sources (otherwise the
    correspondence cannot be anchored and this raises).  A flipped or
    permuted image basis is not an error: it simply shows up as a defect.
    """
    if chart_x.norm != sample.norm_x or chart_y.norm != sample.norm_y:
        raise ValueError("charts do not belong to the sampled norms")
    _locate_rows(sample.sources, np.asarray(chart_x.basis, dtype=float), _SAMPLED_BASIS)
    coords_x = chart_x.to_coordinates(sample.sources)
    coords_y = chart_y.to_coordinates(sample.images)
    gaps = np.sqrt(((coords_y - coords_x) ** 2).sum(axis=1))
    return LinearityReport(
        max_defect=float(gaps.max()),
        antipodal_defect=antipodality_defect(sample),
        condition_x=chart_x.condition_number,
        condition_y=chart_y.condition_number,
        samples=len(sample),
    )


@dataclass(frozen=True)
class InjectivityResult:
    """Outcome of the four-distance injectivity scan."""

    injective: bool
    witness: tuple[tuple[float, float], tuple[float, float]] | None
    min_gap: float


# Gap at or below which two samples' distance 4-tuples count as equal.  At
# 4096 samples the seeded strictly convex spheres keep gaps above 1e-5 while
# polygon faces give exact 0, and distances of unit vectors round at ~1e-16.
_INJECTIVITY_TOL = 1e-6


def four_distance_injectivity(norm: Norm, u1, u2, resolution: int = 4096,
                              *, tol: float = _INJECTIVITY_TOL,
                              min_separation_steps: int = 4) -> InjectivityResult:
    """Does ``v -> (||v+u1||, ||v-u1||, ||v+u2||, ||v-u2||)`` separate the sphere?

    Samples ``resolution`` angles and finds the exact minimum ``min_gap`` of
    the sup-metric gap between the distance 4-tuples of two samples more
    than ``min_separation_steps`` grid steps apart (circularly).  The sphere
    counts as separated when ``min_gap > tol``; otherwise ``witness`` is the
    pair attaining ``min_gap``, as plain float tuples with the smaller sample
    index first, the lowest index pair winning ties.

    The search is an exact closest pair on a grid: the pairs exactly
    ``min_separation_steps + 1`` steps apart bound ``min_gap``, and only the
    pairs in one cell or two adjacent cells of about that width, cut on
    three of the four distances, need the full gap (``_closest_far_pair``).

    Raises ``ValueError`` when ``resolution`` or ``min_separation_steps`` is
    not an integer, when no sample pair is far apart, when ``u1`` or
    ``u2`` is not a finite 2D vector or is so long that the rounding of its
    distances, ``||u|| * 2^-52``, exceeds ``tol`` or they overflow or do not
    vary over the sphere, and when ``tol`` is negative or NaN.
    """
    if norm.dim != 2:
        raise ValueError("the scan works on 2D spheres")
    a, b = _direction(u1, "u1"), _direction(u2, "u2")
    if abs(a[0] * b[1] - a[1] * b[0]) < _DEPENDENT:
        raise ValueError("u1, u2 must form a basis")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    for name, u, vec in (("u1", u1, a), ("u2", u2, b)):
        # a distance near ||u|| is only known to ||u|| * 2^-52
        rounding = float(norm(vec)) * 2.0 ** -52
        if not rounding <= tol:
            raise ValueError(f"{name} {u!r} is too long for tol {tol!r}: its distances "
                             f"carry a rounding of {rounding:.1e}")
    m = _integer(min_separation_steps, "min_separation_steps")
    if m < 0:
        raise ValueError(f"min_separation_steps must be >= 0, got {m!r}")
    n = _integer(resolution, "resolution")
    if n <= 2 * m + 1:
        raise ValueError(f"resolution must exceed 2 * min_separation_steps + 1 = "
                         f"{2 * m + 1} so that some sample pair is far apart, got {n!r}")
    thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
    pts = radial_points_vec(norm, thetas)
    tuples = np.column_stack([
        norm(pts + a), norm(pts - a), norm(pts + b), norm(pts - b)])
    for name, u, dist in (("u1", u1, tuples[:, :2]), ("u2", u2, tuples[:, 2:])):
        # a real distance to +-u varies over the sphere; a constant one is rounding
        if not (np.isfinite(dist).all() and (dist.max(axis=0) > dist.min(axis=0)).all()):
            raise ValueError(f"{name} {u!r} is too long for this norm: the distances "
                             f"to +-{name} overflow or round the sphere away")
    best, lo, hi = _closest_far_pair(tuples, m)
    if best > tol:
        return InjectivityResult(True, None, best)
    wit = (tuple(pts[lo].tolist()), tuple(pts[hi].tolist()))
    return InjectivityResult(False, wit, best)


# Cells are cut on ||v+u1||, ||v+u2|| and ||v-u2||.  Four coordinates take
# 40 neighbour offsets where three take 13, and with two the faces of the
# square pile up ~0.5M candidate pairs at 4096 samples.
_CELL_COLUMNS = [0, 2, 3]
# A cell is this much wider than the bound, which absorbs the rounding of
# (t - low) / side while no column spans more than 2^20 cells.
_CELL_WIDEN = 1.0 + 2.0 ** -30


def _closest_far_pair(tuples: np.ndarray, m: int) -> tuple[float, int, int]:
    """The exact smallest sup-gap between rows of ``tuples`` more than ``m``
    steps apart (circularly), with the lowest index pair ``lo < hi`` at it.

    The pairs exactly ``m + 1`` steps apart bound the answer by ``best``.
    Rows go into cells of side ``max(best, span * 2^-20)``, a hair wider, on
    three columns (``span`` the widest range among them), so any pair
    within ``best`` lies in one cell or two adjacent ones, and no column
    spans more than 2^20 cells, so the cell key fits in 64 bits.  The exact
    gap is computed for those pairs only, one neighbour offset at a time.
    """
    n = len(tuples)
    idx = np.arange(n)
    partner = (idx + m + 1) % n
    seed = np.abs(tuples - tuples[partner]).max(axis=1)
    best = float(seed.min())
    code = _lowest_pair(idx, partner, seed == best, n)
    coords = tuples[:, _CELL_COLUMNS]
    low = coords.min(axis=0)
    span = float((coords.max(axis=0) - low).max())
    side = max(best, span * 2.0 ** -20, np.finfo(float).tiny) * _CELL_WIDEN
    cells = np.floor((coords - low) / side).astype(np.int64) + 1
    base = int(cells.max()) + 2  # neighbours of the outer cells get keys of their own
    key = (cells[:, 0] * base + cells[:, 1]) * base + cells[:, 2]
    order = np.argsort(key, kind="stable")
    keys, first, size = np.unique(key[order], return_index=True, return_counts=True)
    cell = np.repeat(np.arange(keys.size), size)  # the cell of each sorted row
    steps = (-1, 0, 1)
    offsets = {(a * base + b) * base + c for a in steps for b in steps for c in steps}
    for offset in sorted(o for o in offsets if o >= 0):  # each pair of cells once
        if offset == 0:  # the rows after each row in its own cell
            start = idx + 1
            count = (first + size)[cell] - start
        else:
            to = np.minimum(np.searchsorted(keys, keys + offset), keys.size - 1)
            start = first[to][cell]
            count = np.where(keys[to] == keys + offset, size[to], 0)[cell]
        total = int(count.sum())
        if not total:
            continue
        at = np.repeat(start - np.cumsum(count) + count, count) + np.arange(total)
        i, j = order[np.repeat(idx, count)], order[at]
        sep = np.abs(i - j)
        far = np.minimum(sep, n - sep) > m
        i, j = i[far], j[far]
        gaps = np.abs(tuples[i] - tuples[j]).max(axis=1)
        g = float(gaps.min(initial=np.inf))
        if g <= best:
            c = _lowest_pair(i, j, gaps == g, n)
            if (g, c) < (best, code):
                best, code = g, c
    lo, hi = divmod(code, n)
    return best, lo, hi


def _lowest_pair(i: np.ndarray, j: np.ndarray, at: np.ndarray, n: int) -> int:
    """``lo * n + hi`` of the lowest index pair ``{i, j}`` selected by ``at``."""
    return int((np.minimum(i[at], j[at]) * n + np.maximum(i[at], j[at])).min())


def _direction(u, name: str) -> np.ndarray:
    vec = np.asarray(u, dtype=float)
    if vec.shape != (2,) or not np.isfinite(vec).all():
        raise ValueError(f"{name} must be a finite 2D vector, got {u!r}")
    return vec


# Distance difference above which an arc point tells p and q apart: norms of
# unit-scale vectors round at ~1e-16, and the arc's sampled points lie on the
# sphere to the radial map's rounding.
_DISTINGUISH_TOL = 1e-9


def arc_distinguishes(norm: Norm, arc, p, q, tol: float = _DISTINGUISH_TOL) -> bool:
    """True when some point of ``arc`` has different distances to ``p`` and ``q``.

    ``arc`` is an :class:`ArcSet` (sampled along each interval) or an explicit
    array of points.
    """
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    if np.array_equal(pv, qv):
        return False
    if isinstance(arc, ArcSet):
        pts = radial_points_vec(norm, arc.sample())
    else:
        pts = np.atleast_2d(np.asarray(arc, dtype=float))
    gaps = np.abs(norm(pts - pv) - norm(pts - qv))
    return bool(gaps.max() > tol)


def top_face_half_width(norm) -> float:
    """Half-width of the horizontal sphere face at height 1.

    Requires a polygon norm whose sphere contains a segment
    ``[-w, w] x {1}``; returns ``w``.
    """
    from .norms import PolygonNorm
    if not isinstance(norm, PolygonNorm):
        raise TypeError("the flat-top construction needs a polygon norm")
    verts = norm.vertex_array()
    # vertices are compared as norm values are: a functional at 1, a symmetric pair
    top = verts[np.abs(verts[:, 1] - 1.0) <= DEFAULT_TOLS.evaluation]
    if top.shape[0] < 2:
        raise ValueError("the sphere has no horizontal face at height 1")
    w = float(top[:, 0].max())
    if abs(w + float(top[:, 0].min())) > DEFAULT_TOLS.evaluation:
        raise ValueError("the top face is not symmetric about the vertical axis")
    return w


@dataclass(frozen=True)
class ConeDistanceCheck:
    """Distance of a vector pair inside the flat-top cone."""

    distance: float
    vertical_gap: float
    half_width: float
    in_cone: bool
    law_holds: bool


# Inside the cone the distance is one face functional, |p2 - q2| up to the
# rounding of a polygon gauge, well within this.
_CONE_LAW_TOL = 1e-12
# An offset on the cone's edge, dx = w dy up to the rounding of w dy (~1e-16
# at unit scale), counts as inside.
_CONE_EDGE = 1e-15


def cone_distance_check(norm, p, q) -> ConeDistanceCheck:
    """Inside the cone ``|dx| <= w |dy|`` distances reduce to ``|dy|``.

    When the sphere's top face is ``[-w, w] x {1}``, any pair whose offset
    lies in that cone has ``||p - q|| = |p2 - q2|``.  Outside the cone the
    check is flagged and no equality is asserted.
    """
    w = top_face_half_width(norm)
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    dx = float(abs(pv[0] - qv[0]))
    dy = float(abs(pv[1] - qv[1]))
    dist = float(norm(pv - qv))
    in_cone = bool(dx <= w * dy + _CONE_EDGE)
    law = bool(in_cone and abs(dist - dy) <= _CONE_LAW_TOL)
    return ConeDistanceCheck(dist, dy, w, in_cone, law)


def cone_reconstruct_abscissa(delta: float, beta: float, half_width: float) -> float:
    """First coordinate recovered from the leftmost base crossing:
    ``alpha = delta + (1 + beta) * w``."""
    return delta + (1.0 + beta) * half_width


def base_leftmost_crossing(norm, point) -> float:
    """Leftmost ``t`` with ``||(t, -1) - point|| <= 1 + beta``, ``beta = point[1]``.

    The distance along the line ``y = -1`` decreases toward the point, so a
    bracket search on the left branch lands on the left edge of the level
    set exactly.
    """
    pv = np.asarray(point, dtype=float)
    lvl = 1.0 + pv[1]

    def f(t: np.ndarray) -> np.ndarray:
        pts = np.stack([t, np.full_like(t, -1.0)], axis=-1)
        return norm(pts.reshape(-1, 2) - pv).reshape(t.shape) - lvl

    lo = pv[0]
    span = 1.0
    while f(np.array([lo]))[0] <= 0.0:
        lo -= span
        span *= 2.0
        if span > 1e6:
            raise ValueError("no exterior bracket found on the base line")

    def inside(t: np.ndarray, at: np.ndarray):
        ft = f(t)
        return ft <= 0.0, -ft

    return float(bracket_search(inside, [lo], [pv[0]], xtol=DEFAULT_TOLS.angle)[1][0])
