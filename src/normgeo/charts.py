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
from .numerics import TWO_PI, bracket_search, require_converged

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
    if abs(det) < 1e-12 * max(scale, 1e-300):
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
        off_src = float(np.abs(norm_x(src) - 1.0).max())
        off_img = float(np.abs(norm_y(img) - 1.0).max())
        if off_src > tol:
            raise ValueError(f"sources leave the sphere by {off_src:.2e}")
        if off_img > tol:
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
    sampler bug and raises.
    """
    src = sample.sources
    sums = np.abs(src[None, :, :] + src[:, None, :]).sum(axis=2)
    partner = np.argmin(sums, axis=1)
    worst = float(sums[np.arange(len(sample)), partner].max())
    if worst > DEFAULT_TOLS.geometric:
        raise ValueError(f"sample is missing antipodes (worst gap {worst:.2e})")
    return float(sample.norm_y(sample.images + sample.images[partner]).max())


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
    _locate_rows(sample.sources, np.asarray(chart_x.basis, dtype=float), 1e-8)
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


def four_distance_injectivity(norm: Norm, u1, u2, resolution: int = 4096,
                              *, tol: float = 1e-6,
                              min_separation_steps: int = 4) -> InjectivityResult:
    """Does ``v -> (||v+u1||, ||v-u1||, ||v+u2||, ||v-u2||)`` separate the sphere?

    Samples ``resolution`` angles and finds the exact minimum ``min_gap`` of
    the sup-metric gap between the distance 4-tuples of two samples more
    than ``min_separation_steps`` grid steps apart (circularly).  The sphere
    counts as separated when ``min_gap > tol``; otherwise ``witness`` is the
    pair attaining ``min_gap``, as plain float tuples with the smaller sample
    index first, the lowest index pair winning ties.

    The search is a sort-and-sweep closest pair: the tuples are sorted by
    ``||v+u1||``, and each sorted row is compared with the rows 1, 2, ...
    places after it while the key difference, a lower bound of the gap,
    stays within the best gap found so far.  Only the pairs whose
    ``||v+u2||`` difference, a second lower bound, is also within it need
    the full gap.

    Raises ``ValueError`` when ``resolution`` or ``min_separation_steps`` is
    not an integer, when no sample pair is far apart, when ``u1`` or
    ``u2`` is not a finite 2D vector or is so long that the rounding of its
    distances, ``||u|| * 2^-52``, exceeds ``tol`` or they overflow or do not
    vary over the sphere, and when ``tol`` is negative or NaN.
    """
    if norm.dim != 2:
        raise ValueError("the scan works on 2D spheres")
    a, b = _direction(u1, "u1"), _direction(u2, "u2")
    if abs(a[0] * b[1] - a[1] * b[0]) < 1e-12:
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
    # pairs exactly m + 1 steps apart are always far apart: they seed the bound
    idx = np.arange(n)
    partner = (idx + m + 1) % n
    seed = np.abs(tuples - tuples[partner]).max(axis=1)
    best = float(seed.min())
    code = _lowest_pair(idx, partner, seed == best, n)
    order = np.argsort(tuples[:, 0], kind="stable")
    ranked = tuples[order]
    keys = ranked[:, 0]
    rows = idx
    k = 0
    while rows.size:
        k += 1
        rows = rows[rows < n - k]
        # the key gap never shrinks as k grows, and ties with best are kept
        rows = rows[keys[rows + k] - keys[rows] <= best]
        # the ||v+u2|| gap bounds the sup-gap as well, but only for this k
        near = rows[np.abs(ranked[rows + k, 2] - ranked[rows, 2]) <= best]
        i, j = order[near], order[near + k]
        sep = np.abs(i - j)
        gaps = np.where(np.minimum(sep, n - sep) > m,
                        np.abs(ranked[near + k] - ranked[near]).max(axis=1), np.inf)
        g = float(gaps.min(initial=np.inf))
        if g <= best:
            c = _lowest_pair(i, j, gaps == g, n)
            if (g, c) < (best, code):
                best, code = g, c
    if best > tol:
        return InjectivityResult(True, None, best)
    lo, hi = divmod(code, n)
    wit = (tuple(pts[lo].tolist()), tuple(pts[hi].tolist()))
    return InjectivityResult(False, wit, best)


def _lowest_pair(i: np.ndarray, j: np.ndarray, at: np.ndarray, n: int) -> int:
    """``lo * n + hi`` of the lowest index pair ``{i, j}`` selected by ``at``."""
    return int((np.minimum(i[at], j[at]) * n + np.maximum(i[at], j[at])).min())


def _direction(u, name: str) -> np.ndarray:
    vec = np.asarray(u, dtype=float)
    if vec.shape != (2,) or not np.isfinite(vec).all():
        raise ValueError(f"{name} must be a finite 2D vector, got {u!r}")
    return vec


def arc_distinguishes(norm: Norm, arc, p, q, tol: float = 1e-9) -> bool:
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
    top = verts[np.abs(verts[:, 1] - 1.0) <= 1e-12]
    if top.shape[0] < 2:
        raise ValueError("the sphere has no horizontal face at height 1")
    w = float(top[:, 0].max())
    if abs(w + float(top[:, 0].min())) > 1e-12:
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
    in_cone = bool(dx <= w * dy + 1e-15)
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
    lo, hi, converged = bracket_search(lambda t: f(t) <= 0.0, [lo], [pv[0]], xtol=1e-13)
    require_converged(converged, lo, hi, f"base-line search on the {norm.kind} sphere")
    return float(hi[0])
