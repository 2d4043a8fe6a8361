"""Declarative norms on R^2 and R^3 and their unit-sphere parametrizations.

Each norm variant is an immutable gauge: it evaluates single vectors or
batches, exposes the angles where its 2D sphere has corners, and serialises
to a small JSON dialect (``{"kind": ..., ...payload}``).  All instances are
hashable values, so they double as cache keys and as ownership markers for
certified sphere points.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .numerics import TWO_PI, bracket_search, require_converged

__all__ = [
    "Norm", "PNorm", "EuclideanNorm", "PolygonNorm", "HexagonalNorm",
    "LensNorm", "RevolutionNorm", "RadialGaugeNorm", "SpherePoint",
    "NormValidationReport", "sphere_point", "radial_point",
    "radial_vec", "radial_points_vec", "validate_norm", "square_norm",
    "diamond_norm", "hexagonal_norm", "norm_from_json", "builtin_norm",
    "HEX_VERTICES",
]


def _as_batch(v, dim: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ValueError(f"expected a {dim}-vector, got shape {arr.shape}")
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected vectors of dimension {dim}, got shape {arr.shape}")
    return arr, False


def _float_array(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """``value`` as a float array of ``shape``, else ``ValueError`` naming ``field``."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape:
        raise ValueError(f"{field} must be numbers of shape {shape}, got {value!r}")
    return arr


def _float_list(value, field: str) -> np.ndarray:
    """``value`` as a float array, else ``ValueError`` naming ``field``; the
    caller checks its shape."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{field} must be a list of numbers, got {value!r}") from None


def _integer(value, field: str) -> int:
    """``value`` as an int, else ``ValueError`` naming ``field`` (bools too)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _number(value, field: str, *, infinite: bool = False) -> float:
    """``value`` as a float, else ``ValueError`` naming ``field`` (bools too).

    With ``infinite``, the strings ``"inf"`` and ``"infinity"`` are accepted.
    """
    if infinite and isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)
# s ** fl(1/p) is off by |ln r| * 2^-53 relative at a result r, the rounding
# of 1/p; below 2^100 in magnitude that is at most 7.7e-15
_POWER_RANGE = 2.0 ** 100


@lru_cache(maxsize=None)
def _power_window(dim: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """``(small, big)`` of ``_power_sum_root``, as 0-d arrays (faster to compare)."""
    small = max((dim * _TINY) ** (1.0 / p), 1.0 / _POWER_RANGE)
    big = min((_HUGE / dim) ** (1.0 / p), _POWER_RANGE)
    return np.array(small), np.array(big)


def _power_sum_root(a: np.ndarray, p: float) -> np.ndarray:
    """``(sum_i a_i^p)^(1/p)`` of each row of the nonnegative ``a``, ``p > 1``.

    A row is summed as it stands while every power that matters is a normal
    float and the root is accurate: no entry exceeds ``big``, checked before
    the powers so that none overflows, and the result is zero or at least
    ``small``, checked after, so that the largest power did not underflow.
    The bounds are ``(huge / dim)^(1/p)`` and ``(dim * tiny)^(1/p)``, kept
    within ``2^-100 .. 2^100``.  Any other row is divided by its largest
    entry, summed and scaled back.  For ``p = 2``, ``x ** 2.0`` and
    ``x ** 0.5`` are bit for bit the square and the square root.
    """
    small, big = _power_window(a.shape[1], p)
    if not np.count_nonzero(a > big):
        out = (a ** p).sum(axis=1) ** (1.0 / p)
        low = out < small
        if not np.count_nonzero(low) or not a[low].any():  # zero rows are exact
            return out
    with np.errstate(over="ignore", under="ignore"):
        out = (a ** p).sum(axis=1) ** (1.0 / p)
        top = a.max(axis=1)
        redo = (top > big) | ((out < small) & (top > 0.0))  # NaN rows stay NaN
        scale = np.where(np.isfinite(top), top, 1.0)[redo]
        out[redo] = scale * ((a[redo] / scale[:, None]) ** p).sum(axis=1) ** (1.0 / p)
    return out


class Norm:
    """A symmetric, positively homogeneous convex gauge on R^dim."""

    kind: str = "norm"
    dim: int = 2

    def _gauge(self, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, v):
        batch, single = _as_batch(v, self.dim)
        out = self._gauge(batch)
        return float(out[0]) if single else out

    def corner_angles(self) -> tuple[float, ...]:
        """Angles (in [0, 2pi)) where the 2D unit sphere is not smooth."""
        return ()

    def payload(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.payload()}


@dataclass(frozen=True)
class PNorm(Norm):
    """The p-norm ``(sum |v_i|^p)^(1/p)``; ``p = inf`` gives the max norm."""

    p: float
    dim: int = 2
    kind = "pnorm"

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")

    def _gauge(self, batch):
        a = np.abs(batch)
        if math.isinf(self.p):
            return a.max(axis=1)
        if self.p == 1.0:
            return a.sum(axis=1)
        return _power_sum_root(a, self.p)

    def corner_angles(self):
        if self.dim != 2:
            return ()
        if self.p == 1.0:
            return (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
        if math.isinf(self.p):
            return tuple((2 * k + 1) * math.pi / 4 for k in range(4))
        return ()

    def payload(self):
        return {"p": "inf" if math.isinf(self.p) else self.p, "dim": self.dim}


@dataclass(frozen=True)
class EuclideanNorm(Norm):
    """``scale * ||v||_2``; scale 1 is the plain Euclidean norm."""

    scale: float = 1.0
    dim: int = 2
    kind = "euclidean"

    def __post_init__(self):
        if not (0.0 < self.scale < math.inf):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")

    def _gauge(self, batch):
        return self.scale * _power_sum_root(np.abs(batch), 2.0)

    def payload(self):
        return {"scale": self.scale, "dim": self.dim}


def _polygon_issues(vertices: Sequence[Sequence[float]]) -> list[str]:
    """Structural problems of a polygon vertex list, in plain words."""
    issues: list[str] = []
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2:
        return ["vertices must be a list of 2D points"]
    if not np.all(np.isfinite(verts)):
        return ["vertex coordinates must be finite"]
    n = verts.shape[0]
    if n < 4:
        issues.append(f"need at least 4 vertices, got {n}")
        return issues
    if n % 2 != 0:
        issues.append(f"vertex count must be even for central symmetry, got {n}")
    scale = np.abs(verts).max()
    if n % 2 == 0:
        half = n // 2
        gap = np.abs(verts[half:] + verts[:half]).max()
        if gap > 1e-9 * max(scale, 1.0):
            issues.append(f"vertex list is not centrally symmetric (max gap {gap:.2e})")
    area2 = 0.0
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        area2 += x0 * y1 - x1 * y0
    if area2 <= 0.0:
        issues.append("vertices must be ordered counterclockwise")
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        c = verts[(i + 2) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 1e-12 * max(scale * scale, 1.0):
            issues.append(
                f"vertices {i}, {i + 1}, {i + 2} are collinear or reflex "
                "(polygon must be strictly convex)")
            break
    return issues


@dataclass(frozen=True)
class PolygonNorm(Norm):
    """Gauge of a centrally symmetric convex polygon.

    Evaluation uses the precomputed face functionals: for each face with
    outward normal ``n`` and support value ``h = <n, vertex>`` the gauge is
    ``max_i |<n_i/h_i, v>|``.  Taking absolute values makes ``g(-v) == g(v)``
    bit-exact even if the vertex list carries rounding noise.
    """

    vertices: tuple[tuple[float, float], ...]
    validate: InitVar[bool] = True
    kind = "polygon"
    dim = 2

    def __post_init__(self, validate: bool):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        issues = _polygon_issues(verts)
        if validate and issues:
            raise ValueError("invalid polygon: " + "; ".join(issues))
        arr = np.asarray(verts, dtype=float)
        n = arr.shape[0]
        edges = np.roll(arr, -1, axis=0) - arr
        normals = np.column_stack([edges[:, 1], -edges[:, 0]])
        support = np.einsum("ij,ij->i", normals, arr)
        good = np.abs(support) > 0
        functionals = normals[good] / support[good, None]
        object.__setattr__(self, "_functionals", functionals)
        object.__setattr__(self, "_vertex_array", arr)

    def _gauge(self, batch):
        # one functional per row, so the max runs down the long axis
        vals = self._functionals @ batch.T
        np.abs(vals, out=vals)
        return vals.max(axis=0)

    def vertex_array(self) -> np.ndarray:
        return self._vertex_array.copy()

    def corner_angles(self):
        arr = self._vertex_array
        ang = np.mod(np.arctan2(arr[:, 1], arr[:, 0]), TWO_PI)
        return tuple(sorted(float(a) for a in ang))

    def structural_issues(self) -> list[str]:
        return _polygon_issues(self.vertices)

    def payload(self):
        return {"vertices": [list(v) for v in self.vertices]}


HEX_VERTICES: tuple[tuple[float, float], ...] = (
    (1.0, 0.0), (0.5, 1.0), (-0.5, 1.0), (-1.0, 0.0), (-0.5, -1.0), (0.5, -1.0))


@dataclass(frozen=True)
class HexagonalNorm(PolygonNorm):
    """The affine-regular hexagon gauge ``max(|b|, |a| + |b|/2)``."""

    vertices: tuple[tuple[float, float], ...] = HEX_VERTICES
    kind = "hexagonal"

    def payload(self):
        return {}


def hexagonal_norm() -> HexagonalNorm:
    return HexagonalNorm()


def square_norm() -> PolygonNorm:
    """Max norm on R^2 as a polygon (sphere is the square)."""
    return PolygonNorm(((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)))


def diamond_norm() -> PolygonNorm:
    """Sum norm on R^2 as a polygon (sphere is the diamond)."""
    return PolygonNorm(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))


def _ellipse_coefficients(shape: np.ndarray, center: np.ndarray) -> tuple[float, ...]:
    """``(M00, M01, M10, M11, w0, w1, C)`` of ``_ellipse_gauges``: the shape
    matrix ``M``, ``w = M c`` and ``C = c^T M c - 1``."""
    return (*shape.ravel().tolist(), *(shape @ center).tolist(),
            float(center @ shape @ center) - 1.0)


def _ellipse_gauges(batch: np.ndarray, coefficients: tuple[float, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Minkowski gauges, w.r.t. the origin, of an off-center ellipse and of
    its mirror image through the origin.

    The ellipse is ``{u : (u-c)^T M (u-c) <= 1}`` and must contain the origin
    in its interior.  The gauge solves a quadratic in 1/lambda; with
    ``C = c^T M c - 1 < 0`` the positive root is ``(B + sqrt(disc)) / (2|C|)``,
    which never cancels catastrophically.  The mirror image, centred at
    ``-c``, has the same quadratic with ``-B``.  Every term is computed row
    by row, so a vector's gauge does not depend on its batch.
    """
    m00, m01, m10, m11, w0, w1, const = coefficients
    x, y = batch[:, 0], batch[:, 1]
    quad = (x * m00) * x + (x * m01) * y + (y * m10) * x + (y * m11) * y
    lin = -2.0 * (x * w0 + y * w1)
    root = np.sqrt(lin * lin - 4.0 * quad * const)
    return (lin + root) / (-2.0 * const), (root - lin) / (-2.0 * const)


# Lens gauge values within 2^-100 .. 2^100 stand as computed: for a shape
# matrix and offset of moderate size the quadratic form of such a vector
# neither overflows (~1e154) nor falls into subnormals (~1e-154).
_LENS_RANGE = 2.0 ** 100


@dataclass(frozen=True)
class LensNorm(Norm):
    """Gauge whose ball is the intersection of two mirrored ellipses.

    The default parameters give a normalized lens: ellipses with shape matrix
    diag(1/4, 3/4) centred at (+-1, 0), so the sphere passes through (+-1, 0)
    and has exactly two corners, at (0, +-1).
    """

    shape: tuple[tuple[float, float], tuple[float, float]] = ((0.25, 0.0), (0.0, 0.75))
    offset: tuple[float, float] = (1.0, 0.0)
    kind = "lens"
    dim = 2

    def __post_init__(self):
        m = _float_array(self.shape, (2, 2), "shape")
        c = _float_array(self.offset, (2,), "offset")
        shape = tuple(map(tuple, m.tolist()))
        offset = tuple(c.tolist())
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "offset", offset)
        if not np.all(np.isfinite(m)):
            raise ValueError(f"shape matrix must be finite, got {shape}")
        if not all(map(math.isfinite, offset)):
            raise ValueError(f"offset must be finite, got {offset}")
        if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
            raise ValueError("shape matrix must be symmetric")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() <= 0:
            raise ValueError("shape matrix must be positive definite")
        if float(c @ m @ c) >= 1.0:
            raise ValueError("the origin must lie strictly inside both ellipses")
        object.__setattr__(self, "_coefficients", _ellipse_coefficients(m, c))
        object.__setattr__(self, "_corners", self._find_corners())

    def _gauge(self, batch):
        # a row whose value leaves the lens range is recomputed divided by its
        # largest entry (the gauge is homogeneous); other rows stand as they are
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._ellipses(batch)
            far = ~((out >= 1.0 / _LENS_RANGE) & (out <= _LENS_RANGE))
            if np.count_nonzero(far):
                top = np.abs(batch[far]).max(axis=1)
                scale = np.where((top > 0.0) & np.isfinite(top), top, 1.0)
                out[far] = scale * self._ellipses(batch[far] / scale[:, None])
        return out

    def _ellipses(self, batch):
        return np.maximum(*_ellipse_gauges(batch, self._coefficients))

    def _find_corners(self) -> tuple[float, ...]:
        # Corners sit where the two ellipse gauges agree on the sphere: one
        # batched pass over a grid, then one search over every sign change.
        def diff(theta: np.ndarray) -> np.ndarray:
            u = np.column_stack([np.cos(theta), np.sin(theta)])
            plus, minus = _ellipse_gauges(u, self._coefficients)
            return plus - minus

        grid = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        vals = diff(grid)
        cross = vals * np.roll(vals, -1) < 0.0
        rising = vals[cross, None] < 0.0
        lo = grid[cross]
        hi = lo + float(grid[1] - grid[0])
        lo, hi, converged = bracket_search(
            lambda t: (diff(t.ravel()).reshape(t.shape) <= 0.0) != rising,
            lo, hi, xtol=1e-14)
        require_converged(converged, lo, hi, f"corner search on the {self.kind} sphere")
        roots = (0.5 * (lo + hi)) % TWO_PI
        return tuple(sorted(grid[vals == 0.0].tolist() + roots.tolist()))

    def corner_angles(self):
        return self._corners

    def payload(self):
        return {"shape": [list(r) for r in self.shape], "offset": list(self.offset)}


@dataclass(frozen=True)
class RevolutionNorm(Norm):
    """Norm on R^3 obtained by revolving a 2D profile sphere about axis 1.

    ``||(a, b, c)|| = profile(a, ||(b, c)||_2)``.  The profile must be
    absolute (invariant under sign flips of either coordinate), otherwise the
    formula does not define a norm; this is checked on a sample at build time.
    """

    profile: Norm
    kind = "revolution"
    dim = 3

    def __post_init__(self):
        if self.profile.dim != 2:
            raise ValueError("revolution profile must be a 2D norm")
        rng = np.random.default_rng(7)
        sample = rng.normal(size=(64, 2))
        base = self.profile(sample)
        for flip in ((-1.0, 1.0), (1.0, -1.0)):
            gap = np.abs(self.profile(sample * np.asarray(flip)) - base).max()
            if gap > 1e-10:
                raise ValueError(
                    "revolution profile must be absolute in each coordinate "
                    f"(asymmetry {gap:.2e})")

    def _gauge(self, batch):
        radial = np.hypot(batch[:, 1], batch[:, 2])
        return self.profile._gauge(np.column_stack([batch[:, 0], radial]))

    def payload(self):
        return {"profile": self.profile.to_json()}


@dataclass(frozen=True)
class RadialGaugeNorm(Norm):
    """2D norm given by the radial function of its sphere, ``r(theta) > 0``.

    The function must satisfy ``r(theta) = r(theta + pi)`` and bound a convex
    region; both are checked on a sample grid at construction.  Vectors are
    canonicalised to the upper half plane before calling ``r`` so that
    ``g(-v) == g(v)`` holds bit-exactly.
    """

    radius: Callable[[np.ndarray], np.ndarray]
    table: tuple[tuple[float, ...], tuple[float, ...]] | None = field(default=None)
    kind = "radial"
    dim = 2

    def __post_init__(self):
        if self.table is not None:
            # validate the data itself; node interpolation wobble is h^3-small
            grid = np.asarray(self.table[0], dtype=float)
            half = len(grid) // 2
            if len(grid) < 8 or len(grid) % 2 != 0 or np.abs(
                    grid[half:] - math.pi - grid[:half]).max() > 1e-9:
                raise ValueError(
                    "radial table needs matched angle pairs theta, theta + pi")
        else:
            grid = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
            half = 1024
        r = self._radius_many(grid)
        if not np.all(np.isfinite(r)) or r.min() <= 0.0:
            raise ValueError("radial function must be finite and positive")
        anti = np.abs(r[half:] - r[:half]).max()
        if anti > 1e-10 * r.max():
            raise ValueError(f"radial function must have period pi (gap {anti:.2e})")
        pts = r[:, None] * np.column_stack([np.cos(grid), np.sin(grid)])
        e1 = np.roll(pts, -1, axis=0) - pts
        e2 = np.roll(pts, -2, axis=0) - np.roll(pts, -1, axis=0)
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if cross.min() < -1e-6 * np.abs(cross).mean():
            raise ValueError("radial function does not bound a convex region")

    def _radius_many(self, thetas: np.ndarray) -> np.ndarray:
        out = self.radius(np.asarray(thetas, dtype=float))
        arr = np.asarray(out, dtype=float)
        if arr.shape != np.shape(thetas):
            arr = np.array([float(self.radius(t)) for t in np.atleast_1d(thetas)])
        return arr

    def _gauge(self, batch):
        flip = (batch[:, 1] < 0.0) | ((batch[:, 1] == 0.0) & (batch[:, 0] < 0.0))
        canon = np.where(flip[:, None], -batch, batch)
        theta = np.arctan2(canon[:, 1], canon[:, 0])
        r = self._radius_many(theta)
        return np.hypot(canon[:, 0], canon[:, 1]) / r

    @staticmethod
    def from_table(angles: Sequence[float], values: Sequence[float]) -> "RadialGaugeNorm":
        """Build from sampled (angle, radius) pairs, interpolated periodically."""
        ang = np.mod(_float_list(angles, "angles"), TWO_PI)
        val = _float_list(values, "values")
        if ang.ndim != 1 or val.shape != ang.shape:
            raise ValueError(f"angles and values must be lists of the same length, "
                             f"got shapes {ang.shape} and {val.shape}")
        order = np.argsort(ang)
        ang = ang[order]
        val = val[order]
        ang_ext = np.concatenate([ang, ang[:1] + TWO_PI])
        val_ext = np.concatenate([val, val[:1]])

        def radius(thetas):
            t = np.mod(np.asarray(thetas, dtype=float), TWO_PI)
            return np.interp(t, ang_ext, val_ext)

        return RadialGaugeNorm(radius, table=(tuple(map(float, ang)),
                                              tuple(map(float, val))))

    def payload(self):
        if self.table is not None:
            ang, val = self.table
        else:
            grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
            ang = tuple(map(float, grid))
            val = tuple(map(float, self._radius_many(grid)))
        return {"angles": list(ang), "values": list(val)}


@dataclass(frozen=True)
class SpherePoint:
    """A vector certified to lie on the unit sphere of ``owner``."""

    v: tuple[float, ...]
    owner: Norm
    theta: float | None = None

    @property
    def vec(self) -> np.ndarray:
        return np.asarray(self.v, dtype=float)

    def antipode(self) -> "SpherePoint":
        t = None if self.theta is None else (self.theta + math.pi) % TWO_PI
        return SpherePoint(tuple(-x for x in self.v), self.owner, t)


def sphere_point(norm: Norm, v, theta: float | None = None) -> SpherePoint:
    """Certify ``v`` as a point of the unit sphere of ``norm``."""
    arr = np.asarray(v, dtype=float)
    value = norm(arr)
    if not abs(value - 1.0) <= DEFAULT_TOLS.evaluation:  # also rejects a NaN norm value
        raise ValueError(f"vector {arr.tolist()} has norm {value!r}, not 1")
    return SpherePoint(tuple(float(x) for x in arr), norm, theta)


def radial_vec(norm: Norm, theta: float) -> np.ndarray:
    """The sphere point of a 2D norm in direction ``theta``."""
    u = np.array([math.cos(theta), math.sin(theta)])
    return u / norm(u)


def radial_points_vec(norm: Norm, thetas) -> np.ndarray:
    """Vectorised ``radial_vec``: rows are sphere points."""
    t = np.asarray(thetas, dtype=float)
    u = np.column_stack([np.cos(t), np.sin(t)])
    return u / norm(u)[:, None]


def radial_point(norm: Norm, theta: float) -> SpherePoint:
    """Certified sphere point of a 2D norm at angle ``theta``."""
    if norm.dim != 2:
        raise ValueError("radial parametrization requires a 2D norm")
    v = radial_vec(norm, theta)
    return SpherePoint((float(v[0]), float(v[1])), norm, float(theta))


@dataclass(frozen=True)
class NormValidationReport:
    """Sampled norm-axiom violations plus structural findings."""

    kind: str
    samples: int
    triangle_max: float
    homogeneity_max: float
    symmetry_max: float
    structural_issues: tuple[str, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "samples": self.samples,
            "triangle_max": self.triangle_max,
            "homogeneity_max": self.homogeneity_max,
            "symmetry_max": self.symmetry_max,
            "structural_issues": list(self.structural_issues),
            "passed": self.passed,
        }


# Sampled axiom violations up to this count as rounding: the samples have
# norms of order 1 (the homogeneity gap is relative), rounded to ~1e-15.
_AXIOM_SLACK = 1e-10


def validate_norm(norm: Norm, sample_count: int = 1000, *,
                  seed: int = 0) -> NormValidationReport:
    """Check the norm axioms on pseudo-random samples; reports, never raises."""
    if sample_count < 3:
        raise ValueError("sample_count must be at least 3")
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(sample_count, norm.dim))
    v = rng.normal(size=(sample_count, norm.dim))
    nu, nv = norm(u), norm(v)
    triangle = float(np.max(norm(u + v) - nu - nv))
    lam = np.exp(rng.uniform(-3.0, 3.0, size=sample_count))
    scaled = norm(u * lam[:, None])
    homog = float(np.max(np.abs(scaled - lam * nu) / np.maximum(lam * nu, 1e-300)))
    symmetry = float(np.max(np.abs(norm(-u) - nu)))
    issues: tuple[str, ...] = ()
    if isinstance(norm, PolygonNorm):
        issues = tuple(norm.structural_issues())
    passed = (triangle <= _AXIOM_SLACK and homog <= _AXIOM_SLACK
              and symmetry <= _AXIOM_SLACK and not issues)
    return NormValidationReport(norm.kind, sample_count, triangle, homog,
                                symmetry, issues, passed)


def norm_from_json(data: dict) -> Norm:
    """Rebuild a norm from its JSON description."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("norm description must be an object with a 'kind' field")
    kind = data["kind"]

    def field(name: str):
        if name not in data:
            raise ValueError(f"{kind} needs field {name!r}")
        return data[name]

    def dim() -> int:
        return _integer(data.get("dim", 2), "dim")

    if kind == "pnorm":
        return PNorm(_number(field("p"), "p", infinite=True), dim())
    if kind == "euclidean":
        return EuclideanNorm(_number(data.get("scale", 1.0), "scale"), dim())
    if kind == "polygon":
        vertices = field("vertices")
        if not isinstance(vertices, (list, tuple)):
            raise ValueError(f"vertices must be a list of [x, y] pairs, got {vertices!r}")
        return PolygonNorm(tuple(tuple(_float_array(v, (2,), f"vertices[{i}]").tolist())
                                 for i, v in enumerate(vertices)))
    if kind == "hexagonal":
        return HexagonalNorm()
    if kind == "lens":
        return LensNorm(**{name: data[name] for name in ("shape", "offset") if name in data})
    if kind == "revolution":
        profile = field("profile")
        if not isinstance(profile, dict) or "kind" not in profile:
            raise ValueError(f"profile must be a norm object with a 'kind' field, "
                             f"got {profile!r}")
        return RevolutionNorm(norm_from_json(profile))
    if kind == "radial":
        return RadialGaugeNorm.from_table(field("angles"), field("values"))
    raise ValueError(f"unknown norm kind {kind!r}")


def builtin_norm(name: str) -> Norm:
    """Named norms accepted by the CLI: euclidean, hexagonal, square, diamond,
    lens, l1, linf, or ``p<value>`` such as ``p3`` / ``p1.5`` / ``pinf``."""
    key = name.strip().lower()
    table = {
        "euclidean": EuclideanNorm,
        "hexagonal": HexagonalNorm,
        "hexagon": HexagonalNorm,
        "square": square_norm,
        "linf": square_norm,
        "diamond": diamond_norm,
        "l1": diamond_norm,
        "lens": LensNorm,
    }
    if key in table:
        return table[key]()
    if key.startswith("p") and len(key) > 1:
        try:
            p = float(key[1:])
        except ValueError:
            raise ValueError(f"unknown builtin norm {name!r}") from None
        return PNorm(p, 2)
    raise ValueError(f"unknown builtin norm {name!r}")
