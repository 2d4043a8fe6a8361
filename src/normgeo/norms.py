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
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .numerics import TWO_PI, bisect_root

__all__ = [
    "Norm", "PNorm", "EuclideanNorm", "PolygonNorm", "HexagonalNorm",
    "LensNorm", "RevolutionNorm", "RadialGaugeNorm", "SpherePoint",
    "NormValidationReport", "eval_norm", "sphere_point", "radial_point",
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
        if self.p == 2.0:
            return np.sqrt((a * a).sum(axis=1))
        return (a ** self.p).sum(axis=1) ** (1.0 / self.p)

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
        if not (self.scale > 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")

    def _gauge(self, batch):
        return self.scale * np.sqrt((batch * batch).sum(axis=1))

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
        return np.abs(batch @ self._functionals.T).max(axis=1)

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


def _ellipse_gauge(batch: np.ndarray, shape: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Minkowski gauge, w.r.t. the origin, of an off-center ellipse.

    The ellipse is ``{u : (u-c)^T M (u-c) <= 1}`` and must contain the origin
    in its interior.  The gauge solves a quadratic in 1/lambda; with
    ``C = c^T M c - 1 < 0`` the positive root is ``(B + sqrt(disc)) / (2|C|)``,
    which never cancels catastrophically.
    """
    quad = np.einsum("ni,ij,nj->n", batch, shape, batch)
    lin = -2.0 * (batch @ (shape @ center))
    const = float(center @ shape @ center) - 1.0
    disc = lin * lin - 4.0 * quad * const
    root = (lin + np.sqrt(disc)) / (-2.0 * const)
    return root


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
        shape = tuple((float(a), float(b)) for a, b in self.shape)
        offset = (float(self.offset[0]), float(self.offset[1]))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "offset", offset)
        m = np.asarray(shape, dtype=float)
        if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
            raise ValueError("shape matrix must be symmetric")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() <= 0:
            raise ValueError("shape matrix must be positive definite")
        c = np.asarray(offset, dtype=float)
        if float(c @ m @ c) >= 1.0:
            raise ValueError("the origin must lie strictly inside both ellipses")
        object.__setattr__(self, "_shape_arr", m)
        object.__setattr__(self, "_offset_arr", c)
        object.__setattr__(self, "_corners", self._find_corners())

    def _gauge(self, batch):
        m, c = self._shape_arr, self._offset_arr
        return np.maximum(_ellipse_gauge(batch, m, c), _ellipse_gauge(batch, m, -c))

    def _find_corners(self) -> tuple[float, ...]:
        # Corners sit where the two ellipse gauges agree on the sphere.
        m, c = self._shape_arr, self._offset_arr

        def diff(theta: float) -> float:
            u = np.array([[math.cos(theta), math.sin(theta)]])
            return float(_ellipse_gauge(u, m, c)[0] - _ellipse_gauge(u, m, -c)[0])

        grid = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        vals = np.array([diff(t) for t in grid])
        corners = []
        for i in range(len(grid)):
            a, b = vals[i], vals[(i + 1) % len(grid)]
            if a == 0.0:
                corners.append(float(grid[i]))
            elif a * b < 0.0:
                lo = float(grid[i])
                hi = lo + float(grid[1] - grid[0])
                corners.append(bisect_root(diff, lo, hi, xtol=1e-14) % TWO_PI)
        return tuple(sorted(corners))

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
        ang = np.mod(np.asarray(angles, dtype=float), TWO_PI)
        order = np.argsort(ang)
        ang = ang[order]
        val = np.asarray(values, dtype=float)[order]
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


def sphere_point(norm: Norm, v, theta: float | None = None,
                 *, tol: float = DEFAULT_TOLS.evaluation) -> SpherePoint:
    """Certify ``v`` as a point of the unit sphere of ``norm``."""
    arr = np.asarray(v, dtype=float)
    value = norm(arr)
    if not abs(value - 1.0) <= tol:  # also rejects a NaN norm value
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


def eval_norm(norm: Norm, v) -> float:
    """Evaluate ``norm`` at a single vector."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError("eval_norm expects a single vector")
    return norm(arr)


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


def validate_norm(norm: Norm, sample_count: int = 1000, *,
                  seed: int = 0, threshold: float = 1e-10) -> NormValidationReport:
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
    passed = (triangle <= threshold and homog <= threshold
              and symmetry <= threshold and not issues)
    return NormValidationReport(norm.kind, sample_count, triangle, homog,
                                symmetry, issues, passed)


def _parse_p(raw) -> float:
    if isinstance(raw, str):
        if raw.lower() in ("inf", "infinity"):
            return math.inf
        return float(raw)
    return float(raw)


def norm_from_json(data: dict) -> Norm:
    """Rebuild a norm from its JSON description."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("norm description must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "pnorm":
        return PNorm(_parse_p(data["p"]), int(data.get("dim", 2)))
    if kind == "euclidean":
        return EuclideanNorm(float(data.get("scale", 1.0)), int(data.get("dim", 2)))
    if kind == "polygon":
        return PolygonNorm(tuple((float(x), float(y)) for x, y in data["vertices"]))
    if kind == "hexagonal":
        return HexagonalNorm()
    if kind == "lens":
        kwargs = {}
        if "shape" in data:
            kwargs["shape"] = tuple(tuple(float(x) for x in row) for row in data["shape"])
        if "offset" in data:
            kwargs["offset"] = tuple(float(x) for x in data["offset"])
        return LensNorm(**kwargs)
    if kind == "revolution":
        return RevolutionNorm(norm_from_json(data["profile"]))
    if kind == "radial":
        return RadialGaugeNorm.from_table(data["angles"], data["values"])
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
        return PNorm(_parse_p(key[1:]), 2)
    raise ValueError(f"unknown builtin norm {name!r}")
