"""Reference computations the benchmark checks normgeo against.

Nothing here imports normgeo: each gauge is written from its closed form, and
the polygon symmetry count works on the vertex list alone, so a fault in the
library cannot hide in its own check.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

Gauge = Callable[[Sequence[float]], float]


def pnorm_gauge(p: float) -> Gauge:
    def gauge(v):
        return (abs(v[0]) ** p + abs(v[1]) ** p) ** (1.0 / p)
    return gauge


def euclidean_gauge(v) -> float:
    return math.hypot(v[0], v[1])


def hexagonal_gauge(v) -> float:
    """The affine-regular hexagon norm ``max(|b|, |a| + |b|/2)``."""
    return max(abs(v[1]), abs(v[0]) + 0.5 * abs(v[1]))


def polygon_gauge(vertices) -> Gauge:
    """Gauge of a centrally symmetric polygon: the largest face functional.

    Each counterclockwise edge ``a -> b`` gives the functional
    ``<n, v> / <n, a>`` with outward normal ``n``; the antipodal edge gives
    its negative, so the maximum needs no absolute value.
    """
    verts = np.asarray(vertices, dtype=float)
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    support = (normals * verts).sum(axis=1)
    rows = [(float(n[0] / h), float(n[1] / h)) for n, h in zip(normals, support)]

    def gauge(v):
        return max(r0 * v[0] + r1 * v[1] for r0, r1 in rows)
    return gauge


def lens_gauge(shape, offset) -> Gauge:
    """Gauge of the intersection of the ellipses ``(u -+ c)^T S (u -+ c) <= 1``.

    ``v / lam`` lies on the ellipse centred at ``c`` when
    ``(c^T S c - 1) lam^2 - 2 (c^T S v) lam + v^T S v = 0``; the leading
    coefficient is negative and the constant positive, so exactly one root is
    positive.
    """
    s = np.asarray(shape, dtype=float)
    c = np.asarray(offset, dtype=float)
    lead = float(c @ s @ c) - 1.0

    def one(v, centre):
        quad = float(v @ s @ v)
        lin = float(centre @ s @ v)
        return (math.sqrt(lin * lin - lead * quad) - lin) / (-lead)

    def gauge(v):
        arr = np.asarray(v, dtype=float)
        return max(one(arr, c), one(arr, -c))
    return gauge


def linear_image_gauge(base: Gauge, matrix) -> Gauge:
    """``v -> base(M v)``."""
    m = [[float(x) for x in row] for row in matrix]

    def gauge(v):
        return base((m[0][0] * v[0] + m[0][1] * v[1],
                     m[1][0] * v[0] + m[1][1] * v[1]))
    return gauge


def radial_point(gauge: Gauge, theta: float) -> np.ndarray:
    """The sphere point of ``gauge`` in direction ``theta``."""
    u = np.array([math.cos(theta), math.sin(theta)])
    return u / gauge(u)


def polygon_symmetry_count(vertices, tol: float = 1e-9) -> int:
    """Number of linear maps that permute the vertices of a polygon.

    A linear map permuting the vertices of a convex polygon keeps adjacency,
    so it sends the edge ``(v0, v1)`` to some edge ``(vk, vk+1)`` or
    ``(vk, vk-1)``; those two images fix the map, which is then kept when it
    carries every vertex onto a vertex.
    """
    verts = np.asarray(vertices, dtype=float)
    n = verts.shape[0]
    source_inv = np.linalg.inv(np.column_stack([verts[0], verts[1]]))
    count = 0
    for k in range(n):
        for step in (1, -1):
            target = np.column_stack([verts[k], verts[(k + step) % n]])
            t = target @ source_inv
            images = verts @ t.T
            gaps = np.abs(images[:, None, :] - verts[None, :, :]).max(axis=2)
            if np.all(gaps.min(axis=1) <= tol):
                count += 1
    return count


def polygon_face_length(vertices, gauge: Gauge) -> float:
    """Longest face of a polygon sphere, measured in its own norm."""
    verts = np.asarray(vertices, dtype=float)
    nxt = np.roll(verts, -1, axis=0)
    return max(gauge(b - a) for a, b in zip(verts, nxt))


def polygon_vertex_distance(vertices, gauge: Gauge, point) -> float:
    """Own-norm distance from a sphere point to the nearest vertex."""
    p = np.asarray(point, dtype=float)
    return min(gauge(p - v) for v in np.asarray(vertices, dtype=float))


def round_modulus(eps: float) -> float:
    """Modulus of convexity of the Euclidean plane."""
    return 1.0 - math.sqrt(1.0 - eps * eps / 4.0)


def clarkson_modulus(eps: float, p: float) -> float:
    """Clarkson's modulus of convexity of l_p, valid for ``p >= 2``."""
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


def ellipse_curvature(a: float, b: float, t: float) -> float:
    """Euclidean curvature of ``(a cos t, b sin t)``."""
    return a * b / (a * a * math.sin(t) ** 2 + b * b * math.cos(t) ** 2) ** 1.5


def circular_gap(theta: float, target: float) -> float:
    """Distance between two angles on the circle."""
    d = (theta - target) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)
