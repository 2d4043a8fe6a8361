import math

import numpy as np
import pytest

from normgeo import (EuclideanNorm, PNorm, PolygonNorm, is_strictly_convex,
                     modulus_curve, modulus_of_convexity)
from normgeo.charts import LinearImageNorm
from normgeo.norms import HEX_VERTICES

P3_IMAGE_MATRIX = ((-0.285, -0.981), (0.953, -0.231))
SWEEP_BANDS = ((0.2, 0.8), (0.8, 1.4), (1.4, 1.95))


def round_modulus(eps):
    return 1.0 - math.sqrt(1.0 - eps * eps / 4.0)


def clarkson_modulus(eps, p=3.0):
    """Modulus of l_p for p >= 2."""
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


def hanner_modulus(eps, p=1.5):
    """Modulus of l_p for 1 < p <= 2: the root delta of
    (1 - delta + eps/2)^p + |1 - delta - eps/2|^p = 2 (Hanner 1956)."""
    lo, hi = 0.0, 1.0  # bracket of 1 - delta; the left side grows with it
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mid + eps / 2.0) ** p + abs(mid - eps / 2.0) ** p > 2.0:
            hi = mid
        else:
            lo = mid
    return 1.0 - 0.5 * (lo + hi)


def hexagon_modulus(eps):
    """Modulus of the affine-regular hexagon: 0 up to the face length 1."""
    return max(0.0, (eps - 1.0) / 2.0)


def pair_grid_modulus(norm, eps, resolution):
    """Independent O(n^2) oracle: the best pair of n equally spaced radial
    sphere points with chord >= eps, one angular lag at a time."""
    t = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    u = np.column_stack([np.cos(t), np.sin(t)])
    pts = u / norm(u)[:, None]
    best = 0.0
    for lag in range(1, resolution):
        partner = np.roll(pts, -lag, axis=0)
        sums = norm(pts + partner)[norm(pts - partner) >= eps]
        if sums.size:
            best = max(best, float(sums.max()))
    return 1.0 - 0.5 * best


def seeded_matrix(seed):
    """A determinant-1 matrix R(a) diag(s, 1/s) R(b), s in [0.7, 1.4], and the
    generator that drew it, for drawing eps next."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.0, math.pi, size=2)
    s = rng.uniform(0.7, 1.4)

    def rot(x):
        return np.array([[math.cos(x), -math.sin(x)], [math.sin(x), math.cos(x)]])
    m = rot(a) @ np.diag([s, 1.0 / s]) @ rot(b)
    return tuple(tuple(float(x) for x in row) for row in m), rng


def test_euclid_matches_closed_form(euclid):
    for eps in np.linspace(0.2, 2.0, 10):
        assert modulus_of_convexity(euclid, float(eps)) == pytest.approx(
            round_modulus(eps), abs=1e-4)


def test_euclid_sqrt2_value(euclid):
    assert modulus_of_convexity(euclid, math.sqrt(2.0)) == pytest.approx(
        1.0 - math.sqrt(2.0) / 2.0, abs=1e-6)


def test_diamond_modulus_vanishes(diamond):
    for eps in (0.3, 1.0, 1.7, 2.0):
        assert modulus_of_convexity(diamond, eps) == 0.0


def test_hexagon_modulus_vanishes_on_short_scales(hexn):
    assert modulus_of_convexity(hexn, 0.5) == 0.0
    assert modulus_of_convexity(hexn, 1.0) == 0.0


def test_hexagon_modulus_positive_beyond_face_length(hexn):
    value = modulus_of_convexity(hexn, 1.5)
    # independent coarse oracle at a different resolution
    oracle = pair_grid_modulus(hexn, 1.5, 1700)
    assert value > 1e-3
    assert value == pytest.approx(oracle, abs=2e-3)


def test_cubic_norm_is_less_convex_than_round(euclid, p3):
    eps = 1.0
    d2 = modulus_of_convexity(euclid, eps)
    dp = modulus_of_convexity(p3, eps)
    assert dp < d2 - 1e-4
    # p = 3 closed form: 1 - (1 - (eps/2)^3)^(1/3)
    assert dp == pytest.approx(1.0 - (1.0 - 0.125) ** (1.0 / 3.0), abs=1e-5)


def test_modulus_curve_monotone(euclid, p3, hexn):
    eps = np.linspace(0.2, 2.0, 8)
    for norm in (euclid, p3, hexn):
        deltas = modulus_curve(norm, eps, resolution=256).deltas()
        assert np.all(np.diff(deltas) >= -1e-6), norm.kind


def test_modulus_rejects_bad_eps(euclid):
    with pytest.raises(ValueError):
        modulus_of_convexity(euclid, 0.0)
    with pytest.raises(ValueError):
        modulus_of_convexity(euclid, 2.5)


def test_strict_convexity_verdicts(euclid, p3, hexn, square, lens):
    assert is_strictly_convex(euclid)
    assert is_strictly_convex(p3)
    assert is_strictly_convex(lens)  # corners are extreme, no segments
    assert not is_strictly_convex(hexn)
    assert not is_strictly_convex(square)


def test_strict_convexity_scaled(euclid):
    assert is_strictly_convex(EuclideanNorm(scale=3.0))
    assert is_strictly_convex(PNorm(1.5, 2))


@pytest.mark.parametrize("eps", [0.657388, 1.805012, 1.900724, 1.921581, 1.95])
def test_p15_matches_hanner(eps):
    assert modulus_of_convexity(PNorm(1.5, 2), eps) == pytest.approx(
        hanner_modulus(eps), abs=1e-10)


def test_p3_image_matches_clarkson():
    image = LinearImageNorm(PNorm(3.0, 2), P3_IMAGE_MATRIX)
    assert modulus_of_convexity(image, 1.805) == pytest.approx(
        clarkson_modulus(1.805), abs=1e-10)


@pytest.mark.parametrize("seed", range(11, 21))
def test_linear_images_keep_the_modulus(seed):
    # the hexagon image's sum peaks on a kink, where a partner crosses a vertex
    matrix, rng = seeded_matrix(seed)
    images = ((LinearImageNorm(PNorm(3.0, 2), matrix), clarkson_modulus),
              (LinearImageNorm(PNorm(1.5, 2), matrix), hanner_modulus),
              (PolygonNorm(tuple(map(tuple, np.asarray(HEX_VERTICES) @ np.asarray(matrix).T))),
               hexagon_modulus))
    for lo, hi in SWEEP_BANDS:
        eps = float(rng.uniform(lo, hi))
        for image, exact in images:
            assert modulus_of_convexity(image, eps) == pytest.approx(
                exact(eps), abs=1e-10), (image.kind, eps)


def test_resolution_must_be_an_integer_of_at_least_64(p3):
    for bad in (0, 63, 100.5, True, "512"):
        with pytest.raises(ValueError, match="resolution"):
            modulus_of_convexity(p3, 1.0, bad)
        with pytest.raises(ValueError, match="resolution"):
            is_strictly_convex(p3, bad)
    assert modulus_of_convexity(p3, 1.0, np.int64(64)) > 0.0


def test_strict_convexity_rejects_bad_separation(p3):
    for bad in (0.0, -1e-3, 2.5, float("nan")):
        with pytest.raises(ValueError, match="separation"):
            is_strictly_convex(p3, separation=bad)
