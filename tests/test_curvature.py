import math

import numpy as np
import pytest

from normgeo import (EuclideanNorm, TwoPointConditionError, circle_curve,
                     corner_ratio, diamond_norm, ellipse_curve, hexagonal_norm,
                     normed_curvature, sphere_curve, square_norm)


def test_circle_curvature_is_inverse_radius(euclid):
    for lam in (0.5, 1.0, 2.0):
        est = normed_curvature(euclid, circle_curve(lam), 0.3)
        assert est.value == pytest.approx(1.0 / lam, abs=1e-3)
        assert not est.divergent and not est.negative_radicand
        deltas = [d for d, _ in est.ratios]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_curvature_is_antihomogeneous():
    base = normed_curvature(EuclideanNorm(), circle_curve(1.0), 0.7).value
    for lam in (0.5, 2.0, 5.0):
        scaled = normed_curvature(EuclideanNorm(scale=lam), circle_curve(1.0), 0.7)
        assert scaled.value == pytest.approx(base / lam, abs=1e-3)


def test_curvature_is_translation_invariant(euclid):
    # the ratio numerator cancels to ~delta^3, so ulp-level rounding of the
    # translated curve points caps agreement near 1e-6 at the default schedule
    centered = normed_curvature(euclid, circle_curve(1.0), 1.1)
    moved = normed_curvature(euclid, circle_curve(1.0, center=(3.7, -2.2)), 1.1)
    assert moved.value == pytest.approx(centered.value, abs=1e-5)


def test_ellipse_vertex_curvature(euclid):
    # osculating-circle curvature of x^2/4 + y^2 = 1 at (2, 0) is a/b^2 = 2
    est = normed_curvature(euclid, ellipse_curve(2.0, 1.0), 0.0)
    assert est.value == pytest.approx(2.0, abs=1e-2)


def test_hexagon_sphere_flat_in_own_norm(hexn):
    curve = sphere_curve(hexn)
    vertex = normed_curvature(hexn, curve, 0.0)
    assert vertex.value == 0.0
    assert max(abs(r) for _, r in vertex.ratios) <= 1e-5
    edge = normed_curvature(hexn, curve, math.atan2(0.5, 0.75))
    assert edge.value == 0.0
    assert max(abs(r) for _, r in edge.ratios) <= 1e-5


@pytest.mark.parametrize("make", [square_norm, diamond_norm, hexagonal_norm])
def test_polygon_faces_flat_in_own_norm(make):
    # the middle half of every face; rounding noise in the ratios there
    # must not be read as a diverging sequence
    norm = make()
    verts = norm.vertex_array()
    curve = sphere_curve(norm)
    for k in range(len(verts)):
        for lam in np.linspace(0.25, 0.75, 11):
            p = (1.0 - lam) * verts[k] + lam * verts[(k + 1) % len(verts)]
            est = normed_curvature(norm, curve, math.atan2(p[1], p[0]))
            assert est.value == 0.0, (norm.kind, k, lam, est.ratios)


def test_hexagon_vertex_diverges_in_round_norm(euclid, hexn):
    est = normed_curvature(euclid, sphere_curve(hexn), 0.0)
    assert est.divergent
    assert est.value == math.inf


def test_two_point_condition_violation_raises(euclid):
    # a radius-1 circle never reaches chordal distance 2.5
    with pytest.raises(TwoPointConditionError):
        normed_curvature(euclid, circle_curve(1.0), 0.0, deltas=(2.5, 1.25))


def test_schedule_must_decrease(euclid):
    with pytest.raises(ValueError, match="decreasing"):
        normed_curvature(euclid, circle_curve(1.0), 0.0, deltas=(0.1, 0.1))


def test_corner_ratio_round_sphere(euclid):
    assert corner_ratio(euclid, 0.7) == pytest.approx(2.0, abs=1e-3)


def test_corner_ratio_lens(lens):
    assert corner_ratio(lens, 0.4) == pytest.approx(2.0, abs=1e-3)
    corner = corner_ratio(lens, math.pi / 2)
    assert corner < 2.0 - 1e-2
    assert 1.5 < corner < 1.95


def test_corner_ratio_stays_in_range(hexn):
    for theta in np.linspace(0.0, 2 * math.pi, 6, endpoint=False):
        q = corner_ratio(hexn, theta)
        assert 0.0 <= q <= 2.0


def test_corner_ratio_hexagon_own_norm_is_two_everywhere(hexn):
    # measured in its own norm the hexagon has additive chords even across
    # vertices, so the small-scale ratio is 2 at every point
    for theta in (0.0, 0.3, math.atan2(1.0, 0.5)):
        assert corner_ratio(hexn, theta) == pytest.approx(2.0, abs=1e-9)


def test_corner_ratio_smooth_p_norm_axis(p3):
    # the p-sphere is C1 at the axis point, so the tangent-line limit is 2
    assert corner_ratio(p3, 0.0) == pytest.approx(2.0, abs=1e-3)


def test_round_sphere_curve_matches_circle(euclid):
    from normgeo import sphere_curve as sc
    est = normed_curvature(euclid, sc(euclid), 0.5)
    assert est.value == pytest.approx(1.0, abs=1e-3)
