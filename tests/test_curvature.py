import math

import numpy as np
import pytest

from normgeo import (EuclideanNorm, LensNorm, PNorm, TwoPointConditionError,
                     circle_curve, corner_ratio, diamond_norm, ellipse_curve,
                     hexagonal_norm, normed_curvature, sphere_curve, square_norm)
from normgeo.charts import LinearImageNorm
from normgeo.curvature import (_GRID, DEFAULT_DELTAS, ClosedCurve,
                               _points_at_distances)
from normgeo.numerics import bracket_search, fit_quadratic


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


# -- one search for every radius -----------------------------------------------

def per_radius_points(ambient, curve, t0, deltas):
    """The two curve points at each radius, one two-bracket search per radius."""
    x = curve.point(t0)
    ts = t0 + np.linspace(0.0, curve.period, _GRID, endpoint=False)
    dist = ambient(curve.points(ts) - x)
    ends = np.append(ts, ts[0] + curve.period)
    a, b = [], []
    for delta in deltas:
        sign_lo = dist - delta < 0.0
        crossings = np.flatnonzero(sign_lo != np.roll(sign_lo, -1))
        if len(crossings) != 2:
            raise TwoPointConditionError(delta, len(crossings))
        below = sign_lo[crossings, None]

        def crossed(t, at, delta=delta, below=below):
            gap = ambient(curve.points(t.ravel()) - x).reshape(t.shape) - delta
            return (gap < 0.0) != below[at]

        lo, hi = bracket_search(crossed, ends[crossings], ends[crossings + 1], xtol=0.0)
        pa, pb = curve.points(0.5 * (lo + hi))
        a.append(pa)
        b.append(pb)
    return x, np.array(a), np.array(b)


def per_radius_curvature_ratios(ambient, curve, t0):
    x, a, b = per_radius_points(ambient, curve, t0, DEFAULT_DELTAS)
    ratios = []
    for delta, pa, pb in zip(DEFAULT_DELTAS, a, b):
        d = float(ambient(x - pa))
        ratios.append((delta, (2.0 * d - float(ambient(pa - pb))) / d ** 3))
    return tuple(ratios)


def per_radius_corner_ratio(norm, theta):
    x, a, b = per_radius_points(norm, sphere_curve(norm), theta, DEFAULT_DELTAS)
    qs = [float(norm(pa - pb)) / float(norm(x - pa)) for pa, pb in zip(a, b)]
    intercept = fit_quadratic(np.asarray(DEFAULT_DELTAS), np.asarray(qs))[0]
    return float(min(2.0, max(0.0, intercept)))


ANGLES = np.linspace(0.0, 2.0 * math.pi, 15, endpoint=False) + 0.05


def test_curves_in_the_round_norm_match_the_per_radius_searches():
    eu = EuclideanNorm()
    for curve in (circle_curve(1.3), ellipse_curve(1.4, 0.8, center=(0.3, -0.2))):
        for t0 in ANGLES[::3]:
            x, a, b = _points_at_distances(eu, curve, t0, DEFAULT_DELTAS)
            ox, oa, ob = per_radius_points(eu, curve, t0, DEFAULT_DELTAS)
            assert np.array_equal(x, ox) and np.array_equal(a, oa) and np.array_equal(b, ob)
            est = normed_curvature(eu, curve, t0)
            assert est.ratios == per_radius_curvature_ratios(eu, curve, t0)


@pytest.mark.parametrize("norm", [EuclideanNorm(), PNorm(3.0, 2), PNorm(1.5, 2),
                                  LensNorm()], ids=lambda n: n.kind)
def test_row_wise_gauges_match_the_per_radius_searches(norm):
    # these gauges compute each row alone, so batching every radius changes no bit
    curve = sphere_curve(norm)
    for theta in ANGLES:
        assert corner_ratio(norm, theta) == per_radius_corner_ratio(norm, theta)
    for theta in ANGLES[::5]:
        est = normed_curvature(EuclideanNorm(), curve, theta)
        assert est.ratios == per_radius_curvature_ratios(EuclideanNorm(), curve, theta)


@pytest.mark.parametrize("norm", [
    hexagonal_norm(), square_norm(),
    LinearImageNorm(PNorm(3.0, 2), ((-0.285, -0.981), (0.953, -0.231)))],
    ids=lambda n: n.kind)
def test_batch_dependent_gauges_stay_near_the_per_radius_searches(norm):
    # polygon and linear-image gauges round through matrix products whose
    # rounding depends on the batch: the corner ratio moves by a few ulps
    for theta in ANGLES:
        assert corner_ratio(norm, theta) == pytest.approx(
            per_radius_corner_ratio(norm, theta), abs=1e-14)


def test_large_parameters_are_taken_modulo_the_period(euclid):
    # searched from t0 itself, the grid would resolve points only to its ulp
    curve = circle_curve()
    for t0 in (1e6, 1e12):
        reduced = normed_curvature(euclid, curve, t0 % curve.period).value
        assert normed_curvature(euclid, curve, t0).value == pytest.approx(reduced, abs=1e-9)
    assert normed_curvature(euclid, curve, 1e17).value == pytest.approx(1.0, abs=1e-6)
    for period in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="period"):
            ClosedCurve(curve.fn, period)


def test_first_failing_radius_is_reported(euclid):
    # from x the distance along this flat ellipse rises to ~2.1, falls to ~0.4
    # and rises to ~3.9: radius 3 meets it twice, radii 1 and 0.5 four times
    curve = ellipse_curve(3.0, 0.2)
    t0 = 0.5 * math.pi + 0.3
    with pytest.raises(TwoPointConditionError) as caught:
        normed_curvature(euclid, curve, t0, deltas=(3.0, 1.0, 0.5, 2.0 ** -10))
    assert (caught.value.delta, caught.value.count) == (1.0, 4)
    with pytest.raises(TwoPointConditionError) as oracle:
        per_radius_points(euclid, curve, t0, (3.0, 1.0, 0.5, 2.0 ** -10))
    assert str(caught.value) == str(oracle.value)


@pytest.mark.parametrize("deltas", [
    (0.1, math.nan), (math.nan,), (math.inf, 0.1), (0.1, -math.inf), (0.1, 0.0),
    (0.1, -0.05), ("a", 0.1), (), (0.1, 0.2)])
def test_bad_deltas_are_named(euclid, deltas):
    with pytest.raises(ValueError, match="deltas") as caught:
        normed_curvature(euclid, circle_curve(1.0), 0.3, deltas=deltas)
    assert not isinstance(caught.value, TwoPointConditionError)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", None])
def test_bad_base_points_are_named(euclid, lens, value):
    with pytest.raises(ValueError, match="t0"):
        normed_curvature(euclid, circle_curve(1.0), value)
    with pytest.raises(ValueError, match="theta"):
        corner_ratio(lens, value)
