import math

import numpy as np
import pytest

from normgeo import (PolygonNorm, arc_hausdorff, arcset, bisector_points,
                     diametral_set, is_flat, is_isosceles_orthogonal,
                     maximal_segments, radial_point, self_circumference, sphere,
                     sphere_distance, sphere_point, star)
from normgeo.charts import LinearImageNorm
from normgeo.norms import HEX_VERTICES, PNorm, radial_points_vec, radial_vec
from normgeo.sphere import arc_length_map

from conftest import plain_bisection
from test_convexity import hexagon_image, seeded_matrix

TWO_PI = 2 * math.pi


def brute_force_level_arcs(norm, xv, level, angles=1_000_000, slack=1e-9):
    """Oracle: scan the sphere and collect angles where ||x - s|| >= level - slack."""
    thetas = np.linspace(0.0, TWO_PI, angles, endpoint=False)
    pts = radial_points_vec(norm, thetas)
    mask = norm(pts - xv) >= level - slack
    idx = np.where(mask)[0]
    if idx.size == 0:
        return []
    breaks = np.where(np.diff(idx) > 1)[0]
    groups = np.split(idx, breaks + 1)
    if len(groups) > 1 and groups[0][0] == 0 and groups[-1][-1] == angles - 1:
        groups[0] = np.concatenate([groups[-1] - angles, groups[0]])
        groups.pop()
    return [(thetas[g[0] % angles] + (TWO_PI if g[0] < 0 else 0) - TWO_PI * (g[0] < 0),
             thetas[g[-1]]) for g in groups]


# -- distances ---------------------------------------------------------------

def test_sphere_distance_examples(euclid, hexn):
    a = radial_point(euclid, 0.0)
    assert sphere_distance(euclid, a, a.antipode()) == pytest.approx(2.0, abs=1e-15)
    x = sphere_point(hexn, [1.0, 0.0])
    assert sphere_distance(hexn, x, sphere_point(hexn, [0.5, 1.0])) == 1.0
    assert sphere_distance(hexn, x, sphere_point(hexn, [-0.5, 1.0])) == 2.0


def test_sphere_distance_owner_mismatch(euclid, hexn):
    with pytest.raises(ValueError, match="different norm"):
        sphere_distance(euclid, radial_point(euclid, 0.0), radial_point(hexn, 0.0))


# -- distance-2 set and star -------------------------------------------------

def test_diametral_set_euclid_is_singleton(euclid):
    d = diametral_set(euclid, radial_point(euclid, 0.0))
    assert d.measure() < 1e-4
    assert d.contains(math.pi)


def test_diametral_set_hexagon_vertex(hexn):
    d = diametral_set(hexn, radial_point(hexn, 0.0))
    lo_expect = math.atan2(1.0, -0.5)
    hi_expect = math.atan2(-1.0, -0.5) % TWO_PI
    (lo, hi), = d.intervals
    assert lo == pytest.approx(lo_expect, abs=1e-9)
    assert hi == pytest.approx(hi_expect, abs=1e-9)


def test_diametral_set_matches_brute_force_scan(hexn, square):
    for norm, theta in ((hexn, 0.0), (square, math.pi / 4)):
        x = radial_point(norm, theta)
        d = diametral_set(norm, x)
        oracle = arcset(brute_force_level_arcs(norm, x.vec, 2.0), norm=norm)
        assert arc_hausdorff(d, oracle) < 1e-5


def test_square_vertex_diametral_set(square):
    # the two faces opposite the vertex (1,1)
    d = diametral_set(square, radial_point(square, math.pi / 4))
    (lo, hi), = d.intervals
    assert lo == pytest.approx(3 * math.pi / 4, abs=1e-9)
    assert hi == pytest.approx(7 * math.pi / 4, abs=1e-9)


def test_star_euclid_is_the_point_itself(euclid):
    s = star(euclid, radial_point(euclid, 1.0))
    assert s.measure() < 1e-4
    assert s.contains(1.0)


def test_star_hexagon_vertex_covers_two_faces(hexn):
    s = star(hexn, sphere_point(hexn, [-1.0, 0.0]))
    expected = arcset([(math.atan2(1.0, -0.5), math.atan2(-1.0, -0.5) + TWO_PI)])
    assert arc_hausdorff(s, expected) < 1e-9


def test_star_hexagon_edge_interior_is_whole_face(hexn):
    s = star(hexn, sphere_point(hexn, [0.75, 0.5]))
    expected = arcset([(0.0, math.atan2(1.0, 0.5))])
    assert arc_hausdorff(s, expected) < 1e-9


def test_star_on_a_face_at_the_seam_is_one_arc(hexn):
    """The face from angle 0 is one interval, with no sliver left below 2 pi
    by the star's level offset."""
    for theta in (0.3, math.pi / 3):
        s = star(hexn, radial_point(hexn, theta))
        assert len(s.intervals) == 1 and s.intervals[0][0] == 0.0
        assert abs(s.intervals[0][1] - math.atan2(1.0, 0.5)) < 1e-9
    assert arcset([(-1e-12, 1.0)]).intervals == ((0.0, 1.0),)
    assert arcset([(2.0, TWO_PI + 1e-12)]).intervals == ((2.0, TWO_PI),)
    # slivers on both sides, or wide pieces on both sides, stay
    assert len(arcset([(-1e-12, 1e-12)]).intervals) == 2
    assert len(arcset([(-0.5, 0.5)]).intervals) == 2


def test_diametral_equals_negated_star_everywhere(hexn, square, diamond, euclid, p3):
    for norm in (hexn, square, diamond, euclid, p3):
        for theta in np.linspace(0.1, TWO_PI, 7, endpoint=False):
            x = radial_point(norm, theta)
            gap = arc_hausdorff(diametral_set(norm, x), star(norm, x).negated())
            assert gap < 1e-5, (norm.kind, theta)


def test_diametral_membership_is_symmetric(hexn, square):
    # x' in D(x) iff x in D(x'), probed at interval midpoints
    for norm in (hexn, square):
        for theta in np.linspace(0.0, TWO_PI, 5, endpoint=False):
            x = radial_point(norm, theta)
            for lo, hi in diametral_set(norm, x).intervals:
                mid = radial_point(norm, 0.5 * (lo + hi))
                back = diametral_set(norm, mid)
                assert back.contains(theta, tol=1e-6)


def test_star_contains_its_base_point(hexn, square, euclid, p3, lens):
    for norm in (hexn, square, euclid, p3, lens):
        for theta in np.linspace(0.3, TWO_PI, 5, endpoint=False):
            assert star(norm, radial_point(norm, theta)).contains(theta, tol=1e-6)


# -- flat points -------------------------------------------------------------

def test_is_flat(hexn, euclid, lens):
    assert is_flat(hexn, sphere_point(hexn, [0.75, 0.5]))
    assert not is_flat(hexn, sphere_point(hexn, [1.0, 0.0]))
    assert not is_flat(euclid, radial_point(euclid, 0.3))
    # lens corners are extreme points, not flat
    assert not is_flat(lens, sphere_point(lens, [0.0, 1.0]))


@pytest.mark.parametrize("radius", [0.0, -1e-3, 2.0, 2.5, math.nan])
def test_is_flat_rejects_a_probe_radius_outside_0_2(hexn, radius):
    with pytest.raises(ValueError, match="radius"):
        is_flat(hexn, radial_point(hexn, 0.3), radius)


def test_nothing_is_flat_on_strictly_convex_spheres(euclid, p3, lens):
    for norm in (euclid, p3, lens):
        for theta in np.linspace(0.1, TWO_PI, 6, endpoint=False):
            assert not is_flat(norm, radial_point(norm, theta)), (norm.kind, theta)


def test_is_flat_square_and_diamond(square, diamond):
    assert is_flat(square, sphere_point(square, [1.0, 0.2]))
    assert not is_flat(square, sphere_point(square, [1.0, 1.0]))
    assert is_flat(diamond, sphere_point(diamond, [0.3, 0.7]))
    assert not is_flat(diamond, sphere_point(diamond, [0.0, 1.0]))


def test_flat_exactly_on_open_faces(hexn):
    for theta in np.linspace(0.05, 1.0, 4):
        assert is_flat(hexn, radial_point(hexn, theta))


# -- maximal segments --------------------------------------------------------

def test_maximal_segments_hexagon(hexn):
    segs = maximal_segments(hexn)
    assert len(segs) == 6
    assert all(abs(s.length - 1.0) < 1e-12 for s in segs)
    assert all(s.spans_unit for s in segs)


def test_maximal_segments_square_and_diamond(square, diamond):
    for norm in (square, diamond):
        segs = maximal_segments(norm)
        assert len(segs) == 4
        assert all(abs(s.length - 2.0) < 1e-12 for s in segs)


def test_maximal_segments_requires_polygon(euclid):
    with pytest.raises(TypeError):
        maximal_segments(euclid)


def test_segment_interior_stays_on_sphere(hexn):
    for seg in maximal_segments(hexn):
        a, b = seg.start.vec, seg.end.vec
        ts = np.linspace(0.0, 1.0, 100)
        pts = (1 - ts)[:, None] * a + ts[:, None] * b
        assert np.abs(hexn(pts) - 1.0).max() <= 1e-10


# -- bisectors ---------------------------------------------------------------

def test_bisector_examples(euclid, hexn, p3):
    for norm in (euclid, hexn, p3):
        pair = bisector_points(norm, radial_point(norm, 0.0))
        assert np.allclose(pair.point.vec, [0.0, 1.0], atol=1e-10)
        assert np.allclose(pair.antipode.vec, [0.0, -1.0], atol=1e-10)
        assert pair.unique


def test_bisector_pair_is_antipodal_and_balanced(hexn, lens):
    for norm in (hexn, lens):
        for theta in np.linspace(0.2, TWO_PI, 6, endpoint=False):
            x = radial_point(norm, theta)
            pair = bisector_points(norm, x)
            for z in (pair.point.vec, pair.antipode.vec):
                assert abs(norm(z - x.vec) - norm(z + x.vec)) < 1e-9
            assert np.allclose(pair.point.vec, -pair.antipode.vec, atol=1e-12)


def two_row(norm, vecs):
    """``norm`` of one vector in a two-row batch: the polygon and linear-image
    gauges round a lone row through BLAS differently from a batch."""
    return float(norm(np.array([vecs, vecs]))[0])


def two_row_radial(norm, theta):
    return radial_points_vec(norm, [theta, theta])[0]


def scalar_sides(fwd_pred, bwd_pred, xtol=1e-13):
    """Where each side's scalar bisection over ``[0, pi]`` turns True."""
    return (plain_bisection(fwd_pred, 0.0, math.pi, xtol)[1],
            plain_bisection(bwd_pred, 0.0, math.pi, xtol)[1])


def scalar_diametral(norm, theta, xv, level, xtol=1e-13):
    def dist(t):
        return two_row(norm, xv - two_row_radial(norm, theta + t))
    fwd, bwd = scalar_sides(lambda t: dist(t) >= level, lambda u: dist(TWO_PI - u) >= level,
                            xtol)
    return arcset([(theta + fwd, theta + TWO_PI - bwd)]).intervals


def test_queries_equal_scalar_bisection_bit_for_bit(hexn, p3, lens):
    """Every search of the sphere queries ends where one scalar bisection per
    side ends, its values evaluated one midpoint at a time."""
    hex_image = hexagon_image(seeded_matrix(11)[0])
    p3_image = LinearImageNorm(p3, seeded_matrix(12)[0])
    for norm in (hexn, p3, lens, hex_image, p3_image):
        for theta in (0.3, 2.0, 4.4):
            x = radial_point(norm, theta)
            xv = x.vec
            # the levels, like the queries, from lone rows
            level = float(norm(xv - radial_points_vec(norm, [theta + math.pi]))[0]) - 1e-12
            assert diametral_set(norm, x).intervals == scalar_diametral(norm, theta, xv, level)

            mid_level = float(norm(0.5 * (xv + radial_vec(norm, theta)))) - 0.5e-12

            def mid(t):
                return two_row(norm, 0.5 * (xv + two_row_radial(norm, theta + t)))
            fwd, bwd = scalar_sides(lambda t: mid(t) < mid_level,
                                    lambda u: mid(TWO_PI - u) < mid_level)
            assert star(norm, x).intervals == arcset([(theta - bwd, theta + fwd)]).intervals

            def g(t):
                s = two_row_radial(norm, theta + t)
                return two_row(norm, s - xv) - two_row(norm, s + xv)

            lo, hi = plain_bisection(lambda t: g(t) > 0.0, 1e-9, math.pi - 1e-9)
            root = 0.5 * (lo + hi)
            t_lo = plain_bisection(lambda t: abs(g(t)) <= 1e-10, 0.0, root)[1]
            t_hi = math.pi - plain_bisection(lambda u: abs(g(math.pi - u)) <= 1e-10,
                                             0.0, math.pi - root)[1]
            z = radial_point(norm, theta + 0.5 * (t_lo + t_hi))
            assert bisector_points(norm, x).point == z

            # is_flat: the probes 1e-3 away on each side, then the three
            # distance-2 sets in one search to its own resolution, their
            # levels from one batch
            probes = []
            for sign in (1.0, -1.0):
                lo, hi = plain_bisection(
                    lambda t: two_row(norm, xv - two_row_radial(norm, theta + sign * t))
                    - 1e-3 > 0.0, 0.0, math.pi)
                probes.append(radial_point(norm, theta + sign * (0.5 * (lo + hi))))
            points = [x, *probes]
            xvs = np.array([p.vec for p in points])
            thetas = np.array([p.theta % TWO_PI for p in points])
            levels = norm(xvs - radial_points_vec(norm, thetas + math.pi)) - 1e-12
            expected = [scalar_diametral(norm, t, v, lv, sphere._FLAT_XTOL)
                        for t, v, lv in zip(thetas.tolist(), xvs, levels.tolist())]
            searched = []
            arcs = sphere._diametral_arcs

            def spy(norm, points, xtol):
                searched.append((points, xtol))
                return arcs(norm, points, xtol)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sphere, "_diametral_arcs", spy)
                is_flat(norm, x)
            assert searched[0] == (points, sphere._FLAT_XTOL)
            assert [a.intervals for a in arcs(norm, points, sphere._FLAT_XTOL)] == expected


def test_general_bisector_midpoint_symmetry(hexn):
    # z equidistant from y, y' forces y + y' - z equidistant as well
    rng = np.random.default_rng(4)
    for _ in range(50):
        y, yp, z = rng.normal(size=(3, 2)) * 2
        if abs(hexn(z - y) - hexn(z - yp)) > 1e-9:
            continue
        mirrored = y + yp - z
        assert abs(hexn(mirrored - y) - hexn(mirrored - yp)) <= 1e-9


# -- isosceles orthogonality -------------------------------------------------

def test_isosceles_orthogonality_basics(euclid):
    assert is_isosceles_orthogonal(euclid, [1, 0], [0, 1])
    assert not is_isosceles_orthogonal(euclid, [1, 0], [1, 0])


def test_isosceles_orthogonality_cubenorm_triple():
    norm = PNorm(3.0, 3)
    x = np.array([1.0, 1.0, 1.0]) / 3.0 ** (1 / 3)
    z = np.array([1.0, 1.0, -(4.0 ** (1 / 3))]) / 6.0 ** (1 / 3)
    assert is_isosceles_orthogonal(norm, x, z)
    expected = (4.0 / 3.0 + 2.0 * 2.0 ** (1 / 3)) ** (1 / 3)
    assert norm(x + z) == pytest.approx(expected, abs=1e-12)
    assert norm(x - z) == pytest.approx(expected, abs=1e-12)


# -- circumference -----------------------------------------------------------

def test_self_circumference_values(hexn, euclid, diamond):
    assert self_circumference(hexn, 4096) == pytest.approx(6.0, abs=1e-9)
    assert self_circumference(euclid, 100_000) == pytest.approx(TWO_PI, abs=1e-6)
    assert self_circumference(diamond, 4096) == pytest.approx(8.0, abs=1e-10)


def test_self_circumference_monotone_under_refinement(euclid, lens):
    for norm in (euclid, lens):
        values = [self_circumference(norm, n) for n in (64, 128, 256, 512)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        gaps = [b - a for a, b in zip(values, values[1:])]
        assert gaps[-1] <= gaps[0]


# -- arc-length map ----------------------------------------------------------

# a polygon that is not builtin: the hexagon under [[1.3, 0.4], [-0.2, 0.9]]
HEX_IMAGE = PolygonNorm(tuple(
    (float(x), float(y))
    for x, y in np.asarray(HEX_VERTICES) @ np.array([[1.3, 0.4], [-0.2, 0.9]]).T))


def test_arc_length_map_circumference_closed_forms(euclid, hexn, square, diamond):
    for norm, exact in ((euclid, TWO_PI), (hexn, 6.0), (square, 8.0),
                        (diamond, 8.0), (HEX_IMAGE, 6.0)):
        assert arc_length_map(norm).circumference == pytest.approx(exact, abs=1e-12)


def test_arc_length_map_conjugate_exponents_share_perimeter(p3):
    # Schaffer: the spheres of l_p and l_q with 1/p + 1/q = 1 have equal
    # self-perimeter; p < 2 converges slowly at the axes (see the class doc)
    assert arc_length_map(PNorm(1.5, 2)).circumference == pytest.approx(
        arc_length_map(p3).circumference, abs=1e-7)


def test_arc_length_map_places_polygon_points_on_faces():
    amap = arc_length_map(HEX_IMAGE)
    verts = HEX_IMAGE.vertex_array()
    verts = verts[np.argsort(np.arctan2(verts[:, 1], verts[:, 0]) % TWO_PI)]
    closed = np.vstack([verts, verts[:1]])
    faces = HEX_IMAGE(np.diff(closed, axis=0))
    # arc 0 is the angle-0 point, on the face that ends at the first vertex
    start = HEX_IMAGE(verts[0] - amap.point_at(np.array([0.0]))[0])
    arcs = start + np.concatenate([[0.0], np.cumsum(faces)])
    frac = np.linspace(0.0, 1.0, 41)
    for k in range(len(verts)):
        pts = amap.point_at(arcs[k] + frac * faces[k])
        on_face = closed[k] + frac[:, None] * (closed[k + 1] - closed[k])
        assert np.abs(pts - on_face).max() <= 1e-12
        assert np.abs(HEX_IMAGE(pts - closed[k]) - frac * faces[k]).max() <= 1e-12
        assert np.abs(HEX_IMAGE(closed[k + 1] - pts)
                      - (1.0 - frac) * faces[k]).max() <= 1e-12


def test_arc_length_map_places_points_on_smooth_spheres(euclid):
    # on the round sphere arc length is the angle
    arcs = np.linspace(0.0, TWO_PI, 1001)
    pts = arc_length_map(euclid).point_at(arcs)
    assert np.abs(pts - np.column_stack([np.cos(arcs), np.sin(arcs)])).max() <= 1e-12
    p15 = PNorm(1.5, 2)
    amap = arc_length_map(p15)
    pts = amap.point_at(np.linspace(0.0, amap.circumference, 100_001))
    assert np.abs(p15(pts) - 1.0).max() <= 1e-12


# -- arc sets ----------------------------------------------------------------

def test_arcset_normalisation_and_merge():
    a = arcset([(TWO_PI - 0.5, TWO_PI + 0.5)])
    assert len(a.intervals) == 2
    assert a.contains(0.0) and a.contains(-0.4) and not a.contains(1.0)
    merged = arcset([(0.0, 1.0), (1.0 + 1e-12, 2.0)])
    assert merged.intervals == ((0.0, 2.0),)


def test_arcset_hausdorff_and_json():
    a = arcset([(0.0, 1.0)])
    b = arcset([(0.2, 1.0)])
    assert arc_hausdorff(a, b) == pytest.approx(0.2, abs=1e-12)
    assert arc_hausdorff(a, a) == 0.0
    assert a.to_json() == {"intervals": [[0.0, 1.0]]}
