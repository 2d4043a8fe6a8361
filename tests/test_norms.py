import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgeo import (EuclideanNorm, HexagonalNorm, LensNorm, Norm, PNorm,
                     PolygonNorm, RadialGaugeNorm, RevolutionNorm,
                     builtin_norm, diamond_norm, hexagonal_norm,
                     lift_target_norm, norm_from_json, radial_point,
                     sphere_point, square_norm, validate_norm)
from normgeo import norms
from normgeo.norms import HEX_VERTICES, radial_points_vec

from conftest import plain_bisection


def test_hexagonal_vertex_values(hexn):
    assert hexn([0.5, 1.0]) == 1.0
    assert hexn([1.0, 0.0]) == 1.0
    assert hexn([0.0, 1.0]) == 1.0


def test_hexagonal_matches_max_formula(hexn):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4, 4, size=(500, 2))
    expected = np.maximum(np.abs(pts[:, 1]),
                          np.abs(pts[:, 0]) + 0.5 * np.abs(pts[:, 1]))
    assert np.abs(hexn(pts) - expected).max() < 1e-14


def test_pnorm_basis_vectors():
    assert PNorm(3.0, 3)([1.0, 0.0, 0.0]) == 1.0
    assert PNorm(math.inf, 3)([0.3, -2.0, 1.0]) == 2.0
    assert PNorm(1.0, 2)([0.5, -0.25]) == 0.75


def test_revolution_of_hexagon_max_formula():
    norm = lift_target_norm()
    # second component pair has Euclidean length exactly 1
    assert norm([0.5, 0.6, 0.8]) == 1.0
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(200, 3))
    rad = np.hypot(pts[:, 1], pts[:, 2])
    expected = np.maximum(rad, np.abs(pts[:, 0]) + 0.5 * rad)
    assert np.abs(norm(pts) - expected).max() < 1e-14


def test_revolution_rejects_non_absolute_profile():
    skew = PolygonNorm(((1.0, 0.5), (-0.5, 1.0), (-1.0, -0.5), (0.5, -1.0)))
    with pytest.raises(ValueError, match="absolute"):
        RevolutionNorm(skew)


def test_radial_point_examples(euclid, hexn):
    assert np.allclose(radial_point(euclid, math.pi / 2).vec, [0, 1], atol=1e-15)
    assert np.allclose(radial_point(hexn, math.pi / 2).vec, [0, 1], atol=1e-15)
    p = radial_point(PNorm(1.0, 2), math.pi / 4)
    assert np.allclose(p.vec, [0.5, 0.5], atol=1e-15)


def test_radial_points_land_on_sphere(shipped_2d):
    thetas = np.linspace(0.0, 2 * math.pi, 10_000, endpoint=False)
    for norm in shipped_2d:
        pts = radial_points_vec(norm, thetas)
        assert np.abs(norm(pts) - 1.0).max() <= 1e-12, norm.kind


def test_sphere_point_rejects_off_sphere(hexn, euclid):
    with pytest.raises(ValueError, match="norm"):
        sphere_point(hexn, [0.9, 0.0])
    for norm in (hexn, euclid):
        with pytest.raises(ValueError, match="norm"):
            sphere_point(norm, [math.nan, 0.0])


def test_dimension_mismatch_raises(hexn):
    with pytest.raises(ValueError):
        hexn([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        PNorm(2.0, 3)([1.0, 2.0])


@st.composite
def plane_vectors(draw):
    coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
    return np.array([draw(coord), draw(coord)])


@settings(max_examples=60, deadline=None)
@given(u=plane_vectors(), v=plane_vectors())
def test_triangle_inequality(shipped_2d, u, v):
    for norm in shipped_2d:
        assert norm(u + v) <= norm(u) + norm(v) + 1e-10


@settings(max_examples=60, deadline=None)
@given(v=plane_vectors(), lam=st.floats(min_value=1e-3, max_value=1e3))
def test_positive_homogeneity(shipped_2d, v, lam):
    # a few ulp of slack for the power/quadratic evaluation paths
    for norm in shipped_2d:
        base = norm(v)
        if base < 1e-12:
            continue
        assert abs(norm(lam * v) - lam * base) <= 2e-15 * lam * base


@settings(max_examples=60, deadline=None)
@given(v=plane_vectors())
def test_symmetry_is_exact(shipped_2d, v):
    for norm in shipped_2d:
        assert norm(-v) == norm(v)


def test_polygon_gauge_matches_the_row_max_bit_for_bit(hexn, square):
    image = PolygonNorm(tuple(map(tuple, np.asarray(HEX_VERTICES)
                                  @ np.array([[1.3, 0.4], [-0.2, 0.9]]).T)))
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(4096, 2)) * np.exp(rng.uniform(-20, 20, size=(4096, 1)))
    batch[7] = [math.nan, 1.0]
    for norm in (square, hexn, image):
        def row_max(vectors):  # the reference: a row max over the face functionals
            return np.abs(np.atleast_2d(vectors) @ norm._functionals.T).max(axis=1)
        assert np.array_equal(norm(batch), row_max(batch), equal_nan=True)
        singles = np.array([norm(v) for v in batch[:64]])
        want = np.array([row_max(v)[0] for v in batch[:64]])
        assert np.array_equal(singles, want, equal_nan=True)
        assert math.isnan(singles[7])


POWER_NORMS = (EuclideanNorm(), EuclideanNorm(scale=2.5), PNorm(2.0, 2),
               PNorm(3.0, 2), PNorm(1.5, 2), PNorm(3.0, 3), EuclideanNorm(dim=3))


@pytest.mark.parametrize("dim", [2, 3])
def test_column_row_sums_are_the_row_reduction_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    batch = rng.normal(size=(4096, dim)) * 10.0 ** rng.uniform(-310, 300, size=(4096, dim))
    batch[:8] = 0.0
    batch[8:16] = 5e-324 * rng.integers(-3, 4, size=(8, dim))
    for k, special in enumerate((math.inf, -math.inf, math.nan)):
        batch[16 + 8 * k:24 + 8 * k, rng.integers(0, dim)] = special
    batch[40] = [math.inf, -math.inf, 1.0][:dim]
    # no row of negative zeros: it sums to -0.0 by columns, to 0.0 by rows
    assert not np.all(np.signbit(batch) & (batch == 0.0), axis=1).any()
    for a in (batch, np.abs(batch), np.asfortranarray(batch)):
        with np.errstate(invalid="ignore"):  # inf + -inf
            assert norms._row_sums(a).tobytes() == a.sum(axis=1).tobytes()


def test_power_gauges_neither_overflow_nor_underflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert EuclideanNorm()([1e200, 0.0]) == 1e200
        assert PNorm(3.0, 2)([1e110, 0.0]) == 1e110
        assert PNorm(3.0, 2)([1e-120, 0.0]) == 1e-120
        assert PNorm(1.5, 2)([-1e300, 0.0]) == 1e300
        assert EuclideanNorm()([0.0, 0.0]) == 0.0
        batch = np.array([[1e200, 1e200], [3.0, 4.0], [0.0, 0.0], [math.nan, 1.0],
                          [math.inf, 1.0], [1e-300, 0.0]])
        got = EuclideanNorm()(batch)
    assert got[1] == 5.0 and got[2] == 0.0 and math.isnan(got[3])
    assert got[4] == math.inf and got[5] == 1e-300
    assert got[0] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, 2 * math.pi), e=st.floats(-300.0, 300.0),
       f=st.floats(-300.0, 300.0))
def test_power_gauges_are_homogeneous_over_the_float_range(theta, e, f):
    u = np.array([math.cos(theta), math.sin(theta), 0.5])
    for norm in POWER_NORMS:
        v = u[:norm.dim]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = norm(10.0 ** e * v), norm(10.0 ** f * v)
            rows = norm(np.stack([10.0 ** e * v, 10.0 ** f * v, 0.0 * v]))
        assert math.isfinite(a) and a > 0.0, (norm, e)
        assert abs(a / 10.0 ** e - b / 10.0 ** f) <= 1e-14 * (a / 10.0 ** e), (norm, e, f)
        # a row's value does not depend on the rows it is batched with
        assert rows.tolist() == [a, b, 0.0]


def test_symmetry_exact_in_3d():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(300, 3)) * 5
    for norm in (PNorm(3.0, 3), PNorm(math.inf, 3), lift_target_norm()):
        assert np.all(norm(-pts) == norm(pts))


def test_validate_norm_passes_for_shipped(hexn, diamond):
    assert validate_norm(hexn, 1000).passed
    assert validate_norm(diamond, 1000).passed


def test_validate_reports_broken_polygon():
    broken = PolygonNorm(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.1, -1.0)),
                         validate=False)
    report = validate_norm(broken, 500)
    assert not report.passed
    assert any("symmetric" in issue for issue in report.structural_issues)
    nan_vertex = PolygonNorm(((math.nan, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)),
                             validate=False)
    report = validate_norm(nan_vertex, 500)
    assert not report.passed
    assert any("finite" in issue for issue in report.structural_issues)


class _Broken(Norm):
    """``scale`` times a gauge that breaks one norm axiom."""

    def __init__(self, scale, gauge):
        self.scale, self.gauge = scale, gauge

    def _gauge(self, batch):
        return self.scale * self.gauge(batch)


def _asymmetric(batch):  # ||v||_2 + v_x / 2: convex, not symmetric
    return np.hypot(batch[:, 0], batch[:, 1]) + 0.5 * batch[:, 0]


def _half_power(batch):  # (sqrt|x| + sqrt|y|)^2: symmetric, not convex
    return np.sqrt(np.abs(batch)).sum(axis=1) ** 2


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
def test_validate_norm_gaps_are_relative(scale):
    # a sphere of radius 1/scale has norm values ~scale on the samples
    diamond = PolygonNorm(((1 / scale, 0.0), (0.0, 1 / scale), (-1 / scale, 0.0),
                           (0.0, -1 / scale)))
    report = validate_norm(diamond, 1000)
    assert report.passed and report.triangle_max <= 1e-15
    for gauge, gap in ((_asymmetric, "symmetry_max"), (_half_power, "triangle_max")):
        report = validate_norm(_Broken(scale, gauge), 500)
        assert not report.passed and getattr(report, gap) > 0.1


def test_polygon_construction_errors():
    with pytest.raises(ValueError, match="counterclockwise"):
        PolygonNorm(((1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="symmetric"):
        PolygonNorm(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.2, -1.0)))
    with pytest.raises(ValueError, match="collinear|convex"):
        # (0,2), (-1,1), (-2,0) sit on one line
        PolygonNorm(((2.0, 0.0), (0.0, 2.0), (-1.0, 1.0), (-2.0, 0.0),
                     (0.0, -2.0), (1.0, -1.0)))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            PolygonNorm(((bad, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))


@pytest.mark.parametrize("scale", [1e-310, 1e308])
def test_polygon_at_an_extreme_scale_names_its_coordinates(scale):
    # the face functionals normal / support would be infinite or 0; the
    # orientation and turn checks would misread the diamond as degenerate
    diamond = ((scale, 0.0), (0.0, scale), (-scale, 0.0), (0.0, -scale))
    with pytest.raises(ValueError, match="vertices have coordinates too large or too small"):
        PolygonNorm(diamond)


def test_small_polygons_keep_their_turns():
    # the turn and symmetry checks are relative to the largest coordinate
    for scale in (1e-7, 1e-140, 1e140):
        diamond = PolygonNorm(((scale, 0.0), (0.0, scale), (-scale, 0.0), (0.0, -scale)))
        assert diamond([scale, scale]) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError, match="symmetric"):
        PolygonNorm(((1e-10, 0.0), (0.0, 1e-10), (-1e-10, 0.0), (2e-11, -1e-10)))


def test_lens_is_normalized_with_two_corners(lens):
    assert lens([1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert lens([0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    corners = lens.corner_angles()
    assert len(corners) == 2
    assert corners[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert corners[1] == pytest.approx(3 * math.pi / 2, abs=1e-12)


TILTED_LENS = dict(shape=((0.3, 0.05), (0.05, 0.6)), offset=(0.9, 0.3))


def test_lens_corners_match_a_scalar_bisection(lens):
    """The batched corner search agrees with one scalar bisection per grid
    cell where the two ellipse gauges swap."""
    from normgeo.norms import _ellipse_gauges
    for norm in (lens, LensNorm(**TILTED_LENS)):
        coefficients = norm._coefficients

        def diff(t):
            u = np.array([[math.cos(t), math.sin(t)]])
            plus, minus = _ellipse_gauges(u, coefficients)
            return float(plus[0] - minus[0])

        grid = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
        vals = [diff(t) for t in grid]
        def root(a, b):  # diff changes sign once on [a, b]
            rising = diff(a) < 0.0
            lo, hi = plain_bisection(lambda t: (diff(t) <= 0.0) != rising, a, b, 1e-14)
            return 0.5 * (lo + hi)

        expected = sorted(
            float(grid[i]) if vals[i] == 0.0 else
            root(grid[i], grid[i] + grid[1]) % (2 * math.pi)
            for i in range(1024) if vals[i] == 0.0 or vals[i] * vals[(i + 1) % 1024] < 0.0)
        assert len(norm.corner_angles()) == len(expected) == 2
        assert np.abs(np.subtract(norm.corner_angles(), expected)).max() <= 1e-14


LENSES = (LensNorm(), LensNorm(**TILTED_LENS))


def test_lens_gauge_neither_overflows_nor_underflows(lens):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lens([1e200, 0.0]) == pytest.approx(1e200, rel=1e-15)
        assert lens([0.0, -1e-300]) == pytest.approx(1e-300, rel=1e-15)
        got = lens(np.array([[1e300, 1e300], [1.0, 0.0], [0.0, 0.0], [math.nan, 1.0]]))
    assert got[1] == lens([1.0, 0.0]) and got[2] == 0.0 and math.isnan(got[3])
    assert got[0] == pytest.approx(1e300 * lens([1.0, 1.0]), rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, 2 * math.pi), e=st.floats(-300.0, 300.0),
       f=st.floats(-300.0, 300.0))
def test_lens_gauge_is_homogeneous_over_the_float_range(theta, e, f):
    v = np.array([math.cos(theta), math.sin(theta)])
    for norm in LENSES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = norm(10.0 ** e * v), norm(10.0 ** f * v)
            batch = np.stack([10.0 ** e * v, 10.0 ** f * v, 0.0 * v, v])
            rows = norm(batch)
        assert math.isfinite(a) and a > 0.0, (norm, e)
        assert abs(a / 10.0 ** e - b / 10.0 ** f) <= 1e-14 * (a / 10.0 ** e), (norm, e, f)
        assert abs(rows[0] / 10.0 ** e - b / 10.0 ** f) <= 1e-14 * (a / 10.0 ** e)
        # in-range rows are bit for bit the plain quadratic-form gauge
        with np.errstate(all="ignore"):
            plain = norm._ellipses(batch)
        assert rows[2] == 0.0 and rows[3] == plain[3]


def test_lens_rejects_bad_shapes():
    with pytest.raises(ValueError, match="positive definite"):
        LensNorm(shape=((-1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="inside"):
        LensNorm(offset=(5.0, 0.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="offset"):
            LensNorm(offset=(bad, 0.0))
        with pytest.raises(ValueError, match="shape"):
            LensNorm(shape=((bad, 0.0), (0.0, 1.0)))
    # M - M^T would overflow: named, with no overflow warning
    with pytest.raises(ValueError, match="shape matrix must be symmetric"):
        LensNorm(shape=((1.0, 1e308), (-1e308, 1.0)))
    # c^T M c overflows: named, with no overflow warning
    with pytest.raises(ValueError, match=r"offset \(1e\+308, 0.0\) gives c\^T M c = inf"):
        LensNorm(offset=(1e308, 0.0))
    for short in ((1.0,), (1.0, 0.0, 0.0), "ab"):
        with pytest.raises(ValueError, match="offset must be numbers of shape"):
            LensNorm(offset=short)
    for ragged in ((0.25, 0.75), ((0.25, 0.0),), ((0.25, 0.0), (0.0,))):
        with pytest.raises(ValueError, match="shape must be numbers of shape"):
            LensNorm(shape=ragged)


def test_radial_gauge_reproduces_ellipse_norm():
    # radius of the ellipse x^2 + 4 y^2 = 1 as a function of direction
    gauge = RadialGaugeNorm(lambda t: 1.0 / np.sqrt(np.cos(t) ** 2 + 4 * np.sin(t) ** 2))
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(300, 2)) * 2
    expected = np.sqrt(pts[:, 0] ** 2 + 4 * pts[:, 1] ** 2)
    assert np.abs(gauge(pts) - expected).max() < 1e-12


def test_radial_gauge_rejects_nonconvex_and_asymmetric():
    with pytest.raises(ValueError, match="convex"):
        RadialGaugeNorm(lambda t: 1.0 + 0.5 * np.cos(4 * t))
    with pytest.raises(ValueError, match="period"):
        RadialGaugeNorm(lambda t: 1.0 + 0.2 * np.cos(t))


def test_radial_gauge_rejects_radii_without_a_finite_reciprocal():
    # |v| / r would overflow to inf for every unit vector
    angles = [k * math.pi / 4.0 for k in range(8)]
    with pytest.raises(ValueError, match="values must have finite reciprocals"):
        RadialGaugeNorm.from_table(angles, [1e-320] * 8)
    with pytest.raises(ValueError, match="values must have finite reciprocals"):
        RadialGaugeNorm(lambda t: np.full_like(t, 1e-320))
    assert RadialGaugeNorm.from_table(angles, [1e-300] * 8)([1e-300, 0.0]) == 1.0


@pytest.mark.parametrize("bad_field, at", [("angles", math.inf), ("angles", -math.inf),
                                           ("angles", math.nan), ("values", math.inf),
                                           ("values", math.nan)])
def test_radial_table_names_a_field_that_is_not_finite(bad_field, at):
    table = {"angles": [k * math.pi / 4.0 for k in range(8)], "values": [1.0] * 8}
    table[bad_field][5] = at
    message = f"{bad_field} must be finite numbers, got {at!r} at index 5"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            RadialGaugeNorm.from_table(table["angles"], table["values"])
        with pytest.raises(ValueError, match=re.escape(message)):
            norm_from_json({"kind": "radial", **table})
        with pytest.raises(ValueError, match=re.escape(message)):
            RadialGaugeNorm(lambda t: np.ones_like(t),
                            table=(tuple(table["angles"]), tuple(table["values"])))


@pytest.mark.parametrize("make", [
    lambda: PNorm(3.0, 3),
    lambda: PNorm(math.inf, 2),
    lambda: EuclideanNorm(scale=2.0, dim=3),
    hexagonal_norm,
    diamond_norm,
    square_norm,
    LensNorm,
    lambda: RevolutionNorm(hexagonal_norm()),
    lambda: RadialGaugeNorm.from_table(
        np.linspace(0.0, 2 * math.pi, 256, endpoint=False),
        1.0 / np.sqrt(np.cos(np.linspace(0.0, 2 * math.pi, 256, endpoint=False)) ** 2
                      + 4 * np.sin(np.linspace(0.0, 2 * math.pi, 256, endpoint=False)) ** 2)),
])
def test_json_round_trip(make):
    norm = make()
    data = json.loads(json.dumps(norm.to_json()))
    clone = norm_from_json(data)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(100, norm.dim)) * 3
    assert np.abs(clone(pts) - norm(pts)).max() < 1e-12


def test_norm_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        norm_from_json({"kind": "nope"})
    with pytest.raises(ValueError):
        norm_from_json(["not", "a", "dict"])
    for data, message in (({"kind": "pnorm"}, "pnorm needs field 'p'"),
                          ({"kind": "polygon"}, "polygon needs field 'vertices'"),
                          ({"kind": "revolution"}, "revolution needs field 'profile'"),
                          ({"kind": "radial", "angles": [0.0]},
                           "radial needs field 'values'")):
        with pytest.raises(ValueError, match=message):
            norm_from_json(data)
    # the JSON reader turns 1e309 into inf
    with pytest.raises(ValueError, match="scale"):
        norm_from_json(json.loads('{"kind": "euclidean", "scale": 1e309}'))
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="scale"):
            EuclideanNorm(scale=bad)


def test_euclidean_scale_must_be_a_normal_float():
    tiny = float(np.finfo(float).tiny)
    for bad in (1e-320, np.nextafter(tiny, 0.0)):
        with pytest.raises(ValueError, match="scale must be finite and at least"):
            EuclideanNorm(scale=bad)
    with pytest.raises(ValueError, match="scale must be finite and at least"):
        norm_from_json({"kind": "euclidean", "scale": 1e-320})
    assert EuclideanNorm(scale=tiny)([1.0, 0.0]) == tiny


def test_radial_table_needs_one_value_per_angle():
    for angles, values in (([0.0, 1.0], [1.0]), ([0.0], [1.0, 2.0]), ([[0.0, 1.0]], [[1.0, 1.0]])):
        with pytest.raises(ValueError, match="angles and values must be lists of the same length"):
            RadialGaugeNorm.from_table(angles, values)
    with pytest.raises(ValueError, match="angles and values"):
        norm_from_json({"kind": "radial", "angles": [0, 1], "values": [1]})


def test_norm_from_json_names_bad_fields():
    for data, message in (
            ({"kind": "pnorm", "p": 3, "dim": "x"}, "dim must be an integer, got 'x'"),
            ({"kind": "euclidean", "dim": 2.5}, "dim must be an integer, got 2.5"),
            ({"kind": "pnorm", "p": 3, "dim": True}, "dim must be an integer"),
            ({"kind": "polygon", "vertices": [[1, 0, 0], [0, 1, 0]]}, r"vertices\[0\] must be"),
            ({"kind": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0]]},
             r"vertices\[3\] must be"),
            ({"kind": "polygon", "vertices": [[1, 0], "ab"]}, r"vertices\[1\] must be"),
            ({"kind": "polygon", "vertices": 3}, "vertices must be a list"),
            ({"kind": "pnorm", "p": True}, "p must be a number, got True"),
            ({"kind": "pnorm", "p": "abc"}, "p must be a number, got 'abc'"),
            ({"kind": "pnorm", "p": None}, "p must be a number, got None"),
            ({"kind": "pnorm", "p": [3]}, r"p must be a number, got \[3\]"),
            ({"kind": "euclidean", "scale": True}, "scale must be a number, got True"),
            ({"kind": "euclidean", "scale": "2"}, "scale must be a number, got '2'"),
            ({"kind": "euclidean", "scale": None}, "scale must be a number, got None"),
            ({"kind": "radial", "angles": "ab", "values": "cd"},
             "angles must be a list of numbers, got 'ab'"),
            ({"kind": "radial", "angles": [0, 1], "values": "cd"},
             "values must be a list of numbers, got 'cd'"),
            ({"kind": "radial", "angles": [k * math.pi / 8 for k in range(16)],
              "values": [1e308] * 16}, "values must keep the sphere's edge cross products"),
            ({"kind": "revolution", "profile": 3},
             "profile must be a norm object with a 'kind' field, got 3"),
            ({"kind": "revolution", "profile": {"p": 3}},
             "profile must be a norm object with a 'kind' field")):
        with pytest.raises(ValueError, match=message):
            norm_from_json(data)
    assert norm_from_json({"kind": "pnorm", "p": 3, "dim": 3}) == PNorm(3.0, 3)
    for raw in ("inf", "Infinity"):
        assert norm_from_json({"kind": "pnorm", "p": raw}) == PNorm(math.inf, 2)
    assert norm_from_json({"kind": "euclidean", "scale": 2}) == EuclideanNorm(2.0)


def test_builtin_norm_names():
    assert builtin_norm("euclidean").kind == "euclidean"
    assert builtin_norm("hexagonal").kind == "hexagonal"
    assert isinstance(builtin_norm("l1"), PolygonNorm)
    assert builtin_norm("p3") == PNorm(3.0, 2)
    assert builtin_norm("pinf") == PNorm(math.inf, 2)
    with pytest.raises(ValueError):
        builtin_norm("wat")
    with pytest.raises(ValueError, match="unknown builtin norm 'pabc'"):
        builtin_norm("pabc")


@pytest.mark.parametrize("p", [2.0 ** 54, 1e20, 1e308])
def test_finite_p_that_evaluates_as_the_max_norm_is_refused(p):
    with pytest.raises(ValueError, match=re.escape(f"p = {p!r} evaluates as the max norm")):
        PNorm(p, 2)
    with pytest.raises(ValueError, match="use p = 'inf'"):
        PNorm(p, 3)


def test_largest_finite_p_still_evaluates():
    below = float(np.nextafter(2.0 ** 54, 0.0))
    assert PNorm(below, 3)(np.array([1.0, 1.0, 1.0])) >= 1.0
    assert PNorm(math.inf, 2)(np.array([1.0, 1.0])) == 1.0
