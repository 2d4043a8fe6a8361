import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgeo import (EuclideanNorm, HexagonalNorm, LensNorm, PNorm,
                     PolygonNorm, RadialGaugeNorm, RevolutionNorm,
                     builtin_norm, diamond_norm, eval_norm, hexagonal_norm,
                     lift_target_norm, norm_from_json, radial_point,
                     sphere_point, square_norm, validate_norm)
from normgeo.norms import radial_points_vec


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
        eval_norm(PNorm(2.0, 3), [1.0, 2.0])


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


def test_lens_is_normalized_with_two_corners(lens):
    assert lens([1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert lens([0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    corners = lens.corner_angles()
    assert len(corners) == 2
    assert corners[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert corners[1] == pytest.approx(3 * math.pi / 2, abs=1e-12)


def test_lens_rejects_bad_shapes():
    with pytest.raises(ValueError, match="positive definite"):
        LensNorm(shape=((-1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="inside"):
        LensNorm(offset=(5.0, 0.0))


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


def test_builtin_norm_names():
    assert builtin_norm("euclidean").kind == "euclidean"
    assert builtin_norm("hexagonal").kind == "hexagonal"
    assert isinstance(builtin_norm("l1"), PolygonNorm)
    assert builtin_norm("p3") == PNorm(3.0, 2)
    assert builtin_norm("pinf") == PNorm(math.inf, 2)
    with pytest.raises(ValueError):
        builtin_norm("wat")
