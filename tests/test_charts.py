import math

import numpy as np
import pytest

from normgeo import (PNorm, PolygonNorm, antipodality_defect,
                     arc_distinguishes, arcset, base_leftmost_crossing,
                     cone_distance_check, cone_reconstruct_abscissa,
                     four_distance_injectivity,
                     linearity_defect, make_chart, radial_point,
                     sample_sphere_map, top_face_half_width)
from normgeo.charts import LinearImageNorm, SphereMapSample, _closest_far_pair
from normgeo.config import DEFAULT_TOLS
from normgeo.norms import HEX_VERTICES, radial_points_vec


def shear_map(v):
    return np.array([v[0] + v[1], v[0] - v[1]])


# -- charts ------------------------------------------------------------------

def test_identity_chart(euclid):
    chart = make_chart(euclid, [[1, 0], [0, 1]])
    assert chart.condition_number == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(1000, 2))
    back = chart.from_coordinates(chart.to_coordinates(pts))
    assert np.abs(back - pts).max() < 1e-10


def test_hexagon_chart_induced_norm_is_normalized(hexn):
    chart = make_chart(hexn, [[1.0, 0.0], [0.5, 1.0]])
    assert chart.induced_norm([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert chart.induced_norm([0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(1000, 2))
    back = chart.from_coordinates(chart.to_coordinates(pts))
    assert np.abs(back - pts).max() < 1e-10


def test_chart_rejects_dependent_basis(euclid):
    with pytest.raises(ValueError, match="dependent"):
        make_chart(euclid, [[1, 0], [-1, 0]])


@pytest.mark.parametrize("matrix, message", [
    (((1.0, 2.0), (2.0, 4.0)), "nonsingular"),
    (((np.nan, 0.0), (0.0, 1.0)), "finite"),
    (((np.inf, 0.0), (0.0, 1.0)), "finite"),
    (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), "shape"),
], ids=["singular", "nan", "inf", "2x3"])
def test_linear_image_rejects_a_bad_matrix(matrix, message):
    with pytest.raises(ValueError, match=f"matrix must be .*{message}"):
        LinearImageNorm(PNorm(3.0, 2), matrix)


def test_chart_rejects_unnormalized_basis(euclid):
    with pytest.raises(ValueError, match="norm 1"):
        make_chart(euclid, [[1, 0], [0, 0.5]])


# -- linearity ---------------------------------------------------------------

def test_identity_map_has_zero_defect(diamond):
    chart = make_chart(diamond, [[1, 0], [0, 1]])
    sample = sample_sphere_map(diamond, diamond, lambda v: v, 128)
    report = linearity_defect(sample, chart, chart)
    assert report.max_defect <= 1e-12
    assert report.antipodal_defect <= 1e-12


def test_shear_isometry_is_linear_in_matching_charts(diamond, square):
    sample = sample_sphere_map(diamond, square, shear_map, 256)
    chart_x = make_chart(diamond, [[1, 0], [0, 1]])
    chart_y = make_chart(square, [shear_map([1, 0]), shear_map([0, 1])])
    report = linearity_defect(sample, chart_x, chart_y)
    assert report.max_defect <= 1e-12


def test_flipped_chart_forces_unit_defect(diamond, square):
    sample = sample_sphere_map(diamond, square, shear_map, 256)
    chart_x = make_chart(diamond, [[1, 0], [0, 1]])
    chart_y = make_chart(square, [shear_map([1, 0]), -shear_map([0, 1])])
    report = linearity_defect(sample, chart_x, chart_y)
    assert report.max_defect >= 1.0


def test_linearity_requires_sampled_basis(diamond, square):
    sample = sample_sphere_map(diamond, square, shear_map, 64)
    off_grid = radial_point(diamond, 0.1234).vec  # between sample angles
    chart_x = make_chart(diamond, [off_grid, [0, 1]])
    chart_y = make_chart(square, [shear_map(off_grid), shear_map([0, 1])])
    with pytest.raises(ValueError, match="not among the sampled sources"):
        linearity_defect(sample, chart_x, chart_y)


# -- antipodality ------------------------------------------------------------

def test_antipodality_identity_is_zero(hexn):
    sample = sample_sphere_map(hexn, hexn, lambda v: v, 128)
    assert antipodality_defect(sample) <= 1e-14


def test_antipodality_flags_non_odd_map(hexn):
    # an angular warp that is not odd: theta -> theta + 0.3 sin(theta)
    def warp(v):
        theta = math.atan2(v[1], v[0])
        return radial_point(hexn, theta + 0.3 * math.sin(theta)).vec

    sample = sample_sphere_map(hexn, hexn, warp, 128)
    assert antipodality_defect(sample) > 0.1


def test_pure_rotation_is_odd_hence_antipodal(hexn):
    # any angle shift commutes with the antipodal map on a symmetric sphere
    def shift(v):
        theta = math.atan2(v[1], v[0])
        return radial_point(hexn, theta + 0.3).vec

    sample = sample_sphere_map(hexn, hexn, shift, 128)
    assert antipodality_defect(sample) <= 1e-12


def test_antipodality_requires_antipodal_sample(hexn):
    from normgeo.charts import SphereMapSample
    thetas = np.linspace(0.1, 1.0, 8)
    pts = radial_points_vec(hexn, thetas)
    sample = SphereMapSample(hexn, hexn, pts, pts)
    with pytest.raises(ValueError, match="antipode"):
        antipodality_defect(sample)


@pytest.mark.parametrize("row", [(2.0, 0.0), (math.nan, 0.0), (0.0, math.nan),
                                 (math.inf, 0.0), (-math.inf, 1.0)])
def test_sphere_samples_must_lie_on_the_spheres(hexn, row):
    good = [[1.0, 0.0], [-1.0, 0.0]]
    with pytest.raises(ValueError, match="sources"):
        SphereMapSample(hexn, hexn, [row, [1.0, 0.0]], good)
    with pytest.raises(ValueError, match="images"):
        SphereMapSample(hexn, hexn, good, [[1.0, 0.0], row])
    assert len(SphereMapSample(hexn, hexn, good, good)) == 2


def antipodality_reference(sample):
    """The n x n x 2 matching: each source's partner is the lowest index
    among the sources of least L1 gap |x + x'|_1."""
    src = sample.sources
    sums = np.abs(src[None, :, :] + src[:, None, :]).sum(axis=2)
    partner = np.argmin(sums, axis=1)
    worst = float(sums[np.arange(len(sample)), partner].max())
    if worst > DEFAULT_TOLS.geometric:
        raise ValueError(f"sample is missing antipodes (worst gap {worst:.2e})")
    return float(sample.norm_y(sample.images + sample.images[partner]).max())


def outcome(fn, sample):
    try:
        return fn(sample)
    except ValueError as exc:
        return str(exc)


def angle_warp(norm):
    def warp(v):
        theta = math.atan2(v[1], v[0])
        return radial_point(norm, theta + 0.3 * math.sin(theta)).vec
    return warp


@pytest.mark.parametrize("n", [8, 255, 512])
def test_antipodality_matches_the_all_pairs_matching(euclid, square, hexn, lens, n):
    for norm in (euclid, square, hexn, lens, PNorm(3.0, 2)):
        for fn in (lambda v: v, lambda v: -v, angle_warp(norm)):
            sample = sample_sphere_map(norm, norm, fn, n)
            assert antipodality_defect(sample) == antipodality_reference(sample), norm.kind


def test_antipodality_partner_is_the_lowest_of_tied_sources(square):
    # every source twice, with images that tell the copies apart
    pts = radial_points_vec(square, np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    src = np.concatenate([pts, pts[::-1]])
    img = radial_points_vec(square, np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False))
    sample = SphereMapSample(square, square, src, img)
    assert antipodality_defect(sample) == antipodality_reference(sample)


@pytest.mark.parametrize("thetas", [
    np.linspace(0.1, 1.0, 8),
    np.concatenate([np.linspace(0.0, 3.0, 50), np.linspace(0.0, 3.0, 50)[:-3] + math.pi]),
])
def test_antipodality_names_the_worst_missing_gap(square, thetas):
    pts = radial_points_vec(square, thetas)
    sample = SphereMapSample(square, square, pts, pts)
    message = outcome(antipodality_reference, sample)
    assert message.startswith("sample is missing antipodes")
    assert outcome(antipodality_defect, sample) == message


# -- four-distance injectivity -----------------------------------------------

def test_four_distance_injectivity_quick(euclid, p3, hexn):
    for norm in (euclid, p3, hexn):
        result = four_distance_injectivity(norm, [1, 0], [0, 1], 1024)
        assert result.injective, norm.kind
        assert result.min_gap > 1e-4


def test_injectivity_witness_machinery(euclid):
    # an absurd tolerance forces a collision report with a witness pair
    result = four_distance_injectivity(euclid, [1, 0], [0, 1], 256, tol=10.0)
    assert not result.injective
    assert result.witness is not None


def test_injectivity_rejects_dependent_directions(euclid):
    with pytest.raises(ValueError, match="basis"):
        four_distance_injectivity(euclid, [1, 0], [-1, 0], 256)


def closest_far_pair_oracle(tuples, m, rows=128):
    """O(n^2) reference in blocks of ``rows`` rows: the smallest sup gap of
    two rows more than ``m`` steps apart (circularly), and its lowest pair."""
    n = len(tuples)
    best, pair = math.inf, None
    cols = np.arange(n)
    for lo in range(0, n, rows):
        i = np.arange(lo, min(lo + rows, n))
        gaps = np.abs(tuples[i, None, 0] - tuples[None, :, 0])
        for c in range(1, tuples.shape[1]):
            np.maximum(gaps, np.abs(tuples[i, None, c] - tuples[None, :, c]), out=gaps)
        sep = np.abs(i[:, None] - cols[None, :])
        gaps[np.minimum(sep, n - sep) <= m] = np.inf
        # the first minimum in row-major order of the symmetric matrix has i < j
        k = int(np.argmin(gaps))
        if gaps.flat[k] < best:
            best, pair = float(gaps.flat[k]), (int(i[k // n]), k % n)
    return best, pair


def scan_tuples(norm, u1, u2, n):
    pts = radial_points_vec(norm, np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
    a, b = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    return pts, np.column_stack([norm(pts + a), norm(pts - a), norm(pts + b), norm(pts - b)])


def brute_force_scan(norm, u1, u2, n, m=4):
    """The minimal far-pair sup gap and its lowest index pair, by the oracle."""
    pts, tuples = scan_tuples(norm, u1, u2, n)
    min_gap, pair = closest_far_pair_oracle(tuples, m)
    return min_gap, pts, tuples, pair


@pytest.fixture(scope="module")
def scan_norms(euclid, p3, square, hexn, lens):
    image = np.asarray(HEX_VERTICES) @ np.array([[1.2, 0.4], [-0.3, 0.8]]).T
    return [euclid, p3, PNorm(1.5, 2), square, hexn, lens,
            PolygonNorm(tuple(map(tuple, image)))]


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("basis", [([1, 0], [0, 1]), ([0.8, 0.3], [-0.2, 0.9])])
def test_injectivity_scan_matches_brute_force(scan_norms, n, basis):
    for norm in scan_norms:
        min_gap, pts, tuples, (i, j) = brute_force_scan(norm, *basis, n)
        result = four_distance_injectivity(norm, *basis, n)
        assert result.min_gap == min_gap, (norm.kind, n)
        assert result.injective == (min_gap > 1e-6)
        assert result.witness is None
        forced = four_distance_injectivity(norm, *basis, n, tol=10.0)
        assert not forced.injective and forced.min_gap == min_gap
        assert forced.witness == (tuple(pts[i]), tuple(pts[j]))
        assert all(type(x) is float for p in forced.witness for x in p)
        lo, hi = (int(np.flatnonzero((pts == p).all(axis=1))[0]) for p in forced.witness)
        assert min(hi - lo, n - hi + lo) > 4
        assert np.abs(tuples[lo] - tuples[hi]).max() == forced.min_gap


@pytest.mark.parametrize("kwargs, name", [
    ({"resolution": 0}, "resolution"),
    ({"resolution": 9}, "resolution"),
    ({"resolution": 12, "min_separation_steps": 6}, "resolution"),
    ({"min_separation_steps": -1}, "min_separation_steps"),
    ({"u1": [math.nan, 0.0]}, "u1"),
    ({"u1": [math.inf, 0.0]}, "u1"),
    ({"u2": [0.0, -math.inf]}, "u2"),
    ({"u1": [1.0, 0.0, 0.0]}, "u1"),
    ({"u1": [1e200, 0.0]}, "u1"),
    ({"tol": math.nan}, "tol"),
    ({"tol": -1.0}, "tol"),
    ({"u1": [1e12, 0.0]}, "u1"),
    ({"u2": [0.0, -1e12]}, "u2"),
    ({"resolution": 4.5}, "resolution"),
    ({"resolution": 256.0}, "resolution"),
    ({"resolution": True}, "resolution"),
    ({"resolution": "256"}, "resolution"),
    ({"min_separation_steps": 1.5}, "min_separation_steps"),
    ({"min_separation_steps": 4.0}, "min_separation_steps"),
    ({"min_separation_steps": True}, "min_separation_steps"),
])
def test_injectivity_rejects_scans_that_certify_nothing(euclid, kwargs, name):
    args = {"u1": [1.0, 0.0], "u2": [0.0, 1.0], "resolution": 256, **kwargs}
    with pytest.raises(ValueError, match=name):
        four_distance_injectivity(euclid, **args)


def test_injectivity_smallest_resolution_has_a_far_pair(euclid):
    result = four_distance_injectivity(euclid, [1, 0], [0, 1], 10)
    assert math.isfinite(result.min_gap) and result.injective


def test_closest_far_pair_matches_the_oracle_on_criterion_10(hexn, p3):
    for norm in (hexn, p3):
        pts, tuples = scan_tuples(norm, [1, 0], [0, 1], 4096)
        gap, lo, hi = _closest_far_pair(tuples, 4)
        assert (gap, (lo, hi)) == closest_far_pair_oracle(tuples, 4), norm.kind
        assert four_distance_injectivity(norm, [1, 0], [0, 1], 4096).min_gap == gap


def spaced_tuples(n=100):
    """Rows 10 apart in the first column and 0 in the other three."""
    tuples = np.zeros((n, 4))
    tuples[:, 0] = 10.0 * np.arange(n)
    return tuples


def test_closest_far_pair_finds_exact_duplicates():
    tuples = spaced_tuples()
    tuples[60] = tuples[30]
    tuples[90] = tuples[11]
    assert _closest_far_pair(tuples, 4) == (0.0, 11, 90)


def test_closest_far_pair_gives_ties_to_the_lowest_pair():
    tuples = spaced_tuples()
    tuples[50] = tuples[5] + [1.0, 0.0, 0.0, 0.0]
    tuples[80] = tuples[20] + [0.0, 1.0, 0.0, 0.0]
    tuples[90] = tuples[2] + [0.0, 0.0, -1.0, 0.0]
    assert _closest_far_pair(tuples, 4) == (1.0, 2, 90)
    assert closest_far_pair_oracle(tuples, 4) == (1.0, (2, 90))


def test_closest_far_pair_with_every_column_constant():
    assert _closest_far_pair(np.ones((20, 4)), 4) == (0.0, 0, 5)


def test_closest_far_pair_with_a_tiny_bound():
    # the seed pair (2, 7) bounds the answer by 1e-300; cells of that side
    # would need keys far beyond 64 bits
    tuples = spaced_tuples() + [10.0, 0.0, 0.0, 0.0]
    tuples[2] = 0.0
    tuples[7] = [1e-300, 0.0, 0.0, 0.0]
    assert _closest_far_pair(tuples, 4) == (1e-300, 2, 7)


def test_closest_far_pair_skips_near_pairs():
    tuples = spaced_tuples()
    tuples[3] = tuples[1]   # 2 steps apart
    tuples[98] = tuples[0]  # 2 steps apart around the circle
    tuples[40] = tuples[70] + [0.0, 0.0, 0.0, 0.5]
    assert _closest_far_pair(tuples, 4) == (0.5, 40, 70)
    assert _closest_far_pair(tuples, 1) == (0.0, 0, 98)


@pytest.mark.parametrize("seed", range(6))
def test_closest_far_pair_matches_the_oracle_on_lattice_tuples(seed):
    # few distinct values: many exact ties, at gap 0 and above
    rng = np.random.default_rng(seed)
    tuples = rng.integers(0, 3 + 6 * seed, size=(300, 4)) * 0.125
    for m in (0, 4, 40):
        gap, lo, hi = _closest_far_pair(tuples, m)
        assert (gap, (lo, hi)) == closest_far_pair_oracle(tuples, m)


# -- arc determination -------------------------------------------------------

def test_arc_distinguishes_euclid(euclid):
    arc = arcset([(-0.1, 0.1)])
    q = np.array([0.01, 1.001])
    q = q / euclid(q)
    assert arc_distinguishes(euclid, arc, [0.0, 1.0], q, 1e-6)


def test_flat_face_blind_spot(square):
    # on {1} x [-0.4, 0], distances to (0,1) and (0.1,1) agree identically
    blind = arcset([(math.atan2(-0.4, 1.0), 0.0)])
    assert not arc_distinguishes(square, blind, [0.0, 1.0], [0.1, 1.0], 1e-6)
    # the upper half of the same face does separate them
    seeing = arcset([(0.0, math.atan2(0.4, 1.0))])
    assert arc_distinguishes(square, seeing, [0.0, 1.0], [0.1, 1.0], 1e-6)


def test_equal_points_are_never_distinguished(euclid):
    arc = arcset([(0.0, 1.0)])
    assert not arc_distinguishes(euclid, arc, [0.0, 1.0], [0.0, 1.0], 1e-6)


def test_explicit_3d_point_lists_work():
    from normgeo import lift_target_norm
    norm = lift_target_norm()
    phis = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    ridge = np.column_stack([np.full_like(phis, 0.5), np.cos(phis), np.sin(phis)])
    assert arc_distinguishes(norm, ridge, [1.0, 0.0, 0.0], [0.5, 1.0, 0.0], 1e-6)
    # the ridge cannot split the axis point from its antipode: both sit at
    # distance 1 and 2 from every ridge point respectively... check directly
    d_plus = norm(ridge - np.array([1.0, 0.0, 0.0]))
    assert np.abs(d_plus - 1.0).max() < 1e-12


# -- flat-top cone distances -------------------------------------------------

def test_top_face_half_width(hexn, square, euclid):
    assert top_face_half_width(hexn) == 0.5
    assert top_face_half_width(square) == 1.0
    with pytest.raises(TypeError):
        top_face_half_width(euclid)


def test_cone_distance_examples(hexn):
    check = cone_distance_check(hexn, [0.0, 1.0], [0.0, -1.0])
    assert check.law_holds and check.distance == 2.0
    check = cone_distance_check(hexn, [0.2, 1.0], [0.0, -1.0])
    assert check.in_cone and check.law_holds and check.distance == 2.0
    outside = cone_distance_check(hexn, [2.0, 1.0], [0.0, -1.0])
    assert not outside.in_cone and not outside.law_holds


def test_abscissa_reconstruction_from_base_crossing(hexn):
    # points on the upper-right face: alpha = 1 - beta/2
    w = top_face_half_width(hexn)
    for beta in np.linspace(0.0, 0.95, 9):
        alpha = 1.0 - beta / 2.0
        delta = base_leftmost_crossing(hexn, [alpha, beta])
        assert cone_reconstruct_abscissa(delta, beta, w) == pytest.approx(
            alpha, abs=1e-10)


def test_segment_membership_preserved_under_sums(hexn):
    # pairs at chordal distance 2 keep ||x1 + x2|| = 2 under any odd isometry;
    # here the identity serves as the reference
    x1 = np.array([1.0, 0.0])
    x2 = np.array([-0.5, 1.0])
    assert hexn(x1 - x2) == 2.0
    assert hexn(x1 + (-x2)) == 2.0
