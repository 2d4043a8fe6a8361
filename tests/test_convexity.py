import math

import numpy as np
import pytest

from normgeo import (EuclideanNorm, LensNorm, PNorm, PolygonNorm, convexity,
                     diamond_norm, hexagonal_norm, is_strictly_convex,
                     modulus_curve, modulus_of_convexity, square_norm)
from normgeo.charts import LinearImageNorm
from normgeo.norms import HEX_VERTICES, radial_points_vec

P3_IMAGE_MATRIX = ((-0.285, -0.981), (0.953, -0.231))
SWEEP_BANDS = ((0.2, 0.8), (0.8, 1.4), (1.4, 1.95))


def hexagon_image(matrix):
    """The affine-regular hexagon's sphere carried by ``matrix``."""
    return PolygonNorm(tuple(map(tuple, np.asarray(HEX_VERTICES) @ np.asarray(matrix).T)))


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
    images = ((LinearImageNorm(PNorm(3.0, 2), matrix), clarkson_modulus, 1e-10),
              (LinearImageNorm(PNorm(1.5, 2), matrix), hanner_modulus, 1e-10),
              (hexagon_image(matrix), hexagon_modulus, 5e-11))
    for lo, hi in SWEEP_BANDS:
        eps = float(rng.uniform(lo, hi))
        for image, exact, bound in images:
            assert modulus_of_convexity(image, eps) == pytest.approx(
                exact(eps), abs=bound), (image.kind, eps)


@pytest.mark.parametrize("seed, eps", [(11, 1.6782803729740818), (20, 1.95)])
def test_hexagon_images_keep_the_documented_bound(seed, eps):
    # the worst misses found over seeds 11-20: 1.92e-11 and 2.37e-11
    image = hexagon_image(seeded_matrix(seed)[0])
    assert modulus_of_convexity(image, eps) == pytest.approx(hexagon_modulus(eps), abs=5e-11)


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


def test_strict_convexity_rejects_bad_threshold(square):
    for bad in (float("nan"), -1.0, -1e-300, math.inf, -math.inf):
        with pytest.raises(ValueError, match="threshold"):
            is_strictly_convex(square, 64, threshold=bad)
    assert not is_strictly_convex(square, 64, threshold=0.0)


def lockstep_partner_sums(norm, eps, thetas, sides):
    """The partner search without brackets: each of the 45 lockstep halvings
    of [0, pi] evaluates the chord at every midpoint."""
    x = radial_points_vec(norm, thetas)
    lo, hi = np.zeros_like(thetas), np.full_like(thetas, math.pi)
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        far = norm(x - radial_points_vec(norm, thetas + sides * mid)) >= eps
        lo, hi = np.where(far, lo, mid), np.where(far, mid, hi)
    return norm(x + radial_points_vec(norm, thetas + sides * hi))


def first_grid(resolution):
    count = 8 * resolution
    return (np.tile(np.arange(count) * (2.0 * math.pi / count), 2),
            np.repeat([1.0, -1.0], count))


def lockstep_best_sum(norm, eps, resolution):
    """``_best_sum`` with every partner from ``lockstep_partner_sums``."""
    thetas, sides = first_grid(resolution)
    step = 2.0 * math.pi / (8 * resolution)
    sums = lockstep_partner_sums(norm, eps, thetas, sides)
    best = float(sums.max())
    for _ in range(5):
        if best >= 2.0 - 1e-12:
            break
        top = np.argpartition(sums, -4)[-4:]
        thetas = (thetas[top, None] + np.linspace(-step, step, 65)).ravel()
        sides = np.repeat(sides[top], 65)
        step *= 2.0 / 64
        sums = lockstep_partner_sums(norm, eps, thetas, sides)
        best = max(best, float(sums.max()))
    return best


def bracket_subjects():
    """The builtin 2D norms, l_1.5 and a seeded hexagon and l_3 image."""
    matrix, _ = seeded_matrix(11)
    hex_image = tuple(map(tuple, np.asarray(HEX_VERTICES) @ np.asarray(matrix).T))
    return {"euclidean": EuclideanNorm(), "p3": PNorm(3.0, 2), "p1.5": PNorm(1.5, 2),
            "lens": LensNorm(), "hexagonal": hexagonal_norm(), "square": square_norm(),
            "diamond": diamond_norm(), "hex-image": PolygonNorm(hex_image),
            "p3-image": LinearImageNorm(PNorm(3.0, 2), matrix)}


BRACKET_SUBJECTS = bracket_subjects()
BRACKET_EPS = (5e-3, 0.5, 1.1, 1.7, 1.95)


@pytest.mark.parametrize("name", BRACKET_SUBJECTS)
def test_first_grid_partner_sums_equal_the_lockstep_search(name):
    norm = BRACKET_SUBJECTS[name]
    thetas, sides = first_grid(128)
    x = radial_points_vec(norm, thetas)
    for eps in BRACKET_EPS:
        partners = convexity._grid_partners(norm, eps, x, thetas, sides)
        sums = norm(x + radial_points_vec(norm, thetas + sides * partners))
        assert np.array_equal(sums, lockstep_partner_sums(norm, eps, thetas, sides)), eps


@pytest.mark.parametrize("name", BRACKET_SUBJECTS)
def test_best_sum_equals_the_lockstep_search_with_zooms(name):
    norm = BRACKET_SUBJECTS[name]
    # at eps = 2 fitted brackets would move the result (the chord is flat at
    # the antipode), so every midpoint is evaluated there
    for eps in (1.1, 1.95, 2.0):
        assert convexity._best_sum(norm, eps, 64) == lockstep_best_sum(norm, eps, 64), eps


@pytest.fixture
def chord_rows(monkeypatch):
    """Row counts of every chord evaluation the partner search makes."""
    rows = []
    chords = convexity._chords

    def counted(norm, x, thetas, sides, t):
        rows.append(len(thetas))
        return chords(norm, x, thetas, sides, t)
    monkeypatch.setattr(convexity, "_chords", counted)
    return rows


def test_wrong_brackets_revert_to_the_plain_search(p3, chord_rows):
    """Brackets past, short of or around the partner give the plain partners;
    only a bracket that holds it skips midpoints."""
    eps = 1.1
    thetas = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    sides = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
    x = radial_points_vec(p3, thetas)
    plain = convexity._partners(p3, eps, x, thetas, sides, 0.0, math.pi)
    assert np.array_equal(
        p3(x + radial_points_vec(p3, thetas + sides * plain)),
        lockstep_partner_sums(p3, eps, thetas, sides))
    for a, b in ((plain + 0.1, plain + 0.2),    # past the partner: a fails
                 (plain - 0.2, plain - 0.1),    # short of it: b fails
                 (plain + 0.1, plain - 0.1),    # swapped: both fail
                 (plain - 1e-9, plain + 1e-9)):  # holds it
        chord_rows.clear()
        got = convexity._checked_partners(p3, eps, x, thetas, sides,
                                          np.clip(a, 0.0, math.pi), np.clip(b, 0.0, math.pi))
        assert np.array_equal(got, plain)
    assert sum(chord_rows) < 20 * thetas.size  # 2 checks and about 16 midpoints per angle


def test_fitted_brackets_skip_most_midpoints(p3, chord_rows):
    thetas, sides = first_grid(512)
    convexity._grid_partners(p3, 1.1, radial_points_vec(p3, thetas), thetas, sides)
    # 45 chords on every 8th angle, 2 checks and about 16 midpoints on the
    # rest: 21.3 per angle, against 45 without brackets
    assert sum(chord_rows) < 24 * thetas.size


def test_secant_cells_take_few_chords(p3, chord_rows):
    thetas, sides = first_grid(512)
    convexity._grid_partners(p3, 1.1, radial_points_vec(p3, thetas), thetas, sides)
    # 12 regula falsi steps and 2 cell ends on every 8th angle, 2 bracket ends
    # and 2 cell ends on the rest, a few more where a cell misses: 5.3 per angle
    assert sum(chord_rows) < 8 * thetas.size


@pytest.mark.parametrize("estimate", ["cell low", "cell high", "nan", "at a", "at b"])
@pytest.mark.parametrize("bracketed", [True, False])
def test_missed_cells_keep_the_lockstep_partners(p3, monkeypatch, estimate, bracketed):
    """Secant estimates forced one cell below or above the partner, to NaN
    or to a bracket end miss every cell; the failed ends tighten the bracket
    and the partners stay those of the lockstep search."""
    eps = 1.1
    thetas = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    sides = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    x = radial_points_vec(p3, thetas)
    plain = convexity._partners(p3, eps, x, thetas, sides, 0.0, math.pi)
    below = convexity._cell(plain)[0]  # the lockstep's last lo: one cell low
    got = np.empty_like(plain)
    for i in range(thetas.size):
        forced = {"cell low": lambda br: np.full(1, below[i]),
                  "cell high": lambda br: np.nextafter(plain[i:i + 1], 4.0),
                  "nan": lambda br: np.full(1, math.nan),
                  "at a": lambda br: br[convexity._A],
                  "at b": lambda br: br[convexity._B]}[estimate]
        monkeypatch.setattr(convexity, "_secant", forced)
        ends = (plain[i:i + 1] - 1e-9, plain[i:i + 1] + 1e-9) if bracketed else ()
        got[i] = convexity._checked_partners(p3, eps, x[i:i + 1], thetas[i:i + 1],
                                             sides[i:i + 1], *ends)[0]
    assert np.array_equal(p3(x + radial_points_vec(p3, thetas + sides * got)),
                          lockstep_partner_sums(p3, eps, thetas, sides))


@pytest.mark.parametrize("name, eps", [
    ("diamond", 1.0),       # the chord is eps along a face
    ("hexagonal", 1.5),     # a face's chord ends at eps, at a vertex
    ("p3-image", 1.99), ("lens", 1.999),
    ("euclidean", 1.99999), ("p1.5", 1.99999),  # near the antipode
])
def test_first_grid_partners_equal_the_lockstep_search_where_rounding_decides(name, eps):
    """Where the chord is flat at eps, rounding orders the chords of nearby
    midpoints: a cell must not decide them, the halvings must."""
    norm = BRACKET_SUBJECTS[name]
    thetas, sides = first_grid(128)
    x = radial_points_vec(norm, thetas)
    partners = convexity._grid_partners(norm, eps, x, thetas, sides)
    sums = norm(x + radial_points_vec(norm, thetas + sides * partners))
    assert np.array_equal(sums, lockstep_partner_sums(norm, eps, thetas, sides))


@pytest.mark.parametrize("name", ["hex-image", "p3-image"])
def test_one_chord_rounds_as_in_a_batch(name):
    """numpy multiplies a single row on another path; the chord of one angle
    must still equal the same chord in a larger batch."""
    norm = BRACKET_SUBJECTS[name]
    rng = np.random.default_rng(5)
    thetas = rng.uniform(0.0, 2.0 * math.pi, 400)
    sides = np.where(rng.random(400) < 0.5, 1.0, -1.0)
    t = rng.uniform(0.0, math.pi, 400)
    x = radial_points_vec(norm, thetas)
    batch = convexity._chords(norm, x, thetas, sides, t)
    one = [convexity._chords(norm, x[i:i + 1], thetas[i:i + 1], sides[i:i + 1], t[i:i + 1])[0]
           for i in range(400)]
    assert np.array_equal(np.array(one), batch)


def test_modulus_at_two_is_unchanged(p3):
    delta = modulus_of_convexity(p3, 2.0)
    assert delta == 1.0 - 0.5 * lockstep_best_sum(p3, 2.0, 512)
    assert delta == pytest.approx(0.9999927, abs=1e-7)  # rounding leaves 7.3e-6
