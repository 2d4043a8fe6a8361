import math

import numpy as np
import pytest

from normgeo import (PNorm, align, alignment_map_sample, antipodality_defect,
                     fingerprint, isometric_lift, isometry_group,
                     lift_affine_defect, lift_distance_defect,
                     lift_target_norm, linearity_defect, make_chart)
from normgeo import isometry
from normgeo.charts import LinearImageNorm
from normgeo.norms import HEX_VERTICES, PolygonNorm
from normgeo.numerics import golden_max
from normgeo.sphere import arc_length_map


# -- fingerprints ------------------------------------------------------------

def test_round_fingerprint_axes(euclid):
    fp = fingerprint(euclid, 4)
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.abs(fp.points - expected).max() < 1e-9
    assert fp.chords[0, 1] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert fp.chords[0, 2] == pytest.approx(2.0, abs=1e-12)


def test_hexagon_fingerprint_lands_on_vertices(hexn):
    fp = fingerprint(hexn, 6)
    assert np.abs(fp.points - np.asarray(HEX_VERTICES)).max() < 1e-12
    assert fp.circumference == pytest.approx(6.0, abs=1e-12)


def test_diamond_fingerprint_vertices_and_midpoints(diamond):
    fp = fingerprint(diamond, 8)
    expected = np.array([[1, 0], [0.5, 0.5], [0, 1], [-0.5, 0.5],
                         [-1, 0], [-0.5, -0.5], [0, -1], [0.5, -0.5]])
    assert np.abs(fp.points - expected).max() < 1e-12


def test_fingerprint_invariants(euclid, hexn, lens):
    for norm in (euclid, hexn, lens):
        fp = fingerprint(norm, 32)
        assert np.abs(fp.chords - fp.chords.T).max() == 0.0
        assert np.abs(np.diag(fp.chords)).max() == 0.0
        assert fp.chords.min() >= 0.0 and fp.chords.max() <= 2.0 + 1e-12
        # independent spacing check: fine polyline length of each gap
        amap = arc_length_map(norm)
        step = fp.circumference / fp.n
        for k in range(0, fp.n, 5):
            fine = amap.point_at(np.linspace(k * step, (k + 1) * step, 4096))
            gap = float(norm(np.diff(fine, axis=0)).sum())
            assert abs(gap - step) < 1e-9


def test_fingerprint_antipodal_pairing(euclid, hexn):
    for norm in (euclid, hexn):
        fp = fingerprint(norm, 64)
        half = fp.n // 2
        assert np.abs(fp.points[half:] + fp.points[:half]).max() < 1e-9


def test_fingerprint_rejects_bad_counts(euclid):
    with pytest.raises(ValueError):
        fingerprint(euclid, 7)
    with pytest.raises(ValueError):
        fingerprint(euclid, 2)


# -- alignment ---------------------------------------------------------------

def test_diamond_square_are_isometric(diamond, square):
    fx = fingerprint(diamond, 256)
    found = align(fx, fingerprint(square, 256))
    assert found
    assert min(a.defect for a in found) <= 1e-9
    # oracle: (x, y) -> (x+y, x-y) carries the diamond sphere onto the square
    shear = fx.points @ np.array([[1.0, 1.0], [1.0, -1.0]]).T
    assert np.abs(square(shear) - 1.0).max() < 1e-12


def test_round_sphere_aligns_everywhere(euclid):
    found = align(fingerprint(euclid, 256), fingerprint(euclid, 256))
    assert len(found) == 512
    assert max(a.defect for a in found) <= 1e-12


def test_hexagon_and_round_sphere_do_not_align(hexn, euclid):
    found = align(fingerprint(hexn, 256), fingerprint(euclid, 256), 1e-3)
    assert found == []


def test_identity_alignment_always_present(hexn, lens):
    for norm in (hexn, lens):
        fp = fingerprint(norm, 128)
        found = align(fp, fp)
        assert any(a.shift == 0 and not a.reflected and a.defect <= 1e-12
                   for a in found)


HEX_IMAGE_MATRIX = np.array([[1.3, 0.4], [-0.2, 0.9]])


def _linearity(fx, fy, alignment):
    """Linearity defect of an alignment, charted on samples 0 and n/4."""
    sample = alignment_map_sample(fx, fy, alignment)
    k = fx.n // 4
    chart_x = make_chart(fx.norm, [fx.points[0], fx.points[k]])
    chart_y = make_chart(fy.norm, [sample.images[0], sample.images[k]])
    return linearity_defect(sample, chart_x, chart_y).max_defect


def test_hexagon_aligns_with_its_linear_image(hexn):
    image = PolygonNorm(tuple(map(tuple, np.asarray(HEX_VERTICES) @ HEX_IMAGE_MATRIX.T)))
    fx, fy = fingerprint(hexn, 256), fingerprint(image, 256)
    found = align(fx, fy)
    assert len(found) == 12
    assert sum(a.reflected for a in found) == 6
    assert max(a.defect for a in found) <= 1e-9
    for alignment in found:
        # the isometries carry no sample of one sphere onto one of the other
        assert not isinstance(alignment.shift, int)
        with pytest.raises(ValueError, match="shift"):
            alignment.permutation(fx.n)
        assert _linearity(fx, fy, alignment) <= 1e-9


def test_integer_alignments_map_samples_to_samples(diamond, square):
    fx, fy = fingerprint(diamond, 128), fingerprint(square, 128)
    found = align(fx, fy)
    assert len(found) == 8
    for alignment in found:
        assert type(alignment.shift) is int and alignment.defect <= 1e-12
        images = alignment_map_sample(fx, fy, alignment).images
        assert np.array_equal(images, fy.points[alignment.permutation(fx.n)])


def test_alignment_count_mismatch_raises(euclid, hexn):
    with pytest.raises(ValueError, match="differ"):
        align(fingerprint(euclid, 64), fingerprint(hexn, 128))


def test_alignments_invert_between_the_two_orders(diamond, square):
    fwd = align(fingerprint(diamond, 128), fingerprint(square, 128))
    bwd = align(fingerprint(square, 128), fingerprint(diamond, 128))
    fwd_keys = {(a.shift, a.reflected) for a in fwd}
    bwd_keys = {(b.shift, b.reflected) for b in bwd}
    n = 128
    for shift, reflected in fwd_keys:
        inverse = (shift, True) if reflected else ((-shift) % n, False)
        assert inverse in bwd_keys


def test_alignment_induces_antipodal_map(hexn, diamond, square, euclid):
    pairs = [(hexn, hexn), (diamond, square), (euclid, euclid)]
    for nx, ny in pairs:
        fx, fy = fingerprint(nx, 128), fingerprint(ny, 128)
        for alignment in align(fx, fy):
            sample = alignment_map_sample(fx, fy, alignment)
            assert antipodality_defect(sample) <= 1e-8


def test_alignment_preserves_segment_sums(hexn):
    # pairs at chordal distance ~2 stay at distance ~2 under any alignment,
    # and sums ||x1 + x2|| = 2 persist as well (antipodes map to samples)
    fx = fingerprint(hexn, 96)
    found = align(fx, fx)
    close_pairs = np.argwhere(fx.chords >= 2.0 - 1e-9)
    assert close_pairs.size
    half = fx.n // 2
    for alignment in found:
        perm = alignment.permutation(fx.n)
        for i, j in close_pairs[::7]:
            assert fx.chords[perm[i], perm[j]] >= 2.0 - 1e-6
            k = (j + half) % fx.n  # sample of -x_j
            if hexn(fx.points[i] + fx.points[k]) >= 2.0 - 1e-9:
                image_sum = hexn(fx.points[perm[i]] + fx.points[perm[k]])
                assert image_sum >= 2.0 - 1e-6


# -- self-isometry groups ----------------------------------------------------

def hexagon_symmetry_oracle():
    """Count linear maps permuting the hexagon vertices adjacency-compatibly."""
    verts = np.asarray(HEX_VERTICES)
    base = np.column_stack([verts[0], verts[1]])
    count = 0
    for k in range(6):
        for orient in (1, -1):
            target = np.column_stack([verts[k], verts[(k + orient) % 6]])
            m = target @ np.linalg.inv(base)
            images = verts @ m.T
            ok = all(np.abs(verts - img).max(axis=1).min() < 1e-9 for img in images)
            if ok:
                count += 1
    return count


def test_hexagon_group_matches_vertex_permutation_oracle(hexn):
    assert hexagon_symmetry_oracle() == 12
    summary = isometry_group(hexn, 252)
    assert summary.order == 12
    assert summary.pattern == "dihedral-6"


def test_group_orders_small(lens, p3):
    assert isometry_group(lens, 128).order == 4
    assert isometry_group(p3, 128).order == 8


def test_round_sphere_group_is_continuous(euclid):
    summary = isometry_group(euclid, 128)
    assert summary.continuous
    assert summary.order is None
    fp = fingerprint(euclid, 128)
    assert len(align(fp, fp)) == 2 * 128


def test_group_contains_identity_and_antipodal(hexn):
    summary = isometry_group(hexn, 96)
    shifts = {round(e.shift, 6) for e in summary.elements if e.kind == "rotation"}
    assert 0.0 in shifts
    assert 48.0 in shifts  # the antipodal map is the half-circumference shift


def test_diamond_group_off_divisor_count(diamond):
    # 100 samples are not a multiple of the group order 8
    summary = isometry_group(diamond, 100)
    assert summary.order == 8
    assert summary.pattern == "dihedral-4"


def test_smooth_norm_fingerprint_spacing(p3):
    fp = fingerprint(p3, 64)
    amap = arc_length_map(p3)
    step = fp.circumference / fp.n
    for k in range(0, fp.n, 9):
        fine = amap.point_at(np.linspace(k * step, (k + 1) * step, 4096))
        gap = float(p3(np.diff(fine, axis=0)).sum())
        assert abs(gap - step) < 1e-9


def _unimodular(rng):
    """A determinant-1 matrix ``R(a) diag(s, 1/s) R(b)``, ``s`` in [0.7, 1.4]."""
    a, b = rng.uniform(0.0, math.pi, size=2)
    s = rng.uniform(0.7, 1.4)

    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return rot(a) @ np.diag([s, 1.0 / s]) @ rot(b)


@pytest.mark.parametrize("n", [130, 256])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_isometric_images_keep_the_group(seed, n, hexn, p3):
    rng = np.random.default_rng(seed)
    a, b = _unimodular(rng), _unimodular(rng)
    hex_image = PolygonNorm(tuple(map(tuple, np.asarray(HEX_VERTICES) @ a.T)))
    p3_image = LinearImageNorm(p3, tuple(map(tuple, b)))
    for source, image in ((hexn, hex_image), (p3, p3_image)):
        want = isometry_group(source, n)
        got = isometry_group(image, n)
        assert (got.order, got.pattern) == (want.order, want.pattern)
        assert not got.continuous
        assert max(e.defect for e in got.elements) <= 1e-6


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_linear_images_align_with_their_source(seed, euclid, p3, square,
                                               diamond, hexn, lens):
    rng = np.random.default_rng(seed)
    for norm in (euclid, p3, PNorm(1.5, 2), square, diamond, hexn, lens):
        image = LinearImageNorm(norm, tuple(map(tuple, _unimodular(rng))))
        fx, fy = fingerprint(norm, 128), fingerprint(image, 128)
        group = isometry_group(norm, 128)
        found = align(fx, fy)
        assert len(found) == (2 * 128 if group.continuous else group.order), norm.kind
        assert max(_linearity(fx, fy, a) for a in found) <= 1e-6, norm.kind


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_linear_images_keep_the_corners(seed, lens):
    a = _unimodular(np.random.default_rng(seed))
    l1_image = LinearImageNorm(PNorm(1.0, 2), tuple(map(tuple, a)))
    lens_image = LinearImageNorm(lens, tuple(map(tuple, a)))
    for image in (l1_image, lens_image):
        # B carries each corner direction onto a corner direction of the base
        corners = np.asarray(image.corner_angles())
        base = np.asarray(image.base.corner_angles())
        assert corners.size == base.size
        carried = a @ np.vstack([np.cos(corners), np.sin(corners)])
        turn = np.arctan2(carried[1], carried[0])[:, None] - base[None, :]
        assert np.abs(np.mod(turn + math.pi, 2 * math.pi) - math.pi).min(axis=1).max() < 1e-12
    assert isometry_group(l1_image, 128).order == 8
    assert arc_length_map(l1_image).circumference == pytest.approx(8.0, abs=1e-9)
    lens_length = arc_length_map(lens).circumference
    assert arc_length_map(lens_image).circumference == pytest.approx(lens_length, abs=1e-7)


# -- offset scan -------------------------------------------------------------

def full_table_profiles(fp_x, fp_y):
    """The offset scan's profiles from the full lag table, every lag computed.

    Rotation: row ``i`` of ``|q[i + r k] - q[i]| - row_0``; reflection: the
    same table read at rows ``i - r k``.
    """
    norm, n = fp_y.norm, fp_y.n
    r = max(4, -(-1024 // n))
    m = r * n
    grid = np.linspace(0.0, fp_y.circumference, m, endpoint=False)
    q = arc_length_map(norm).point_at(grid)
    rows, lags = np.arange(m)[:, None], r * np.arange(n)
    table = norm((q[(rows + lags) % m] - q[rows]).reshape(-1, 2)).reshape(m, n)
    dev = np.abs(table - fp_x.chords[0])
    return grid, dev.max(axis=1), dev[(rows - lags) % m, np.arange(n)].max(axis=1)


def _seeded_images(seed, hexn, p3):
    rng = np.random.default_rng(seed)
    a, b = _unimodular(rng), _unimodular(rng)
    return (PolygonNorm(tuple(map(tuple, np.asarray(HEX_VERTICES) @ a.T))),
            LinearImageNorm(p3, tuple(map(tuple, b))))


@pytest.mark.parametrize("n", [4, 6, 130, 256])
def test_half_lag_table_profiles_equal_the_full_table(n, shipped_2d, hexn, p3):
    norms = shipped_2d + [PNorm(1.5, 2)]
    for seed in (11, 12, 13):
        norms += _seeded_images(seed, hexn, p3)
    for norm in norms:
        fp = fingerprint(norm, n)
        want = full_table_profiles(fp, fp)
        got = isometry._lag_profiles(fp, fp)
        for w, g in zip(want, got):
            assert np.array_equal(w, g), norm


@pytest.mark.parametrize("n", [130, 256])
def test_rotations_sit_at_equal_arcs(n, p3, square, diamond, hexn, lens):
    # independent of the search: a linear symmetry of order R turns the
    # sphere by a whole R-th of its own-norm length
    for norm, rotations in ((p3, 4), (PNorm(1.5, 2), 4), (square, 4), (diamond, 4),
                            (hexn, 6), (lens, 2)):
        group = isometry_group(norm, n)
        offsets = np.array([e.offset for e in group.elements if e.kind == "rotation"])
        step = arc_length_map(norm).circumference / rotations
        assert offsets.size == rotations, norm
        assert np.abs(offsets - step * np.arange(rotations)).max() <= 1e-12, norm


def test_screen_refines_only_offsets_that_can_match(monkeypatch, hexn, p3):
    # grid minima above 2 * step + tol cannot reach tol within their bracket
    brackets = []

    def counted(f, a, b, **kwargs):
        brackets.append(len(a))
        return golden_max(f, a, b, **kwargs)

    monkeypatch.setattr(isometry, "golden_max", counted)
    hex_image, _ = _seeded_images(11, hexn, p3)
    group = isometry_group(hex_image, 256)
    assert group.order == 12 and group.pattern == "dihedral-6"
    assert sum(brackets) == 12


# -- chord-matrix certificate -------------------------------------------------

def _counted_chord_matrices(monkeypatch):
    calls = []
    real = isometry._chord_matrix

    def counted(norm, pts):
        calls.append(len(pts))
        return real(norm, pts)

    monkeypatch.setattr(isometry, "_chord_matrix", counted)
    return calls


def test_offsets_a_whole_sample_apart_share_one_chord_matrix(monkeypatch, p3, square,
                                                              lens, hexn):
    calls = _counted_chord_matrices(monkeypatch)
    subjects = [(p3, 1), (square, 1), (lens, 1), (hexn, 3)]
    for seed in (11, 12, 13):
        hex_image, p3_image = _seeded_images(seed, hexn, p3)
        subjects += [(hex_image, 6), (p3_image, 2)]
    for norm, matrices in subjects:
        calls.clear()
        group = isometry_group(norm, 256)
        # the fingerprint's own matrix serves every whole shift
        fractions = {round(e.shift % 1.0, 4) % 1.0 for e in group.elements}
        assert len(calls) == len(fractions) == matrices, norm


def test_whole_shift_alignments_build_no_chord_matrix(monkeypatch, diamond, square):
    calls = _counted_chord_matrices(monkeypatch)
    fx, fy = fingerprint(diamond, 256), fingerprint(square, 256)
    calls.clear()
    found = align(fx, fy)
    assert len(found) == 8 and all(type(a.shift) is int for a in found)
    assert calls == []


def _gathered_defect(chords, ref, s, reflected):
    """The certificate as a gather: ``chords`` permuted by ``(s +- i) mod n``."""
    idx = np.arange(len(ref))
    perm = (s - idx if reflected else s + idx) % len(ref)
    return float(np.abs(chords[np.ix_(perm, perm)] - ref).max())


@pytest.mark.parametrize("n", [4, 6, 130, 256])
def test_block_view_certificate_equals_the_gather(n, hexn, p3):
    rng = np.random.default_rng(n)
    fp_hex, fp_p3 = (fingerprint(image, n) for image in _seeded_images(11, hexn, p3))
    pairs = [(rng.normal(size=(n, n)), rng.normal(size=(n, n))),
             (fp_hex.chords, fp_hex.chords), (fp_p3.chords, fp_p3.chords),
             (fp_p3.chords, fp_hex.chords)]
    for chords, ref in pairs:
        for reflected in (False, True):
            for s in range(n):
                assert (isometry._shift_defect(chords, ref, s, reflected)
                        == _gathered_defect(chords, ref, s, reflected)), (s, reflected)


def _placed_defect(fp_x, fp_y, offset, reflected):
    """Chord mismatch of the images at ``offset +- k * step``, placed afresh."""
    n = fp_y.n
    steps = np.arange(n) * (fp_y.circumference / n)
    pts = arc_length_map(fp_y.norm).point_at(offset + (-steps if reflected else steps))
    chords = fp_y.norm((pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)).reshape(n, n)
    return float(np.abs(chords - fp_x.chords).max())


@pytest.mark.parametrize("n", [130, 256])
def test_certificate_matches_freshly_placed_images(n, hexn, p3):
    hex_image, p3_image = _seeded_images(12, hexn, p3)
    for norm in (hexn, hex_image, p3_image, p3):
        fp = fingerprint(norm, n)
        for e in isometry_group(norm, n).elements:
            want = _placed_defect(fp, fp, e.offset, e.kind == "reflection")
            assert abs(e.defect - want) <= 1e-12, (norm, e)
    image = PolygonNorm(tuple(map(tuple, np.asarray(HEX_VERTICES) @ HEX_IMAGE_MATRIX.T)))
    fx, fy = fingerprint(hexn, n), fingerprint(image, n)
    found = align(fx, fy)
    assert len(found) == 12
    for a in found:
        want = _placed_defect(fx, fy, a.shift * (fy.circumference / n), a.reflected)
        assert abs(a.defect - want) <= 1e-12, a


# -- plane-into-revolution lift ----------------------------------------------

def test_lift_basics():
    assert np.allclose(isometric_lift([0.0, 0.0]), [0.0, 0.0, 0.0])
    lifted = isometric_lift([1.0, 0.0]) - isometric_lift([-1.0, 0.0])
    assert lift_target_norm()(lifted) == 2.0


def test_lift_is_an_isometry_on_random_pairs():
    rng = np.random.default_rng(9)
    us = rng.normal(size=(1000, 2)) * 4
    vs = rng.normal(size=(1000, 2)) * 4
    worst = max(lift_distance_defect(u, v) for u, v in zip(us, vs))
    assert worst <= 1e-12


def test_lift_is_not_affine():
    assert lift_affine_defect([1.0, 0.0], [-1.0, 0.0]) > 0.1
