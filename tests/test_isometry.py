import math

import numpy as np
import pytest

from normgeo import (align, alignment_map_sample, antipodality_defect,
                     fingerprint, isometric_lift, isometry_group,
                     lift_affine_defect, lift_distance_defect,
                     lift_target_norm)
from normgeo.norms import HEX_VERTICES
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
