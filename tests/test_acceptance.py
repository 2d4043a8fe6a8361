"""Acceptance suite: the package's contract checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import math
import time

import numpy as np
import pytest

from normgeo import (EuclideanNorm, PNorm, align, alignment_map_sample,
                     antipodality_defect, base_leftmost_crossing,
                     cone_distance_check, cone_reconstruct_abscissa,
                     corner_ratio, circle_curve, diamond_norm, fingerprint,
                     four_distance_injectivity, hexagonal_norm,
                     is_isosceles_orthogonal, isometry_group,
                     lift_affine_defect, lift_distance_defect, linearity_defect,
                     make_chart, maximal_segments, modulus_of_convexity,
                     normed_curvature, run_reference_checks, sample_sphere_map,
                     self_circumference, sphere_curve, square_norm,
                     top_face_half_width)


def _line(num: int, description: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"[criterion {num:02d}] {description}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_maxnorm_distance_table():
    t0 = time.time()
    norm = PNorm(math.inf, 3)
    v = [np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.9]),
         np.array([1.0, 0.9, 1.0])]
    y = [np.array([1.0, -1.0, 0.1]), np.array([1.0, -1.0, -0.1])]
    sums_ok = all(abs(norm(vi + yj) - 2.0) <= 1e-15 for vi in v for yj in y)
    diffs_ok = all(abs(norm(v[i] - y[j]) - 2.0) <= 1e-15
                   for i in range(2) for j in range(2))
    third_ok = all(abs(norm(v[2] - yj) - 1.9) <= 1e-15 for yj in y)
    elapsed = time.time() - t0
    _line(1, "max-norm distance table (sums 2, diffs 2, third row 1.9)",
          sums_ok and diffs_ok and third_ok and elapsed < 1.0,
          f"{elapsed * 1000:.1f} ms")


def test_criterion_02_cubenorm_equidistant_basis():
    t0 = time.time()
    norm = PNorm(3.0, 3)
    x = np.array([1.0, 1.0, 1.0]) / 3.0 ** (1 / 3)
    c = 4.0 ** (1 / 3)
    s = 6.0 ** (-1 / 3)
    basis = [np.array([1.0, 1.0, -c]) * s, np.array([1.0, -c, 1.0]) * s,
             np.array([-c, 1.0, 1.0]) * s]
    expected = (4.0 / 3.0 + 2.0 * 2.0 ** (1 / 3)) ** (1 / 3)
    values_ok = all(abs(norm(b - x) - expected) <= 1e-12
                    and abs(norm(b + x) - expected) <= 1e-12 for b in basis)
    det = float(np.linalg.det(np.array(basis)))
    orth_ok = all(is_isosceles_orthogonal(norm, x, b, 1e-12) for b in basis)
    elapsed = time.time() - t0
    _line(2, "cube-norm equidistant basis (six values, independent)",
          values_ok and abs(det) > 1e-6 and orth_ok and elapsed < 1.0,
          f"value {expected:.4f}, |det| {abs(det):.3f}")


def test_criterion_03_circle_curvature_and_antihomogeneity():
    t0 = time.time()
    euclid = EuclideanNorm()
    radii_ok = all(
        abs(normed_curvature(euclid, circle_curve(lam), 0.3).value - 1.0 / lam)
        <= 1e-3
        for lam in (0.5, 1.0, 2.0))
    base = normed_curvature(euclid, circle_curve(1.0), 0.3).value
    anti_ok = all(
        abs(normed_curvature(EuclideanNorm(scale=lam), circle_curve(1.0), 0.3).value
            - base / lam) <= 1e-3
        for lam in (0.5, 2.0, 5.0))
    elapsed = time.time() - t0
    _line(3, "circle curvature 1/radius and antihomogeneity",
          radii_ok and anti_ok and elapsed < 1.0, f"{elapsed:.2f} s")


def test_criterion_04_hexagon_facts():
    hexn = hexagonal_norm()
    circ = self_circumference(hexn, 4096)
    circ_ok = abs(circ - 6.0) <= 1e-9
    segs = maximal_segments(hexn)
    segs_ok = len(segs) == 6 and all(abs(s.length - 1.0) <= 1e-10 for s in segs)
    curve = sphere_curve(hexn)
    edge = normed_curvature(hexn, curve, math.atan2(0.5, 0.75))
    flat_ok = (edge.value == 0.0
               and max(abs(r) for _, r in edge.ratios) <= 1e-5)
    vertex = normed_curvature(hexn, curve, 0.0)
    vertex_ok = vertex.value == 0.0
    _line(4, "hexagon: circumference 6, six unit faces, flat in own norm",
          circ_ok and segs_ok and flat_ok and vertex_ok,
          f"circ {circ:.12f}")


def test_criterion_05_lens_corner_ratio():
    t0 = time.time()
    lens_norm = __import__("normgeo").LensNorm()
    rng = np.random.default_rng(12)
    smooth_ok = True
    for _ in range(5):
        theta = rng.uniform(0.0, 2 * math.pi)
        while min(abs(theta - math.pi / 2), abs(theta - 3 * math.pi / 2)) < 0.3:
            theta = rng.uniform(0.0, 2 * math.pi)
        smooth_ok &= abs(corner_ratio(lens_norm, theta) - 2.0) <= 1e-3
    corner = corner_ratio(lens_norm, math.pi / 2)
    elapsed = time.time() - t0
    _line(5, "lens chord ratio: 2 at smooth points, under 2 at the corner",
          smooth_ok and corner < 2.0 - 1e-2 and elapsed < 5.0,
          f"corner {corner:.4f}, {elapsed:.2f} s")


def test_criterion_06_modulus_of_convexity():
    t0 = time.time()
    euclid = EuclideanNorm()
    eps_list = np.linspace(0.2, 2.0, 10)
    round_ok = all(
        abs(modulus_of_convexity(euclid, float(e))
            - (1.0 - math.sqrt(1.0 - e * e / 4.0))) <= 1e-4
        for e in eps_list)
    p3 = PNorm(3.0, 2)
    sep_ok = any(
        modulus_of_convexity(p3, float(e))
        < modulus_of_convexity(euclid, float(e)) - 1e-4
        for e in eps_list)
    diamond = diamond_norm()
    flat_ok = all(modulus_of_convexity(diamond, float(e)) == 0.0
                  for e in eps_list)
    elapsed = time.time() - t0
    _line(6, "modulus of convexity: round closed form, cubic below round, "
             "diamond zero",
          round_ok and sep_ok and flat_ok and elapsed < 30.0,
          f"{elapsed:.1f} s")


def test_criterion_07_alignments_are_antipodal():
    t0 = time.time()
    hexn, euclid = hexagonal_norm(), EuclideanNorm()
    pairs = [(hexn, hexn), (diamond_norm(), square_norm()),
             (PNorm(3.0, 2), PNorm(3.0, 2)), (euclid, euclid)]
    total = 0
    worst = 0.0
    for nx, ny in pairs:
        fx, fy = fingerprint(nx, 256), fingerprint(ny, 256)
        for alignment in align(fx, fy, 1e-6):
            sample = alignment_map_sample(fx, fy, alignment)
            worst = max(worst, antipodality_defect(sample))
            total += 1
    elapsed = time.time() - t0
    _line(7, "every low-defect alignment maps antipodes to antipodes",
          total > 0 and worst <= 1e-5 and elapsed < 30.0,
          f"{total} alignments, worst {worst:.2e}, {elapsed:.1f} s")


def test_criterion_08_isometry_group_orders():
    t0 = time.time()
    lens_norm = __import__("normgeo").LensNorm()
    orders = {
        "lens": isometry_group(lens_norm, 512, 1e-6).order,
        "p3": isometry_group(PNorm(3.0, 2), 512, 1e-6).order,
        "square": isometry_group(square_norm(), 512, 1e-6).order,
        "hexagon": isometry_group(hexagonal_norm(), 512, 1e-6).order,
    }
    euclid_summary = isometry_group(EuclideanNorm(), 512, 1e-6)
    euclid_fp = fingerprint(EuclideanNorm(), 512)
    # independent oracle: linear maps permuting hexagon vertices
    from test_isometry import hexagon_symmetry_oracle
    oracle = hexagon_symmetry_oracle()
    ok = (orders == {"lens": 4, "p3": 8, "square": 8, "hexagon": 12}
          and orders["hexagon"] == oracle
          and euclid_summary.continuous
          and len(align(euclid_fp, euclid_fp, 1e-6)) == 2 * 512)
    elapsed = time.time() - t0
    _line(8, "self-isometry groups: 4, 8, 8, 12, continuous",
          ok, f"{orders}, oracle {oracle}, {elapsed:.1f} s")


def test_criterion_09_linearity_criterion():
    diamond, square = diamond_norm(), square_norm()

    def shear(v):
        return np.array([v[0] + v[1], v[0] - v[1]])

    chart_x = make_chart(diamond, [[1, 0], [0, 1]])
    ident = sample_sphere_map(diamond, diamond, lambda v: v, 256)
    ident_defect = linearity_defect(ident, chart_x, chart_x).max_defect
    mapped = sample_sphere_map(diamond, square, shear, 256)
    chart_y = make_chart(square, [shear([1, 0]), shear([0, 1])])
    shear_defect = linearity_defect(mapped, chart_x, chart_y).max_defect
    chart_y_bad = make_chart(square, [shear([1, 0]), -shear([0, 1])])
    bad_defect = linearity_defect(mapped, chart_x, chart_y_bad).max_defect
    _line(9, "linearity defect: 0 for true isometries, >= 1 for flipped chart",
          ident_defect <= 1e-12 and shear_defect <= 1e-12 and bad_defect >= 1.0,
          f"identity {ident_defect:.1e}, shear {shear_defect:.1e}, "
          f"flipped {bad_defect:.2f}")


def test_criterion_10_four_distance_injectivity():
    results = {
        norm.kind: four_distance_injectivity(norm, [1, 0], [0, 1], 4096)
        for norm in (EuclideanNorm(), PNorm(3.0, 2), hexagonal_norm())}
    planes_ok = all(r.injective for r in results.values())
    # the 3D failure: two distinct points with identical distance 6-tuples
    norm3 = PNorm(math.inf, 3)
    v = [np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.9]),
         np.array([1.0, 0.9, 1.0])]
    y1, y2 = np.array([1.0, -1.0, 0.1]), np.array([1.0, -1.0, -0.1])
    tuple1 = [norm3(y1 - w) for w in v] + [norm3(y1 + w) for w in v]
    tuple2 = [norm3(y2 - w) for w in v] + [norm3(y2 + w) for w in v]
    failure_ok = (np.abs(np.array(tuple1) - np.array(tuple2)).max() <= 1e-15
                  and norm3(y1 - y2) > 0.1)
    _line(10, "four-distance injectivity in the plane; 3D counterexample",
          planes_ok and failure_ok,
          "min gaps " + ", ".join(f"{r.min_gap:.1e}" for r in results.values()))


def test_criterion_11_cone_distance_and_reconstruction():
    hexn = hexagonal_norm()
    w = top_face_half_width(hexn)
    rng = np.random.default_rng(5)
    law_ok = True
    for _ in range(1000):
        p = rng.uniform(-2.0, 2.0, size=2)
        dy = rng.uniform(-2.0, 2.0)
        dx = rng.uniform(-1.0, 1.0) * w * abs(dy)
        q = p + np.array([dx, dy])
        check = cone_distance_check(hexn, p, q)
        law_ok &= check.in_cone and abs(check.distance - abs(dy)) <= 1e-12
    rec_ok = True
    for beta in rng.uniform(0.0, 1.0, size=24):
        alpha = 1.0 - beta / 2.0  # upper-right face point
        delta = base_leftmost_crossing(hexn, [alpha, beta])
        rec_ok &= abs(cone_reconstruct_abscissa(delta, beta, w) - alpha) <= 1e-10
    _line(11, "cone distance law and abscissa reconstruction on the hexagon",
          law_ok and rec_ok)


def test_criterion_12_revolution_sphere_and_lift():
    t0 = time.time()
    report = run_reference_checks(ridge_samples=360)
    wanted = {"revolution-ridge-planar", "revolution-ridge-round",
              "revolution-bisector-membership", "revolution-bisector-closure"}
    claims = {c.claim_id: c.passed for c in report.claims if c.claim_id in wanted}
    ridge_ok = set(claims) == wanted and all(claims.values())
    rng = np.random.default_rng(21)
    us = rng.normal(size=(1000, 2)) * 5
    vs = rng.normal(size=(1000, 2)) * 5
    lift_ok = max(lift_distance_defect(u, v) for u, v in zip(us, vs)) <= 1e-12
    witness_ok = lift_affine_defect([1.0, 0.0], [-1.0, 0.0]) > 0.1
    elapsed = time.time() - t0
    _line(12, "revolution sphere ridge/bisector checks and isometric lift",
          ridge_ok and lift_ok and witness_ok and elapsed < 10.0,
          f"{elapsed:.1f} s")
