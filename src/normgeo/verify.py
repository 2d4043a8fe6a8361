"""Built-in verification suite: every reference value the package is built
around, recomputed from scratch and reported claim by claim.

The report is deterministic for a fixed seed and fixed resolutions, so two
runs with the same flags produce byte-identical JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .config import DEFAULT_TOLS
from .curvature import circle_curve, normed_curvature
from .isometry import lift_target_norm
from .norms import EuclideanNorm, PNorm, hexagonal_norm, radial_point, radial_points_vec
from .numerics import TWO_PI, bracket_search
from .sphere import (arc_hausdorff, diametral_set, maximal_segments,
                     self_circumference, star)

__all__ = ["ClaimResult", "VerificationReport", "run_reference_checks"]

# Claim bounds, each set by what limits the computed value.  Exact: norms of
# sums of one-decimal vectors, and the hexagon gauge at rational points, a
# few roundings of numbers of size 2.  Closed form: the cube-norm closed
# forms, cube roots and a 3x3 determinant, a few ulps each.  Norm: norm
# evaluations of size 2 through trigonometric points (the revolution
# sphere's equidistant circle) and hexagon face lengths between computed
# vertices.
_EXACT_BOUND, _CLOSED_FORM_BOUND, _NORM_BOUND = 1e-15, 1e-12, 1e-10
# Ridge points come from a bisection in profile angle to DEFAULT_TOLS.angle:
# their first coordinates agree to the first bound, and their chord
# distances, which compound two points' errors, to the second.
_RIDGE_PLANE_BOUND, _RIDGE_CHORD_BOUND = 1e-10, 1e-9
# The hexagon's own-norm circumference, 4096 chord lengths summed; curvature
# from chord ratios at finite radii, the fit's truncation error; and the
# distance-2 set against the negated star, two arc searches each merged to
# DEFAULT_TOLS.arc_merge in angle.
_CIRCUMFERENCE_BOUND, _CURVATURE_BOUND, _ARC_BOUND = 1e-9, 1e-3, 1e-6
# The ridge search stays this far from the profile's poles, where every
# azimuth lifts to the same point of the axis; pairs of the equidistant
# circle closer than the second gap are skipped, since normalising their
# difference would magnify its rounding.
_POLE_GAP, _MIN_PAIR_GAP = 1e-12, 1e-9


@dataclass(frozen=True)
class ClaimResult:
    """One verified claim: expected vs computed at a stated tolerance."""

    claim_id: str
    description: str
    expected: float
    computed: float
    tolerance: float
    passed: bool
    source: str

    def to_json(self) -> dict:
        return {
            "id": self.claim_id,
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "source": self.source,
        }


@dataclass(frozen=True)
class VerificationReport:
    claims: tuple[ClaimResult, ...]
    environment: dict
    passed: bool

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "environment": self.environment,
            "passed": self.passed,
            "claims": [c.to_json() for c in self.claims],
        }


def _claim(claims: list[ClaimResult], claim_id: str, description: str,
           expected: float, computed: float, tolerance: float, source: str) -> None:
    gap = abs(computed - expected)
    claims.append(ClaimResult(claim_id, description, float(expected),
                              float(computed), float(tolerance),
                              bool(gap <= tolerance), source))


def _check_maxnorm_table(claims: list[ClaimResult]) -> None:
    """Max norm on R^3: a basis whose distance table cannot separate two points."""
    norm = PNorm(math.inf, 3)
    v = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.9], [1.0, 0.9, 1.0]])
    y = np.array([[1.0, -1.0, 0.1], [1.0, -1.0, -0.1]])
    worst_sum = max(abs(norm(v[i] + y[j]) - 2.0) for i in range(3) for j in range(2))
    _claim(claims, "maxnorm-sum-table", "all six sums have max norm 2",
           0.0, worst_sum, _EXACT_BOUND, "exact arithmetic")
    worst_diff = max(abs(norm(v[i] - y[j]) - 2.0) for i in range(2) for j in range(2))
    _claim(claims, "maxnorm-diff-table", "first-two differences have max norm 2",
           0.0, worst_diff, _EXACT_BOUND, "exact arithmetic")
    worst_third = max(abs(norm(v[2] - y[j]) - 1.9) for j in range(2))
    _claim(claims, "maxnorm-third-row", "third-row differences have max norm 1.9",
           0.0, worst_third, _EXACT_BOUND, "exact arithmetic")


def _check_cubenorm_basis(claims: list[ClaimResult]) -> None:
    """Cube norm on R^3: a basis equidistant from a point and its antipode."""
    norm = PNorm(3.0, 3)
    x = np.array([1.0, 1.0, 1.0]) / 3.0 ** (1.0 / 3.0)
    c = 4.0 ** (1.0 / 3.0)
    s = 6.0 ** (-1.0 / 3.0)
    basis = np.array([[1.0, 1.0, -c], [1.0, -c, 1.0], [-c, 1.0, 1.0]]) * s
    expected = (4.0 / 3.0 + 2.0 * 2.0 ** (1.0 / 3.0)) ** (1.0 / 3.0)
    values = [norm(b - x) for b in basis] + [norm(b + x) for b in basis]
    worst = max(abs(val - expected) for val in values)
    _claim(claims, "cubenorm-equidistant", "six distances equal the closed form",
           0.0, worst, _CLOSED_FORM_BOUND, "closed form")
    det = abs(float(np.linalg.det(basis)))
    _claim(claims, "cubenorm-independent", "equidistant triple is a basis (|det|)",
           abs(c ** 3 - 3 * c - 2) / 6.0, det, _CLOSED_FORM_BOUND, "closed form")


def _ridge_points(samples: int) -> np.ndarray:
    """Points of the revolution sphere at distance 1 from (1,0,0), one per
    azimuth; one bracket search over the profile angle serves every azimuth."""
    norm = lift_target_norm()
    profile = hexagonal_norm()
    e1 = np.array([1.0, 0.0, 0.0])
    phis = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    cp, sp = np.cos(phis)[:, None], np.sin(phis)[:, None]

    def lift(psi: np.ndarray, at) -> np.ndarray:  # (m, k) angles of azimuths at -> points
        ar = radial_points_vec(profile, psi.ravel()).reshape(*psi.shape, 2)
        return np.stack([ar[..., 0], ar[..., 1] * cp[at], ar[..., 1] * sp[at]], axis=-1)

    def beyond(psi: np.ndarray, at: np.ndarray) -> np.ndarray:
        return norm(lift(psi, at).reshape(-1, 3) - e1).reshape(psi.shape) - 1.0 > 0.0

    lo, hi = bracket_search(beyond, np.full(samples, _POLE_GAP),
                            np.full(samples, math.pi - _POLE_GAP), xtol=DEFAULT_TOLS.angle)
    return lift(0.5 * (lo + hi)[:, None], slice(None))[:, 0]


def _check_revolution_ridge(claims: list[ClaimResult], samples: int) -> None:
    """The self-intersection circle of the revolution sphere and its shift."""
    norm = lift_target_norm()
    pts = _ridge_points(samples)
    spread = float(np.abs(pts[:, 0] - 0.5).max())
    _claim(claims, "revolution-ridge-planar",
           "ridge circle lies in a plane of constant first coordinate",
           0.0, spread, _RIDGE_PLANE_BOUND, "independent oracle")
    phis = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    worst = 0.0
    for i in range(0, samples, 7):
        diff = pts - pts[i]
        dist = norm(diff)
        target = 2.0 * np.abs(np.sin(0.5 * (phis - phis[i])))
        worst = max(worst, float(np.abs(dist - target).max()))
    _claim(claims, "revolution-ridge-round",
           "ridge chord distances follow the round-circle law",
           0.0, worst, _RIDGE_CHORD_BOUND, "closed form")


def _check_revolution_bisector(claims: list[ClaimResult], pairs: int,
                               rng: np.random.Generator) -> None:
    """Equidistance plane of (1,0,0) in the revolution norm, and its closure
    under normalised differences."""
    norm = lift_target_norm()
    e1 = np.array([1.0, 0.0, 0.0])
    phis = rng.uniform(0.0, TWO_PI, size=pairs * 2)
    ring = np.column_stack([np.zeros_like(phis), np.cos(phis), np.sin(phis)])
    membership = float(np.abs(norm(ring - e1) - norm(ring + e1)).max())
    _claim(claims, "revolution-bisector-membership",
           "the unit circle of the axis-orthogonal plane is equidistant from +-e1",
           0.0, membership, _NORM_BOUND, "exact arithmetic")
    worst = 0.0
    for i in range(pairs):
        z, zp = ring[2 * i], ring[2 * i + 1]
        d = z - zp
        nd = float(norm(d))
        if nd < _MIN_PAIR_GAP:
            continue
        u = d / nd
        worst = max(worst, abs(float(norm(u - e1)) - float(norm(u + e1))))
    _claim(claims, "revolution-bisector-closure",
           "normalised differences of equidistant points stay equidistant",
           0.0, worst, _NORM_BOUND, "exact arithmetic")


def _check_circle_curvature(claims: list[ClaimResult]) -> None:
    ambient = EuclideanNorm()
    for lam in (0.5, 1.0, 2.0):
        est = normed_curvature(ambient, circle_curve(lam), 0.3)
        _claim(claims, f"circle-curvature-{lam}",
               f"curvature of the round circle of radius {lam}",
               1.0 / lam, float(est.value), _CURVATURE_BOUND, "closed form")


def _check_hexagon_facts(claims: list[ClaimResult]) -> None:
    hexn = hexagonal_norm()
    _claim(claims, "hexagon-circumference",
           "hexagon sphere has own-norm length 6",
           6.0, self_circumference(hexn, 4096), _CIRCUMFERENCE_BOUND, "exact arithmetic")
    segs = maximal_segments(hexn)
    _claim(claims, "hexagon-face-count", "hexagon sphere has 6 maximal segments",
           6.0, float(len(segs)), 0.0, "exact arithmetic")
    worst = max(abs(s.length - 1.0) for s in segs)
    _claim(claims, "hexagon-face-length", "every hexagon face has own-norm length 1",
           0.0, worst, _NORM_BOUND, "exact arithmetic")


def _check_diametral_star(claims: list[ClaimResult]) -> None:
    """Distance-2 set equals the negated star; the same-sign bracket variant
    fails, which the report records rather than hiding."""
    hexn = hexagonal_norm()
    x = radial_point(hexn, 0.0)
    dset = diametral_set(hexn, x)
    st = star(hexn, x)
    gap = arc_hausdorff(dset, st.negated())
    _claim(claims, "diametral-is-negated-star",
           "distance-2 set equals the negated star",
           0.0, gap, _ARC_BOUND, "independent oracle")
    # witness: x' = (-1/2, 1) sits at distance 2 from x = (1, 0), yet the
    # segment joining -x and -x' leaves the sphere (its midpoint norm is 1/2)
    xp = np.array([-0.5, 1.0])
    _claim(claims, "diametral-witness-distance",
           "witness point lies at chordal distance 2",
           2.0, float(hexn(x.vec - xp)), _EXACT_BOUND, "exact arithmetic")
    mid = 0.5 * ((-x.vec) + (-xp))
    _claim(claims, "diametral-same-sign-bracket-fails",
           "midpoint norm of the same-sign bracket (1/2, not 1)",
           0.5, float(hexn(mid)), _EXACT_BOUND, "exact arithmetic")


# Random pairs of the equidistant circle whose normalised differences the
# closure claim checks.
_CLOSURE_PAIRS = 128


def run_reference_checks(seed: int = 0, *, ridge_samples: int = 360) -> VerificationReport:
    """Recompute every built-in reference value and report pass/fail."""
    if ridge_samples < 1:
        raise ValueError(f"ridge_samples must be positive, got {ridge_samples}")
    rng = np.random.default_rng(seed)
    claims: list[ClaimResult] = []
    _check_maxnorm_table(claims)
    _check_cubenorm_basis(claims)
    _check_revolution_ridge(claims, ridge_samples)
    _check_revolution_bisector(claims, _CLOSURE_PAIRS, rng)
    _check_circle_curvature(claims)
    _check_hexagon_facts(claims)
    _check_diametral_star(claims)
    env = {
        "version": __version__,
        "seed": seed,
        "ridge_samples": ridge_samples,
        "closure_pairs": _CLOSURE_PAIRS,
    }
    return VerificationReport(tuple(claims), env, all(c.passed for c in claims))
