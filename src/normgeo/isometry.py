"""Numeric search for isometries between 2D unit spheres.

A sphere is fingerprinted by sampling it at equal own-norm arc-length steps
and recording the full pairwise chord matrix.  Isometries between two spheres
then appear as sample permutations (an integer shift, possibly reflected)
that leave the chord matrix invariant.  The self-isometry group is recovered
by the same test run over continuous arc offsets, so symmetries whose order
does not divide the sample count are still found: a lag table of distances
between points of a grid finer than the samples gives the row-0 mismatch of
every grid offset at once, for rotations and reflections alike, and the
grid's local minima are refined together by one batched golden-section
search before each survivor's full chord matrix is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .charts import SphereMapSample
from .norms import (Norm, RevolutionNorm, SpherePoint, hexagonal_norm,
                    sphere_point)
from .numerics import golden_max
from .sphere import arc_length_map

__all__ = [
    "ChordFingerprint", "Alignment", "IsometryGroupSummary", "SymmetryElement",
    "fingerprint", "align", "alignment_map_sample", "isometry_group",
    "isometric_lift", "lift_target_norm", "lift_distance_defect",
    "lift_affine_defect",
]

# Fingerprint points are radial projections of arc-length placements, on
# their sphere up to rounding; certification leaves room for that rounding
# as the arc-length spacing checks do.
_SPHERE_POINT_TOL = 1e-9
# An alignment pairs the samples of two spheres, each placed as above; the
# map sample certifies both sides with an order of magnitude more room.
_MAP_SAMPLE_TOL = 1e-8
# Candidate screen of the offset scan.  Offsets move sample points at unit
# speed in the norm, so the row mismatch grows at most twice as fast as the
# distance to a true symmetry, and the grid offset nearest one shows at most
# one grid step: grid minima up to ten steps are refined.
_SCREEN_GRID_STEPS = 10.0
# Minima up to twenty times the best grid mismatch are refined as well, so a
# sphere with no symmetry of one orientation still yields candidates for the
# full check to reject; the floor keeps that allowance positive when the best
# mismatch is an exact zero.
_SCREEN_OVER_MIN = 20.0
_SCREEN_FLOOR = 1e-15
# No minimum above a tenth of the diameter 2 is refined: a grid step is at
# most 8/1024, far below it, so no symmetry is lost.
_SCREEN_CAP = 0.2
# Refined offsets nearer than this fraction of the circumference are one
# element: brackets from adjacent grid minima converge to the same zero to
# ~1e-12, and distinct elements lie a circumference over the order apart.
_MERGE_RADIUS = 1e-7


@dataclass(frozen=True)
class ChordFingerprint:
    """Equal-arc-length sphere sampling plus its pairwise chord matrix."""

    norm: Norm
    n: int
    points: np.ndarray
    chords: np.ndarray
    circumference: float

    def sphere_points(self) -> list[SpherePoint]:
        return [sphere_point(self.norm, p, tol=_SPHERE_POINT_TOL) for p in self.points]


def _chord_matrix(norm: Norm, pts: np.ndarray) -> np.ndarray:
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    return norm(diff.reshape(-1, 2)).reshape(n, n)


def fingerprint(norm: Norm, n: int) -> ChordFingerprint:
    """Fingerprint with ``n`` samples (even, at least 4), starting at angle 0.

    Even counts make every sample's antipode a sample as well, since the
    sphere is centrally symmetric.
    """
    if norm.dim != 2:
        raise ValueError("fingerprints are defined for 2D norms")
    if n < 4 or n % 2 != 0:
        raise ValueError("sample count must be an even integer >= 4")
    amap = arc_length_map(norm)
    targets = np.arange(n) * (amap.circumference / n)
    pts = amap.point_at(targets)
    return ChordFingerprint(norm, n, pts, _chord_matrix(norm, pts),
                            amap.circumference)


@dataclass(frozen=True)
class Alignment:
    """A sample permutation matching two fingerprints: ``i -> shift +- i``."""

    shift: int
    reflected: bool
    defect: float

    def permutation(self, n: int) -> np.ndarray:
        idx = np.arange(n)
        if self.reflected:
            return (self.shift - idx) % n
        return (self.shift + idx) % n


def align(fp_x: ChordFingerprint, fp_y: ChordFingerprint,
          tol: float = DEFAULT_TOLS.chord_match) -> list[Alignment]:
    """All (shift, reflected) permutations matching the two chord matrices.

    The tolerance is scaled by chord magnitude entrywise.  Candidates are
    screened on their first row before the full matrix comparison.
    """
    if fp_x.n != fp_y.n:
        raise ValueError(f"sample counts differ: {fp_x.n} vs {fp_y.n}")
    n = fp_x.n
    dx, dy = fp_x.chords, fp_y.chords
    allowance = tol * (1.0 + dx)
    row_allow = allowance[0]
    shifts = np.arange(n)
    j = np.arange(n)
    out: list[Alignment] = []
    for reflected in (False, True):
        if reflected:
            rows = dy[shifts[:, None], (shifts[:, None] - j[None, :]) % n]
        else:
            rows = dy[shifts[:, None], (shifts[:, None] + j[None, :]) % n]
        survivors = np.where(np.all(np.abs(rows - dx[0]) <= row_allow, axis=1))[0]
        for s in survivors:
            perm = Alignment(int(s), reflected, 0.0).permutation(n)
            gap = np.abs(dy[np.ix_(perm, perm)] - dx)
            if np.all(gap <= allowance):
                out.append(Alignment(int(s), reflected, float(gap.max())))
    out.sort(key=lambda a: (a.reflected, a.shift))
    return out


def alignment_map_sample(fp_x: ChordFingerprint, fp_y: ChordFingerprint,
                         alignment: Alignment) -> SphereMapSample:
    """The sphere map induced by an alignment, ready for defect measurements."""
    perm = alignment.permutation(fp_x.n)
    return SphereMapSample(fp_x.norm, fp_y.norm, fp_x.points, fp_y.points[perm],
                           tol=_MAP_SAMPLE_TOL)


@dataclass(frozen=True)
class SymmetryElement:
    """One self-isometry: a rotation or reflection in arc-length terms.

    ``offset`` is the arc-length parameter (image of arc position 0);
    ``shift`` the same in units of samples, not necessarily an integer.
    """

    kind: str
    offset: float
    shift: float
    defect: float


@dataclass(frozen=True)
class IsometryGroupSummary:
    """Self-isometries of a sphere found by chord-matrix alignment."""

    norm_kind: str
    n: int
    order: int | None
    continuous: bool
    elements: tuple[SymmetryElement, ...]
    pattern: str

    def to_json(self) -> dict:
        return {
            "norm": self.norm_kind,
            "n": self.n,
            "order": self.order,
            "continuous": self.continuous,
            "pattern": self.pattern,
            "elements": [
                {"kind": e.kind, "offset": e.offset, "shift": e.shift,
                 "defect": e.defect}
                for e in self.elements],
        }


def _lag_profiles(norm: Norm, fp: ChordFingerprint):
    """Row mismatch of every grid offset, for rotations and for reflections.

    The grid has ``m = r * n`` offsets, ``r`` the smallest integer with
    ``m >= max(4n, 1024)``, so an offset plus a sample step is again a grid
    offset.  The grid points ``q`` are placed once; the lag table
    ``|q[i + r k] - q[i]|`` against row 0 of the chord matrix gives the
    rotation profile, and the same table read at rows ``i - r k`` gives the
    reflection profile, the norm being symmetric.  The table is built
    ``n / 2`` rows per norm call, so its blocks stay below the memory one
    chord matrix takes.

    Returns ``(grid, rotation_profile, reflection_profile)``.
    """
    n = fp.n
    r = max(4, -(-1024 // n))
    m = r * n
    grid = np.linspace(0.0, fp.circumference, m, endpoint=False)
    q = arc_length_map(norm).point_at(grid)
    lags = r * np.arange(n)
    cols = np.arange(n)
    block = n // 2
    dev = np.empty((m, n))
    for lo in range(0, m, block):
        rows = np.arange(lo, lo + block)[:, None]
        diff = q[(rows + lags) % m] - q[rows]
        dev[lo:lo + block] = norm(diff.reshape(-1, 2)).reshape(block, n)
    dev -= fp.chords[0]
    np.abs(dev, out=dev)
    flipped = np.empty(m)
    for lo in range(0, m, block):
        rows = np.arange(lo, lo + block)[:, None]
        flipped[lo:lo + block] = dev[(rows - lags) % m, cols].max(axis=1)
    return grid, dev.max(axis=1), flipped


def _profile_zeros(norm: Norm, fp: ChordFingerprint, grid: np.ndarray,
                   profile: np.ndarray, reflected: bool,
                   tol: float) -> list[tuple[float, float]]:
    """Refined zeros of one profile whose full chord matrix matches."""
    amap = arc_length_map(norm)
    circ = fp.circumference
    n = fp.n
    targets = np.arange(n) * (circ / n)
    if reflected:
        targets = -targets
    ref_row = fp.chords[0]

    def place(offsets: np.ndarray) -> np.ndarray:
        return amap.point_at((offsets[:, None] + targets).ravel()).reshape(-1, n, 2)

    def neg_row_mismatch(offsets: np.ndarray) -> np.ndarray:
        pts = place(offsets)
        rows = norm((pts - pts[:, :1]).reshape(-1, 2)).reshape(-1, n)
        return -np.abs(rows - ref_row).max(axis=1)

    step = circ / grid.size
    screen = max(_SCREEN_GRID_STEPS * step,
                 _SCREEN_OVER_MIN * float(profile.min() + _SCREEN_FLOOR))
    screen = min(screen, _SCREEN_CAP)
    local_min = (profile <= np.roll(profile, 1)) & (profile <= np.roll(profile, -1))
    centres = grid[local_min & (profile <= screen)]
    if centres.size == 0:
        return []
    # the mismatch is V-shaped around each zero
    offsets, values, converged = golden_max(neg_row_mismatch,
                                            centres - step, centres + step)
    if not converged.all():
        k = int(np.argmin(converged))
        raise RuntimeError(
            f"offset refinement on the {norm.kind} sphere hit its iteration "
            f"cap in bracket [{centres[k] - step!r}, {centres[k] + step!r}]")
    # row 0 is part of the full check below
    offsets = offsets[-values <= tol]
    found: list[tuple[float, float]] = []
    for offset, pts in zip(offsets, place(offsets)):
        defect = float(np.abs(_chord_matrix(norm, pts) - fp.chords).max())
        if defect <= tol:
            w = float(offset) % circ
            if w > circ - _MERGE_RADIUS * circ:  # refined to just under a full turn
                w = 0.0
            found.append((w, defect))
    found.sort()
    merged: list[tuple[float, float]] = []
    for w, defect in found:
        if merged and min(abs(w - merged[-1][0]),
                          circ - abs(w - merged[-1][0])) < _MERGE_RADIUS * circ:
            continue
        merged.append((w, defect))
    if (len(merged) > 1
            and (circ - merged[-1][0]) + merged[0][0] < _MERGE_RADIUS * circ):
        merged.pop()
    return merged


def _self_alignment_scan(norm: Norm, fp: ChordFingerprint,
                         tol: float) -> list[tuple[str, float, float]] | None:
    """Zeros of the chord-profile mismatch over continuous arc offsets.

    The mismatch of every offset on a grid finer than the samples comes from
    one lag table (``_lag_profiles``), with no norm call per offset.
    Returns ``None`` when the rotation or the reflection profile is within
    ``tol`` at every grid offset (the symmetry is continuous).  Otherwise
    the grid's local minima under a screen are refined together by one
    batched golden-section search per orientation; a refined offset whose
    row mismatch exceeds ``tol`` is dropped, and every other one is kept
    when its full chord matrix matches within ``tol``.  Returns
    ``(kind, offset, defect)`` triples, rotations then reflections, each
    sorted by offset, ``defect`` being the full-matrix mismatch.
    """
    grid, rot, refl = _lag_profiles(norm, fp)
    if np.all(rot <= tol) or np.all(refl <= tol):
        return None
    return [(kind, w, defect)
            for kind, reflected, profile in (("rotation", False, rot),
                                             ("reflection", True, refl))
            for w, defect in _profile_zeros(norm, fp, grid, profile,
                                            reflected, tol)]


def isometry_group(norm: Norm, n: int = 512,
                   tol: float = DEFAULT_TOLS.chord_match) -> IsometryGroupSummary:
    """Self-isometry group of a 2D sphere via chord-matrix self-alignment.

    Rotations and reflections are found by scanning continuous arc offsets,
    so the reported order does not depend on the divisibility of ``n``.
    Every element's full chord matrix matches the fingerprint within ``tol``;
    its ``defect`` is the largest entrywise mismatch.
    """
    fp = fingerprint(norm, n)
    step = fp.circumference / n
    found = _self_alignment_scan(norm, fp, tol)
    continuous = found is None
    elements = tuple(SymmetryElement(kind, off, off / step, defect)
                     for kind, off, defect in found or ())
    n_rot = sum(1 for e in elements if e.kind == "rotation")
    n_refl = len(elements) - n_rot
    if continuous:
        pattern = "continuous"
    elif n_refl == n_rot and n_refl > 0:
        pattern = f"dihedral-{n_rot}"
    elif n_refl == 0:
        pattern = f"cyclic-{n_rot}"
    else:
        pattern = "irregular"
    return IsometryGroupSummary(norm.kind, n, None if continuous else len(elements),
                                continuous, elements, pattern)


_LIFT_NORM = RevolutionNorm(hexagonal_norm())


def lift_target_norm() -> RevolutionNorm:
    """The 3D revolution norm receiving the isometric plane embedding."""
    return _LIFT_NORM


def isometric_lift(u) -> np.ndarray:
    """Nonlinear isometric embedding of the Euclidean plane into R^3.

    ``u -> (||u||_2 / 2, u1, u2)``: the height function is 1/2-Lipschitz and
    vanishes at the origin, which makes the revolution norm of a lifted
    difference collapse to the Euclidean distance.
    """
    arr = np.asarray(u, dtype=float)
    if arr.shape != (2,):
        raise ValueError("the lift embeds 2D vectors")
    return np.array([0.5 * math.hypot(arr[0], arr[1]), arr[0], arr[1]])


def lift_distance_defect(u, v) -> float:
    """``| ||lift(u) - lift(v)||_X - ||u - v||_2 |`` (zero for an isometry)."""
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    lifted = _LIFT_NORM(isometric_lift(ua) - isometric_lift(va))
    return abs(lifted - float(np.hypot(*(ua - va))))


def lift_affine_defect(u, v) -> float:
    """``||lift(u) + lift(v) - 2 lift((u+v)/2)||_X``: nonzero exposes nonlinearity."""
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    mid = 0.5 * (ua + va)
    return float(_LIFT_NORM(isometric_lift(ua) + isometric_lift(va)
                            - 2.0 * isometric_lift(mid)))
