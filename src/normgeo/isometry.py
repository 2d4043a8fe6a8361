"""Numeric search for isometries between 2D unit spheres.

A sphere is fingerprinted by sampling it at equal own-norm arc-length steps
and recording the full pairwise chord matrix.  Isometries between two spheres
then appear as sample permutations (an integer shift, possibly reflected)
that leave the chord matrix invariant; the self-isometry group is recovered
by the same test run over continuous arc offsets, so symmetries whose order
does not divide the sample count are still found.
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


@dataclass(frozen=True)
class ChordFingerprint:
    """Equal-arc-length sphere sampling plus its pairwise chord matrix."""

    norm: Norm
    n: int
    points: np.ndarray
    chords: np.ndarray
    circumference: float

    def sphere_points(self) -> list[SpherePoint]:
        return [sphere_point(self.norm, p, tol=1e-9) for p in self.points]


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
                           tol=1e-8)


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


def _self_alignment_scan(norm: Norm, fp: ChordFingerprint, reflected: bool,
                         tol: float) -> list[tuple[float, float]] | None:
    """Zeros of the chord-profile mismatch over continuous arc offsets.

    Returns ``None`` when the row-profile discrepancy is within ``tol`` at
    every grid offset (the symmetry is continuous).  Otherwise returns the
    ``(offset, defect)`` pairs, sorted by offset: each offset is a refined
    local minimum of the row-profile discrepancy whose full chord matrix
    matches within ``tol``, and ``defect`` is that full-matrix mismatch.
    """
    amap = arc_length_map(norm)
    circ = amap.circumference
    n = fp.n
    targets = np.arange(n) * (circ / n)
    if reflected:
        targets = -targets
    ref_row = fp.chords[0]

    def row_mismatch(offset: float) -> float:
        pts = amap.point_at(offset + targets)
        row = norm(pts - pts[0])
        return float(np.abs(row - ref_row).max())

    grid_size = max(4 * n, 1024)
    grid = np.linspace(0.0, circ, grid_size, endpoint=False)
    profile = np.array([row_mismatch(g) for g in grid])
    if np.all(profile <= tol):
        return None
    step = circ / grid_size
    screen = max(10.0 * step, 20.0 * float(profile.min() + 1e-15))
    screen = min(screen, 0.2)
    local_min = (profile <= np.roll(profile, 1)) & (profile <= np.roll(profile, -1))
    candidates = np.where(local_min & (profile <= screen))[0]
    found: list[tuple[float, float]] = []
    for idx in candidates:
        # the mismatch is V-shaped around each zero
        offset, _ = golden_max(lambda w: -row_mismatch(w),
                               float(grid[idx]) - step, float(grid[idx]) + step)
        pts = amap.point_at(offset + targets)
        defect = float(np.abs(_chord_matrix(norm, pts) - fp.chords).max())
        if defect <= tol:
            w = offset % circ
            if w > circ - 1e-7 * circ:  # refined to just under a full turn
                w = 0.0
            found.append((w, defect))
    found.sort()
    merged: list[tuple[float, float]] = []
    for w, defect in found:
        if merged and min(abs(w - merged[-1][0]),
                          circ - abs(w - merged[-1][0])) < 1e-7 * circ:
            continue
        merged.append((w, defect))
    if (len(merged) > 1
            and (circ - merged[-1][0]) + merged[0][0] < 1e-7 * circ):
        merged.pop()
    return merged


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
    rot = _self_alignment_scan(norm, fp, False, tol)
    refl = _self_alignment_scan(norm, fp, True, tol)
    continuous = rot is None or refl is None
    elements: list[SymmetryElement] = []
    if not continuous:
        for kind, pairs in (("rotation", rot), ("reflection", refl)):
            for off, defect in pairs:
                elements.append(SymmetryElement(kind, off, off / step, defect))
    order = None if continuous else len(elements)
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
    return IsometryGroupSummary(norm.kind, n, order, continuous,
                                tuple(elements), pattern)


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
