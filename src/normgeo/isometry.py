"""Numeric search for isometries between 2D unit spheres.

A sphere is fingerprinted by sampling it at equal own-norm arc-length steps
and recording the full pairwise chord matrix.  An isometry between two
spheres preserves own-norm arc length, so it moves the samples of one sphere
to points of the other at a common arc offset, possibly reflected, and
leaves the chord matrix invariant.  One scan finds these offsets, between
two spheres and, with both the same, in the self-isometry group.  A lag
table of distances between points of a grid finer than the samples of the
second sphere gives the mismatch against row 0 of the first sphere's chord
matrix at every grid offset at once, for rotations and reflections alike;
every gauge is even, so the lags up to half a turn give the whole table, the
reversed lags read from a skewed view of the same block in one reduction.
Offsets move the points at unit speed and an arc is never shorter than its
chord, so the mismatch is 2-Lipschitz in the offset: only grid minima that
could fall to the tolerance within a grid step are refined.  Near an
isometry every chord's mismatch is linear in the offset with a common zero;
the minima are refined together by one batched secant search that fits each
chord's slope and steps to the least-squares zero of the lines, halving its
bracket where a step fails (``_secant_refine``).  One certificate then
checks each survivor's full chord matrix: an offset of ``f + s`` sample
steps puts sample ``i`` at ``f + (s +- i)``, so offsets with one fraction
``f`` share the chord matrix of the points ``f + k``, rows and columns
permuted, and whole shifts read the second fingerprint's own.  The
permuted matrix is compared block by block in place: a shift cuts it into
four contiguous blocks, and a reflection is a shift of the matrix reversed.
Offsets need not be whole sample steps, so symmetries whose order does not
divide the sample count are found, and so are isometries that do not carry
the first sphere's samples onto the second's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .config import DEFAULT_TOLS
from .charts import SphereMapSample
from .norms import Norm, RevolutionNorm, hexagonal_norm
from .sphere import arc_length_map

__all__ = [
    "ChordFingerprint", "Alignment", "IsometryGroupSummary", "SymmetryElement",
    "fingerprint", "align", "alignment_map_sample", "isometry_group",
    "isometric_lift", "lift_target_norm", "lift_distance_defect",
    "lift_affine_defect",
]

# An alignment pairs arc-length placements on two spheres, each on its sphere
# up to rounding; the map sample certifies both sides with room for that.
_MAP_SAMPLE_TOL = 1e-8
# Candidate screen of the offset scan.  Offsets move the sample points at
# unit speed along the sphere, and an arc is never shorter than its chord, so
# the row mismatch is 2-Lipschitz in the offset: a grid minimum above
# ``2 * step + tol`` stays above ``tol`` across its bracket ``centre +- step``
# and is not refined.  The slack covers the arc-length map: it places points
# within ~1e-7 of their arc (the l_1.5 circumference comes out ~7e-8 short),
# which moves the mismatch by at most four times that between two offsets.
_ARC_SLACK = 1e-6
# Refined offsets nearer than this fraction of the circumference are one
# element: brackets from adjacent grid minima converge to the same zero
# within ~3e-14 of it (the rotations of the shipped spheres and of 20 seeded
# images, 64 to 512 samples), and distinct elements lie a circumference over
# the order apart.
_MERGE_RADIUS = 1e-7
# A refined offset within this many sample steps of a whole step is that
# sample shift, and offsets whose fractions of a step are this close share
# one chord matrix: the offsets of sample-aligned isometries refine to within
# 6e-14 steps of it (diamond onto square, 64 to 1000 samples), and the
# nearest fractional shift there is a quarter step off a whole one.  Distinct
# elements, _MERGE_RADIUS of the circumference apart, never snap to one shift.
_SHIFT_SNAP = 1e-6
# An offset refinement stops once the least-squares zero of its chords is
# this close to its best point, relative to ``1 + |t|``: tens of ulps of an
# offset on a sphere of length 6 to 8.
_REFINE_STOP = 1e-14
# A refinement bracket that this many calls in a row have not halved is
# halved on the next call.
_REFINE_STALL = 4


@dataclass(frozen=True)
class ChordFingerprint:
    """Equal-arc-length sphere sampling plus its pairwise chord matrix."""

    norm: Norm
    n: int
    points: np.ndarray
    chords: np.ndarray
    circumference: float


def _chord_matrix(norm: Norm, pts: np.ndarray) -> np.ndarray:
    return norm((pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)).reshape(len(pts), -1)


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
    pts = amap.point_at(np.arange(n) * (amap.circumference / n))
    return ChordFingerprint(norm, n, pts, _chord_matrix(norm, pts),
                            amap.circumference)


@dataclass(frozen=True)
class Alignment:
    """An isometry of two fingerprints: sample ``i -> shift +- i``.

    ``shift`` counts sample steps along the second sphere.  It is an ``int``
    when the map carries samples onto samples, otherwise a float.
    """

    shift: int | float
    reflected: bool
    defect: float

    def permutation(self, n: int) -> np.ndarray:
        if not isinstance(self.shift, int):
            raise ValueError(f"shift {self.shift!r} is fractional: it permutes no samples")
        return self._steps(n)

    def _steps(self, n: int) -> np.ndarray:
        """Image of each sample, in sample steps along the second sphere."""
        idx = np.arange(n)
        return (self.shift - idx if self.reflected else self.shift + idx) % n


def align(fp_x: ChordFingerprint, fp_y: ChordFingerprint,
          tol: float = DEFAULT_TOLS.chord_match) -> list[Alignment]:
    """Every isometry between the two sampled spheres, both orientations.

    The arc offsets come from the scan that ``isometry_group`` runs, with
    ``fp_y``'s sphere in place of ``fp_x``'s, or are every sample shift of
    both orientations when every offset matches (a round sphere and its
    linear images); ``_certified`` keeps those whose chord matrix matches,
    a shift within a millionth of a step of a whole one as an integer.
    ``defect`` is the largest entrywise chord mismatch, at most ``tol``;
    spheres whose circumferences differ by more than ``tol`` times the
    circumference have no alignment.
    """
    if fp_x.n != fp_y.n:
        raise ValueError(f"sample counts differ: {fp_x.n} vs {fp_y.n}")
    n = fp_x.n
    found = _offset_scan(fp_x, fp_y, tol)
    if found is None:
        step = fp_y.circumference / n
        found = [(refl, s * step) for refl in (False, True) for s in range(n)]
    out = [Alignment(shift, reflected, defect)
           for reflected, _, shift, defect in _certified(fp_x, fp_y, found, tol)]
    out.sort(key=lambda a: (a.reflected, a.shift))
    return out


def alignment_map_sample(fp_x: ChordFingerprint, fp_y: ChordFingerprint,
                         alignment: Alignment) -> SphereMapSample:
    """The sphere map induced by an alignment, ready for defect measurements.

    Sample ``i`` of ``fp_x`` goes to arc ``shift +- i`` sample steps along
    ``fp_y``'s sphere; for an integer shift these are ``fp_y``'s samples.
    """
    arcs = alignment._steps(fp_x.n) * (fp_y.circumference / fp_x.n)
    return SphereMapSample(fp_x.norm, fp_y.norm, fp_x.points,
                           arc_length_map(fp_y.norm).point_at(arcs), tol=_MAP_SAMPLE_TOL)


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
            "elements": [asdict(e) for e in self.elements],
        }


def _lag_profiles(fp_x: ChordFingerprint, fp_y: ChordFingerprint):
    """Row mismatch of every grid offset, for rotations and for reflections.

    The grid has ``m = r * n`` offsets along ``fp_y``'s sphere, ``r`` the
    smallest integer with ``m >= max(4n, 1024)``, so an offset plus a sample
    step is again a grid offset.  The grid points ``q`` are placed once, and
    the lag table ``T[k, i] = |q[i + r k] - q[i]|`` is built for the lags
    ``k <= n / 2`` only: every gauge is even, so ``T[n - k, i] = T[k, i - r k]``
    bit for bit.  Offset ``i``'s column of the full table, read against
    row 0 of ``fp_x``'s chord matrix, is its rotation mismatch; read against
    that row reversed, ``k -> -k``, it is its reflection mismatch.  The table
    is built and reduced about ``n^2 / 2`` entries at a time, lag-major.  A
    block's mismatches are laid twice side by side; its lags ``k`` reduce
    over the first copy, and its reversed lags ``n - k`` over a read-only
    view that rotates row ``k`` by ``r k`` offsets (``_skewed``), one
    ``max`` over the rows each.

    Returns ``(grid, rotation_profile, reflection_profile)``.
    """
    norm, n = fp_y.norm, fp_y.n
    r = max(4, -(-1024 // n))
    m = r * n
    half = n // 2
    grid = np.linspace(0.0, fp_y.circumference, m, endpoint=False)
    q = arc_length_map(norm).coords_at(grid)
    # ahead[:, k, i] is q[:, i + r k], for the lags k <= n / 2
    ahead = sliding_window_view(np.concatenate([q, q[:, :r * half]], axis=1), m,
                                axis=1)[:, ::r]
    row = fp_x.chords[0]
    reversed_row = row[-np.arange(n) % n]
    rot, flipped = np.zeros(m), np.zeros(m)
    per_call = max(1, n * n // (2 * m))
    for lo in range(0, half + 1, per_call):
        ks = np.arange(lo, min(lo + per_call, half + 1))
        diff = ahead[:, ks] - q[:, None, :]
        table = norm(diff.reshape(2, -1).T).reshape(ks.size, m)
        for out, other, ref in ((rot, flipped, row), (flipped, rot, reversed_row)):
            dev = np.empty((ks.size, 2 * m))
            np.abs(np.subtract(table, ref[ks, None], out=dev[:, :m]), out=dev[:, :m])
            dev[:, m:] = dev[:, :m]
            np.maximum(out, dev[:, :m].max(axis=0), out=out)
            # lag n - k of offset i + r k is lag k of offset i, read the other
            # way; lags 0 and n / 2 are their own mirror and read the same
            np.maximum(other, _skewed(dev, r * lo, r).max(axis=0), out=other)
    return grid, rot, flipped


def _skewed(doubled: np.ndarray, shift: int, step: int) -> np.ndarray:
    """Read-only view of ``doubled``'s rows, row ``j`` rotated right by
    ``shift + j * step``: entry ``[j, i]`` is ``row_j[(i - shift - j * step) % m]``.

    ``doubled`` holds each row twice along its ``2 m`` columns, and every
    rotation lies in ``0 .. m``, so each row of the view is a window of its
    doubled row: the rows start ``step`` entries further left each time.
    """
    m = doubled.shape[1] // 2
    rows, cols = doubled.strides
    return as_strided(doubled[:, m - shift:], shape=(len(doubled), m),
                      strides=(rows - step * cols, cols), writeable=False)


def _near(a, x):
    """Where ``a`` is within the refinement's stopping width of ``x``."""
    return np.abs(a - x) < _REFINE_STOP * (1.0 + np.abs(x))


def _secant_refine(mismatch, centres: np.ndarray, half: float,
                   tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Common zeros of per-chord mismatches, bracket-wise.

    ``mismatch`` maps ``k`` offsets to the ``(k, n)`` signed mismatches
    ``e_j(t)`` of their chords; bracket ``i`` is ``centres[i] +- half``.
    Near an isometry every ``e_j`` is linear in ``t`` with a common zero, so
    each step fits the slope ``b_j`` of every chord through the bracket's
    last two points and goes to the least-squares zero of those lines,
    ``t - sum b_j e_j / sum b_j^2``.  The first call evaluates the centres
    plus ``half / 8`` and the centres; the first step goes from the centre.
    The zero lies on the side that the sign of ``sum b_j e_j`` points to,
    so a point evaluated inside its bracket becomes the end on the other
    side (a NaN sum moves the low end).

    A bracket is done once the least-squares zero lies within
    ``_REFINE_STOP * (1 + |x|)`` of a point ``x`` already evaluated, the
    last or the best, where ``max_j |e_j|`` is within ``tol``; once it is
    narrower than twice that; or once the mismatch at ``t`` exceeds
    ``tol + _ARC_SLACK`` by more than twice the distance to its far end
    (the screen's bound: no point of the bracket can match).  A step that
    short from a point whose mismatch is above ``tol`` meets a kink, not
    the common zero: on a polygon, once the point carrying sample 0 has
    crossed a vertex, some chords are flat and the lines cannot see past
    it, so that point moves no end.  The step after it, a step that leaves
    the open bracket or is not finite, and any step of a bracket that
    ``_REFINE_STALL`` calls in a row have not halved go to the bracket's
    midpoint, which always moves an end.

    There is no step cap.  Every ``_REFINE_STALL + 1`` calls after the
    first halve each open bracket at least once, so a search ends within
    ``1 + (_REFINE_STALL + 1) * ceil(log2(half / _REFINE_STOP))`` calls:
    201 for the offset scan's brackets, ``half`` at most 8 / 1024.  A
    bracket's result depends only on its own evaluations.

    Returns each bracket's best point seen and its largest ``|e_j|``
    (``inf`` where every point gave NaN).
    """
    k = centres.size
    lo, hi = centres - half, centres + half
    best_t, best = centres.copy(), np.full(k, np.inf)
    first = np.concatenate([centres + half / 8.0, centres])
    e_first = mismatch(first)
    t, e = centres, e_first[k:]
    with np.errstate(all="ignore"):
        b = (e_first[:k] - e) / (half / 8.0)
    at = np.arange(k)

    def settle(t, e, b, midpoint):
        """Keep the best point and move the ends; returns the secant point
        from ``t``, whether it is within the stopping width, and the largest
        ``|e_j(t)|``."""
        worst = np.abs(e).max(axis=1)
        better = worst < best[at]
        best_t[at[better]], best[at[better]] = t[better], worst[better]
        with np.errstate(all="ignore"):
            g = (b * e).sum(axis=1)
            secant = t - g / (b * b).sum(axis=1)
            left = g > 0.0
        short = _near(secant, t)
        move = (lo < t) & (t < hi) & (midpoint | (worst <= tol) | ~short)
        np.putmask(hi, move & left, t)
        np.putmask(lo, move & ~left, t)
        return secant, short, worst

    settle(first[:k], e_first[:k], b, False)
    secant, short, worst = settle(t, e, b, False)
    ref, stall = hi - lo, np.zeros(k)
    while True:
        fits = (lo < secant) & (secant < hi) & (stall < _REFINE_STALL) & ~short
        done = ((short & (worst <= tol)) | (_near(secant, best_t[at]) & (best[at] <= tol))
                | (hi - lo < 2.0 * _REFINE_STOP * (1.0 + np.abs(t)))
                | (worst - 2.0 * np.maximum(t - lo, hi - t) > tol + _ARC_SLACK))
        if done.any():
            live = ~done
            at, lo, hi, ref, stall = at[live], lo[live], hi[live], ref[live], stall[live]
            t, e, secant, fits = t[live], e[live], secant[live], fits[live]
        if at.size == 0:
            return best_t, best
        nxt = np.where(fits, secant, 0.5 * (lo + hi))
        e_nxt = mismatch(nxt)
        with np.errstate(all="ignore"):
            b = (e_nxt - e) / (nxt - t)[:, None]
        t, e = nxt, e_nxt
        secant, short, worst = settle(t, e, b, ~fits)
        halved = ~fits | (hi - lo <= 0.5 * ref)
        np.putmask(ref, halved, hi - lo)
        stall += 1.0
        np.putmask(stall, halved, 0.0)


def _profile_zeros(fp_x: ChordFingerprint, fp_y: ChordFingerprint,
                   grid: np.ndarray, profile: np.ndarray, reflected: bool,
                   tol: float) -> list[float]:
    """Sorted refined zeros of one profile whose row 0 matches, in
    ``[0, circumference)``, those within ``_MERGE_RADIUS`` merged."""
    norm, n = fp_y.norm, fp_y.n
    amap = arc_length_map(norm)
    circ = fp_y.circumference
    targets = np.arange(n) * (circ / n)
    if reflected:
        targets = -targets
    ref_row = fp_x.chords[0]

    def row_mismatch(offsets: np.ndarray) -> np.ndarray:
        # coordinate-major points: the norm reads contiguous columns
        xy = amap.coords_at((offsets[:, None] + targets).ravel()).reshape(2, -1, n)
        rows = norm((xy - xy[:, :, :1]).reshape(2, -1).T).reshape(-1, n)
        return rows - ref_row

    step = circ / grid.size
    local_min = (profile <= np.roll(profile, 1)) & (profile <= np.roll(profile, -1))
    centres = grid[local_min & (profile <= 2.0 * step + tol + _ARC_SLACK)]
    if centres.size == 0:
        return []
    offsets, values = _secant_refine(row_mismatch, centres, step, tol)
    wrapped = (float(offset) % circ for offset in offsets[values <= tol])
    merged: list[float] = []
    # an offset refined to just under a full turn is offset 0
    for w in sorted(0.0 if w > circ - _MERGE_RADIUS * circ else w for w in wrapped):
        if not merged or w - merged[-1] >= _MERGE_RADIUS * circ:
            merged.append(w)
    return merged


def _offset_scan(fp_x: ChordFingerprint, fp_y: ChordFingerprint,
                 tol: float) -> list[tuple[bool, float]] | None:
    """Arc offsets of ``fp_y``'s sphere at which row 0 of ``fp_x`` matches.

    An isometry preserves own-norm length, so circumferences that differ by
    more than ``tol`` times the circumference give no offset at all.  The
    mismatch of every offset on a grid finer than the samples comes from one
    lag table (``_lag_profiles``), with no norm call per offset.  Returns
    ``None`` when the rotation or the reflection profile is within ``tol`` at
    every grid offset (the symmetry is continuous), else the refined offsets
    whose row mismatch is within ``tol`` (``_profile_zeros``) as
    ``(reflected, offset)`` pairs, rotations then reflections, each sorted.
    """
    if abs(fp_x.circumference - fp_y.circumference) > tol * fp_x.circumference:
        return []
    grid, rot, refl = _lag_profiles(fp_x, fp_y)
    if np.all(rot <= tol) or np.all(refl <= tol):
        return None
    return [(reflected, w)
            for reflected, profile in ((False, rot), (True, refl))
            for w in _profile_zeros(fp_x, fp_y, grid, profile, reflected, tol)]


def _shift_defect(chords: np.ndarray, ref: np.ndarray, s: int, reflected: bool) -> float:
    """``max |chords[perm][:, perm] - ref|``, ``perm[i] = (s +- i) mod n``.

    The permuted matrix is never gathered: its rows and columns ``i < n - s``
    are ``chords[s:]`` and the rest ``chords[:s]``, so it is four contiguous
    blocks of ``chords``, each compared with the matching block of ``ref``.
    A reflection ``s - i`` is the shift ``n - 1 - s`` of ``chords[::-1, ::-1]``.
    The maximum runs over the same entries, so it is the gathered one.
    """
    n = len(ref)
    if reflected:
        chords, s = chords[::-1, ::-1], n - 1 - s
    # (block of chords, block of ref) along either axis; no second one at s = 0
    spans = [(slice(s, n), slice(0, n - s)), (slice(0, s), slice(n - s, n))][:1 + (s > 0)]
    return float(np.max([np.abs(chords[r, c] - ref[ref_r, ref_c]).max()
                         for r, ref_r in spans for c, ref_c in spans]))


def _certified(fp_x: ChordFingerprint, fp_y: ChordFingerprint, found: list[tuple[bool, float]],
               tol: float) -> list[tuple[bool, float, int | float, float]]:
    """The ``(reflected, offset)`` candidates whose chord matrix matches ``fp_x``'s.

    Offset ``f + s`` sample steps of ``fp_y`` (``s`` whole) carries sample
    ``i`` to the point ``f + (s +- i) mod n``: whole shifts read
    ``fp_y.chords``, and fractions within ``_SHIFT_SNAP`` of one another read
    one matrix, placed at the first one's.  Each candidate compares that
    matrix with ``fp_x``'s in four blocks, not gathered (``_shift_defect``).
    Returns ``(reflected, offset, shift, defect)`` in the order of ``found``,
    ``shift`` an ``int`` for a whole shift, ``defect`` the largest entrywise
    mismatch, at most ``tol``.
    """
    n = fp_y.n
    step = fp_y.circumference / n
    idx = np.arange(n)
    chords = {0.0: fp_y.chords}
    out = []
    for reflected, offset in found:
        shift = offset / step
        s = round(shift)
        if abs(shift - s) <= _SHIFT_SNAP:
            shift, frac = s % n, 0.0
        else:
            s = math.floor(shift)
            frac = next((f for f in chords if abs(f - (shift - s)) <= _SHIFT_SNAP),
                        shift - s)
            if frac not in chords:
                pts = arc_length_map(fp_y.norm).point_at((frac + idx) * step)
                chords[frac] = _chord_matrix(fp_y.norm, pts)
        defect = _shift_defect(chords[frac], fp_x.chords, s % n, reflected)
        if defect <= tol:
            out.append((reflected, offset, shift, defect))
    return out


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
    found = _offset_scan(fp, fp, tol)
    continuous = found is None
    elements = tuple(SymmetryElement(("rotation", "reflection")[refl], off, off / step, defect)
                     for refl, off, _, defect in _certified(fp, fp, found or [], tol))
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
