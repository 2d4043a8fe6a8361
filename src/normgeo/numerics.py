"""Small root-finding and fitting helpers used across the package."""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS

TWO_PI = 2.0 * math.pi
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# abscissae per predicate call, shared by the brackets of one search
_GRID_BUDGET = 64
# A bracket side whose slope is this many times flatter than the other
# side's counts as flat (a polygon face): the estimate then extends the
# steep side alone.
_FLAT_RATIO = 8.0
# Midpoints per spine.  From [0, pi], 45 levels reach 1e-13 and 54 reach
# adjacent floats near pi / 2; a longer way takes another call.
_SPINE_LEVELS = 64
# Bracket ends stay below this in magnitude, so that no width ``hi - lo``
# and no midpoint sum ``lo + hi`` overflows.
_END_LIMIT = 2.0 ** 1023


def _closed(lo, hi, xtol):
    """Where bisection stops, for floats or arrays."""
    mid = 0.5 * (lo + hi)
    return (hi - lo <= xtol) | (mid == lo) | (mid == hi)


def bracket_search(pred: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple], lo, hi,
                   *, xtol: float = DEFAULT_TOLS.angle,
                   guess: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Boundaries of monotone predicates, bracket-wise.

    ``lo`` and ``hi`` are 1D arrays of bracket ends.  ``pred(t, at)`` maps
    an ``(m, k)`` array of abscissae, row ``j`` inside bracket ``at[j]``, to
    booleans, False on the ``lo`` side of the boundary and True on the
    ``hi`` side.  The first call takes the ends of every bracket: a bracket
    already True at ``lo`` closes there, and one False at ``hi`` raises
    ``ValueError``.  The result is bit for bit that of plain bisection of
    each bracket alone, whatever the batch (for values from 22 brackets on,
    see below): every midpoint is computed as ``0.5 * (lo + hi)`` of its
    bracket, and a bracket closes as soon as it is at most ``xtol`` wide or
    its midpoint rounds onto an end.  ``xtol = 0`` ends on adjacent floats.

    ``pred`` may instead return a pair ``(truths, values)``: the booleans
    and the signed values they threshold, which rise through zero where
    the truths turn True (a chord minus its level, say).  The values only
    choose which abscissae to evaluate, never a result.

    With fewer than 22 brackets, each call evaluates a grid in every
    bracket: the ``2^m - 1`` midpoints that ``m`` rounds of bisection could
    visit, with ``2^m - 1 <= max(1, 64 // n_brackets)``.  Every bracket
    then walks down its grid as bisection would.  With values, each call
    after the first also adds a spine to every row: the bisection midpoints
    below the grid on the way toward an estimated root, down to where
    bisection would stop (64 at most).  The estimate is the secant through
    the values at the bracket's ends, moved by one Newton step on the
    parabola through the nearer point evaluated beyond them; where one side
    is flat (a polygon face), the other side's two nearest points are
    extended instead.  The walk follows the spine for as long as the truths
    take the way toward the estimate, and one level more, so a good
    estimate closes a bracket in one call.

    From 22 brackets on, the search runs in whole arrays, in stages.  The
    first call takes the ends with the first midpoint.  Truths alone then
    give plain vectorised bisection, one midpoint per open bracket per call.
    Values add speculation before it (``_speculate``): regula falsi steps,
    ``_FALSI_STEPS`` at most, until every estimate has settled to ``xtol``;
    then up to ``_CELL_TRIES`` cells per bracket, the last bracket of its
    halvings that holds the estimate, found by arithmetic and checked at
    both ends in one call.  A cell decides only where the values rise across
    it by more than ``_ROUNDING``; the plain halvings close every other
    bracket, asking only for the midpoints that the clear points (values
    beyond ``_ROUNDING``) leave open.  This relies on the values being
    monotone up to ``_ROUNDING``, as computed chords are.

    ``guess``, a pair of arrays ``(a, b)`` thought to hold each bracket's
    boundary, is a cost hint and never changes a result.  From 22 brackets
    it is evaluated on the first call in place of the first midpoint, and
    with values it replaces the regula falsi steps; fewer brackets do not
    use it.

    A distance-2 set or a star takes 5 to 7 calls (10 from plain grids), a
    bisector root 3 (9), and curvature's crossings 5 (24).

    There is no step cap.  Every call of the plain halvings halves each
    bracket it asks about, and a float bracket reaches adjacent floats
    within about 2,100 halvings; speculation adds at most
    ``_FALSI_STEPS + _CELL_TRIES`` calls.  Ends must be finite and of
    magnitude below ``2**1023``, where no width or midpoint sum overflows; a
    NaN or infinite end, or a larger one, raises ``ValueError`` naming the
    first such bracket.

    Returns the closed brackets ``(lo, hi)``.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    finite = (np.abs(lo) < _END_LIMIT) & (np.abs(hi) < _END_LIMIT)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"bracket [{float(lo[k])!r}, {float(hi[k])!r}] needs finite "
                         f"ends of magnitude below 2**1023")
    cells = 1 << max(1, (_GRID_BUDGET // max(lo.size, 1) + 1).bit_length() - 1)
    if cells == 2:
        if guess is not None:  # inside the brackets; a NaN guess reads as hi
            guess = [np.fmax(lo, np.fmin(np.asarray(g, dtype=float), hi)) for g in guess]
        return _vector_search(pred, lo, hi, xtol, guess)
    if lo.size:
        return _grid_search(pred, lo.tolist(), hi.tolist(), cells, xtol)
    return lo, hi


def _outcome(out) -> tuple[np.ndarray, np.ndarray | None]:
    """The truths of a predicate's result, and its values when it gives them."""
    if isinstance(out, tuple):
        truth, values = out
        return np.asarray(truth, dtype=bool), np.asarray(values, dtype=float)
    return np.asarray(out, dtype=bool), None


def _false_at_hi(lo, hi, k: int) -> ValueError:
    return ValueError(f"predicate is false on the whole interval "
                      f"[{float(lo[k])!r}, {float(hi[k])!r}]")


@functools.lru_cache(maxsize=None)
def _halvings(cells: int) -> tuple[tuple[int, int, int], ...]:
    """``(node, left, right)`` for the grid midpoints, coarse levels first."""
    out = []
    h = cells // 2
    while h:  # nodes h, 3h, 5h, ... halve the cells between nodes 2h apart
        out += [(j, j - h, j + h) for j in range(h, cells, 2 * h)]
        h //= 2
    return tuple(out)


def _grid_nodes(a: float, b: float, cells: int) -> list[float]:
    """``a``, the midpoints bisection could visit in ``cells`` cells, ``b``."""
    grid = [a] * cells + [b]
    for j, left, right in _halvings(cells):
        grid[j] = 0.5 * (grid[left] + grid[right])
    return grid


def _spine(a: float, b: float, r: float, xtol: float) -> tuple[list, list]:
    """The bisection midpoints on the way from ``[a, b]`` toward ``r``, and
    whether each sends the way left, down to where bisection stops."""
    nodes, left = [], []
    for _ in range(_SPINE_LEVELS):
        m = 0.5 * (a + b)
        if b - a <= xtol or m == a or m == b:
            break
        nodes.append(m)
        if r <= m:
            b = m
            left.append(True)
        else:
            a = m
            left.append(False)
    return nodes, left


def _estimate(lo, vlo, hi, vhi, lo2, vlo2, hi2, vhi2):
    """Where the value crosses zero in ``[lo, hi]``, from the values at the
    ends and at the nearest points evaluated beyond them (``lo2`` and
    ``hi2``, None where there is none); None when the values place it
    outside."""
    s_lo = (vlo - vlo2) / (lo - lo2) if lo2 is not None and lo2 < lo else math.nan
    s_hi = (vhi2 - vhi) / (hi2 - hi) if hi2 is not None and hi2 > hi else math.nan
    slope = (vhi - vlo) / (hi - lo)
    if abs(s_hi) * _FLAT_RATIO < abs(s_lo):  # a flat hi side: extend the lo side
        r = lo - vlo / s_lo
    elif abs(s_lo) * _FLAT_RATIO < abs(s_hi):
        r = hi - vhi / s_hi
    elif slope > 0.0:
        r = lo - vlo / slope
        if lo2 is not None and (hi2 is None or lo - lo2 <= hi2 - hi):
            curve = (slope - s_lo) / (hi - lo2)
        elif hi2 is not None:
            curve = (s_hi - slope) / (hi2 - lo)
        else:
            curve = 0.0
        bend = slope + curve * (2.0 * r - lo - hi)
        if bend > 0.0:
            newton = r - curve * (r - lo) * (r - hi) / bend
            if lo <= newton <= hi:
                r = newton
    else:
        return None
    return r if lo <= r <= hi else None


def _grid_search(pred, lo: list, hi: list, cells: int, xtol: float):
    """Fewer than 22 brackets: grids, spines and walks in Python floats.

    A row holds the grid, ends included, then the spine, which starts in
    the grid cell where bisection would send the estimate.  The walk keeps
    the row indices of the ends, ``ia`` and ``ib``, and of the points
    beyond them, ``pa`` and ``pb`` (-1: the point held from an earlier
    call in ``beyond``)."""
    n = len(lo)
    base = cells + 1
    beyond = [(None, math.nan, None, math.nan)] * n  # lo2, its value, hi2, its value
    guess = [None] * n
    at = np.arange(n)
    for step in itertools.count():
        if step and all(_closed(a, b, xtol) for a, b in zip(lo, hi)):
            return np.array(lo), np.array(hi)
        rows, spines = [], []
        for a, b, r in zip(lo, hi, guess):
            row = _grid_nodes(a, b, cells)
            spine = None
            if r is not None:
                c = min(max(bisect.bisect_left(row, r), 1), cells)
                nodes, left = _spine(row[c - 1], row[c], r, xtol)
                if nodes:
                    spine = (c, left)
                    row += nodes
            rows.append(row)
            spines.append(spine)
        width = max(map(len, rows))
        for row in rows:
            row += row[:1] * (width - len(row))
        truth, values = _outcome(pred(np.fromiter(
            itertools.chain.from_iterable(rows), float, n * width).reshape(n, width), at))
        truth = truth.tolist()
        if not step:
            high = [ts[cells] for ts in truth]
            if not all(high):
                raise _false_at_hi(lo, hi, high.index(False))
        for i, (row, spine, ts) in enumerate(zip(rows, spines, truth)):
            if not step and ts[0]:
                hi[i] = lo[i]
                continue
            a, b = 0, cells
            while b - a > 1:
                x, y = row[a], row[b]
                m = 0.5 * (x + y)
                if y - x <= xtol or m == x or m == y:
                    break
                m = (a + b) >> 1  # node m is the midpoint of [a, b]
                if ts[m]:
                    b = m
                else:
                    a = m
            ia, ib = a, b
            pa, pb = (a - 1 if a else -1), (b + 1 if b < cells else -1)
            if spine and spine[0] == b and b - a == 1:
                left = spine[1]
                k = len(left)
                seg = ts[base:base + k]
                j = k - 1 if seg == left else next(h for h in range(k) if seg[h] != left[h])
                for h in range(j):  # the ends at level j, and the ends they replaced
                    if left[h]:
                        pb, ib = ib, base + h
                    else:
                        pa, ia = ia, base + h
                if seg[j]:
                    pb, ib = ib, base + j
                else:
                    pa, ia = ia, base + j
                if j + 1 < k:  # the spine's rest lies beyond the end just moved
                    rest = range(base + j + 1, base + k)
                    if seg[j]:
                        pb = min(rest, key=row.__getitem__)
                    else:
                        pa = max(rest, key=row.__getitem__)
            lo[i], hi[i] = x, y = row[ia], row[ib]
            guess[i] = None
            if values is not None and not _closed(x, y, xtol):
                v = values[i].item
                far = beyond[i]
                beyond[i] = far = ((row[pa], v(pa)) if pa >= 0 else far[:2]) + (
                    (row[pb], v(pb)) if pb >= 0 else far[2:])
                guess[i] = _estimate(x, v(ia), y, v(ib), *far)


# Anderson-Bjorck regula falsi steps at most, for many brackets with values
# and no guess, after the first call's midpoint.  The steps stop early once
# every estimate has settled to xtol: the modulus chords of the round, l_3,
# l_1.5 and lens spheres settle within 6 to 8 steps at eps <= 1.1, while on
# polygons and near eps = 2 some never do and the cells take them.
_FALSI_STEPS = 11
# Cells tried before the plain halvings: after twelve regula falsi steps,
# three left at most 0.8% of the first-grid modulus chords open on the smooth
# spheres and 8.6% on polygons (sweep eps, seeds 3, 7, 11).  Up to 9% more,
# on l_3, hit a cell across which the chord is flat at its level to
# rounding; they run the plain halvings too.
_CELL_TRIES = 3
# Rounding leaves a computed chord within ~2e-15 of a monotone function of
# its angle (second differences at three adjacent midpoints, measured on the
# builtin norms and seeded images).  A value decides the midpoints beyond its
# abscissa only if it clears zero by more than this bound, and a cell only if
# the values rise across it by more: else rounding could reorder them.
_ROUNDING = 2.0 ** -46
# Rows of the speculation state, one column per bracket: the regula falsi
# ends ``a`` (False) and ``b`` (True) with their values, weighted down by the
# Anderson-Bjorck rule; which end moved last (-1 ``a``, 1 ``b``); the clear
# points ``c0`` and ``c1``, the abscissae whose values fall short of or pass
# zero by more than ``_ROUNDING``, so that every midpoint at or below the
# first is False and at or above the second True, whatever the rounding.
_A, _FA, _B, _FB, _LAST, _C0, _C1 = range(7)


def _vector_search(pred, lo: np.ndarray, hi: np.ndarray, xtol: float, guess):
    """22 brackets or more, in whole arrays: the first call, speculation
    when the predicate gives values, then the plain halvings."""
    rows = np.arange(lo.size)
    mid = 0.5 * (lo + hi)
    ts = np.stack([lo, hi, mid] if guess is None else [lo, hi, *guess], axis=1)
    truth, values = _outcome(pred(ts, rows))
    if not truth[:, 1].all():
        raise _false_at_hi(lo, hi, int(np.argmin(truth[:, 1])))
    one = values is not None and lo.min() == lo.max() and hi.min() == hi.max()
    table = _table(float(lo[0]), float(hi[0]), xtol) if one else None
    hi = np.where(truth[:, 0], lo, hi)
    if guess is None:  # the first halving
        split = ~_closed(lo, hi, xtol)
        lo, hi = np.where(split & ~truth[:, 2], mid, lo), np.where(split & truth[:, 2], mid, hi)
    live = np.flatnonzero(~_closed(lo, hi, xtol))
    c0, c1 = np.full(live.size, -np.inf), np.full(live.size, np.inf)
    if values is not None and live.size:
        lo[live], hi[live], c0, c1 = _speculate(
            pred, live, lo[live], hi[live], ts[live], truth[live], values[live], xtol,
            guess is None, table)
        still = ~_closed(lo[live], hi[live], xtol)
        live, c0, c1 = live[still], c0[still], c1[still]
    if live.size:
        lo[live], hi[live] = _walk(lo[live], hi[live], xtol, truths=_asked(pred, live, c0, c1))
    return lo, hi


def _speculate(pred, at, lo, hi, ts, truth, values, xtol, falsi: bool, table):
    """Brackets ``at`` with values, from the first call's points ``ts``.

    Without a guess (``falsi``), regula falsi steps evaluate each bracket's
    estimate.  Then each bracket gets up to ``_CELL_TRIES`` cells
    (``_cell``), checked at both ends in one call.  A cell False at its low
    end and True at its high one, with values rising across it by more than
    ``_ROUNDING``, decides every midpoint above it as bisection would: an
    ancestor's midpoint lies at least a cell's width beyond it.  So the
    bracket closes on the cell.  A missed cell tightens the regula falsi
    bracket for the next.  Returns the brackets and the clear points.
    """
    out = [lo.copy(), hi.copy(), np.empty_like(lo), np.empty_like(lo)]
    s = np.empty((7, at.size))
    s[_A], s[_FA], s[_B], s[_FB] = ts[:, 0], values[:, 0], ts[:, 1], values[:, 1]
    s[_LAST] = 0.0
    s[_C0] = np.where(values[:, 0] < -_ROUNDING, ts[:, 0], -np.inf)  # False at lo
    s[_C1] = np.where(values[:, 1] > _ROUNDING, ts[:, 1], np.inf)  # True at hi
    for k in range(2, ts.shape[1]):
        _tighten(s, ts[:, k], truth[:, k], values[:, k])
    _clear(s, ts[:, 2:].T, values[:, 2:].T)
    last = np.nan
    for _ in range(_FALSI_STEPS if falsi else 0):
        t = _secant(s)
        # stop once every estimate repeats an end or has settled to xtol
        if ((t == s[_A]) | (t == s[_B]) | ((last - xtol <= t) & (t <= last + xtol))).all():
            break
        tk, vk = _outcome(pred(t[:, None], at))
        _tighten(s, t, tk[:, 0], vk[:, 0])
        _clear(s, t, vk[:, 0])
        last = t
    left = np.arange(at.size)  # positions in ``out`` of the columns of ``s``
    for _ in range(_CELL_TRIES):
        n = left.size
        # the boundary lies in (a, b]: so does the estimate
        p = np.minimum(np.maximum(_secant(s), np.nextafter(s[_A], np.inf)), s[_B])
        ends = () if table else (lo[left], hi[left])
        cell = np.concatenate(_cell(p, xtol, table, *ends))
        # an end at or past a clear point needs no call
        known = np.concatenate([cell[:n] <= s[_C0], cell[n:] >= s[_C1]])
        tc = np.arange(2 * n) >= n
        vc = np.where(tc, np.inf, -np.inf)
        ask = np.flatnonzero(~known)
        if ask.size:
            tk, vk = _outcome(pred(cell[ask, None], at[left[ask % n]]))
            tc[ask], vc[ask] = tk[:, 0], vk[:, 0]
        cell, tc, vc = cell.reshape(2, n), tc.reshape(2, n), vc.reshape(2, n)
        _clear(s, cell, vc)
        hit = ~tc[0] & tc[1]
        decided = hit & (vc[1] > vc[0] + _ROUNDING)
        out[0][left[decided]], out[1][left[decided]] = cell[:, decided]
        # a flat cell leaves for the plain halvings
        out[2][left], out[3][left] = s[_C0], s[_C1]
        miss = np.flatnonzero(~hit)
        left, s = left[miss], s.take(miss, 1)
        if not left.size:
            break
        # a True low end or else a False high end tightens the bracket
        probe = np.where(tc[0, miss], 0, 1), miss
        _tighten(s, cell[probe], tc[probe], vc[probe])
    out[2][left], out[3][left] = s[_C0], s[_C1]
    return out


def _secant(s: np.ndarray) -> np.ndarray:
    """The weighted regula falsi estimate of each bracket ``[a, b]``."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return s[_A] - s[_FA] * (s[_B] - s[_A]) / (s[_FB] - s[_FA])


def _tighten(s: np.ndarray, t, truth, v) -> None:
    """Tighten the brackets in place by abscissae ``t`` with their truths
    and values: a False ``t`` above ``a`` becomes ``a``, a True one below
    ``b`` becomes ``b``.  An end kept while the other moves a second time in
    a row has its value weighted down (Anderson-Bjorck)."""
    a, fa, b, fb, last = s[:_C0]
    up, down = ~truth & (t > a), truth & (t < b)
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = 1.0 - v / np.where(up, fa, fb)
    shrink = np.where(shrink > 0.0, shrink, 0.5)
    np.multiply(fb, shrink, out=fb, where=up & (last < 0.0))
    np.multiply(fa, shrink, out=fa, where=down & (last > 0.0))
    np.copyto(a, t, where=up)
    np.copyto(fa, v, where=up)
    np.copyto(b, t, where=down)
    np.copyto(fb, v, where=down)
    last[...] = down
    last -= up


def _clear(s: np.ndarray, t, v) -> None:
    """Tighten the clear points in place by abscissae ``t``, one or more per
    column, with their values."""
    c0, c1 = s[_C0], s[_C1]
    for t, v in zip(t.reshape(-1, c0.size), v.reshape(-1, c0.size)):
        np.copyto(c0, t, where=(v < -_ROUNDING) & (t > c0))
        np.copyto(c1, t, where=(v > _ROUNDING) & (t < c1))


# Halvings looked up in a table of bracket ends, ``2**_TABLED + 1`` of them
# (512 kB), when all brackets of a search start from one.
_TABLED = 16


@functools.lru_cache(maxsize=8)
def _table(lo: float, hi: float, xtol: float) -> tuple[np.ndarray, tuple[int, bool]]:
    """The ends of the brackets that the first halvings of ``[lo, hi]``
    leave, in order (``_TABLED`` halvings, or fewer where one could close
    a bracket), and the ``_levels`` of those brackets."""
    nodes = np.array([lo, hi])
    for _ in range(min(_TABLED, _levels(nodes[:1], nodes[1:], xtol)[0])):
        finer = np.empty(2 * nodes.size - 1)
        finer[::2], finer[1::2] = nodes, 0.5 * (nodes[:-1] + nodes[1:])
        nodes = finer
    nodes.flags.writeable = False
    return nodes, _levels(nodes[:-1], nodes[1:], xtol)


def _cell(p: np.ndarray, xtol: float, table, lo=None, hi=None):
    """The last bracket ``lo < p <= hi`` of the halvings of each
    ``[lo, hi]``, by arithmetic alone; from the ``_table`` of their one
    bracket in place of ``lo`` and ``hi`` when there is one."""
    if table is None:
        return _walk(lo, hi, xtol, p=p)
    j = np.clip(np.searchsorted(table[0], p), 1, table[0].size - 1)
    return _walk(table[0][j - 1], table[0][j], xtol, p=p, sure=table[1])


def _asked(pred, at, c0, c1):
    """The truths of midpoints of brackets ``at``: from the clear points
    where they decide, else from ``pred`` for the brackets still open."""
    def truths(mid, split):
        truth = mid >= c1
        ask = np.flatnonzero(~truth & (mid > c0) & (True if split is None else split))
        if ask.size == mid.size:
            return _outcome(pred(mid[:, None], at))[0][:, 0]
        if ask.size:
            truth[ask] = _outcome(pred(mid[ask, None], at[ask]))[0][:, 0]
        return truth
    return truths


def _walk(lo: np.ndarray, hi: np.ndarray, xtol: float, *, p=None, truths=None,
          sure: tuple[int, bool] | None = None):
    """Each bracket halved down to where bisection stops, toward its low
    half where the midpoint is at or past ``p``, or else where
    ``truths(mid, split)`` is True.  The halvings that ``_levels`` (or
    ``sure``) counts leave every bracket open, and run in place on an array
    of both ends; ``split`` is None there, and after them the brackets
    still open."""
    ends = np.column_stack([lo, hi])
    flat, first = ends.reshape(-1), np.arange(0, ends.size, 2)
    lo, hi = ends.T
    levels, closing = _levels(lo, hi, xtol) if sure is None else sure
    for _ in range(levels):
        mid = 0.5 * (lo + hi)
        # a True midpoint is the new hi
        flat[first + (mid >= p if truths is None else truths(mid, None))] = mid
    while not closing:
        split = ~_closed(lo, hi, xtol)
        if not split.any():
            break
        mid = 0.5 * (lo + hi)
        truth = mid >= p if truths is None else truths(mid, split)
        lo, hi = np.where(split & ~truth, mid, lo), np.where(split & truth, mid, hi)
    return lo, hi


def _levels(lo: np.ndarray, hi: np.ndarray, xtol: float) -> tuple[int, bool]:
    """How many halvings of brackets ``[lo, hi]`` certainly leave every one
    open, and whether every one closes just after them.

    Computed midpoints stray from exact halving by at most ``2**-50`` of the
    largest end, in all.  So where ``xtol`` is at least ``2**-47`` of it
    (32 spacings of floats), no midpoint rounds onto an end while a bracket
    is wider than ``xtol``, and when the widths leave no doubt the count is
    the level on which every bracket closes.  Else it is the levels on
    which every width stays above four times xtol and four spacings of
    floats at the ends.
    """
    ends = max(-float(lo.min()), float(hi.max()), 0.0)  # every |end| is at most this
    narrow, wide, err = float((hi - lo).min()), float((hi - lo).max()), 2.0 ** -50 * ends
    if xtol >= 2.0 ** -47 * ends and narrow > xtol + err:
        k = math.ceil(math.log2(wide / xtol))
        if narrow / 2.0 ** (k - 1) > xtol + err and wide / 2.0 ** k <= xtol - err:
            return k, True
    floor = max(xtol, 2.0 ** -47 * ends, 2.0 ** -1070)
    return max(0, int(math.log2(max(narrow, floor) / floor)) - 2), False


# The three scalar bisections below wrap `bracket_search` for a scalar
# function; the package itself calls `bracket_search` on arrays.


def _elementwise(pred: Callable[[float], bool]):
    def batched(x: np.ndarray, at: np.ndarray) -> np.ndarray:
        return np.array([bool(pred(float(t))) for t in x.ravel()]).reshape(x.shape)
    return batched


def _scalar_search(pred, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    a, b = bracket_search(_elementwise(pred), [lo], [hi], xtol=xtol)
    return float(a[0]), float(b[0])


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                *, xtol: float = DEFAULT_TOLS.angle) -> float:
    """Root of ``f`` on ``[lo, hi]``; the endpoint signs must differ.

    Works for nonincreasing and nondecreasing ``f`` alike.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    rising = flo < 0.0
    a, b = _scalar_search(lambda t: (f(t) <= 0.0) != rising, lo, hi, xtol)
    return 0.5 * (a + b)


def bisect_root_tight(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection driven to adjacent floats, returning their rounded midpoint."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    rising = flo < 0.0
    a, b = _scalar_search(lambda t: (f(t) <= 0.0) != rising, lo, hi, 0.0)
    return 0.5 * (a + b)


def bisect_first_true(pred: Callable[[float], bool], lo: float, hi: float,
                      *, xtol: float = DEFAULT_TOLS.angle) -> float:
    """Boundary of a monotone predicate (False on ``lo`` side, True at ``hi``)."""
    return _scalar_search(pred, lo, hi, xtol)[1]


# Golden steps before the first V step.  With three, an exact V closes in six
# steps at the least (three golden ones, the apex, two nudges), so a cap of
# five steps leaves every bracket open; a single one would save ~12 % of the
# calls of the isometry offset refinements.
_GOLDEN_FIRST = 3
# A V step needs a bracket at most this many golden steps behind the width
# golden steps alone would have left; a bracket further behind takes golden
# steps, so a lopsided V is not much slower than a golden search.
_GOLDEN_LAG = 2
# Width at which a golden bracket stops, relative to ``1 + |a| + |b|``:
# tens of ulps of the ends, so a nudge of a third of it still moves an
# abscissa.
_GOLDEN_STOP = 1e-14


def golden_max(f: Callable[[np.ndarray], np.ndarray], a, b,
               *, max_iter: int = 90) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximisation of locally unimodal functions, bracket-wise.

    ``a`` and ``b`` are 1D arrays of bracket ends.  ``f`` maps an array of
    abscissae to the array of values; it is called on the two golden points
    of every bracket, then once per step on the live brackets only.

    Steps follow Brent's scheme with a V in place of the parabola, for
    maxima where ``f`` has a kink, as ``-|x|`` has.  Each bracket keeps its
    best point ``x``; its ends are the nearest points evaluated on either
    side.  After three golden steps, a step goes to the apex of the
    symmetric V through the ends and ``x`` when the apex lies inside the
    bracket and the bracket is at most two golden steps behind the width
    golden steps alone would have left.  An apex within a third of the
    stopping width of ``x`` or of an end is replaced by a nudge of that
    length from ``x`` toward the wider side; any other step is a golden
    section of the wider side.  A bracket stops when its width falls below
    ``_GOLDEN_STOP * (1 + |a| + |b|)``, so two nudges close it around an exact
    apex.  All arithmetic is per bracket: every bracket gives bit for bit
    the result it gives alone.  Returns ``(x, f(x), converged)``, where
    ``converged`` is False for the brackets still open after ``max_iter``
    steps; a NaN bracket stays open.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = np.asarray(f(x1), dtype=float)
    f2 = np.asarray(f(x2), dtype=float)
    width = b - a
    right = f1 < f2  # the golden section's first cut; an end not evaluated reads NaN
    a, fa = np.where(right, x1, a), np.where(right, f1, np.nan)
    b, fb = np.where(right, b, x2), np.where(right, np.nan, f2)
    x, fx = np.where(right, x2, x1), np.where(right, f2, f1)

    def stop_width():
        return _GOLDEN_STOP * (1.0 + np.abs(a) + np.abs(b))

    def open_brackets():  # a NaN bracket stays open
        return ~(np.abs(b - a) < stop_width())

    for it in range(max_iter):
        live = np.flatnonzero(open_brackets())
        if live.size == 0:
            break
        al, bl, xl, fal, fbl, fxl = a[live], b[live], x[live], fa[live], fb[live], fx[live]
        nudge = stop_width()[live] / 3.0
        toward = np.where(xl < 0.5 * (al + bl), 1.0, -1.0)  # the wider side
        with np.errstate(divide="ignore", invalid="ignore"):
            # the steeper secant lies on one arm; the other arm mirrors it
            slope = np.maximum((fxl - fal) / (xl - al), (fxl - fbl) / (bl - xl))
            apex = 0.5 * (al + bl) + (fbl - fal) / (2.0 * slope)
            on_time = bl - al <= width[live] * _INVPHI ** (it + 1 - _GOLDEN_LAG)
            v_step = (it >= _GOLDEN_FIRST) & on_time & (al < apex) & (apex < bl)
        golden = xl + (1.0 - _INVPHI) * (np.where(toward > 0.0, bl, al) - xl)
        u = np.where(v_step, apex, golden)
        close = (np.abs(u - xl) < nudge) | (v_step & ((u - al < nudge) | (bl - u < nudge)))
        u = np.where(close, xl + toward * nudge, u)
        fu = np.asarray(f(u), dtype=float)
        # the worse of x and u becomes the end on its side
        better = fu >= fxl
        low = np.where(better, u >= xl, u < xl)
        end, fend = np.where(better, xl, u), np.where(better, fxl, fu)
        a[live], fa[live] = np.where(low, end, al), np.where(low, fend, fal)
        b[live], fb[live] = np.where(low, bl, end), np.where(low, fbl, fend)
        x[live], fx[live] = np.where(better, u, xl), np.where(better, fu, fxl)
    return x, fx, ~open_brackets()


def fit_quadratic(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares fit ``y = c0 + c1*x + c2*x**2``.

    Returns ``(c0, c1, c2, rms_residual)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(x), x, x * x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return float(coef[0]), float(coef[1]), float(coef[2]), resid


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of log(y) against log(x); inputs must be positive."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
