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


# From 22 brackets with values, a bracket that this many calls in a row have
# not halved is halved on the next call.
_STALL_CALLS = 4


def bracket_search(pred: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple], lo, hi,
                   *, xtol: float = DEFAULT_TOLS.angle,
                   guess: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Boundaries of monotone predicates, bracket-wise.

    ``lo`` and ``hi`` are 1D arrays of bracket ends.  ``pred(t, at)`` maps
    an ``(m, k)`` array of abscissae, row ``j`` inside bracket ``at[j]``, to
    booleans, False on the ``lo`` side of the boundary and True on the
    ``hi`` side.  The first call takes the ends of every bracket: a bracket
    already True at ``lo`` closes there, and one False at ``hi`` raises
    ``ValueError``.  Every other bracket ends at most ``xtol`` wide, or on
    adjacent floats (a midpoint ``0.5 * (lo + hi)`` that rounds onto an
    end), with the predicate False at ``lo`` and True at ``hi``.  A
    bracket's result depends only on its own evaluations, so it is the same
    in any batch of the same path.

    ``pred`` may instead return a pair ``(truths, values)``: the booleans
    and the signed values they threshold, which rise through zero where
    the truths turn True (a chord minus its level, say).  The truths alone
    decide which side of the boundary an abscissa lies on; the values only
    place the abscissae.

    With fewer than 22 brackets, the result is bit for bit that of plain
    bisection of each bracket alone.  Each call evaluates a grid in every
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

    From 22 brackets on, the search runs in whole arrays, one abscissa per
    open bracket per call after the first, which takes the ends with the
    first midpoint.  Truths alone give plain bisection, bit for bit (of the
    brackets a guess leaves, when there is one).  With
    values, each step is Chandrupatla's (Adv. Eng. Software 28 (1997)
    145-149): the inverse quadratic interpolant through the two ends and
    the end last replaced, where his test finds it monotone, kept at least
    ``max(xtol / 2, 2 ulps)`` inside the bracket, so that an estimate on an
    end still closes it; else the midpoint.  A value that is not finite or
    has the wrong sign for its truth also gives the midpoint.  A bracket
    that ``_STALL_CALLS`` calls in a row have not halved is halved on the
    next call.

    ``guess``, a pair of arrays ``(a, b)`` thought to hold each bracket's
    boundary, is a cost hint: from 22 brackets it is evaluated on the first
    call in place of the first midpoint, and each of ``a`` and ``b`` that
    lies inside its bracket replaces the end on its side.  Fewer brackets
    do not use it.

    A distance-2 set or a star takes 5 to 7 calls, a bisector 3 or 4 (10
    from plain grids), and curvature's crossings 5 (24).

    There is no step cap.  A call of the plain halvings halves every
    bracket it asks about, and with values every ``_STALL_CALLS + 1`` calls
    halve a bracket at least once, so a search with values takes at most
    about ``_STALL_CALLS + 1`` times the calls of plain bisection; a float
    bracket reaches adjacent floats within about 2,100 halvings.  Ends must be finite and of magnitude
    below ``2**1023``, where no width or midpoint sum overflows; a NaN or
    infinite end, or a larger one, raises ``ValueError`` naming the first
    such bracket.

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
    if cells > 2:
        return _grid_search(pred, lo.tolist(), hi.tolist(), cells, xtol) if lo.size else (lo, hi)
    if guess is not None:  # inside the brackets; a NaN guess reads as hi
        guess = [np.fmax(lo, np.fmin(np.asarray(g, dtype=float), hi)) for g in guess]
    ts = np.stack([lo, hi, 0.5 * (lo + hi)] if guess is None else [lo, hi, *guess], axis=1)
    truth, values = _outcome(pred(ts, np.arange(lo.size)))
    if not truth[:, 1].all():
        raise _false_at_hi(lo, hi, int(np.argmin(truth[:, 1])))
    valued = values is not None
    # rows: the ends and their values, the end last replaced (c) and its
    # value, the width when the bracket last halved and the calls since
    s = np.full((8, lo.size), np.nan)
    s[0], s[1] = lo, np.where(truth[:, 0], lo, hi)
    if valued:
        s[2], s[3] = values[:, 0], values[:, 1]

    def settle(t, v, high, low):
        """Abscissae ``t`` with values ``v`` become the high ends where
        ``high`` and the low ends where ``low``; the end replaced is ``c``."""
        lo, hi, f_lo, f_hi, c, f_c = s[:6]
        if valued:
            for mask, end, f_end in ((high, hi, f_hi), (low, lo, f_lo)):
                np.putmask(c, mask, end)
                np.putmask(f_c, mask, f_end)
                np.putmask(f_end, mask, v)
        np.putmask(hi, high, t)
        np.putmask(lo, low, t)

    for k in range(2, ts.shape[1]):
        t, up = ts[:, k], truth[:, k]
        moves = ~_closed(s[0], s[1], xtol) & (s[0] < t) & (t < s[1])
        settle(t, values[:, k] if valued else None, moves & up, moves & ~up)
    out = s[:2].copy()
    s[6], s[7] = s[1] - s[0], 0.0
    at = np.flatnonzero(~_closed(s[0], s[1], xtol))
    s = s[:, at]
    while at.size:
        lo, hi, f_lo, f_hi, c, f_c, ref, stall = s
        t = 0.5 * (lo + hi)
        if valued:
            with np.errstate(all="ignore"):
                # a, the end last moved, lies between b and c
                new_lo = c < lo
                a, b = np.where(new_lo, lo, hi), np.where(new_lo, hi, lo)
                f_a, f_b = np.where(new_lo, f_lo, f_hi), np.where(new_lo, f_hi, f_lo)
                xi, phi = (a - b) / (c - b), (f_a - f_b) / (f_c - f_b)
                x = (a + (b - a) * (f_a / (f_b - f_a)) * (f_c / (f_b - f_c))
                     + (c - a) * (f_a / (f_c - f_a)) * (f_b / (f_c - f_b)))
                inner_lo = lo + np.maximum(0.5 * xtol, 2.0 * np.spacing(np.abs(lo)))
                inner_hi = hi - np.maximum(0.5 * xtol, 2.0 * np.spacing(np.abs(hi)))
                iqi = ((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
                       & (f_lo <= 0.0) & (f_hi >= 0.0) & np.isfinite(x)
                       & (inner_lo <= inner_hi) & (stall < _STALL_CALLS))
            t = np.where(iqi, np.clip(x, inner_lo, inner_hi), t)
        truth, values = _outcome(pred(t[:, None], at))
        up = truth[:, 0]
        settle(t, values[:, 0] if valued else None, up, ~up)
        if valued:
            halved = ~iqi | (hi - lo <= 0.5 * ref)
            np.putmask(ref, halved, hi - lo)
            stall += 1.0
            np.putmask(stall, halved, 0.0)
        closed = _closed(lo, hi, xtol)
        if closed.any():
            out[:, at[closed]] = s[:2, closed]
            at, s = at[~closed], s[:, ~closed]
    return out[0], out[1]


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
