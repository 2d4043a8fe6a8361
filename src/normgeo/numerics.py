"""Small root-finding and fitting helpers used across the package."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# abscissae per predicate call, shared by the brackets of one search
_GRID_BUDGET = 64


def _closed(lo, hi, xtol):
    """Where bisection stops, for floats or arrays; a NaN bracket stays open."""
    mid = 0.5 * (lo + hi)
    return (hi - lo <= xtol) | (mid == lo) | (mid == hi)


def bracket_search(pred: Callable[[np.ndarray], np.ndarray], lo, hi, *,
                   xtol: float = 1e-13, max_iter: int = 200
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundaries of monotone predicates, bracket-wise.

    ``lo`` and ``hi`` are 1D arrays of bracket ends; ``pred`` maps an
    ``(n_brackets, k)`` array of abscissae, row ``i`` inside bracket ``i``,
    to booleans, False on the ``lo`` side of the boundary and True on the
    ``hi`` side.  One call checks the ends: a bracket already True at ``lo``
    closes there, and one False at ``hi`` raises ``ValueError``.  Each
    further step makes one call on a grid of ``k = 2^m - 1`` abscissae per
    bracket, with ``2^m - 1 <= max(1, 64 // n_brackets)``: the midpoints
    that ``m`` rounds of bisection could visit, each computed as
    ``0.5 * (lo + hi)`` of its cell.  Every bracket then walks down the
    grid as bisection would, stopping as soon as its cell is at most
    ``xtol`` wide or its midpoint rounds onto an end, so the result is bit
    for bit that of plain bisection, whatever the batch.  ``xtol = 0`` ends
    on adjacent floats.

    Returns ``(lo, hi, converged)``, where ``converged`` is False for the
    brackets still open after ``max_iter`` grid steps.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    ends = np.asarray(pred(np.column_stack([lo, hi])), dtype=bool)
    if not ends[:, 1].all():
        k = int(np.argmin(ends[:, 1]))
        raise ValueError(f"predicate is false on the whole interval "
                         f"[{float(lo[k])!r}, {float(hi[k])!r}]")
    hi[ends[:, 0]] = lo[ends[:, 0]]
    cells = 1 << max(1, (_GRID_BUDGET // max(lo.size, 1) + 1).bit_length() - 1)
    if cells == 2:  # one node per bracket: each step is one vectorised bisection
        for _ in range(max_iter):
            split = ~_closed(lo, hi, xtol)
            if not split.any():
                break
            mid = 0.5 * (lo + hi)
            truth = np.asarray(pred(mid[:, None]), dtype=bool)[:, 0]
            lo, hi = np.where(split & ~truth, mid, lo), np.where(split & truth, mid, hi)
        return lo, hi, _closed(lo, hi, xtol)
    lo, hi = lo.tolist(), hi.tolist()  # few brackets: grids and walks in Python floats
    for _ in range(max_iter):
        if all(_closed(a, b, xtol) for a, b in zip(lo, hi)):
            break
        grids = []
        for a, b in zip(lo, hi):
            grid = [a] * cells + [b]
            h = cells // 2
            while h:  # nodes h, 3h, 5h, ... halve the cells between nodes 2h apart
                for j in range(h, cells, 2 * h):
                    grid[j] = 0.5 * (grid[j - h] + grid[j + h])
                h //= 2
            grids.append(grid)
        truth = np.asarray(pred(np.array(grids)[:, 1:-1]), dtype=bool).tolist()
        for i, (grid, row) in enumerate(zip(grids, truth)):
            a, b = 0, cells
            while b - a > 1 and not _closed(grid[a], grid[b], xtol):
                m = (a + b) // 2  # node m is the midpoint of [a, b]
                a, b = (a, m) if row[m - 1] else (m, b)
            lo[i], hi[i] = grid[a], grid[b]
    lo, hi = np.array(lo), np.array(hi)
    return lo, hi, _closed(lo, hi, xtol)


def require_converged(converged: np.ndarray, lo, hi, search: str) -> None:
    """Raise ``RuntimeError`` naming ``search`` and its first open bracket."""
    if not np.all(converged):
        k = int(np.argmin(converged))
        raise RuntimeError(f"{search} hit its iteration cap in bracket "
                           f"[{float(lo[k])!r}, {float(hi[k])!r}]")


# The three scalar bisections below wrap `bracket_search` for a scalar
# function; the package itself calls `bracket_search` on arrays.

# a float bracket closes within ~2,100 halvings, and each step halves once at least
_TIGHT_STEPS = 2200


def _elementwise(pred: Callable[[float], bool]):
    def batched(x: np.ndarray) -> np.ndarray:
        return np.array([bool(pred(float(t))) for t in x.ravel()]).reshape(x.shape)
    return batched


def _scalar_search(pred, lo: float, hi: float, xtol: float,
                   max_iter: int) -> tuple[float, float]:
    a, b, converged = bracket_search(_elementwise(pred), [lo], [hi],
                                     xtol=xtol, max_iter=max_iter)
    require_converged(converged, a, b, "scalar bisection")
    return float(a[0]), float(b[0])


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                *, xtol: float = 1e-13, max_iter: int = 200) -> float:
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
    a, b = _scalar_search(lambda t: (f(t) <= 0.0) != rising, lo, hi, xtol, max_iter)
    return 0.5 * (a + b)


def bisect_root_tight(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection driven to adjacent floats, returning their rounded midpoint."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    rising = flo < 0.0
    a, b = _scalar_search(lambda t: (f(t) <= 0.0) != rising, lo, hi, 0.0, _TIGHT_STEPS)
    return 0.5 * (a + b)


def bisect_first_true(pred: Callable[[float], bool], lo: float, hi: float,
                      *, xtol: float = 1e-13, max_iter: int = 200) -> float:
    """Boundary of a monotone predicate (False on ``lo`` side, True at ``hi``)."""
    return _scalar_search(pred, lo, hi, xtol, max_iter)[1]


# Golden steps before the first V step.  With three, an exact V closes in six
# steps at the least (three golden ones, the apex, two nudges), so a cap of
# five steps leaves every bracket open; a single one would save ~12 % of the
# calls of the isometry offset refinements.
_GOLDEN_FIRST = 3
# A V step needs a bracket at most this many golden steps behind the width
# golden steps alone would have left; a bracket further behind takes golden
# steps, so a lopsided V is not much slower than a golden search.
_GOLDEN_LAG = 2


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
    ``1e-14 * (1 + |a| + |b|)``, so two nudges close it around an exact
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
        return 1e-14 * (1.0 + np.abs(a) + np.abs(b))

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
