import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgeo import (bisector_points, diametral_set, isometry, isometry_group, is_flat,
                     numerics, radial_point, sphere, star)
from normgeo.numerics import (bisect_first_true, bisect_root, bisect_root_tight,
                              bracket_search, golden_max)

from conftest import plain_bisection


def v_shape(x):
    # V-shaped maxima at every multiple of pi
    return -np.abs(np.sin(x))


BRACKETS = [(-0.3, 0.5), (np.pi - 1e-3, np.pi + 2e-3), (2 * np.pi - 1.0, 2 * np.pi + 0.2),
            (-3 * np.pi - 1e-6, -3 * np.pi + 1e-6), (10 * np.pi - 0.7, 10 * np.pi + 0.9)]


def test_golden_max_batch_matches_single_brackets_bit_for_bit():
    lo, hi = map(np.array, zip(*BRACKETS))
    x, fx, converged = golden_max(v_shape, lo, hi)
    assert converged.all()
    for k, (a, b) in enumerate(BRACKETS):
        x1, f1, ok1 = golden_max(v_shape, [a], [b])
        assert ok1[0]
        assert x1[0] == x[k] and f1[0] == fx[k]
    assert np.abs(x - np.pi * np.round(x / np.pi)).max() < 1e-12


def test_golden_max_counts_one_call_per_step():
    calls = []

    def f(x):
        calls.append(x.size)
        return v_shape(x)

    lo, hi = map(np.array, zip(*BRACKETS))
    golden_max(f, lo, hi)
    assert calls[:2] == [len(BRACKETS)] * 2
    assert calls[2] == len(BRACKETS) and calls[-1] < len(BRACKETS)
    assert len(calls) - 2 <= 90


def test_golden_max_reports_the_iteration_cap():
    _, _, converged = golden_max(v_shape, [-0.3], [0.5], max_iter=5)
    assert not converged[0]
    lo, hi = map(np.array, zip(*BRACKETS))
    _, _, converged = golden_max(v_shape, lo, hi, max_iter=5)
    assert not converged.any()


def counted_golden_max(f, a, b):
    """``golden_max`` on one bracket, with the number of calls to ``f``."""
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    x, fx, converged = golden_max(counted, [a], [b])
    return float(x[0]), float(fx[0]), bool(converged[0]), len(calls)


def test_golden_max_steps_to_the_apex_of_a_v():
    for a, b in BRACKETS:
        x, _, converged, calls = counted_golden_max(v_shape, a, b)
        assert converged and calls <= 15
        assert abs(x - np.pi * round(x / np.pi)) < 1e-12


@pytest.mark.parametrize("left, right", [(1.0, 3.0), (10.0, 1.0), (1.0, 100.0)])
def test_golden_max_closes_lopsided_vs(left, right):
    # slopes that differ on the two sides, as at a polygon vertex: the
    # symmetric V misplaces the apex, and golden steps take over
    for top in (0.1, -0.2, 0.37):
        def f(x):
            d = x - top
            return np.where(d < 0.0, left * d, -right * d)

        x, _, converged, calls = counted_golden_max(f, -0.3, 0.5)
        assert converged and calls <= 80
        assert abs(x - top) < 1e-12


def test_golden_max_closes_a_smooth_maximum():
    x, fx, converged, calls = counted_golden_max(np.cos, -0.3, 0.5)
    assert converged and calls - 2 <= 90
    assert abs(x) < 1e-7 and fx == 1.0


def test_golden_max_leaves_a_nan_bracket_open():
    x, fx, converged = golden_max(v_shape, [np.nan, -0.3], [1.0, 0.5])
    assert not converged[0] and converged[1]
    alone = golden_max(v_shape, [-0.3], [0.5])
    assert x[1] == alone[0][0] and fx[1] == alone[1][0]


def test_capped_refinements_raise(monkeypatch, hexn):
    capped = functools.partial(golden_max, max_iter=5)
    monkeypatch.setattr(isometry, "golden_max", capped)
    with pytest.raises(RuntimeError, match="hexagonal sphere"):
        isometry_group(hexn, 64)


# -- bracket search ----------------------------------------------------------

ROOTS = np.array([0.1, 1.0 / 3.0, 2.0, -7.25, 1e-9, 123.456])
SEARCH_LO = ROOTS - np.array([0.3, 1.0, 1e-6, 5.0, 1e-9, 400.0])
SEARCH_HI = ROOTS + np.array([0.7, 2.0, 3e-6, 0.5, 1.0, 1.0])


XTOLS = [1e-13, 1e-6, 0.0]


def arctan_search(roots, valued):
    """The predicate ``arctan(x - root) >= 0`` of each row's root, with its
    values when ``valued``, and the list of the shapes it is called on."""
    calls = []

    def pred(x, at):
        calls.append(x.shape)
        v = np.arctan(x - np.asarray(roots)[at, None])
        return (v >= 0.0, v) if valued else v >= 0.0
    return pred, calls


# 6 brackets walk grids of 7 nodes; 40 take one vectorised midpoint per step;
# with values, brackets searched alone or 6 together also walk spines
@pytest.mark.parametrize("rows, xtol", [(6, x) for x in XTOLS] + [(40, x) for x in XTOLS],
                         ids=[str(x) for x in XTOLS] + [f"40rows-{x}" for x in XTOLS])
def test_bracket_search_batch_is_plain_bisection_bit_for_bit(rows, xtol):
    roots, starts, stops = (np.resize(v, rows) for v in (ROOTS, SEARCH_LO, SEARCH_HI))
    for valued in (False, True):
        lo, hi = bracket_search(arctan_search(roots, valued)[0], starts, stops, xtol=xtol)
        for k, (a, b) in enumerate(zip(starts, stops)):
            alone = bracket_search(arctan_search(roots[k:k + 1], valued)[0], [a], [b],
                                   xtol=xtol)
            assert (alone[0][0], alone[1][0]) == (lo[k], hi[k])
            ref = plain_bisection(lambda t, k=k: math.atan(t - roots[k]) >= 0.0, a, b, xtol)
            assert ref == (lo[k], hi[k])
        assert np.all(hi - lo <= xtol) or xtol == 0.0


def test_bracket_search_counts_one_call_per_step():
    pred, shapes = arctan_search([1.0], False)
    lo, hi = bracket_search(pred, [1.0 - math.pi / 2], [1.0 + math.pi / 2])
    assert hi[0] - lo[0] <= 1e-13 and lo[0] < 1.0 <= hi[0]
    # every call holds the ends and 63 midpoints, six levels of bisection
    assert set(shapes) == {(1, 65)}
    assert len(shapes) == math.ceil(math.log2(math.pi / 1e-13) / 6) == 8
    pred, shapes = arctan_search(np.ones(6), False)
    bracket_search(pred, np.zeros(6), np.full(6, 3.0))
    assert set(shapes) == {(6, 9)}
    pred, shapes = arctan_search(np.ones(40), False)
    bracket_search(pred, np.zeros(40), np.full(40, 3.0))
    assert shapes[0] == (40, 3) and set(shapes[1:]) == {(40, 1)}


def test_bracket_search_speculates_on_values():
    """Values add a spine to each row after the first call; a smooth root
    closes in two calls (one of slack allowed) where the grid alone takes
    eight, bit for bit."""
    pred, shapes = arctan_search([1.0], True)
    lo, hi = bracket_search(pred, [1.0 - math.pi / 2], [1.0 + math.pi / 2])
    assert len(shapes) <= 3
    assert shapes[0] == (1, 65) and all(k > 65 for _, k in shapes[1:])
    assert (lo[0], hi[0]) == bracket_search(arctan_search([1.0], False)[0],
                                            [1.0 - math.pi / 2], [1.0 + math.pi / 2])
    pred, shapes = arctan_search(np.ones(6), True)
    bracket_search(pred, np.zeros(6), np.full(6, 3.0))
    assert len(shapes) <= 4  # 15 calls of 3 levels without values
    # many brackets: the first midpoint, regula falsi steps and one cell
    # each, where plain bisection takes 45 calls
    pred, shapes = arctan_search(np.ones(40), True)
    lo, hi = bracket_search(pred, np.zeros(40), np.full(40, 3.0))
    plain = bracket_search(arctan_search(np.ones(40), False)[0], np.zeros(40), np.full(40, 3.0))
    assert np.array_equal(lo, plain[0]) and np.array_equal(hi, plain[1])
    assert shapes[0] == (40, 3) and len(shapes) <= 1 + numerics._FALSI_STEPS + 1


# A level a hair above 1/3, the boundary of every synthetic shape below.
SHAPE_ROOT = 0.3333333333333337


def shaped_values(shape, x):
    """Values that rise through zero at ``SHAPE_ROOT``: smooth, flat at the
    level on the high side (a polygon's chord along a face), or smooth with
    +-2 ulps of noise drawn from the bits of ``x``."""
    d = x - SHAPE_ROOT
    if shape == "flat":
        return np.where(d < 0.0, np.sin(d), 0.0)
    if shape == "noisy":
        ulps = (x.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(61)
        return np.sin(d) + (ulps.astype(float) - 3.5) * np.spacing(x) * 4.0 / 7.0
    return np.sin(d)


GUESSES = {"no guess": None,
           "right guess": (SHAPE_ROOT - 1e-9, SHAPE_ROOT + 1e-9),
           "wrong guess": (2.0, 2.5)}


@pytest.mark.parametrize("guess", GUESSES)
@pytest.mark.parametrize("shape", ["smooth", "flat", "noisy"])
def test_many_brackets_with_values_are_plain_bisection(shape, guess):
    """From 22 brackets, values add regula falsi steps and cells; each
    bracket still ends bit for bit where the truths alone send it, and the
    calls stay within the truth-only count plus the speculation's own."""
    rows = 30
    lo = np.linspace(-1.0, 0.3, rows)
    hi = np.linspace(0.4, 3.0, rows)
    calls = []

    def pred(x, at, valued):
        calls.append(x.shape)
        v = shaped_values(shape, x)
        return (v >= 0.0, v) if valued else v >= 0.0

    pair = None if GUESSES[guess] is None else tuple(np.full(rows, g) for g in GUESSES[guess])
    plain = bracket_search(lambda x, at: pred(x, at, False), lo, hi)
    plain_calls = len(calls)
    calls.clear()
    got = bracket_search(lambda x, at: pred(x, at, True), lo, hi, guess=pair)
    assert np.array_equal(got[0], plain[0]) and np.array_equal(got[1], plain[1])
    for k in range(rows):  # and each is plain bisection alone
        assert (plain[0][k], plain[1][k]) == plain_bisection(
            lambda t: shaped_values(shape, np.array([t]))[0] >= 0.0, lo[k], hi[k])
    assert len(calls) <= plain_calls + numerics._FALSI_STEPS + numerics._CELL_TRIES + 1
    if shape == "smooth" and guess != "wrong guess":  # a cell closes every bracket
        assert len(calls) <= (2 if guess == "right guess" else 2 + numerics._FALSI_STEPS)


def test_bracket_search_to_zero_width_ends_on_adjacent_floats():
    lo, hi = bracket_search(lambda x, at: x * x >= 2.0, [1.0, 0.0], [2.0, 1e6], xtol=0.0)
    assert np.array_equal(np.nextafter(lo, np.inf), hi)
    assert np.all(lo * lo < 2.0) and np.all(hi * hi >= 2.0)


def test_bracket_search_closes_a_bracket_true_at_its_start():
    lo, hi = bracket_search(lambda x, at: x >= 0.0, [0.0, -1.0], [1.0, 1.0])
    assert (lo[0], hi[0]) == (0.0, 0.0)
    assert lo[1] < 0.0 <= hi[1]
    starts = np.full(40, -1.0)
    starts[3] = 0.0
    lo, hi = bracket_search(lambda x, at: x >= 0.0, starts, np.ones(40))
    assert (lo[3], hi[3]) == (0.0, 0.0)
    assert np.all(lo <= 0.0) and np.all(hi >= 0.0)
    starts[5] = np.nan
    with pytest.raises(ValueError, match=re.escape("bracket [nan, 1.0]")):
        bracket_search(lambda x, at: x >= 0.0, starts, np.ones(40))


FLOAT_MAX = float(np.finfo(float).max)
HALF_MAX = FLOAT_MAX / 2
TINY_ROOT = 5e-324  # the least positive float


@pytest.mark.parametrize("rows", [1, 6, 40])
def test_bracket_search_ends_across_half_the_float_range(rows):
    """The widest bracket allowed closes on adjacent floats around the
    least positive float in at most ~2,100 calls, with values or without."""
    for valued in (False, True):
        calls = 0

        def pred(x, at):
            nonlocal calls
            calls += 1
            return (x >= TINY_ROOT, x - TINY_ROOT) if valued else x >= TINY_ROOT

        lo, hi = bracket_search(pred, np.full(rows, -HALF_MAX), np.full(rows, HALF_MAX),
                                xtol=0.0)
        assert np.all(lo == 0.0) and np.all(hi == TINY_ROOT)
        assert calls <= 2100, (valued, calls)
    assert plain_bisection(lambda t: t >= TINY_ROOT, -HALF_MAX, HALF_MAX, 0.0) == (
        0.0, TINY_ROOT)


NOT_FINITE = [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf),
              (-FLOAT_MAX, FLOAT_MAX),  # the width overflows
              (1.0, FLOAT_MAX)]  # a midpoint sum overflows


@pytest.mark.parametrize("rows", [1, 40])
def test_bracket_search_refuses_brackets_that_are_not_finite(rows):
    for a, b in NOT_FINITE:
        lo, hi = np.zeros(rows), np.ones(rows)
        lo[-1], hi[-1] = a, b
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"bracket [{a!r}, {b!r}]")):
                bracket_search(lambda x, at: x >= 0.5, lo, hi)
    with pytest.raises(ValueError, match=re.escape("bracket [nan, 1.0]")):
        bisect_first_true(lambda t: t >= 0.5, math.nan, 1.0)


@settings(max_examples=80, deadline=None)
@given(rows=st.sampled_from([1, 3, 6, 40]),
       ends=st.lists(st.floats(-HALF_MAX, HALF_MAX), min_size=2, max_size=2),
       xtol=st.sampled_from([0.0, 1e-13, 1e-6, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1), magnitude=st.sampled_from([1e-300, 1.0, 1e300]),
       valued=st.booleans())
def test_bracket_search_always_ends(rows, ends, xtol, seed, magnitude, valued):
    """Truths and values drawn at random from the abscissae's bits, True at
    ``hi`` so the search starts: every bracket still closes."""
    a, b = sorted(ends)
    lo, hi = np.linspace(a, b, rows + 1)[:-1], np.full(rows, b)

    def pred(x, at):
        bits = (x.view(np.uint64) ^ np.uint64(seed)) * np.uint64(0x9E3779B97F4A7C15)
        truth = ((bits >> np.uint64(40)) & np.uint64(1)).astype(bool) | (x == hi[at, None])
        values = ((bits >> np.uint64(11)).astype(float) / 2.0 ** 53 - 0.5) * magnitude
        return (truth, values) if valued else truth

    out_lo, out_hi = bracket_search(pred, lo, hi, xtol=xtol)
    mid = 0.5 * (out_lo + out_hi)
    assert np.all((out_hi - out_lo <= xtol) | (mid == out_lo) | (mid == out_hi))
    assert np.all((lo <= out_lo) & (out_lo <= out_hi) & (out_hi <= hi))


def test_searches_raise_on_a_bracket_without_a_boundary():
    with pytest.raises(ValueError, match="false on the whole interval"):
        bracket_search(lambda x, at: x >= 5.0, [0.0, 0.0], [10.0, 1.0])
    with pytest.raises(ValueError, match="false on the whole interval"):
        bisect_first_true(lambda t: t >= 5.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="no sign change"):
        bisect_root(lambda t: t * t + 1.0, -1.0, 1.0)


def test_scalar_wrappers_follow_the_engine():
    assert bisect_first_true(lambda t: t >= 0.25, 0.0, 1.0) == plain_bisection(
        lambda t: t >= 0.25, 0.0, 1.0, 1e-13)[1]
    assert abs(bisect_root(math.cos, 0.0, 3.0) - math.pi / 2) <= 1e-13
    root = bisect_root_tight(lambda t: t * t - 2.0, 1.0, 2.0)
    assert root in (math.sqrt(2.0), np.nextafter(math.sqrt(2.0), 0.0))


# Most predicate calls per query over the angles 0.3, 2.0 and 4.4, one above
# the counts measured with value spines; plain grids took 10, 10, 19 and 26.
QUERY_CALLS = {"hexagonal": (6, 6, 7, 11), "pnorm": (8, 8, 6, 13), "lens": (7, 8, 7, 12)}


def test_sphere_queries_keep_their_call_budgets(monkeypatch, hexn, p3, lens):
    calls = []

    def counted(pred, *args, **kwargs):
        def pred_counted(x, at):
            calls.append(x.shape)
            return pred(x, at)
        return bracket_search(pred_counted, *args, **kwargs)

    monkeypatch.setattr(sphere, "bracket_search", counted)
    for norm in (hexn, p3, lens):
        for theta in (0.3, 2.0, 4.4):
            x = radial_point(norm, theta)
            for query, budget in zip((diametral_set, star, bisector_points, is_flat),
                                     QUERY_CALLS[norm.kind]):
                calls.clear()
                query(norm, x)
                assert len(calls) <= budget, (norm.kind, theta, query.__name__, len(calls))
