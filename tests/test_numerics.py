import functools

import numpy as np
import pytest

from normgeo import isometry, isometry_group
from normgeo.numerics import golden_max


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


def test_capped_refinements_raise(monkeypatch, hexn):
    capped = functools.partial(golden_max, max_iter=5)
    monkeypatch.setattr(isometry, "golden_max", capped)
    with pytest.raises(RuntimeError, match="hexagonal sphere"):
        isometry_group(hexn, 64)
