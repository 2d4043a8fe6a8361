import numpy as np
import pytest

from normgeo import (EuclideanNorm, LensNorm, PNorm, diamond_norm,
                     hexagonal_norm, square_norm)


@pytest.fixture(scope="session")
def euclid():
    return EuclideanNorm()


@pytest.fixture(scope="session")
def hexn():
    return hexagonal_norm()


@pytest.fixture(scope="session")
def diamond():
    return diamond_norm()


@pytest.fixture(scope="session")
def square():
    return square_norm()


@pytest.fixture(scope="session")
def lens():
    return LensNorm()


@pytest.fixture(scope="session")
def p3():
    return PNorm(3.0, 2)


@pytest.fixture(scope="session")
def shipped_2d(euclid, hexn, diamond, square, lens, p3):
    """Every shipped 2D norm variant, for axiom sweeps."""
    return [euclid, hexn, diamond, square, lens, p3,
            PNorm(1.0, 2), PNorm(np.inf, 2), EuclideanNorm(scale=2.5)]


def plain_bisection(pred, lo, hi, xtol=1e-13):
    """The scalar bisection the engine reproduces: False at lo, True at hi."""
    while not hi - lo <= xtol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi
