"""Central numeric tolerances shared by every module."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """One shared value per class of numeric comparison.

    Code reads ``DEFAULT_TOLS`` where it compares; the only parameters that
    default to a field are the ``tol`` of ``align``, ``isometry_group`` and
    ``SphereMapSample``, which callers set.

    evaluation   membership / equality of norm values (sphere certification,
                 level-set thresholds)
    geometric    results of geometric searches (root locations, defects)
    angle        bisection resolution for angular root finding
    arc_merge    gap below which adjacent angle intervals are fused
    chord_match  default entrywise tolerance for chord-matrix alignment
    """

    evaluation: float = 1e-12
    geometric: float = 1e-10
    angle: float = 1e-13
    arc_merge: float = 1e-9
    chord_match: float = 1e-6


DEFAULT_TOLS = Tolerances()
