"""Tests of the benchmark itself: oracles, checks and the failure count.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import normgeo as ng

import oracles
import suites
from workload import run_bundle

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def subs():
    return suites.subjects(np.random.default_rng(3))


def test_oracle_gauges_agree_with_normgeo(subs):
    vecs = np.random.default_rng(0).normal(size=(64, 2))
    for s in subs.values():
        ours = np.array([s.gauge(v) for v in vecs])
        assert np.allclose(ours, s.norm(vecs), rtol=1e-12, atol=0.0), s.name


def test_polygon_symmetry_count():
    square = ((1, 1), (-1, 1), (-1, -1), (1, -1))
    rectangle = ((2, 1), (-2, 1), (-2, -1), (2, -1))
    assert oracles.polygon_symmetry_count(square) == 8
    assert oracles.polygon_symmetry_count(rectangle) == 8   # linear maps, not rigid ones
    assert oracles.polygon_symmetry_count(ng.norms.HEX_VERTICES) == 12
    skew = ((1, 0), (0.3, 1), (-1, 0), (-0.3, -1))
    assert oracles.polygon_symmetry_count(skew) == 8
    octagonish = ((1, 0), (0.8, 0.5), (0, 1), (-0.7, 0.6),
                  (-1, 0), (-0.8, -0.5), (0, -1), (0.7, -0.6))
    assert oracles.polygon_symmetry_count(octagonish) == 2


def _failures(op):
    return run_bundle([op])[1]


def test_group_order_off_by_one_is_failed():
    check = suites.check_group("square", 8, 8.0)
    good = SimpleNamespace(order=8, continuous=False)
    bad = SimpleNamespace(order=7, continuous=False)
    assert _failures(suites.Op("ok", lambda: (good, 8.0), check)) == []
    assert len(_failures(suites.Op("off", lambda: (bad, 8.0), check))) == 1
    assert len(_failures(suites.Op("len", lambda: (good, 8.0 + 1e-8), check))) == 1


def test_continuous_group_and_golab_range():
    check = suites.check_group("euclidean", None, None)
    cont = SimpleNamespace(order=None, continuous=True)
    finite = SimpleNamespace(order=8, continuous=False)
    assert check((cont, 6.5)) is None
    assert check((finite, 6.5)) is not None
    assert check((cont, 8.01)) is not None


def test_modulus_shifted_by_1e3_is_failed(subs):
    eps = 1.2
    for name, exact in (("euclidean", oracles.round_modulus(eps)),
                        ("p3", oracles.clarkson_modulus(eps, 3.0))):
        check = suites.check_modulus(subs[name], eps)
        assert _failures(suites.Op("ok", lambda e=exact: e, check)) == []
        assert len(_failures(suites.Op("off", lambda e=exact: e + 1e-3, check))) == 1
    flat = suites.check_modulus(subs["hexagonal"], 0.9)
    assert flat(0.0) is None and flat(1e-3) is not None
    assert suites.check_modulus(subs["lens"], 1.0)(oracles.round_modulus(1.0) + 1e-3)


def test_raising_operation_is_failed():
    def boom():
        raise ValueError("no sign change")
    assert len(_failures(suites.Op("boom", boom, lambda r: None))) == 1


def test_point_queries_pass_and_a_shifted_star_fails(subs):
    s = subs["hexagonal"]
    ops = suites.point_ops(s, 0.4)
    assert run_bundle(ops)[1] == []
    star = ops[1]

    def shifted():
        arcs = star.run()
        return ng.arcset([(a + 1e-5, b + 1e-5) for a, b in arcs.intervals], s.norm)

    bad = [ops[0], suites.Op(star.label, shifted, star.check)] + ops[2:]
    assert len(run_bundle(bad)[1]) == 1


def test_flatness_expectation_follows_the_faces(subs):
    for name in ("square", "lens"):
        ops = suites.point_ops(subs[name], 0.3)
        flat = ops[3]
        assert flat.check(flat.run()) is None
        assert flat.check(not flat.run()) is not None


def _workload(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "workload.py"), *args],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly(tmp_path):
    runs = [_workload("--workload", "queries", "--seed", "5", "--seconds", "0",
                      "--trace", str(tmp_path / f"t{i}.json")) for i in range(2)]
    counts = [{k: v for k, (v, unit) in r["layers"].items() if unit == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["norms.evals"] > 0 and counts[0]["verify.evals"] > 0
    assert all(r["failed"] == 0 for r in runs)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_arc_ends_joins_a_seam_crossing_arc():
    arcs = ng.arcset([(2 * math.pi - 0.1, 2 * math.pi + 0.2)])
    lo, hi = suites.arc_ends(arcs)
    assert math.isclose(lo, 2 * math.pi - 0.1) and math.isclose(hi, 2 * math.pi + 0.2)
