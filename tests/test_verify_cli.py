import json
import math

import numpy as np
import pytest

from normgeo import run_reference_checks
from normgeo.cli import main


def test_reference_checks_pass():
    report = run_reference_checks()
    failing = [c.claim_id for c in report.claims if not c.passed]
    assert report.passed, failing


def test_reference_report_is_deterministic():
    a = json.dumps(run_reference_checks(seed=3, ridge_samples=90).to_json(),
                   sort_keys=True)
    b = json.dumps(run_reference_checks(seed=3, ridge_samples=90).to_json(),
                   sort_keys=True)
    assert a == b


def test_every_claim_carries_one_provenance_tag():
    report = run_reference_checks(ridge_samples=90)
    for claim in report.claims:
        assert claim.source in ("exact arithmetic", "closed form",
                                "independent oracle", "reference value")


def test_report_json_schema():
    data = run_reference_checks(ridge_samples=90).to_json()
    assert data["schema"] == 1
    assert {"id", "expected", "computed", "tolerance", "passed", "source"} <= set(
        data["claims"][0])


# -- CLI ----------------------------------------------------------------------

def test_cli_verify_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--samples", "90", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert "verification passed" in capsys.readouterr().out


def test_cli_curvature_circle(tmp_path, capsys):
    csv_path = tmp_path / "ratios.csv"
    rc = main(["curvature", "--norm", "euclidean", "--curve", "circle:1",
               "--csv", str(csv_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-3)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "delta,ratio"
    assert len(lines) == 9


def test_cli_modulus_csv(tmp_path, capsys):
    csv_path = tmp_path / "modulus.csv"
    rc = main(["modulus", "--norm", "p3", "--steps", "5", "--samples", "128",
               "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "eps,delta"
    assert len(lines) == 6


def test_cli_bisector_and_dset(capsys):
    rc = main(["bisector", "--norm", "hexagonal", "--angle", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["point"] == pytest.approx([0.0, 1.0], abs=1e-9)
    assert payload["unique"] is True

    rc = main(["dset", "--norm", "hexagonal", "--angle", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    (lo, hi), = payload["intervals"]
    assert lo == pytest.approx(math.atan2(1.0, -0.5), abs=1e-9)
    assert hi == pytest.approx(math.atan2(-1.0, -0.5) % (2 * math.pi), abs=1e-9)


def test_cli_fingerprint(capsys):
    rc = main(["fingerprint", "--norm", "hexagonal", "--samples", "6"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 6
    assert payload["circumference"] == pytest.approx(6.0, abs=1e-12)


def test_cli_validate(capsys):
    rc = main(["validate", "--norm", "diamond", "--samples", "500"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_cli_isometry_between_files(tmp_path, capsys):
    l1 = tmp_path / "l1.json"
    linf = tmp_path / "linf.json"
    l1.write_text(json.dumps(
        {"kind": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]}))
    linf.write_text(json.dumps(
        {"kind": "polygon", "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}))
    rc = main(["isometry", "--normA", str(l1), "--normB", str(linf),
               "--samples", "64"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alignments"]
    best = min(a["defect"] for a in payload["alignments"])
    assert best <= 1e-9
    for record in payload["alignments"]:
        assert record["antipodality_defect"] <= 1e-9


def test_cli_rejects_unknown_norm(capsys):
    assert main(["validate", "--norm", "nonsense"]) == 2


def test_cli_rejects_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "bogus"}')
    assert main(["modulus", "--norm", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{]")
    assert main(["dset", "--norm", str(notjson)]) == 2
    # the JSON reader accepts NaN; such a polygon must not pass validation
    nan_vertex = tmp_path / "nan_vertex.json"
    nan_vertex.write_text(
        '{"kind": "polygon", "vertices": [[NaN, 0], [0, 1], [-1, 0], [0, -1]]}')
    assert main(["validate", "--norm", str(nan_vertex)]) == 2


def test_cli_norm_json_round_trip_precision(tmp_path, capsys):
    # decimal round-trip through a file: evaluations agree to full precision
    spec = tmp_path / "lens.json"
    spec.write_text(json.dumps({"kind": "lens"}))
    rc = main(["validate", "--norm", str(spec), "--samples", "200"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
