import json
import math

import numpy as np
import pytest

from normgeo import run_reference_checks
from normgeo.cli import main
from normgeo.norms import HEX_VERTICES


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


def test_cli_modulus_rejects_a_coarse_grid():
    assert main(["modulus", "--norm", "p3", "--steps", "3", "--samples", "2"]) == 2
    assert main(["modulus", "--norm", "p3", "--steps", "3", "--samples", "0"]) == 2


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
        # l1 -> linf carries samples onto samples
        assert type(record["shift"]) is int


def test_cli_isometry_finds_a_linear_image_of_the_hexagon(tmp_path, capsys):
    image = tmp_path / "hex_image.json"
    verts = np.asarray(HEX_VERTICES) @ np.array([[1.3, 0.4], [-0.2, 0.9]]).T
    image.write_text(json.dumps({"kind": "polygon", "vertices": verts.tolist()}))
    assert main(["isometry", "--normA", "hexagonal", "--normB", str(image)]) == 0
    records = json.loads(capsys.readouterr().out)["alignments"]
    assert len(records) == 12
    assert max(r["defect"] for r in records) <= 1e-9
    assert max(r["linearity_defect"] for r in records) <= 1e-9


@pytest.mark.parametrize("argv, samples, message", [
    (["verify"], "0", "ridge_samples"),
    (["verify"], "-3", "ridge_samples"),
    (["fingerprint", "--norm", "hexagonal"], "0", "sample count"),
    (["validate", "--norm", "diamond"], "0", "sample_count"),
    (["isometry", "--normA", "l1", "--normB", "linf"], "0", "sample count"),
])
def test_cli_rejects_a_bad_sample_count(argv, samples, message, capsys):
    assert main([*argv, "--samples", samples]) == 2
    assert message in capsys.readouterr().err


def test_cli_rejects_unknown_norm(capsys):
    assert main(["validate", "--norm", "nonsense"]) == 2


def test_cli_rejects_malformed_file(tmp_path, capsys):
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
    for name, text in (
            ("huge_scale", '{"kind": "euclidean", "scale": 1e309}'),
            ("nan_offset", '{"kind": "lens", "offset": [NaN, 0]}'),
            ("inf_offset", '{"kind": "lens", "offset": [Infinity, 0]}')):
        spec = tmp_path / f"{name}.json"
        spec.write_text(text)
        assert main(["validate", "--norm", str(spec)]) == 2
    capsys.readouterr()
    for name, text, message in (
            ("short_offset", '{"kind": "lens", "offset": [1.0]}', "offset must be"),
            ("no_p", '{"kind": "pnorm"}', "pnorm needs field 'p'")):
        spec = tmp_path / f"{name}.json"
        spec.write_text(text)
        assert main(["validate", "--norm", str(spec)]) == 2
        assert message in capsys.readouterr().err


def test_cli_names_the_bad_field(tmp_path, capsys):
    for name, text, message in (
            ("short_values", '{"kind": "radial", "angles": [0, 1], "values": [1]}',
             "angles and values must be lists of the same length"),
            ("text_dim", '{"kind": "pnorm", "p": 3, "dim": "x"}', "dim must be an integer"),
            ("long_vertex", '{"kind": "polygon", "vertices": [[1, 0, 0], [0, 1, 0]]}',
             "vertices[0] must be"),
            ("bool_p", '{"kind": "pnorm", "p": true}', "p must be a number, got True"),
            ("text_p", '{"kind": "pnorm", "p": "abc"}', "p must be a number, got 'abc'"),
            ("null_p", '{"kind": "pnorm", "p": null}', "p must be a number, got None"),
            ("list_p", '{"kind": "pnorm", "p": [3]}', "p must be a number, got [3]"),
            ("bool_scale", '{"kind": "euclidean", "scale": true}',
             "scale must be a number, got True"),
            ("text_angles", '{"kind": "radial", "angles": "ab", "values": "cd"}',
             "angles must be a list of numbers, got 'ab'"),
            ("text_values", '{"kind": "radial", "angles": [0, 1], "values": "cd"}',
             "values must be a list of numbers, got 'cd'"),
            ("number_profile", '{"kind": "revolution", "profile": 3}',
             "profile must be a norm object with a 'kind' field, got 3")):
        spec = tmp_path / f"{name}.json"
        spec.write_text(text)
        assert main(["validate", "--norm", str(spec)]) == 2
        assert message in capsys.readouterr().err


def test_cli_norm_json_round_trip_precision(tmp_path, capsys):
    # decimal round-trip through a file: evaluations agree to full precision
    spec = tmp_path / "lens.json"
    spec.write_text(json.dumps({"kind": "lens"}))
    rc = main(["validate", "--norm", str(spec), "--samples", "200"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
