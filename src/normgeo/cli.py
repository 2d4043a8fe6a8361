"""Command-line front end.

Subcommands: verify, curvature, modulus, bisector, dset, isometry,
fingerprint, validate.  Norms are given either as builtin names
(``euclidean``, ``hexagonal``, ``square``, ``diamond``, ``lens``, ``p3`` ...)
or as paths to JSON files in the norm-spec dialect.  Exit codes: 0 on
success, 1 on a failed verification, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .charts import linearity_defect, antipodality_defect, make_chart
from .config import DEFAULT_TOLS
from .convexity import modulus_curve
from .curvature import (DEFAULT_DELTAS, circle_curve, ellipse_curve,
                        normed_curvature, sphere_curve)
from .isometry import align, alignment_map_sample, fingerprint
from .norms import Norm, builtin_norm, norm_from_json, radial_point, validate_norm
from .sphere import bisector_points, diametral_set
from .verify import run_reference_checks

SCHEMA = 1


class CliError(Exception):
    pass


def _load_norm(spec: str) -> Norm:
    if spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read norm file {spec!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"norm file {spec!r} is not valid JSON: {exc}") from exc
        try:
            return norm_from_json(data)
        except (ValueError, KeyError, TypeError) as exc:
            raise CliError(f"norm file {spec!r} is malformed: {exc}") from exc
    try:
        return builtin_norm(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _samples(args, default: int) -> int:
    """``--samples`` when given, even if invalid (its consumer rejects it)."""
    return default if args.samples is None else args.samples


def _cmd_verify(args) -> int:
    report = run_reference_checks(seed=args.seed,
                                  ridge_samples=_samples(args, 360))
    for claim in report.claims:
        status = "ok" if claim.passed else "FAIL"
        print(f"[{status}] {claim.claim_id}: computed {claim.computed!r} "
              f"(expected {claim.expected!r} within {claim.tolerance})")
    if args.out:
        _emit(report.to_json(), args.out)
    print("verification " + ("passed" if report.passed else "FAILED"))
    return 0 if report.passed else 1


def _parse_curve(spec: str, ambient: Norm):
    name, _, params = spec.partition(":")
    if name == "circle":
        radius = float(params) if params else 1.0
        return circle_curve(radius)
    if name == "ellipse":
        a, b = (float(x) for x in params.split(","))
        return ellipse_curve(a, b)
    if name == "sphere":
        norm = _load_norm(params) if params else ambient
        return sphere_curve(norm)
    raise CliError(f"unknown curve spec {spec!r} (use circle:R, ellipse:a,b, sphere[:norm])")


def _cmd_curvature(args) -> int:
    ambient = _load_norm(args.norm)
    curve = _parse_curve(args.curve, ambient)
    est = normed_curvature(ambient, curve, args.at, DEFAULT_DELTAS)
    if args.csv:
        _write_csv(args.csv, ["delta", "ratio"], est.ratios)
    _emit({"schema": SCHEMA, **est.to_json()}, args.out)
    return 0


def _cmd_modulus(args) -> int:
    norm = _load_norm(args.norm)
    eps = np.linspace(0.1, 2.0, args.steps)
    curve = modulus_curve(norm, eps, resolution=_samples(args, 512))
    if args.csv:
        _write_csv(args.csv, ["eps", "delta"], curve.samples)
    _emit({"schema": SCHEMA, **curve.to_json()}, args.out)
    return 0


def _cmd_bisector(args) -> int:
    norm = _load_norm(args.norm)
    pair = bisector_points(norm, radial_point(norm, args.angle))
    _emit({
        "schema": SCHEMA,
        "point": list(pair.point.v),
        "antipode": list(pair.antipode.v),
        "unique": pair.unique,
    }, args.out)
    return 0


def _cmd_dset(args) -> int:
    norm = _load_norm(args.norm)
    arcs = diametral_set(norm, radial_point(norm, args.angle))
    _emit({"schema": SCHEMA, **arcs.to_json()}, args.out)
    return 0


def _cmd_fingerprint(args) -> int:
    norm = _load_norm(args.norm)
    fp = fingerprint(norm, _samples(args, 256))
    if args.csv:
        _write_csv(args.csv, [f"c{j}" for j in range(fp.n)], fp.chords.tolist())
    _emit({
        "schema": SCHEMA,
        "n": fp.n,
        "circumference": fp.circumference,
        "points": fp.points.tolist(),
    }, args.out)
    return 0


def _cmd_validate(args) -> int:
    norm = _load_norm(args.norm)
    report = validate_norm(norm, _samples(args, 1000), seed=args.seed)
    _emit({"schema": SCHEMA, **report.to_json()}, args.out)
    return 0 if report.passed else 1


def _cmd_isometry(args) -> int:
    norm_a = _load_norm(args.norm_a)
    norm_b = _load_norm(args.norm_b)
    n = _samples(args, 256)
    fp_a = fingerprint(norm_a, n)
    fp_b = fingerprint(norm_b, n)
    found = align(fp_a, fp_b, args.tol)
    records = []
    for alignment in found:
        sample = alignment_map_sample(fp_a, fp_b, alignment)
        record = {
            "shift": alignment.shift,
            "reflected": alignment.reflected,
            "defect": alignment.defect,
            "antipodality_defect": antipodality_defect(sample),
        }
        k = n // 4
        try:
            chart_x = make_chart(norm_a, [fp_a.points[0], fp_a.points[k]])
            chart_y = make_chart(norm_b, [sample.images[0], sample.images[k]])
            record["linearity_defect"] = linearity_defect(
                sample, chart_x, chart_y).max_defect
        except ValueError:
            record["linearity_defect"] = None
        records.append(record)
    _emit({
        "schema": SCHEMA,
        "n": n,
        "tol": args.tol,
        "circumference_gap": abs(fp_a.circumference - fp_b.circumference),
        "alignments": records,
    }, args.out)
    return 0


# The flags several subcommands share; each subcommand takes those it reads.
_FLAGS = {
    "tol": dict(type=float, default=DEFAULT_TOLS.chord_match),
    "seed": dict(type=int, default=0),
    "samples": dict(type=int, default=None),
    "out": dict(type=str, default=None, help="JSON output path"),
    "csv": dict(type=str, default=None, help="CSV output path"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgeo",
        description="Geometry of unit spheres in finite-dimensional normed spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, flags):
        """A subcommand that takes only the shared ``flags`` it reads."""
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    command("verify", _cmd_verify, "run the built-in reference checks",
            ("seed", "samples", "out"))

    p = command("curvature", _cmd_curvature, "curvature of a curve measured with a norm",
                ("out", "csv"))
    p.add_argument("--norm", required=True)
    p.add_argument("--curve", required=True,
                   help="circle:R, ellipse:a,b, or sphere[:norm]")
    p.add_argument("--at", type=float, default=0.3,
                   help="curve parameter of the base point")

    p = command("modulus", _cmd_modulus, "modulus of convexity curve",
                ("samples", "out", "csv"))
    p.add_argument("--norm", required=True)
    p.add_argument("--steps", type=int, default=20)

    p = command("bisector", _cmd_bisector, "sphere points equidistant from x and -x",
                ("out",))
    p.add_argument("--norm", required=True)
    p.add_argument("--angle", type=float, default=0.0)

    p = command("dset", _cmd_dset, "sphere points at chordal distance 2 from x", ("out",))
    p.add_argument("--norm", required=True)
    p.add_argument("--angle", type=float, default=0.0)

    p = command("isometry", _cmd_isometry,
                "chord-matrix alignment search between two spheres",
                ("tol", "samples", "out"))
    p.add_argument("--normA", dest="norm_a", required=True)
    p.add_argument("--normB", dest="norm_b", required=True)

    p = command("fingerprint", _cmd_fingerprint,
                "equal-arc-length sphere sampling and chord matrix",
                ("samples", "out", "csv"))
    p.add_argument("--norm", required=True)

    p = command("validate", _cmd_validate, "sampled norm-axiom checks",
                ("seed", "samples", "out"))
    p.add_argument("--norm", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
