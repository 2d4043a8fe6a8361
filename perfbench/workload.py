"""Run one workload in this process: set-up, then timed bundles.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread and ``src``
on ``PYTHONPATH``; prints one JSON object on its last line:

    python3 perfbench/workload.py --workload sweep --seed 1 --seconds 20
    python3 perfbench/workload.py --workload sweep --seed 1 --setup-only
    python3 perfbench/workload.py --workload sweep --seed 1 --seconds 20 --trace out.json

Set-up runs from before ``import normgeo`` to the first timed bundle.
Bundles repeat while the next one would end nearer to ``--seconds`` of wall
time than stopping does (at least one runs); a bundle's time is the sum of
its operations' times, checks excluded.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402  (set-up is timed from before these imports)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_bundle(ops) -> tuple[float, list[str]]:
    """Run every operation once; returns (seconds in operations, failures).

    An operation fails when it raises or when its check rejects the result.
    """
    busy = 0.0
    failures: list[str] = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is a failed one
            busy += time.perf_counter() - t0
            failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            continue
        busy += time.perf_counter() - t0
        try:
            reason = op.check(result)
        except Exception as exc:  # a check that cannot read the result rejects it
            reason = f"{op.label}: check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(reason)
    return busy, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)

    import normgeo
    if os.path.commonpath([os.path.abspath(normgeo.__file__), SRC]) != SRC:
        print(f"normgeo was imported from {normgeo.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import suites
    if args.workload not in suites.SUITES:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ops = suites.SUITES[args.workload](args.seed)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    bundle_s: list[float] = []
    failures: list[str] = []
    failed = 0
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.bundle = len(bundle_s)
        began = time.perf_counter()
        busy, bad = run_bundle(ops)
        if tracer:
            tracer.bundle = None
        bundle_s.append(busy)
        failed += len(bad)
        failures.extend(bad[:max(0, 5 - len(failures))])
        # Start another bundle only if it would end nearer to --seconds than
        # stopping now does, so long bundles do not overrun the run.
        now = time.perf_counter()
        if now - start + (now - began) / 2 >= args.seconds:
            break
    result = {
        "setup_s": setup_s,
        "bundle_s": bundle_s,
        "attempted": len(ops) * len(bundle_s),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer:
        result["layers"] = tracer.metrics(len(bundle_s))
        tracer.dump(args.trace, {"workload": args.workload, "seed": args.seed,
                                 "bundles": len(bundle_s)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
