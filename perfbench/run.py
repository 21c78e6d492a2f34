"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload routed-hits --seed 1 --seconds 20 --trace 0

Workloads: ``routed-hits``, ``direct-misses``, ``library-study`` and
``testbed-longevity`` (see ``BENCHMARK.json`` for why each exists).  With
``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics instead.  Lines before it are a human-readable report and the
run's provenance.  ``--record FILE`` also appends the full result
(provenance, details and checks included) to a JSON-lines file that
``perfbench/compare.py`` reads.

The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import (  # noqa: E402  (needs ROOT on sys.path)
    BUILD,
    SRC,
    BenchError,
    Outcome,
    provenance,
)

WORKLOADS = ("routed-hits", "direct-misses", "library-study",
             "testbed-longevity")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def prepare() -> None:
    """Put ``src`` on the path and build the compiled kernel once.

    The kernel cache lives in the checkout, and the one-time C build
    happens here, before any timed set-up.  ``REPRO_KERNEL`` is left as
    the caller set it; the backend in use is part of the provenance.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    # Inherited by every child process the benchmark starts.
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    sys.path.insert(0, str(SRC))
    BUILD.mkdir(parents=True, exist_ok=True)
    from repro.kernels import cext

    cext.load()


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Outcome:
    if name in ("routed-hits", "direct-misses"):
        from perfbench import service_workloads as sw

        workload = sw.ROUTED_HITS if name == "routed-hits" else sw.DIRECT_MISSES
        return sw.run_service(workload, seed, seconds, trace)
    if name == "library-study":
        from perfbench import library_study

        return library_study.run(seed, seconds, trace)
    from perfbench import testbed_longevity

    return testbed_longevity.run(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="append the full result to this JSON-lines file")
    args = parser.parse_args(argv)
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        prepare()
        started = time.perf_counter()
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        wall = time.perf_counter() - started
        missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
        if missing:
            raise BenchError(f"run produced no value for {missing}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    record = {
        "provenance": provenance(args.workload, args.seed, args.seconds,
                                 bool(args.trace)),
        "wall_s": wall,
        "figures": {n: {"value": v, "unit": u}
                    for n, (v, u) in outcome.figures.items()},
        "details": outcome.details,
        "checks": [{"name": n, "ok": not p, "problems": p}
                   for n, p in outcome.checks],
    }
    for name, problems in outcome.checks:
        status = "ok" if not problems else "FAILED: " + "; ".join(problems[:5])
        print(f"check {name}: {status}")
    for key, value in sorted(outcome.details.items()):
        if not isinstance(value, (list, dict)):
            print(f"  {key} = {value}")
    for name, (value, unit) in outcome.figures.items():
        print(f"{args.workload} figure {name} = {value:.6g} {unit}")
    for metric in wanted:
        value = outcome.metrics[metric["name"]]
        print(f"{args.workload} {metric['name']} = {value:.6g} {metric['unit']}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]),
                        "unit": m["unit"]}
            for m in wanted
        },
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**result, **record}, sort_keys=True)
                         + "\n")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
