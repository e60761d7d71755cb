"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tpcc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with no tracing and prints the end-to-end metrics
declared in BENCHMARK.json; ``--trace 1`` adds an observability-off pass
and a traced pass and prints the per-layer metrics instead, writing the
spans to ``perfbench/out/<workload>-trace.json`` (open it in Perfetto or
``chrome://tracing``).  The last line of standard output is always one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
failed correctness check makes the run exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("tpcc", "export", "service")

#: End-to-end metric name → unit (the set BENCHMARK.json declares).
END_TO_END = {
    "setup_s": "s",
    "op_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: engine sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import importlib

    return importlib.import_module(f"{name}_workload")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    workload = load_workload(args.workload)
    from layers import UNITS, complete
    from spans import chrome_trace

    from common import stop_children

    try:
        outcome, processes = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    if args.trace:
        outcome.layers.update(outcome.detail)

    for label, ok in outcome.checks:
        print(f"[{'ok' if ok else 'FAIL'}] {label}")
    for note in outcome.notes:
        print(f"  {note}")
    print(f"{args.workload}: end-to-end (untraced, obs enabled)")
    for name, value in {**outcome.metrics, **outcome.detail}.items():
        unit = END_TO_END.get(name) or UNITS[name]
        print(f"  {name:<16} {value:>14.4f} {unit}")
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{args.workload}-trace.json")
        with open(path, "w") as fh:
            json.dump(chrome_trace(processes), fh)
        print(f"{args.workload}: per layer (traced pass); spans in {os.path.relpath(path, ROOT)}")
        for name, value in outcome.layers.items():
            print(f"  {name:<30} {value:>14.4f} {UNITS[name]}")
        accounted = sum(v for k, v in outcome.layers.items() if k.endswith(".self_frac"))
        if accounted:
            print(f"  self times of the layers + workloads: {accounted:.2%} of operation wall time")
        values, units = complete(outcome.layers), UNITS
    else:
        values, units = outcome.metrics, END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"error: metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
