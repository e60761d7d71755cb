"""Command-line cluster crash-torture runner.

CI entry point::

    PYTHONPATH=src python -m repro.cluster --schedules 20        # PR gate
    PYTHONPATH=src python -m repro.cluster --schedules 200 -v    # nightly

Exit status 0 iff every schedule upholds cross-shard atomicity.
"""

from __future__ import annotations

import argparse
import sys

from repro.fault.harness import run_torture


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="seeded cluster crash-torture schedules (2PC atomicity)",
    )
    parser.add_argument("--schedules", type=int, default=20, help="schedules to run")
    parser.add_argument("--seed", type=int, default=0, help="first schedule seed")
    parser.add_argument("--txns", type=int, default=40, help="transactions per schedule")
    parser.add_argument(
        "--tpcc-every", type=int, default=5,
        help="every Nth schedule runs the TPC-C mode (0 disables)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="print every report")
    args = parser.parse_args(argv)

    reports = run_torture(
        schedules=args.schedules,
        seed=args.seed,
        txns=args.txns,
        tpcc_every=args.tpcc_every,
        transient_every=0,
        verbose=args.verbose,
        n_shards=None,
    )
    failed = [r for r in reports if not r.ok]
    crashed = sum(1 for r in reports if r.crashed)
    cross = sum(r.txns_cross_shard for r in reports)
    print(
        f"{len(reports)} schedules: {len(reports) - len(failed)} ok, "
        f"{len(failed)} failed ({crashed} crashed, {cross} cross-shard, "
        f"{sum(r.txns_acked for r in reports)} acked, "
        f"{sum(r.in_doubt for r in reports)} in-doubt resolved)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
