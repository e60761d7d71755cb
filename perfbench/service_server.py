"""The ``service`` workload's server: one child process owning the engine.

It boots the same ``usertable`` as ``python -m repro.service serve`` (an
INT64 ``key`` with a ``by_key`` index and a UTF8 ``field0``), preloads the
keys, calls ``Database.start_background()`` (see the README for why) and
serves on an ephemeral port with the stock ``ServiceConfig``.  It prints
one JSON line ``{"port": ...}`` when ready, then obeys one command per
line on standard input, answering each with one JSON line:

``snapshot``   the engine registry, flattened (counters, histogram
               ``_count``/``_sum``, ``gauge:``-prefixed gauges)
``obs on|off`` ``repro.obs.configure(enabled=...)``
``trace on|off`` install / remove the benchmark's span wrappers
``stop``       drain the server, close the engine, write the log to
               ``<out>.wal`` and the spans to ``<out>.spans.json``, answer
               with the peak RSS, and exit

Run by ``service_workload.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from repro import ColumnSpec, Database, obs
from repro.arrowfmt.datatypes import INT64, UTF8
from repro.bench.harness import flatten_snapshot
from repro.obs.expo import snapshot
from repro.service.server import ServerThread, ServiceConfig

from spans import Tracer

TABLE = "usertable"
INDEX = "by_key"


def build_db() -> Database:
    db = Database()
    db.create_table(TABLE, [ColumnSpec("key", INT64), ColumnSpec("field0", UTF8)])
    db.create_index(TABLE, INDEX, ["key"])
    return db


def preload(db: Database, keys: int) -> None:
    table = db.catalog.table(TABLE)
    with db.transaction() as txn:
        for key in range(keys):
            table.insert(txn, {0: key, 1: f"v{key}"})


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--keys", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    db = build_db()
    preload(db, args.keys)
    db.start_background()
    server = ServerThread(db, ServiceConfig()).start()
    tracer = Tracer()
    reply({"port": server.port})
    for line in sys.stdin:
        command = line.split()
        if command == ["snapshot"]:
            reply(flatten_snapshot(snapshot(db.obs)))
        elif command[:1] == ["obs"]:
            obs.configure(enabled=command[1] == "on")
            reply({"obs": command[1]})
        elif command == ["trace", "on"]:
            tracer.install()
            reply({"trace": "on"})
        elif command == ["trace", "off"]:
            tracer.uninstall()
            reply({"trace": "off"})
        elif command == ["stop"]:
            break
        else:
            reply({"error": f"unknown command {line.strip()!r}"})
    server.stop(timeout=30.0)
    tracer.uninstall()
    db.close()
    with open(args.out + ".wal", "wb") as fh:
        fh.write(db.log_contents())
    with open(args.out + ".spans.json", "w") as fh:
        json.dump([s.to_list() for s in tracer.spans], fh)
    reply({"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
