"""Sharded multi-instance engine with a crash-safe 2PC coordinator.

This package turns the single-node engine into the skeleton of a
distributed system: :class:`ShardedDatabase` hash-shards tables across N
independent :class:`repro.db.Database` instances behind a router
(:mod:`repro.cluster.router`), passes single-shard transactions through
the untouched per-shard commit path, and commits cross-shard
transactions via two-phase commit (:mod:`repro.cluster.coordinator`) —
prepare is WAL-durable per shard, the commit decision is forced to the
coordinator's own log, and recovery follows presumed abort.

See ``docs/cluster.md`` for the sharding model, the 2PC state machine,
and the failure model.  ``python -m repro.cluster`` runs the seeded
crash-torture harness (:mod:`repro.fault.harness`, shared with the
single node) over clusters of 2-4 shards.
"""

from repro.cluster.coordinator import CoordinatorLog, TwoPhaseCoordinator
from repro.cluster.router import Router, TableRoute
from repro.cluster.sharded import (
    DistributedTransaction,
    ShardedCatalog,
    ShardedDatabase,
    ShardedIndex,
    ShardedTable,
    ShardSlot,
)

__all__ = [
    "CoordinatorLog",
    "DistributedTransaction",
    "Router",
    "ShardSlot",
    "ShardedCatalog",
    "ShardedDatabase",
    "ShardedIndex",
    "ShardedTable",
    "TableRoute",
    "TwoPhaseCoordinator",
]
