"""The crash-torture harness: seeded crash schedules against live engines.

One :func:`run_schedule` call is one simulated machine lifetime on one
:class:`~repro.db.Database` (``n_shards=1``) or on a
:class:`~repro.cluster.ShardedDatabase` committing cross-shard
transactions by two-phase commit (2PC):

1. Build the engine, swap each log device (shard WALs, a cluster's
   decision log) for a :class:`~repro.fault.device.FaultyDevice`, and run
   a workload while tracking which transactions were *acked* (their
   durability callback fired after fsync) and what every one did.
2. Die at a seeded fault — a torn device write, a crash point inside WAL
   flush / checkpoint write / transform gather / the 2PC protocol — or
   (in ``transient`` mode) merely suffer recoverable device errors and
   shut down cleanly.
3. "Reboot": take every device's :meth:`crash_image` (fsynced prefix plus
   a seeded torn tail, drawn per device — the disks did not fail in
   sympathy), replay them into a fresh engine (in-doubt 2PC transactions
   resolve by presumed abort), and check the invariants:

- **prefix**: on each shard (or the node) the recovered transactions are
  a prefix of the commit order;
- **durability**: every acked transaction is fully recovered;
- **exact state**: the recovered rows equal the effects of exactly the
  recovered transactions, in order — none is ever partially present (a
  committed-but-unacked one at the very tail may survive complete: the
  client was simply never told, the standard group-commit contract);
- on a cluster, **no resurrection** (a transaction aborted by 2PC is
  recovered nowhere) and **cross-shard atomicity**: every transaction —
  committed, aborted, or in flight at the crash — is recovered on *all*
  shards it wrote or on *none*.

``tpcc`` mode runs the same lifetime over a miniature TPC-C database with
one warehouse per shard (sharded by home warehouse, so remote payments and
new-order lines are real 2PC traffic) and requires the durable load and
every acked transaction to survive and the spec's consistency conditions
(clause 3.3.2) to hold after recovery, on every shard and at the facade.

Everything derives from one integer seed, so a red run reproduces from
its report alone.  The harness is deliberately single-threaded: explicit
group-commit flushes on a seeded cadence make every schedule deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.errors import DegradedError, TwoPhaseInDoubt
from repro.fault.crashpoints import CrashPointInjector, armed
from repro.fault.device import FaultSchedule, FaultSpec, FaultyDevice, SimulatedCrash

#: Crash sites a single-node schedule can draw, with coarse weights: WAL
#: flush faults dominate real deployments, checkpoint/transform crashes
#: are rarer.
CRASH_SITES = (
    "device.torn_write",
    "device.crash_fsync",
    "wal.flush.pre_fsync",
    "wal.flush.post_fsync",
    "checkpoint.write",
    "transform.gather",
)

#: One tracked KV effect: (op, row id, payload, seq).
_Op = tuple[str, int, str | None, int | None]


@dataclass
class ScheduleReport:
    """Outcome of one seeded schedule; ``ok`` is the harness verdict."""

    seed: int
    mode: str  # "kv" | "transient" | "tpcc"
    crash_site: str | None
    crashed: bool
    txns_committed: int = 0
    txns_acked: int = 0
    txns_recovered: int = 0
    faults_injected: int = 0
    violations: list[str] = field(default_factory=list)
    n_shards: int = 1
    #: ``"shard:<i>"`` or ``"coordinator"`` for a cluster's device sites.
    fault_target: str | None = None
    txns_cross_shard: int = 0
    in_doubt: int = 0
    resolved_commit: int = 0
    resolved_abort: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "FAIL " + "; ".join(self.violations)
        if self.n_shards == 1:
            return (
                f"seed={self.seed:>5} mode={self.mode:<9} "
                f"site={self.crash_site or '-':<22} crashed={int(self.crashed)} "
                f"committed={self.txns_committed:>3} acked={self.txns_acked:>3} "
                f"recovered={self.txns_recovered:>3} faults={self.faults_injected} "
                f"{verdict}"
            )
        return (
            f"seed={self.seed:>5} mode={self.mode:<5} shards={self.n_shards} "
            f"site={self.crash_site or '-':<22} "
            f"target={self.fault_target or '-':<11} crashed={int(self.crashed)} "
            f"committed={self.txns_committed:>3} cross={self.txns_cross_shard:>3} "
            f"acked={self.txns_acked:>3} recovered={self.txns_recovered:>3} "
            f"indoubt={self.in_doubt}({self.resolved_commit}c/{self.resolved_abort}a) "
            f"{verdict}"
        )


class _Node:
    """One :class:`~repro.db.Database`: one WAL device, checkpoints."""

    n_shards = 1
    device_names = ("log",)
    sites = CRASH_SITES
    maintenance_every = (4, 12)
    #: Site → (device op, fault kind, op-index bounds for ``t`` transactions,
    #: target); a ``None`` target is the node's only device.
    device_faults = {
        "device.torn_write": ("write", "torn_write", lambda t: (2, t + 2), None),
        "device.crash_fsync": ("fsync", "crash", lambda t: (1, t + 1), None),
    }
    cross_rate = None
    #: The one-warehouse TPC-C database runs every profile at warehouse 1.
    home_warehouse = 1
    #: Engine errors that end a run like a crash.  None on a node: even
    #: transient device errors must never impair it, so a DegradedError
    #: escapes :func:`run_schedule` and fails the sweep.
    stop_on: tuple[type[Exception], ...] = ()

    def build(self, shard_keys: dict | None = None):
        """A fresh engine; one node owns every row, so ``shard_keys`` is moot."""
        from repro import Database

        return Database(cold_threshold_epochs=1)

    def wals(self, db) -> list:
        return [db.log_manager]

    #: Everything owning a log ``device``, in :attr:`device_names` order.
    logs = wals

    def flush(self, db) -> None:
        db.log_manager.flush()

    def checkpoint(self, db) -> None:
        db.checkpoint()

    def recover(self, fresh, images: list[bytes]) -> dict:
        replayed = fresh.recover_from(images[0], tolerate_torn_tail=True)
        return {"transactions_replayed": replayed}

    def consistency_scopes(self, fresh) -> list:
        return [("TPC-C", fresh)]


class _Cluster:
    """A :class:`~repro.cluster.ShardedDatabase`: shard WALs plus the
    coordinator's decision log; no cluster site schedules a checkpoint."""

    #: Crash sites a cluster schedule can draw.  The first three live inside
    #: the 2PC protocol itself; the device sites fault one chosen shard WAL
    #: or the coordinator log; the WAL-flush sites fire in whichever shard
    #: flushes next.
    sites = (
        "coordinator.prepare",
        "coordinator.decide",
        "participant.ack",
        "device.torn_write",
        "device.crash_fsync",
        "coordinator.io_error",
        "wal.flush.pre_fsync",
        "wal.flush.post_fsync",
    )
    maintenance_every = (5, 13)
    #: As :attr:`_Node.device_faults`; ``"draw"`` picks the target device
    #: from the seed.
    device_faults = {
        "device.torn_write": ("write", "torn_write", lambda t: (2, 2 * t), "draw"),
        "device.crash_fsync": ("fsync", "crash", lambda t: (1, t + 1), "draw"),
        # A recoverable write error on the decision log: log_decision must
        # rewind the partial record and fall back to a clean abort, so the
        # run continues and ends clean.
        "coordinator.io_error": (
            "write", "io_error", lambda t: (1, max(t // 3, 2)), "coordinator"
        ),
    }
    #: Bounds ``(low, width)`` of the fraction of KV transactions that
    #: deliberately span shards.
    cross_rate = (0.3, 0.4)
    #: Every TPC-C profile draws its home warehouse, hence its shard.
    home_warehouse = None
    #: A transaction left in doubt or a degraded shard impairs the cluster
    #: but leaves it alive: stop the workload there and verify that
    #: recovery resolves whatever was left prepared.
    stop_on = (TwoPhaseInDoubt, DegradedError)

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards
        shards = tuple(f"shard:{i}" for i in range(n_shards))
        self.device_names = shards + ("coordinator",)

    def build(self, shard_keys: dict | None = None):
        from repro.cluster import ShardedDatabase

        return ShardedDatabase(
            n_shards=self.n_shards, shard_keys=shard_keys, cold_threshold_epochs=1
        )

    def wals(self, cluster) -> list:
        return [shard.log_manager for shard in cluster.shards]

    def logs(self, cluster) -> list:
        return self.wals(cluster) + [cluster.coordinator_log]

    def flush(self, cluster) -> None:
        cluster.flush_all()

    def recover(self, fresh, images: list[bytes]) -> dict:
        return fresh.recover_from(images[:-1], images[-1], tolerate_torn_tail=True)

    def consistency_scopes(self, fresh) -> list:
        shards = [(f"shard {i}", shard) for i, shard in enumerate(fresh.shards)]
        return shards + [("cluster", fresh)]


def _pick_plan(rng: random.Random, topology, mode: str, txns: int) -> dict:
    """Everything a schedule decides, drawn from the seed's RNG."""
    plan = {
        "flush_every": rng.randrange(1, 5),
        "maintenance_every": rng.randrange(*topology.maintenance_every),
        "block_size": rng.choice((1 << 12, 1 << 13)),
        "crash_site": None,
        "crash_skip": 0,
        "device_specs": [],
        "fault_target": None,
        "checkpoint_at": None,
    }
    if topology.cross_rate is not None:
        low, width = topology.cross_rate
        plan["cross_rate"] = low + rng.random() * width
    if mode == "transient":
        # Recoverable device errors only; the run must end clean and lossless.
        writes = sorted(rng.sample(range(1, max(txns, 8)), k=min(3, txns // 4 or 1)))
        plan["device_specs"] = [
            FaultSpec("write", at, rng.choice(("io_error", "short_write")))
            for at in writes
        ] + [FaultSpec("fsync", rng.randrange(1, max(txns // 2, 2)), "io_error")]
        return plan
    site = topology.sites[rng.randrange(len(topology.sites))]
    plan["crash_site"] = site
    if site in topology.device_faults:
        op, kind, bounds, target = topology.device_faults[site]
        plan["device_specs"] = [FaultSpec(op, rng.randrange(*bounds(txns)), kind)]
        if target == "draw":
            target = topology.device_names[rng.randrange(len(topology.device_names))]
        plan["fault_target"] = target
    elif site == "checkpoint.write":
        plan["checkpoint_at"] = rng.randrange(txns // 3 or 1, txns)
        # skip=0: the crash must land inside this run's single checkpoint
        # (a completed checkpoint truncates the log out from under the
        # faulty device, which models a device swap, not a crash).
    else:
        plan["crash_skip"] = rng.randrange(0, max(3, txns // 2))
    return plan


def _swap_devices(topology, engine, plan: dict, seed: int) -> list[FaultyDevice]:
    """Wrap every log device of ``engine`` in a :class:`FaultyDevice` with
    the plan's faults (on its target, or on the node's only device).  The
    wrapped devices are fully synced (empty, or holding a clean load written
    synchronously), so the schedule's op indices count from here."""
    devices = []
    owners = zip(topology.device_names, topology.logs(engine))
    for salt, (name, owner) in enumerate(owners):
        specs = plan["device_specs"] if plan["fault_target"] in (None, name) else []
        schedule = FaultSchedule(specs, seed=seed + salt)
        device = FaultyDevice(base=owner.device, schedule=schedule)
        device.synced_len = device.base.tell()
        owner.device = device
        devices.append(device)
    for wal in topology.wals(engine):
        wal.synchronous = False
    return devices


def _group_commit(topology, engine, transient: bool, final: bool = False) -> None:
    """One group-commit tick, or the drain at clean shutdown (``final``).

    In transient mode a failed tick is retried at the next one, and the
    drain retries a few times: transient faults are one-shot and the
    failure-atomic flush re-queued everything, so nothing may be lost."""
    attempts = 5 if transient and final else 1
    for attempt in range(attempts):
        try:
            topology.flush(engine)
            return
        except OSError:
            if not transient or (final and attempt == attempts - 1):
                raise
            if not final:
                return


def _live(topology, workload, plan: dict, txns: int, transient: bool) -> bool:
    """Run the workload until it finishes or dies; True when it died."""
    site = plan["crash_site"]
    if site is None or site in topology.device_faults:
        site = "<never>"  # no crash point: the device (or nothing) faults
    with armed(CrashPointInjector(site, skip=plan["crash_skip"])):
        try:
            for i in range(txns):
                if not workload.step(i):
                    break
                if (i + 1) % plan["flush_every"] == 0:
                    _group_commit(topology, workload.engine, transient)
                if (i + 1) % plan["maintenance_every"] == 0:
                    workload.engine.run_maintenance()
                if plan["checkpoint_at"] is not None and i + 1 == plan["checkpoint_at"]:
                    # Scheduled only with a crash point inside the snapshot:
                    # the log is never truncated, recovery replays it whole.
                    topology.checkpoint(workload.engine)
            _group_commit(topology, workload.engine, transient, final=True)
        except (SimulatedCrash, OSError, *topology.stop_on):
            # Besides a crash, an OSError outside a tolerated flush (possible
            # when the final drain hits a scheduled fault) or one of the
            # topology's stop errors ends the run: the durability-acked
            # state must still recover.
            return True
    return False


def _build_kv(topology, block_size: int):
    from repro import INT64, UTF8, ColumnSpec

    engine = topology.build(shard_keys={"kv": "id"})
    engine.create_table(
        "kv",
        [ColumnSpec("id", INT64), ColumnSpec("payload", UTF8), ColumnSpec("seq", INT64)],
        block_size=block_size,
        watch_cold=True,
    )
    return engine


def _kv_rows(engine) -> dict[int, tuple[str, int]]:
    """The kv table of a node or one shard as ``id → (payload, seq)``."""
    table = engine.catalog.table("kv")
    reader = engine.begin()
    rows = {row.get(0): (row.get(1), row.get(2)) for _, row in table.scan(reader)}
    engine.commit(reader)
    return rows


def _apply(ops) -> dict[int, tuple[str, int]]:
    """The kv state a sequence of effects leaves."""
    state: dict[int, tuple[str, int]] = {}
    for op, key, payload, seq in ops:
        if op == "delete":
            state.pop(key, None)
        else:
            state[key] = (payload, seq)
    return state


def _divergence(expected: dict, actual: dict) -> str:
    extra = sorted(set(actual) - set(expected))
    lost = sorted(set(expected) - set(actual))
    wrong = sorted(k for k in set(actual) & set(expected) if actual[k] != expected[k])
    return f"extra={extra[:5]} lost={lost[:5]} wrong={wrong[:5]}"


def _replay(topology, fresh, images: list[bytes], report: ScheduleReport) -> bool:
    """Replay ``images`` into ``fresh`` and note its statistics; False if it raised."""
    try:
        stats = topology.recover(fresh, images)
    except Exception as exc:
        report.violations.append(f"recovery replay raised {exc!r}")
        return False
    report.txns_recovered = stats["transactions_replayed"]
    report.in_doubt = stats.get("in_doubt", 0)
    report.resolved_commit = stats.get("resolved_commit", 0)
    report.resolved_abort = stats.get("resolved_abort", 0)
    return True


class _NodeKv:
    """Single-node KV workload, tracked per commit timestamp so the
    verifier can decode the log and diff the exact committed prefix."""

    def __init__(self, topology: _Node, rng: random.Random, plan: dict) -> None:
        self.rng = rng
        self.plan = plan
        self.engine = _build_kv(topology, plan["block_size"])
        #: In commit order: (commit_ts, [op, ...]).
        self.commits: list[tuple[int, list[_Op]]] = []
        self.slots: dict[int, Any] = {}
        self.acked: set[int] = set()
        self.next_id = 0

    def step(self, txn_index: int) -> bool:
        """One workload transaction: 1-3 ops, tracked for later verification."""
        rng = self.rng
        table = self.engine.catalog.table("kv")
        txn = self.engine.begin()
        ops: list[_Op] = []
        payload = f"v{txn_index}-" + "x" * rng.randrange(0, 40)
        self.slots[self.next_id] = table.insert(
            txn, {0: self.next_id, 1: payload, 2: txn_index}
        )
        ops.append(("insert", self.next_id, payload, txn_index))
        self.next_id += 1
        live_ids = list(self.slots)
        if rng.random() < 0.45:
            victim = rng.choice(live_ids)
            update_payload = f"u{txn_index}-" + "y" * rng.randrange(0, 20)
            if table.update(txn, self.slots[victim], {1: update_payload, 2: txn_index}):
                ops.append(("update", victim, update_payload, txn_index))
        if len(live_ids) > 4 and rng.random() < 0.15:
            victim = rng.choice(live_ids[:-1])
            if table.delete(txn, self.slots[victim]):
                ops.append(("delete", victim, None, None))
                del self.slots[victim]

        def _on_durable(txn=txn) -> None:
            from repro.txn.context import TxnState

            if txn.state is TxnState.COMMITTED:
                self.acked.add(txn.commit_ts)

        txn.on_durable(_on_durable)
        self.commits.append((self.engine.commit(txn), ops))
        return True

    def verify(self, topology, images: list[bytes], report: ScheduleReport) -> None:
        from repro.wal.records import decode_stream

        violations = report.violations
        recovered_ts: list[int] = []
        try:
            recovered_ts = [
                t.commit_ts for t in decode_stream(images[0], tolerate_torn_tail=True)
            ]
        except Exception as exc:
            violations.append(f"recovery decode raised {exc!r}")

        committed_ts = [ts for ts, _ in self.commits]
        if not violations:
            # Prefix property: the log can only lose a suffix, atomically.
            if recovered_ts != committed_ts[: len(recovered_ts)]:
                violations.append(
                    f"recovered transactions are not a commit-order prefix: "
                    f"{recovered_ts[:8]}... vs {committed_ts[:8]}..."
                )
            # Durability: every acked transaction survives.
            missing = self.acked - set(recovered_ts)
            if missing:
                violations.append(
                    f"acked transactions lost by recovery: {sorted(missing)}"
                )
            if not report.crashed and len(recovered_ts) != len(committed_ts):
                violations.append(
                    f"clean shutdown lost transactions: {len(recovered_ts)} of "
                    f"{len(committed_ts)} recovered"
                )

        if not violations:
            # Replay into a fresh engine and diff the full logical state.
            fresh = _build_kv(topology, self.plan["block_size"])
            if _replay(topology, fresh, images, report):
                prefix = self.commits[: len(recovered_ts)]
                expected = _apply(op for _, ops in prefix for op in ops)
                actual = _kv_rows(fresh)
                if actual != expected:
                    violations.append(
                        f"recovered state diverges: {_divergence(expected, actual)}"
                    )

        report.txns_committed = len(committed_ts)
        report.txns_acked = len(self.acked)
        report.txns_recovered = len(recovered_ts)


@dataclass
class _ClusterTxn:
    """One workload transaction's footprint, for post-crash verification."""

    index: int
    shards: tuple[int, ...]
    #: Shard id → the sentinel row id inserted there (routes to that shard).
    sentinels: dict[int, int] = field(default_factory=dict)
    #: Shard id → [op, ...] in execution order.
    ops: dict[int, list[_Op]] = field(default_factory=dict)
    #: Sentinel id → ShardSlot, merged into the victim pool on commit.
    slot_map: dict[int, Any] = field(default_factory=dict)
    outcome: str = "pending"  # "committed" | "aborted" | "in_doubt" | "pending"
    acked: bool = False
    #: Shard id → recovered?, filled by verification.
    present: dict[int, bool] = field(default_factory=dict)


class _ClusterKv:
    """Cluster KV workload mixing single-shard and cross-shard (2PC)
    transactions, tracking exactly which rows each wrote on which shards."""

    def __init__(self, topology: _Cluster, rng: random.Random, plan: dict) -> None:
        self.rng = rng
        self.plan = plan
        self.engine = _build_kv(topology, plan["block_size"])
        self.records: list[_ClusterTxn] = []
        self.slots: dict[int, Any] = {}
        self.next_row = 0

    def step(self, index: int) -> bool:
        """Build and run one workload transaction; False once in doubt.

        Every transaction inserts one fresh *sentinel* row on each shard it
        touches — ids are constructed as ``row * n + shard`` so the integer
        router places them deterministically — and may additionally update
        previously committed rows on those same shards.  Sentinels double as
        the presence oracle after recovery, so they are never deleted.
        """
        from repro.errors import CoordinationAbort, TransactionAborted
        from repro.txn.context import TxnState

        rng = self.rng
        n = self.engine.n_shards
        if rng.random() < self.plan["cross_rate"]:
            k = rng.randrange(2, min(3, n) + 1)
        else:
            k = 1
        shards = tuple(sorted(rng.sample(range(n), k)))
        rec = _ClusterTxn(index=index, shards=shards)
        # Registered before any engine call: a SimulatedCrash mid-commit must
        # still leave the in-flight transaction visible to verification (its
        # effects may legitimately be recovered — e.g. a decision forced just
        # before the crash).
        self.records.append(rec)

        table = self.engine.catalog.table("kv")
        dtxn = self.engine.begin()
        try:
            for s in shards:
                row_id = self.next_row * n + s
                self.next_row += 1
                payload = f"v{index}-" + "x" * rng.randrange(0, 30)
                rec.slot_map[row_id] = table.insert(
                    dtxn, {0: row_id, 1: payload, 2: index}
                )
                rec.sentinels[s] = row_id
                rec.ops.setdefault(s, []).append(("insert", row_id, payload, index))
            victims = [rid for rid in self.slots if rid % n in shards]
            if victims and rng.random() < 0.45:
                victim = victims[rng.randrange(len(victims))]
                update_payload = f"u{index}-" + "y" * rng.randrange(0, 15)
                updated = table.update(
                    dtxn, self.slots[victim], {1: update_payload, 2: index}
                )
                if updated:
                    rec.ops.setdefault(victim % n, []).append(
                        ("update", victim, update_payload, index)
                    )

            def _on_durable(rec=rec, dtxn=dtxn) -> None:
                if dtxn.state is TxnState.COMMITTED:
                    rec.acked = True

            dtxn.on_durable(_on_durable)
            self.engine.commit(dtxn)
            rec.outcome = "committed"
            self.slots.update(rec.slot_map)
        except TwoPhaseInDoubt:
            rec.outcome = "in_doubt"
        except (CoordinationAbort, DegradedError, TransactionAborted):
            rec.outcome = "aborted"
        # An in-doubt transaction poisons the coordinator log; stop writing.
        return rec.outcome != "in_doubt"

    def verify(self, topology, images: list[bytes], report: ScheduleReport) -> None:
        violations = report.violations
        fresh = _build_kv(topology, self.plan["block_size"])
        if _replay(topology, fresh, images, report):
            actual = [_kv_rows(shard) for shard in fresh.shards]
            for rec in self.records:
                rec.present = {
                    s: sentinel in actual[s] for s, sentinel in rec.sentinels.items()
                }
                # THE cluster invariant: all-or-nothing across shards, for
                # every transaction regardless of how its lifetime ended.
                if len(set(rec.present.values())) > 1:
                    violations.append(
                        f"txn {rec.index} atomicity violated across shards: "
                        f"{rec.present} (outcome={rec.outcome})"
                    )
                recovered = all(rec.present.values())
                if rec.outcome == "aborted" and recovered:
                    violations.append(
                        f"aborted txn {rec.index} resurrected by recovery"
                    )
                if rec.acked and not recovered:
                    violations.append(f"acked txn {rec.index} lost by recovery")
                if rec.outcome == "committed" and not report.crashed and not recovered:
                    violations.append(f"clean shutdown lost committed txn {rec.index}")

        if not violations:
            for s in range(topology.n_shards):
                # Per-shard prefix: once a committed transaction is missing
                # on a shard, no later committed transaction may be present.
                lost_from: int | None = None
                for rec in self.records:
                    if s not in rec.shards or rec.outcome != "committed":
                        continue
                    if not rec.present[s]:
                        if lost_from is None:
                            lost_from = rec.index
                    elif lost_from is not None:
                        violations.append(
                            f"shard {s}: txn {rec.index} recovered after "
                            f"txn {lost_from} was lost (not a prefix)"
                        )
                        break
                # Exact state: the shard's rows are the effects of exactly
                # the recovered transactions, applied in commit order.
                expected = _apply(
                    op
                    for rec in self.records
                    if rec.present.get(s)
                    for op in rec.ops.get(s, ())
                )
                if expected != actual[s]:
                    violations.append(
                        f"shard {s} state diverges: {_divergence(expected, actual[s])}"
                    )

        committed = [r for r in self.records if r.outcome == "committed"]
        report.txns_committed = len(committed)
        report.txns_cross_shard = sum(1 for r in committed if len(r.shards) > 1)
        report.txns_acked = sum(1 for r in self.records if r.acked)


class _Tpcc:
    """TPC-C with one warehouse per shard: load, run the mix (remote
    payments / new-order lines are cross-shard 2PC on a cluster), crash,
    recover, and check clause 3.3.2 consistency everywhere."""

    def __init__(self, topology, seed: int) -> None:
        from repro.wal.records import decode_stream
        from repro.workloads.tpcc.driver import MIX, TpccDriver
        from repro.workloads.tpcc.schema import TPCC_SHARD_KEYS, TpccConfig
        from repro.workloads.tpcc.transactions import TpccTransactions

        self.topology = topology
        self.mix = MIX
        self.config = TpccConfig(
            warehouses=topology.n_shards,
            districts_per_warehouse=2,
            customers_per_district=12,
            items=40,
            initial_orders_per_district=8,
            stock_per_warehouse=40,
            block_size=1 << 12,
        )
        self.engine = engine = topology.build(shard_keys=TPCC_SHARD_KEYS)
        TpccDriver(engine, config=self.config, seed=seed).setup()
        # The load ran on synchronous clean devices: flushed, all of it is
        # durable before the faulty devices are swapped in.
        topology.flush(engine)
        self.base_recovered = sum(
            len(decode_stream(wal.device.getvalue(), tolerate_torn_tail=True))
            for wal in topology.wals(engine)
        )
        self.executor = TpccTransactions(engine, self.config, seed=seed + 1000)
        # Only a cluster's 2PC path counts into it; on a node it stays 0.
        self.cross_shard = engine.obs.counter("cluster.txn_cross_shard_total")
        self.cross_before = int(self.cross_shard.value)

    def step(self, index: int) -> bool:
        pick = self.executor.rand.random()
        for profile, threshold in self.mix:
            if pick <= threshold:
                getattr(self.executor, profile)(self.topology.home_warehouse)
                break
        return True

    def verify(self, topology, images: list[bytes], report: ScheduleReport) -> None:
        from repro.workloads.tpcc.consistency import check_consistency
        from repro.workloads.tpcc.schema import TPCC_SHARD_KEYS, create_tpcc_tables

        violations = report.violations
        fresh = topology.build(shard_keys=TPCC_SHARD_KEYS)
        create_tpcc_tables(fresh, self.config)
        if _replay(topology, fresh, images, report):
            replayed = report.txns_recovered
            if replayed < self.base_recovered:
                violations.append(
                    f"recovery lost the durable load: "
                    f"{replayed} < {self.base_recovered}"
                )
            mix_recovered = replayed - self.base_recovered
            if mix_recovered < self.executor.acked_writes:
                violations.append(
                    f"acked mix transactions lost: recovered {mix_recovered} "
                    f"of {self.executor.acked_writes} acked"
                )
            for label, scope in topology.consistency_scopes(fresh):
                for violation in check_consistency(scope).violations:
                    violations.append(f"{label} consistency: {violation}")

        report.txns_committed = self.executor.counters.total_committed
        report.txns_cross_shard = int(self.cross_shard.value) - self.cross_before
        report.txns_acked = self.executor.acked_writes


def run_schedule(
    seed: int, mode: str = "kv", txns: int = 40, n_shards: int | None = 1
) -> ScheduleReport:
    """Run one seeded lifetime; returns its report (see module docstring).

    ``n_shards=1`` runs on one :class:`~repro.db.Database`, more on a
    :class:`~repro.cluster.ShardedDatabase`; ``None`` draws a cluster's
    shard count from the seed (2-4 for ``kv``, 2 or 4 by seed parity for
    ``tpcc``).  ``transient`` mode runs on one node only.
    """
    rng = random.Random(seed)
    if n_shards is None:
        if mode == "tpcc":
            n_shards = 2 if seed % 2 == 0 else 4
        else:
            n_shards = rng.choice((2, 3, 4))
    if mode == "transient" and n_shards != 1:
        raise ValueError("transient mode runs on a single node (n_shards=1)")
    topology = _Node() if n_shards == 1 else _Cluster(n_shards)
    plan = _pick_plan(rng, topology, mode, txns)
    if mode == "tpcc":
        workload: Any = _Tpcc(topology, seed)
    elif n_shards == 1:
        workload = _NodeKv(topology, rng, plan)
    else:
        workload = _ClusterKv(topology, rng, plan)
    devices = _swap_devices(topology, workload.engine, plan, seed)
    crashed = _live(topology, workload, plan, txns, transient=mode == "transient")
    images = [d.crash_image(rng) if crashed else d.durable_image() for d in devices]

    report = ScheduleReport(
        seed=seed,
        mode=mode,
        crash_site=plan["crash_site"],
        crashed=crashed,
        faults_injected=sum(len(d.faults_injected) for d in devices),
        n_shards=n_shards,
        fault_target=plan["fault_target"],
    )
    workload.verify(topology, images, report)
    return report


def run_torture(
    schedules: int = 20,
    seed: int = 0,
    txns: int = 40,
    tpcc_every: int = 10,
    transient_every: int = 5,
    verbose: bool = False,
    n_shards: int | None = 1,
) -> list[ScheduleReport]:
    """Run ``schedules`` seeded lifetimes; returns every report.

    Seeds are ``seed .. seed+schedules-1``.  Every ``tpcc_every``-th
    schedule runs the TPC-C mode, every ``transient_every``-th the
    transient-errors mode, the rest the KV crash mode; ``n_shards`` is
    passed to :func:`run_schedule` (``None``: seeded cluster sizes).
    """
    reports = []
    for i in range(schedules):
        s = seed + i
        if tpcc_every and i % tpcc_every == tpcc_every - 1:
            mode = "tpcc"
        elif transient_every and i % transient_every == transient_every - 1:
            mode = "transient"
        else:
            mode = "kv"
        report = run_schedule(s, mode=mode, txns=txns, n_shards=n_shards)
        reports.append(report)
        if verbose or not report.ok:
            print(report)
    return reports
