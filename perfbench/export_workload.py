"""``export``: freeze-and-export cycles over an ORDER_LINE-shaped table.

60,000 rows (rounded up to whole blocks, so every block can freeze) in
32 KiB blocks, about 165 blocks and 6 MB of Flight payload, on
``Database(parallel_workers=2)`` with the worker pool warmed during
set-up and the background log thread running.  Each cycle:

1. one transaction updates a row in each of 16 random blocks (~10%),
   reheating them;
2. the analytic read: a Flight export (``flight.export_stream`` then
   ``flight.client_receive``) and a selective filter+aggregate scan
   (``ol_i_id`` in [1, 100], SUM of ``ol_amount``), both through
   ``db.parallel_pool``;
3. maintenance passes until every block is FROZEN again.

The workload is heavy in ``transform``, ``query``, ``export``,
``arrowfmt`` and ``parallel``, light in ``index`` (none) and ``wal``
(one small commit per cycle), with writes beside reads.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from repro import Database
from repro.bench.harness import RegistryDelta
from repro.export import flight
from repro.query.scan import TableScanner
from repro.storage.constants import BlockState
from repro.workloads.tpcc.schema import TPCC_TABLES

from common import (
    Outcome, cost_share, interleaved, local_switch, overhead, peak_rss_mb, timed_setups,
)
from layers import engine_metrics
from spans import Span, Tracer
from stats import summarize

ROWS = 60_000
BLOCK_SIZE = 1 << 15
WORKERS = 2
HOT_BLOCKS_PER_CYCLE = 16
TABLE = "order_line"
COLUMNS = {spec.name: i for i, spec in enumerate(TPCC_TABLES[TABLE])}
ITEM, AMOUNT, QUANTITY = COLUMNS["ol_i_id"], COLUMNS["ol_amount"], COLUMNS["ol_quantity"]
ITEM_RANGE = (1, 100)
ITEMS = 1_000
LOAD_BATCH = 5_000


@dataclass
class Setup:
    db: Database
    slots_by_block: dict[int, list]
    rows: int


def _row(rng: random.Random, i: int) -> dict[int, object]:
    return {
        COLUMNS["ol_o_id"]: i // 10 + 1,
        COLUMNS["ol_d_id"]: i // 3000 % 10 + 1,
        COLUMNS["ol_w_id"]: 1,
        COLUMNS["ol_number"]: i % 10 + 1,
        ITEM: rng.randint(1, ITEMS),
        COLUMNS["ol_supply_w_id"]: 1,
        COLUMNS["ol_delivery_d"]: rng.randint(0, 1 << 40),
        QUANTITY: rng.randint(1, 10),
        AMOUNT: round(rng.uniform(0.01, 9999.99), 2),
        COLUMNS["ol_dist_info"]: "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=24)),
    }


def build(seed: int) -> Setup:
    db = Database(parallel_workers=WORKERS)
    db.log_manager.start_background()
    info = db.create_table(TABLE, TPCC_TABLES[TABLE], block_size=BLOCK_SIZE, watch_cold=True)
    per_block = info.table.layout.num_slots
    rows = per_block * math.ceil(ROWS / per_block)
    rng = random.Random(seed)
    slots_by_block: dict[int, list] = {}
    for start in range(0, rows, LOAD_BATCH):
        with db.transaction() as txn:
            for i in range(start, min(rows, start + LOAD_BATCH)):
                slot = info.table.insert(txn, _row(rng, i))
                slots_by_block.setdefault(slot.block_id, []).append(slot)
    refreeze(db, info.table)
    if not db.parallel_pool.warm():
        raise RuntimeError("the scan/export worker pool did not start")
    return Setup(db, slots_by_block, rows)


def close(setup: Setup) -> None:
    setup.db.close()


def refreeze(db: Database, table, max_passes: int = 64) -> int:
    """Maintenance passes until no block is HOT or COOLING; returns passes."""
    for passes in range(1, max_passes + 1):
        db.run_maintenance()
        states = table.block_states()
        if states[BlockState.HOT] == 0 and states[BlockState.COOLING] == 0:
            return passes
    raise RuntimeError(f"table not frozen after {max_passes} maintenance passes")


def selective_sum(db: Database, table, pool) -> float:
    """SUM(ol_amount) over the rows with ol_i_id in ITEM_RANGE."""
    scanner = TableScanner(
        db.txn_manager, table, column_ids=[ITEM, AMOUNT],
        range_filters={ITEM: ITEM_RANGE}, registry=db.obs, pool=pool,
    )
    return sum(float(batch.gather(AMOUNT).sum()) for batch in scanner.batches())


@dataclass
class Pass:
    cycles: int = 0
    busy: float = 0.0            # cycle seconds, correctness checks excluded
    read_ms: list[float] = field(default_factory=list)
    refreeze_ms: list[float] = field(default_factory=list)
    payload_mb: float = 0.0
    export_s: float = 0.0        # encode + client decode
    scan_s: float = 0.0
    rows_scanned: int = 0
    bad_rows: int = 0
    bad_sums: int = 0
    delta: dict[str, float] = field(default_factory=dict)

    @property
    def cycles_per_s(self) -> float:
        return self.cycles / self.busy


def cycle(s: Setup, rng: random.Random, out: Pass) -> tuple[int, float]:
    """One timed cycle; returns the decoded row count and the pooled SUM."""
    db, table = s.db, s.db.catalog.table(TABLE)
    pool = db.parallel_pool
    began = time.perf_counter()
    with db.transaction() as txn:
        for block_id in rng.sample(sorted(s.slots_by_block), HOT_BLOCKS_PER_CYCLE):
            slot = rng.choice(s.slots_by_block[block_id])
            quantity = rng.randint(1, 10)
            if not table.update(txn, slot, {QUANTITY: quantity, AMOUNT: quantity * 9.99}):
                raise RuntimeError("update conflicted with no concurrent writer")
    committed = time.perf_counter()
    stream = flight.export_stream(db.txn_manager, table, pool=pool)
    decoded = flight.client_receive(stream.payload)
    exported = time.perf_counter()
    total = selective_sum(db, table, pool)
    scanned = time.perf_counter()
    refreeze(db, table)
    frozen = time.perf_counter()

    out.cycles += 1
    out.busy += frozen - began
    out.read_ms.append((scanned - committed) * 1e3)
    out.refreeze_ms.append((frozen - scanned) * 1e3)
    out.payload_mb += len(stream.payload) / 1e6
    out.export_s += exported - committed
    out.scan_s += scanned - exported
    out.rows_scanned += s.rows
    return decoded.num_rows, total


def measure(s: Setup, seconds: float, seed: int, tracer: Tracer | None = None) -> Pass:
    rng = random.Random(seed)
    table = s.db.catalog.table(TABLE)
    out = Pass()
    with RegistryDelta(s.db.obs) as delta:
        # ``seconds`` of timed cycles; the correctness checks come on top.
        while out.busy < seconds:
            if tracer is None:
                decoded_rows, total = cycle(s, rng, out)
            else:
                tracer.start_op()
                with tracer.span("workloads.cycle"):
                    decoded_rows, total = cycle(s, rng, out)
                tracer.end_op()
            # Correctness, outside the timed cycle: every visible row
            # arrived, and the pool's aggregate equals the serial one over
            # the same state.
            if decoded_rows != s.rows:
                out.bad_rows += 1
            serial = selective_sum(s.db, table, None)
            if not math.isclose(total, serial, rel_tol=1e-12, abs_tol=1e-6):
                out.bad_sums += 1
    out.delta = delta.delta
    return out


def run(seed: int, seconds: float, traced: bool) -> tuple[Outcome, dict[str, list[Span]]]:
    s, setup_s = timed_setups(lambda: build(seed), close, repeats=3)
    outcome = Outcome()
    processes: dict[str, list[Span]] = {}
    try:
        plain = measure(s, seconds, seed)
        read = summarize(plain.read_ms)
        outcome.metrics = {
            "setup_s": setup_s,
            "op_per_s": plain.cycles_per_s,
            "op_p50_ms": read.p50,
            "op_tail_ms": read.tail,
            "ok_frac": 1.0 - (plain.bad_rows + plain.bad_sums) / plain.cycles,
            "rss_mb": peak_rss_mb(),
        }
        outcome.detail = {
            "export_mb_per_s": plain.payload_mb / plain.export_s,
            "scan_rows_per_s": plain.rows_scanned / plain.scan_s,
            "refreeze_ms": summarize(plain.refreeze_ms).p50,
            "fail_frac": (plain.bad_rows + plain.bad_sums) / plain.cycles,
        }
        outcome.notes.append(
            f"{plain.cycles} cycles over {s.rows} rows in {len(s.slots_by_block)} blocks; "
            f"analytic read n={read.n}, tail is {read.tail_label}"
        )
        outcome.attempted = plain.cycles
        outcome.failed = plain.bad_rows + plain.bad_sums
        outcome.check(
            "every cycle's Flight export decoded to all visible rows", plain.bad_rows == 0
        )
        outcome.check(
            "every cycle's pooled scan SUM equals the serial scan SUM", plain.bad_sums == 0
        )
        if traced:
            tracer = Tracer()
            modes = interleaved(
                lambda secs, chunk_seed, mode: measure(
                    s, secs, chunk_seed, tracer if mode == "traced" else None
                ),
                seconds, seed + 1, local_switch(tracer),
            )
            lit = modes["traced"]
            processes["benchmark"] = tracer.spans
            layers = engine_metrics(tracer.spans, lit.delta, lit.busy, lit.cycles)
            layers["export.payload_mb"] = lit.payload_mb / lit.cycles
            table = s.db.catalog.table(TABLE)
            layers["transform.cold_coverage"] = (
                table.block_states()[BlockState.FROZEN] / len(table.blocks)
            )
            per_cycle = {mode: 1 / p.cycles_per_s for mode, p in modes.items()}
            layers["obs.cost_frac"] = cost_share(per_cycle["plain"], per_cycle["obs_off"])
            layers["trace.overhead_frac"] = overhead(per_cycle["plain"], per_cycle["traced"])
            outcome.layers = layers
            outcome.check(
                "interleaved passes' exports and scans were correct too",
                not any(p.bad_rows or p.bad_sums for p in modes.values()),
            )
    finally:
        close(s)
    return outcome, processes
