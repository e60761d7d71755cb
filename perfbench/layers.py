"""Per-layer metrics from recorded spans and engine-registry deltas.

Every traced run reports the same metric names for every workload (a
layer the workload bypasses reads 0), so a later change can be checked
for "no movement" on the workload that does not exercise it.  Layer names
are the ``src/repro/`` modules the wrapped entry points live in.
"""

from __future__ import annotations

from spans import Span, layer, self_times

#: Threads the engine's maintenance runs on (``Database.start_background``).
BACKGROUND_THREADS = frozenset({"gc", "transform", "log-manager"})

#: Per-layer metric name → unit, in the order BENCHMARK.json lists them.
UNITS: dict[str, str] = {
    "txn.begin_us": "us",
    "txn.commit_us": "us",
    "txn.commit_ro_us": "us",
    "txn.pending_gc_end": "count",
    "txn.self_frac": "ratio",
    "index.lookup_us": "us",
    "index.lookups_per_txn": "count",
    "index.self_frac": "ratio",
    "storage.select_us": "us",
    "storage.selects_per_txn": "count",
    "storage.update_us": "us",
    "storage.insert_us": "us",
    "storage.self_frac": "ratio",
    "storage.bytes_per_user_byte": "ratio",
    "wal.flush_ms": "ms",
    "wal.flushes": "count",
    "wal.bytes_per_txn": "B",
    "wal.busy_frac": "ratio",
    "wal.wait_durable_us": "us",
    "wal.self_frac": "ratio",
    "gc_engine.pass_ms": "ms",
    "gc_engine.busy_frac": "ratio",
    "gc_engine.self_frac": "ratio",
    "transform.pass_ms": "ms",
    "transform.blocks_frozen": "count",
    "transform.blocks_per_s": "1/s",
    "transform.preempt_ratio": "ratio",
    "transform.cold_coverage": "ratio",
    "transform.self_frac": "ratio",
    "query.scan_ms": "ms",
    "query.blocks_pruned": "count",
    "query.frozen_blocks_scanned": "count",
    "query.hot_blocks_scanned": "count",
    "query.rows_patched": "count",
    "query.self_frac": "ratio",
    "export.encode_ms": "ms",
    "export.decode_ms": "ms",
    "export.payload_mb": "MB",
    "export.self_frac": "ratio",
    "arrowfmt.write_batch_us": "us",
    "arrowfmt.self_frac": "ratio",
    "parallel.run_fragments_ms": "ms",
    "parallel.tasks_dispatched": "count",
    "parallel.self_frac": "ratio",
    "parallel.fallback_ratio": "ratio",
    "service.read_rt_us": "us",
    "service.write_rt_us": "us",
    "service.overhead_us": "us",
    "service.queue_wait_us": "us",
    "service.shed_too_busy": "count",
    "service.shed_queue_timeout": "count",
    "service.shed_tenant_rate": "count",
    "service.shed_connections": "count",
    "service.shed_deadline": "count",
    "service.gen_late_p99_ms": "ms",
    "workloads.self_frac": "ratio",
    "workloads.retries": "count",
    "obs.cost_frac": "ratio",
    "trace.overhead_frac": "ratio",
    # The workload-specific end-to-end figures, from the traced run's
    # untraced pass (0 on workloads they do not apply to).
    "txn_per_s": "txn/s",
    "txn_p50_ms": "ms",
    "txn_p99_ms": "ms",
    "fail_frac": "ratio",
    "export_mb_per_s": "MB/s",
    "scan_rows_per_s": "rows/s",
    "refreeze_ms": "ms",
    "svc_p50_ms": "ms",
    "svc_p99_ms": "ms",
    "svc_max_rate": "req/s",
}


def _mean_us(spans: list[Span], *names: str) -> float:
    durations = [s.duration for s in spans if s.name in names]
    return sum(durations) / len(durations) * 1e6 if durations else 0.0


def _count(spans: list[Span], *names: str) -> int:
    return sum(1 for s in spans if s.name in names)


def _top_level(spans: list[Span], prefix: str) -> list[Span]:
    """Spans of one layer not nested in another span of the same layer."""
    names = {s.span_id: s.name for s in spans}
    return [
        s for s in spans
        if layer(s.name) == prefix
        and (s.parent is None or layer(names.get(s.parent, "")) != prefix)
    ]


def _busy(spans: list[Span], prefix: str, elapsed: float) -> float:
    """Share of ``elapsed`` spent in top-level spans of one layer."""
    total = sum(s.duration for s in _top_level(spans, prefix))
    return total / elapsed if elapsed > 0 else 0.0


def engine_metrics(
    spans: list[Span],
    delta: dict[str, float],
    elapsed: float,
    txns: int,
) -> dict[str, float]:
    """The layer metrics every workload shares.

    ``spans`` are all spans recorded in the process that owns the engine,
    ``delta`` its :class:`repro.bench.harness.RegistryDelta` over the same
    pass, ``elapsed`` the pass's wall time and ``txns`` the client
    transactions it committed (the per-transaction denominators).
    """
    own = self_times(spans)
    foreground = [s for s in spans if s.thread not in BACKGROUND_THREADS]
    roots = [s for s in foreground if s.parent is None and layer(s.name) == "workloads"]
    op_time = sum(s.duration for s in roots)

    def self_frac(prefix: str) -> float:
        if not op_time:
            return 0.0
        return sum(own[s.span_id] for s in foreground
                   if s.op is not None and layer(s.name) == prefix) / op_time

    per_txn = (lambda n: n / txns) if txns else (lambda n: 0.0)
    frozen = delta.get("transform.blocks_frozen_total", 0.0)
    preempted = delta.get("transform.freezes_preempted_total", 0.0)
    dispatched = delta.get("parallel.tasks_dispatched_total", 0.0)
    transform_top = _top_level(spans, "transform")
    transform_busy = sum(s.duration for s in transform_top)
    m = {
        "txn.begin_us": _mean_us(spans, "txn.begin"),
        "txn.commit_us": _mean_us(spans, "txn.commit"),
        "txn.commit_ro_us": _mean_us(spans, "txn.commit_ro"),
        "txn.pending_gc_end": delta.get("gauge:txn.pending_gc", 0.0),
        "txn.self_frac": self_frac("txn"),
        "index.lookup_us": _mean_us(spans, "index.lookup", "index.range_scan"),
        "index.lookups_per_txn": per_txn(_count(foreground, "index.lookup", "index.range_scan")),
        "index.self_frac": self_frac("index"),
        "storage.select_us": _mean_us(spans, "storage.select"),
        "storage.selects_per_txn": per_txn(_count(foreground, "storage.select")),
        "storage.update_us": _mean_us(spans, "storage.update"),
        "storage.insert_us": _mean_us(spans, "storage.insert"),
        "storage.self_frac": self_frac("storage"),
        "wal.flush_ms": _mean_us(spans, "wal.flush") / 1e3,
        "wal.flushes": delta.get("wal.flush_total", 0.0),
        "wal.bytes_per_txn": per_txn(delta.get("wal.written_bytes", 0.0)),
        "wal.busy_frac": _busy([s for s in spans if s.name == "wal.flush"], "wal", elapsed),
        "wal.wait_durable_us": _mean_us(spans, "wal.wait_durable"),
        "wal.self_frac": self_frac("wal"),
        "gc_engine.pass_ms": _mean_us(spans, "gc_engine.run") / 1e3,
        "gc_engine.busy_frac": _busy(spans, "gc_engine", elapsed),
        "gc_engine.self_frac": self_frac("gc_engine"),
        "transform.pass_ms": _mean_us(transform_top, *{s.name for s in transform_top}) / 1e3,
        "transform.blocks_frozen": frozen,
        "transform.blocks_per_s": frozen / transform_busy if transform_busy else 0.0,
        "transform.preempt_ratio": preempted / (frozen + preempted) if frozen + preempted else 0.0,
        "transform.self_frac": self_frac("transform"),
        "query.scan_ms": _mean_us(spans, "query.scan") / 1e3,
        "query.blocks_pruned": delta.get("query.blocks_pruned_total", 0.0),
        "query.frozen_blocks_scanned": delta.get("query.frozen_blocks_scanned_total", 0.0),
        "query.hot_blocks_scanned": delta.get("query.hot_blocks_scanned_total", 0.0),
        "query.rows_patched": delta.get("query.rows_patched_total", 0.0),
        "query.self_frac": self_frac("query"),
        "export.encode_ms": _mean_us(spans, "export.encode") / 1e3,
        "export.decode_ms": _mean_us(spans, "export.decode") / 1e3,
        "export.self_frac": self_frac("export"),
        "arrowfmt.write_batch_us": _mean_us(spans, "arrowfmt.write_batch"),
        "arrowfmt.self_frac": self_frac("arrowfmt"),
        "parallel.run_fragments_ms": _mean_us(spans, "parallel.run_fragments") / 1e3,
        "parallel.tasks_dispatched": dispatched,
        "parallel.self_frac": self_frac("parallel"),
        "parallel.fallback_ratio": (
            delta.get("parallel.fallbacks_total", 0.0) / dispatched if dispatched else 0.0
        ),
        "workloads.self_frac": (
            sum(own[s.span_id] for s in roots) / op_time if op_time else 0.0
        ),
        "workloads.retries": delta.get("workload.txn_retries_total", 0.0),
    }
    return m


def complete(metrics: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 where this workload did not produce one."""
    unknown = set(metrics) - set(UNITS)
    if unknown:
        raise KeyError(f"unregistered per-layer metrics: {sorted(unknown)}")
    return {name: float(metrics.get(name, 0.0)) for name in UNITS}
