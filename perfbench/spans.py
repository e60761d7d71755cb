"""Spans recorded from outside the engine, around its public entry points.

:class:`Tracer` replaces a chosen set of methods and module functions with
wrappers that record one span per call: name, start, end, the enclosing
wrapped call on the same thread (its parent) and the benchmark operation
the calling thread was working on.  Spans stay in memory until the run
ends; :func:`self_times` then charges each span its duration minus the
part of it that its children cover, and :func:`chrome_trace` writes them
in the ``chrome://tracing`` / Perfetto JSON format.

Nothing in the engine is edited: :meth:`Tracer.install` patches attributes
and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Span:
    """One wrapped call."""

    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: str
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.span_id, self.parent, self.name, self.start, self.end,
                self.thread, self.op]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


#: ``(module, attribute path, span name)``.  The attribute path is either a
#: module-level function or ``Class.method``.  A span name containing
#: ``{ro}`` is resolved per call (see :func:`_commit_name`).
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.txn.manager", "TransactionManager.begin", "txn.begin"),
    ("repro.txn.manager", "TransactionManager.commit", "txn.commit{ro}"),
    ("repro.index.manager", "TableIndex.lookup", "index.lookup"),
    ("repro.index.manager", "TableIndex.range_scan", "index.range_scan"),
    ("repro.storage.data_table", "DataTable.select", "storage.select"),
    ("repro.storage.data_table", "DataTable.update", "storage.update"),
    ("repro.storage.data_table", "DataTable.insert", "storage.insert"),
    ("repro.wal.manager", "LogManager.flush", "wal.flush"),
    ("repro.txn.context", "TransactionContext.wait_durable", "wal.wait_durable"),
    ("repro.gc_engine.collector", "GarbageCollector.run", "gc_engine.run"),
    ("repro.transform.transformer", "BlockTransformer.process_queue", "transform.process_queue"),
    ("repro.transform.transformer", "BlockTransformer.process_freeze_pending", "transform.process_freeze_pending"),
    ("repro.transform.transformer", "BlockTransformer.run_pass", "transform.run_pass"),
    ("repro.query.scan", "TableScanner.batches", "query.scan"),
    ("repro.export.flight", "export_stream", "export.encode"),
    ("repro.export.flight", "client_receive", "export.decode"),
    ("repro.arrowfmt.ipc", "write_batch", "arrowfmt.write_batch"),
    ("repro.parallel.pool", "WorkerPool.run_fragments", "parallel.run_fragments"),
)


def _commit_name(template: str, args: tuple) -> str:
    # TransactionManager.commit(self, txn, ...): a commit that installed no
    # undo records is read-only and is reported apart, since it need not
    # wait for the log the way a writing commit does.
    txn = args[1] if len(args) > 1 else None
    read_only = txn is not None and getattr(txn, "is_read_only", False)
    return template.replace("{ro}", "_ro" if read_only else "")


class Tracer:
    """Records spans for the entry points it is installed on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # operation ids                                                       #
    # ------------------------------------------------------------------ #

    def start_op(self) -> None:
        """Tag spans opened on this thread with a new operation id."""
        self._local.op = next(self._ops)

    def end_op(self) -> None:
        self._local.op = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    # recording                                                           #
    # ------------------------------------------------------------------ #

    def _open(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, opened: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = opened
        stack = self._stack()
        # Interleaved generators can close out of order; remove this span
        # wherever it sits so later spans still find their true parent.
        if stack and stack[-1] == span_id:
            stack.pop()
        elif span_id in stack:
            stack.remove(span_id)
        self.spans.append(Span(
            span_id, parent, name, start, end,
            threading.current_thread().name, getattr(self._local, "op", None),
        ))

    def span(self, name: str):
        """Context manager recording one span (used for operation roots)."""
        return _SpanScope(self, name)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name`` per call.

        Generator functions get a generator wrapper whose span covers the
        whole iteration, from the first ``next`` to exhaustion or close.
        """
        tracer = self
        dynamic = "{ro}" in name

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                label = _commit_name(name, args) if dynamic else name
                opened = tracer._open()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(label, opened)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = _commit_name(name, args) if dynamic else name
            opened = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(label, opened)

        return wrapper

    # ------------------------------------------------------------------ #
    # installing                                                          #
    # ------------------------------------------------------------------ #

    def install(self, entry_points: Iterable[tuple[str, str, str]] = ENTRY_POINTS) -> "Tracer":
        for module_name, path, name in entry_points:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


class _SpanScope:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.opened = self.tracer._open()

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.name, self.opened)


# ---------------------------------------------------------------------- #
# analysis                                                                #
# ---------------------------------------------------------------------- #


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the part of it its children cover.

    Children are the spans naming it as parent (same thread by
    construction); overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def layer(name: str) -> str:
    """The ``src/repro/`` module a span name belongs to."""
    return name.partition(".")[0]


def chrome_trace(processes: dict[str, list[Span]]) -> dict:
    """``chrome://tracing`` / Perfetto document: one process track per key
    of ``processes``, one thread track per recorded thread name."""
    events: list[dict] = []
    starts = [s.start for spans in processes.values() for s in spans]
    base = min(starts, default=0.0)
    for pid, (process, spans) in enumerate(processes.items(), start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": process}})
        tids: dict[str, int] = {}
        own = self_times(spans)
        for s in spans:
            tid = tids.setdefault(s.thread, len(tids) + 1)
            events.append({
                "ph": "X", "name": s.name, "cat": layer(s.name),
                "pid": pid, "tid": tid,
                "ts": (s.start - base) * 1e6, "dur": s.duration * 1e6,
                "args": {"span_id": s.span_id, "parent": s.parent, "op": s.op,
                         "self_us": own[s.span_id] * 1e6},
            })
        for thread, tid in tids.items():
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": thread}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
