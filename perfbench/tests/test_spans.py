"""Self-time arithmetic and span recording of the benchmark's tracer."""

from __future__ import annotations

import threading
import time

import pytest

from spans import Span, Tracer, chrome_trace, covered_length, self_times


def span(span_id, parent, start, end, thread="main", name="x.y"):
    return Span(span_id, parent, name, start, end, thread, None)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    # Clipped to the parent's interval on both sides.
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)
    # Disjoint from the interval entirely.
    assert covered_length([(11, 12)], 0, 10) == 0
    # Nested intervals count once.
    assert covered_length([(1, 9), (2, 3), (4, 5)], 0, 10) == pytest.approx(8)


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),       # overlaps its sibling: counted once
        span(4, 2, 2.0, 3.0),       # grandchild: charged to span 2 only
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_keeps_threads_apart():
    # Two threads with identical timestamps: a span is a child only of the
    # span it names as parent, never of a span that merely overlaps it.
    spans = [
        span(1, None, 0.0, 10.0, "a"),
        span(2, 1, 2.0, 8.0, "a"),
        span(3, None, 0.0, 10.0, "b"),
        span(4, 3, 5.0, 6.0, "b"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[3] == pytest.approx(9.0)
    assert own[2] == pytest.approx(6.0)
    assert own[4] == pytest.approx(1.0)


class Thing:
    def inner(self, delay):
        time.sleep(delay)
        return delay

    def outer(self, delay):
        self.inner(delay)
        self.inner(delay)
        return "done"

    def rows(self, n):
        for i in range(n):
            self.inner(0.0)
            yield i


@pytest.fixture
def traced():
    tracer = Tracer()
    originals = {name: Thing.__dict__[name] for name in ("inner", "outer", "rows")}
    for name, fn in originals.items():
        setattr(Thing, name, tracer.wrap(fn, f"thing.{name}"))
    try:
        yield tracer
    finally:
        for name, fn in originals.items():
            setattr(Thing, name, fn)


def test_wrapped_calls_on_several_threads_account_for_the_root(traced):
    def work():
        traced.start_op()
        with traced.span("workloads.op"):
            Thing().outer(0.002)
        traced.end_op()

    threads = [threading.Thread(target=work, name=f"t{i}") for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    by_id = {s.span_id: s for s in traced.spans}
    assert len(traced.spans) == 3 * 4
    for s in traced.spans:
        if s.parent is not None:
            assert by_id[s.parent].thread == s.thread
            assert by_id[s.parent].start <= s.start and s.end <= by_id[s.parent].end
    own = self_times(traced.spans)
    roots = [s for s in traced.spans if s.parent is None]
    assert sorted(r.op for r in roots) == [1, 2, 3]
    for root in roots:
        tree = [s for s in traced.spans if s.thread == root.thread]
        # Self times of a tree add up to the root's wall time exactly.
        assert sum(own[s.span_id] for s in tree) == pytest.approx(root.duration, abs=1e-9)
        assert {s.op for s in tree} == {root.op}


def test_generator_span_covers_the_whole_iteration(traced):
    assert list(Thing().rows(3)) == [0, 1, 2]
    gen = [s for s in traced.spans if s.name == "thing.rows"]
    inner = [s for s in traced.spans if s.name == "thing.inner"]
    assert len(gen) == 1 and len(inner) == 3
    assert all(s.parent == gen[0].span_id for s in inner)
    # Abandoning a generator early still closes its span.
    rows = Thing().rows(5)
    next(rows)
    rows.close()
    assert len([s for s in traced.spans if s.name == "thing.rows"]) == 2


def test_install_and_uninstall_restore_the_originals():
    from repro.txn.manager import TransactionManager

    original = TransactionManager.__dict__["begin"]
    with Tracer() as tracer:
        assert TransactionManager.__dict__["begin"] is not original
        assert tracer._patched
    assert TransactionManager.__dict__["begin"] is original


def test_chrome_trace_has_one_track_per_process_and_thread():
    doc = chrome_trace({
        "benchmark": [span(1, None, 1.0, 2.0, "main"), span(2, 1, 1.5, 1.8, "main")],
        "server": [span(1, None, 1.2, 1.4, "worker", name="txn.begin")],
    })
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in slices} == {1, 2}
    assert slices[0]["ts"] == 0 and slices[0]["dur"] == pytest.approx(1e6)
    assert slices[0]["args"]["self_us"] == pytest.approx(0.7e6)
    names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert {"benchmark", "server", "main", "worker"} <= names
