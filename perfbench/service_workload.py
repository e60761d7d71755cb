"""``service``: an open-loop YCSB-style mix through the asyncio front door.

The server is a child process (``service_server.py``) with 10,000 keys and
``start_background()``; this process drives it with
``AsyncServiceClient`` over 2 connections: 50% reads, 50% writes, zipf
θ=0.9 keys, each request sent on a fixed schedule whether or not earlier
ones have returned and timed from its scheduled send time.  A fixed
200 req/s phase gives the gated latency figures, a ladder of fixed rates
from 300 req/s up gives ``svc_p50_ms``/``svc_p99_ms`` (at 300 req/s) and
``svc_max_rate``, and a closed-loop phase (each connection sends as soon
as it is answered) gives the capacity.  The workload crosses socket, framing, admission
and executor hand-off; its engine work is point reads and durable writes
(``txn``, ``index``, ``storage``, ``wal``, ``gc_engine``), and it bypasses
``transform``, ``query`` and ``export``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.service.client import AsyncServiceClient
from repro.service.protocol import Request
from repro.workloads.ycsb import ZipfianGenerator

from common import Outcome, cost_share, interleaved, overhead, timed_setups
from layers import BACKGROUND_THREADS, engine_metrics
from service_server import INDEX, TABLE, build_db
from spans import Span
from stats import WINDOWS, LadderStep, max_sustained_rate, summarize, windowed

HERE = os.path.dirname(os.path.abspath(__file__))
KEYS = 10_000
CONNECTIONS = 2
READ_FRACTION = 0.5
ZIPF_THETA = 0.9
#: The gated phase runs at about a third of the closed-loop capacity, so a
#: host that halves the engine's speed raises its latency rather than
#: tipping it into an unbounded backlog (at 300 req/s that happened in
#: runs where the host stole CPU, with medians of 50 ms to 3.9 s).
FIXED_RATE = 200.0
#: The ladder: ``svc_p50_ms``/``svc_p99_ms`` are read at its first rate.
LADDER_RATES = (300.0, 400.0, 500.0, 600.0)
#: Shares of ``--seconds``: the fixed phase, each ladder step (the first,
#: long enough for a p99, gets more), and the closed-loop phase.
FIXED_SHARE = 0.45
STEP_SHARES = (0.15, 0.1, 0.1, 0.1)
SATURATE_SHARE = 0.1
WARMUP_S = 0.5
PAUSE_S = 0.25
DEADLINE_MS = 1000.0
SHED_REASONS = ("too_busy", "queue_timeout", "tenant_rate", "connections", "deadline")


class Server:
    """The child process and its command pipe."""

    def __init__(self, out_prefix: str) -> None:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(HERE), "src")
        env["PYTHONPATH"] = os.pathsep.join([src, HERE])
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "service_server.py"),
             "--keys", str(KEYS), "--out", out_prefix],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        ready = self._read()
        self.port = ready["port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"service server exited with {self.proc.returncode}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Drain and stop; returns the final answer (peak RSS)."""
        try:
            final = self.command("stop")
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


@dataclass
class Phase(LadderStep):
    """A ladder step plus the client-side detail the checks need."""

    #: ``(scheduled_s, latency_ms)`` of served reads and writes.
    read_ms: list[tuple[float, float]] = field(default_factory=list)
    write_ms: list[tuple[float, float]] = field(default_factory=list)
    read_rt_us: list[float] = field(default_factory=list)
    write_rt_us: list[float] = field(default_factory=list)
    #: ``(key, value, sent_s, answered_s, acknowledged)`` of every write
    #: that may have been applied: acknowledged ones, and those answered
    #: with an error (or never answered, ``answered_s`` infinite).  Shed
    #: writes were refused before running and are left out.
    writes: list[tuple[int, str, float, float, bool]] = field(default_factory=list)
    #: ``perf_counter`` start and end of the phase (one per merged phase).
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: The server registry's change over the phase (traced runs only).
    delta: dict[str, float] = field(default_factory=dict)

    @property
    def served_per_s(self) -> float:
        """Requests served per second of the phase's wall time."""
        return self.ok / sum(end - start for start, end in self.windows)


class Client:
    """Seeded request mix over a fixed pool of connections."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.zipf = ZipfianGenerator(KEYS, ZIPF_THETA, seed=seed)
        self.sequence = 0
        self.pool: list[AsyncServiceClient] = []
        self.locks: list[asyncio.Lock] = []

    async def connect(self, port: int) -> None:
        self.pool = [await AsyncServiceClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]
        self.locks = [asyncio.Lock() for _ in self.pool]

    async def close(self) -> None:
        for client in self.pool:
            await client.close()

    def next_request(self) -> Request:
        self.sequence += 1
        key = self.zipf.next()
        if self.rng.random() < READ_FRACTION:
            return Request(op="read", table=TABLE, index=INDEX, key=(key,),
                           deadline_ms=DEADLINE_MS)
        return Request(op="write", table=TABLE, index=INDEX, key=(key,),
                       values={"key": key, "field0": f"w{self.sequence}-{key}"},
                       deadline_ms=DEADLINE_MS)

    async def phase(self, rate: float, seconds: float) -> Phase:
        """Offer ``rate`` req/s for ``seconds``; wait for every answer."""
        loop = asyncio.get_running_loop()
        out = Phase(rate=rate)

        async def fire(sequence: int, scheduled: float, request: Request) -> None:
            began = loop.time()
            out.late_ms.append((began - scheduled) * 1e3)
            slot = sequence % len(self.pool)
            try:
                async with self.locks[slot]:
                    sent = loop.time()
                    response = await self.pool[slot].request(request)
            except (ConnectionError, OSError, asyncio.IncompleteReadError, RuntimeError):
                out.errors += 1
                if request.op == "write":
                    out.writes.append(_write(request, scheduled, math.inf, False))
                return
            self._record(out, request, response, scheduled, sent, loop.time())

        start = loop.time() + 0.01
        total = int(rate * seconds)
        tasks = []
        window_start = time.perf_counter()
        for sequence in range(total):
            scheduled = start + sequence / rate
            delay = scheduled - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            out.offered += 1
            tasks.append(loop.create_task(fire(sequence, scheduled, self.next_request())))
        await asyncio.gather(*tasks)
        out.windows.append((window_start, time.perf_counter()))
        return out

    async def closed_loop(self, seconds: float) -> Phase:
        """Every connection sends its next request as soon as the previous
        one is answered: the served rate is the pair's capacity."""
        loop = asyncio.get_running_loop()
        out = Phase(rate=0.0)
        window_start = time.perf_counter()
        end = loop.time() + seconds

        async def worker(client: AsyncServiceClient) -> None:
            while loop.time() < end:
                request = self.next_request()
                sent = loop.time()
                out.offered += 1
                try:
                    response = await client.request(request)
                except (ConnectionError, OSError, asyncio.IncompleteReadError, RuntimeError):
                    out.errors += 1
                    if request.op == "write":
                        out.writes.append(_write(request, sent, math.inf, False))
                    continue
                done = loop.time()
                self._record(out, request, response, sent, sent, done)

        await asyncio.gather(*(worker(client) for client in self.pool))
        out.windows.append((window_start, time.perf_counter()))
        return out

    @staticmethod
    def _record(out: Phase, request: Request, response, scheduled: float,
                sent: float, done: float) -> None:
        if response.ok:
            out.ok += 1
            out.samples.append((scheduled, (done - scheduled) * 1e3))
            rt = (done - sent) * 1e6
            if request.op == "read":
                out.read_ms.append((scheduled, (done - scheduled) * 1e3))
                out.read_rt_us.append(rt)
            else:
                out.write_ms.append((scheduled, (done - scheduled) * 1e3))
                out.write_rt_us.append(rt)
                out.writes.append(_write(request, sent, done, True))
        elif response.shed:
            out.shed += 1
        else:
            out.errors += 1
            if request.op == "write":
                out.writes.append(_write(request, sent, done, False))


def _write(request: Request, sent: float, answered: float, acknowledged: bool) -> tuple:
    return (request.key[0], request.values["field0"], sent, answered, acknowledged)


def possible_final_values(writes: list[tuple[str, float, float, bool]]) -> set[str] | None:
    """Values a key may hold after ``(value, sent, answered, acknowledged)``
    writes to it, or ``None`` if none was acknowledged (anything goes).

    The last acknowledged write to be sent was applied after every write
    answered before it was sent, so only writes answered no earlier than
    that send can be the final one.
    """
    sends = [sent for _, sent, _, acknowledged in writes if acknowledged]
    if not sends:
        return None
    return {value for value, _, answered, _ in writes if answered >= max(sends)}


def _durable_writes_survive(log: bytes, phases: list[Phase]) -> tuple[bool, str]:
    """Replay ``log`` into a fresh engine and check every acknowledged write.

    Every key must come back exactly once.  A key with acknowledged writes
    must hold the value of a write that could have been the last applied:
    one answered no earlier than the last acknowledged write to the key
    was sent (anything answered before that was overwritten by it).
    """
    db = build_db()
    db.recover_from(log)
    recovered: dict[int, list[str]] = {}
    txn = db.begin()
    try:
        for _, row in db.catalog.table(TABLE).scan(txn):
            values = row.to_dict()
            recovered.setdefault(values[0], []).append(values[1])
    finally:
        db.commit(txn)
    if len(recovered) != KEYS or any(len(v) != 1 for v in recovered.values()):
        return False, f"{len(recovered)} keys recovered, expected {KEYS} with one row each"
    by_key: dict[int, list[tuple[str, float, float, bool]]] = {}
    for p in phases:
        for key, value, sent, answered, acknowledged in p.writes:
            by_key.setdefault(key, []).append((value, sent, answered, acknowledged))
    acked = 0
    for key, writes in by_key.items():
        candidates = possible_final_values(writes)
        if candidates is None:
            continue
        acked += sum(1 for w in writes if w[3])
        if recovered[key][0] not in candidates:
            return False, (
                f"key {key}: recovered {recovered[key][0]!r}, expected one of {sorted(candidates)}"
            )
    return True, f"{acked} acknowledged writes over {len(by_key)} keys"


def _deltas(before: dict, after: dict) -> dict[str, float]:
    out = {}
    for key, value in after.items():
        out[key] = value if key.startswith("gauge:") else value - before.get(key, 0.0)
    return out


async def _plain(port: int, seed: int, seconds: float) -> tuple[Phase, Phase, list[Phase], Phase]:
    client = Client(seed)
    await client.connect(port)
    try:
        warmup = await client.phase(FIXED_RATE, WARMUP_S)
        fixed = await client.phase(FIXED_RATE, seconds * FIXED_SHARE)
        ladder = []
        for rate, share in zip(LADDER_RATES, STEP_SHARES):
            await asyncio.sleep(PAUSE_S)
            ladder.append(await client.phase(rate, seconds * share))
        await asyncio.sleep(PAUSE_S)
        saturated = await client.closed_loop(seconds * SATURATE_SHARE)
    finally:
        await client.close()
    return warmup, fixed, ladder, saturated


async def _fixed(port: int, seed: int, seconds: float) -> Phase:
    client = Client(seed)
    await client.connect(port)
    try:
        return await client.phase(FIXED_RATE, seconds)
    finally:
        await client.close()


def _chunk(server: Server, seconds: float, seed: int) -> Phase:
    """One fixed-rate chunk, with the server registry's change over it."""
    before = server.command("snapshot")
    phase = asyncio.run(_fixed(server.port, seed, seconds))
    phase.delta = _deltas(before, server.command("snapshot"))
    return phase


def _server_switch(server: Server) -> Callable[[str, bool], None]:
    """Mode switch for the server child (see ``common.interleaved``)."""
    def switch(mode: str, on: bool) -> None:
        if mode == "obs_off":
            server.command("obs off" if on else "obs on")
        elif mode == "traced":
            server.command("trace on" if on else "trace off")

    return switch


def run(seed: int, seconds: float, traced: bool) -> tuple[Outcome, dict[str, list[Span]]]:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, f"service-{os.getpid()}")

    def boot() -> Server:
        return Server(prefix)

    def discard(server: Server) -> None:
        server.stop()

    server, setup_s = timed_setups(boot, discard, repeats=5)
    outcome = Outcome()
    processes: dict[str, list[Span]] = {}
    try:
        warmup, fixed, ladder, saturated = asyncio.run(_plain(server.port, seed, seconds))
        chunks = interleaved(
            lambda secs, chunk_seed, mode: _chunk(server, secs, chunk_seed),
            seconds, seed + 1, _server_switch(server),
        ) if traced else {}
        final = server.command("snapshot")
        rss = server.stop()["rss_mb"]
        with open(prefix + ".wal", "rb") as fh:
            log = fh.read()
        with open(prefix + ".spans.json") as fh:
            server_spans = [Span.from_list(row) for row in json.load(fh)]
    finally:
        server.kill()
        for suffix in (".wal", ".spans.json"):
            if os.path.exists(prefix + suffix):
                os.remove(prefix + suffix)

    latency = summarize([lat for _, lat in ladder[0].samples])
    schedule = [t for t, _ in fixed.samples]
    writes = windowed(fixed.write_ms, min(schedule), max(schedule) + 1 / FIXED_RATE)
    steps = [fixed] + ladder
    max_rate = max_sustained_rate(steps)
    outcome.metrics = {
        "setup_s": setup_s,
        "op_per_s": saturated.served_per_s,
        "op_p50_ms": writes.p50,
        "op_tail_ms": writes.tail,
        "ok_frac": fixed.ok / fixed.offered,
        "rss_mb": rss,
    }
    outcome.detail = {
        "svc_p50_ms": latency.p50,
        "svc_p99_ms": latency.tail,
        "svc_max_rate": max_rate,
        "fail_frac": (fixed.shed + fixed.errors) / fixed.offered,
    }
    outcome.attempted = fixed.offered
    outcome.failed = fixed.shed + fixed.errors
    reads = summarize([lat for _, lat in fixed.read_ms])
    outcome.notes.append(
        f"fixed {FIXED_RATE:g} req/s: reads p50 {reads.p50:.3f} / {reads.tail_label} {reads.tail:.3f} ms "
        f"(n={reads.n}); op_* are durable writes, medians over {WINDOWS} windows: "
        f"p50 {writes.p50:.3f} / {writes.tail_label} {writes.tail:.3f} ms (n={writes.n})"
    )
    outcome.notes.append(
        f"svc_*: {ladder[0].rate:g} req/s, n={latency.n}, tail is {latency.tail_label}; "
        f"generator late p99 at {FIXED_RATE:g} req/s {summarize(fixed.late_ms).tail:.3f} ms; "
        f"closed loop over {CONNECTIONS} connections served {saturated.served_per_s:.1f} req/s"
    )
    for step in steps:
        lat = summarize([l for _, l in step.samples]) if step.samples else None
        outcome.notes.append(
            f"ladder {step.rate:g} req/s: offered {step.offered}, ok {step.ok}, shed {step.shed}, "
            f"errors {step.errors}, p50 {lat.p50 if lat else 0:.2f} ms, "
            f"p99 {lat.tail if lat else 0:.2f} ms, generator late p99 "
            f"{summarize(step.late_ms).tail:.2f} ms -> {step.verdict()}"
        )
    all_phases = [warmup] + steps + [saturated] + list(chunks.values())
    outcome.check(
        "every offered request was answered: offered = ok + shed + errors",
        all(p.offered == p.ok + p.shed + p.errors for p in all_phases),
    )
    survived, detail = _durable_writes_survive(log, all_phases)
    outcome.check(f"acknowledged writes survive log replay ({detail})", survived)

    if traced:
        outcome.layers = _layers(chunks, server_spans, fixed, final)
        processes["service-server"] = server_spans
    return outcome, processes


def _layers(chunks: dict[str, Phase], spans: list[Span], fixed: Phase, final: dict) -> dict[str, float]:
    traced = chunks["traced"]
    elapsed = sum(end - start for start, end in traced.windows)
    inside = [s for s in spans if any(a <= s.start and s.end <= b for a, b in traced.windows)]
    txns = traced.ok
    m = engine_metrics(inside, traced.delta, elapsed, txns)
    # Engine time per request: top-level engine spans on the server's
    # request threads (maintenance threads excluded).
    engine = sum(
        s.duration for s in inside
        if s.parent is None and s.thread not in BACKGROUND_THREADS
    )
    rts = traced.read_rt_us + traced.write_rt_us
    m["service.read_rt_us"] = statistics.median(traced.read_rt_us)
    m["service.write_rt_us"] = statistics.median(traced.write_rt_us)
    m["service.overhead_us"] = statistics.fmean(rts) - engine / txns * 1e6
    waits = traced.delta.get("service.queue_wait_seconds_count", 0.0)
    m["service.queue_wait_us"] = (
        traced.delta.get("service.queue_wait_seconds_sum", 0.0) / waits * 1e6 if waits else 0.0
    )
    for reason in SHED_REASONS:
        m[f"service.shed_{reason}"] = traced.delta.get(f'service.shed_total{{reason="{reason}"}}', 0.0)
    m["service.gen_late_p99_ms"] = summarize(fixed.late_ms).tail
    m["txn.pending_gc_end"] = final.get("gauge:txn.pending_gc", 0.0)
    # Durable-write medians: the whole mix's median sits between the read
    # and write clusters (see op_p50_ms).
    per_write = {mode: statistics.median(l for _, l in p.write_ms) for mode, p in chunks.items()}
    m["obs.cost_frac"] = cost_share(per_write["plain"], per_write["obs_off"])
    m["trace.overhead_frac"] = overhead(per_write["plain"], per_write["traced"])
    return m
