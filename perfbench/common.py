"""Pieces every workload shares: set-up timing, peak memory, results."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs

from spans import Tracer

#: Rounds of the traced run's interleaved plain / obs-off / traced chunks.
INTERLEAVE_ROUNDS = 4


def child_pids() -> list[int]:
    """Processes whose parent is this one, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The engine's shared-memory arena starts the stdlib resource tracker,
    which nothing waits for: left alone it outlives this process by a
    moment and, orphaned, stays behind as a zombie.  Call this last, once
    every database is closed, since a later shared-memory call would start
    the tracker again.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def timed_setups(build: Callable[[], Any], close: Callable[[Any], None],
                 repeats: int) -> tuple[Any, float]:
    """Build ``repeats`` times; keep the last, return the median time."""
    times = []
    built = None
    for _ in range(repeats):
        if built is not None:
            close(built)
        began = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - began)
    return built, statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run of one workload measured and checked.

    ``metrics`` holds the end-to-end metrics BENCHMARK.json declares;
    ``detail`` the workload's own end-to-end figures (printed always, and
    added to the per-layer metrics of a traced run); ``layers`` the
    per-layer metrics of a traced run.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok in self.checks)


def overhead(base: float, other: float) -> float:
    """How much longer an operation takes in ``other`` than in ``base``,
    as a share of ``base`` (the tracing overhead)."""
    return other / base - 1.0 if base else 0.0


def cost_share(with_obs: float, without_obs: float) -> float:
    """Share of an operation's time that observability costs."""
    return 1.0 - without_obs / with_obs if with_obs else 0.0


def merge(passes: list) -> Any:
    """Field-wise sum of measured passes: numbers add, lists concatenate,
    registry deltas add (gauges keep the last sample).  A field may name
    its own combiner as ``metadata={"merge": fn}``."""
    first = passes[0]
    merged = {}
    for f in dataclasses.fields(first):
        values = [getattr(p, f.name) for p in passes]
        if "merge" in f.metadata:
            merged[f.name] = f.metadata["merge"](values)
        elif isinstance(values[0], list):
            merged[f.name] = [v for part in values for v in part]
        elif isinstance(values[0], dict):
            combined: dict[str, float] = {}
            for part in values:
                for key, value in part.items():
                    gauge = key.startswith("gauge:")
                    combined[key] = value if gauge else combined.get(key, 0.0) + value
            merged[f.name] = combined
        else:
            merged[f.name] = sum(values)
    return type(first)(**merged)


def local_switch(tracer: Tracer) -> Callable[[str, bool], None]:
    """Mode switch for an engine in this process (see :func:`interleaved`)."""
    def switch(mode: str, on: bool) -> None:
        if mode == "obs_off":
            obs.configure(enabled=not on)
        elif mode == "traced" and on:
            tracer.install()
        elif mode == "traced":
            tracer.uninstall()

    return switch


def interleaved(measure: Callable[[float, int, str], Any], seconds: float, seed: int,
                switch: Callable[[str, bool], None]) -> dict[str, Any]:
    """Alternate short plain, observability-off and traced chunks.

    Each mode gets a third of ``seconds``, in ``INTERLEAVE_ROUNDS`` rounds
    whose order rotates, so drift over the run (a growing database, a
    warming cache, the machine's speed) lands on every mode alike.
    ``switch(mode, on)`` enters and leaves a mode around each chunk and
    ``measure(seconds, seed, mode)`` measures one.  Returns mode → merged
    pass.
    """
    modes = ["plain", "obs_off", "traced"]
    chunk = seconds / (len(modes) * INTERLEAVE_ROUNDS)
    done: dict[str, list] = {mode: [] for mode in modes}
    for round_no in range(INTERLEAVE_ROUNDS):
        shift = round_no % len(modes)
        for i, mode in enumerate(modes[shift:] + modes[:shift]):
            switch(mode, True)
            try:
                done[mode].append(measure(chunk, seed + 100 * round_no + i, mode))
            finally:
                switch(mode, False)
    return {mode: merge(passes) for mode, passes in done.items()}
