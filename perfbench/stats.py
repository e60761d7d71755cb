"""Summary statistics shared by every workload.

Timings are summarised as a median plus the highest standard percentile
that still has at least :data:`MIN_BEYOND` samples above it, so a tail
figure is never read off a handful of points.  The service ladder's
``svc_max_rate`` rule lives here too, because it is pure arithmetic over
recorded samples and is unit-tested on synthetic data.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10
#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

#: ``svc_max_rate`` limits: served p99 at or under this many ms ...
LADDER_P99_LIMIT_MS = 50.0
#: ... with the generator's p99 lateness at or under this many ms (a fifth
#: of the latency limit) ...
LADDER_LATE_LIMIT_MS = 10.0
#: ... and the last tenth's median latency at most this multiple of the
#: first tenth's (plus :data:`LADDER_RISE_SLACK_MS`); more means the
#: backlog grew during the step.
LADDER_RISE_FACTOR = 2.0
LADDER_RISE_SLACK_MS = 2.0


def _rank(n: int, q: float) -> int:
    # Rounded first so that 0.9 * 100 is rank 90, not 91.
    return min(n, max(1, math.ceil(round(q * n, 9))))


def quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of an already sorted, non-empty list."""
    return ordered[_rank(len(ordered), q) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with ``MIN_BEYOND`` samples beyond
    it among ``n`` samples, or ``None`` when ``n`` is too small for any."""
    for q in TAIL_CANDIDATES:
        if n - _rank(n, q) >= MIN_BEYOND:
            return q
    return None


def _label(q: float | None) -> str:
    return "max" if q is None else f"p{q * 100:g}"


@dataclass(frozen=True)
class Summary:
    """Median and supported tail of one latency population."""

    n: int
    p50: float
    tail: float
    tail_q: float | None

    @property
    def tail_label(self) -> str:
        return _label(self.tail_q)


def summarize(samples: list[float]) -> Summary:
    """Median and tail of ``samples``; with too few samples for any
    candidate percentile the tail is the maximum (and labelled so)."""
    if not samples:
        raise ValueError("no samples to summarize")
    ordered = sorted(samples)
    q = tail_percentile(len(ordered))
    tail = quantile(ordered, q) if q is not None else ordered[-1]
    return Summary(len(ordered), statistics.median(ordered), tail, q)


#: Equal time windows a measured pass is cut into for :func:`windowed`.
WINDOWS = 5


@dataclass(frozen=True)
class Windowed:
    """Per-window figures of one pass, each the median over its windows.

    The machine's speed drifts in bursts of a fraction of a second, so a
    statistic over the whole pass moves with how much of the pass a burst
    covered; the median over windows follows the state most windows saw.
    """

    per_s: float
    p50: float
    tail: float
    tail_q: float | None
    n: int

    @property
    def tail_label(self) -> str:
        return _label(self.tail_q)


def windowed(samples: list[tuple[float, float]], start: float, end: float,
             windows: int = WINDOWS) -> Windowed:
    """Median over ``windows`` equal slices of ``[start, end)`` of each
    slice's completion rate, median value and tail value.

    ``samples`` are ``(time, value)``; the tail percentile is the highest
    one every window supports (see :func:`tail_percentile`).
    """
    width = (end - start) / windows
    groups: list[list[float]] = [[] for _ in range(windows)]
    for t, value in samples:
        slot = min(int((t - start) / width), windows - 1) if t <= end else windows
        if 0 <= slot < windows:
            groups[slot].append(value)
    groups = [sorted(g) for g in groups if g]
    if not groups:
        raise ValueError("no samples inside the windows")
    q = tail_percentile(min(len(g) for g in groups))
    return Windowed(
        per_s=statistics.median([len(g) / width for g in groups] + [0.0] * (windows - len(groups))),
        p50=statistics.median(statistics.median(g) for g in groups),
        tail=statistics.median(quantile(g, q) if q is not None else g[-1] for g in groups),
        tail_q=q,
        n=sum(len(g) for g in groups),
    )


@dataclass
class LadderStep:
    """What one fixed-rate step of the service ladder measured.

    ``samples`` holds ``(scheduled_s, latency_ms)`` for every served
    request; ``late_ms`` the generator's lateness (actual minus scheduled
    send) for every request it offered.
    """

    rate: float = field(metadata={"merge": min})
    offered: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    samples: list[tuple[float, float]] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)

    def verdict(self) -> str:
        """``"ok"`` or the first rule this step broke."""
        if self.offered == 0 or self.ok == 0:
            return "no_samples"
        if self.shed or self.errors or self.ok != self.offered:
            return "failures"
        if quantile(sorted(self.late_ms), 0.99) > LADDER_LATE_LIMIT_MS:
            return "generator_late"
        latencies = [lat for _, lat in self.samples]
        if quantile(sorted(latencies), 0.99) > LADDER_P99_LIMIT_MS:
            return "p99_over_limit"
        by_time = [lat for _, lat in sorted(self.samples)]
        tenth = max(1, len(by_time) // 10)
        first = statistics.median(by_time[:tenth])
        last = statistics.median(by_time[-tenth:])
        if last > first * LADDER_RISE_FACTOR + LADDER_RISE_SLACK_MS:
            return "backlog_growing"
        return "ok"


def max_sustained_rate(steps: list[LadderStep]) -> float:
    """The highest ladder rate whose step passed every rule (0 if none)."""
    return max((s.rate for s in steps if s.verdict() == "ok"), default=0.0)
