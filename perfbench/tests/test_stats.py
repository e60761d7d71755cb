"""The percentile rule and the ``svc_max_rate`` ladder rule."""

from __future__ import annotations

import pytest

from stats import (
    LADDER_LATE_LIMIT_MS,
    LADDER_P99_LIMIT_MS,
    LadderStep,
    max_sustained_rate,
    summarize,
    tail_percentile,
)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 0.5), (39, 0.5), (40, 0.75), (99, 0.75),
    (100, 0.9), (199, 0.9), (200, 0.95), (999, 0.95), (1000, 0.99),
    (9999, 0.99), (10000, 0.999),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summary_reports_n_and_leaves_ten_samples_beyond_the_tail():
    samples = [float(i) for i in range(1, 1001)]
    s = summarize(list(reversed(samples)))
    assert s.n == 1000
    assert s.p50 == pytest.approx(500.5)
    assert s.tail_label == "p99"
    assert s.tail == 990.0
    assert sum(1 for v in samples if v > s.tail) == 10


def test_too_few_samples_fall_back_to_the_maximum():
    s = summarize([3.0, 1.0, 2.0])
    assert (s.n, s.tail, s.tail_label) == (3, 3.0, "max")
    with pytest.raises(ValueError):
        summarize([])


def step(rate, latency_ms=5.0, n=1000, late_ms=0.5, shed=0, errors=0, rise=0.0):
    """A synthetic ladder step: ``n`` served requests, latency rising by
    ``rise`` ms from the first request to the last."""
    out = LadderStep(rate=rate, offered=n + shed + errors, ok=n, shed=shed, errors=errors)
    out.samples = [(i / rate, latency_ms + rise * i / n) for i in range(n)]
    out.late_ms = [late_ms] * (n + shed + errors)
    return out


def test_a_clean_step_passes():
    assert step(300).verdict() == "ok"


def test_p99_over_the_limit_fails_the_step():
    s = step(400)
    # 1% of samples over the limit is still within p99 ...
    for i in range(10):
        s.samples[i] = (s.samples[i][0], LADDER_P99_LIMIT_MS + 1)
    assert s.verdict() == "ok"
    # ... one more is not.
    s.samples[10] = (s.samples[10][0], LADDER_P99_LIMIT_MS + 1)
    assert s.verdict() == "p99_over_limit"


def test_refused_or_failed_requests_fail_the_step():
    assert step(400, shed=1).verdict() == "failures"
    assert step(400, errors=1).verdict() == "failures"


def test_a_late_generator_fails_the_step():
    assert step(500, late_ms=LADDER_LATE_LIMIT_MS + 0.1).verdict() == "generator_late"


def test_a_growing_backlog_fails_the_step_even_under_the_limit():
    # Latency climbs from 5 ms to 35 ms: p99 is under 50 ms but the last
    # tenth is far slower than the first, so the queue was growing.
    s = step(600, latency_ms=5.0, rise=30.0)
    assert s.verdict() == "backlog_growing"
    assert step(600, latency_ms=5.0, rise=2.0).verdict() == "ok"


def test_max_rate_is_the_highest_passing_step():
    ladder = [step(300), step(400), step(500, late_ms=20.0), step(600, latency_ms=80.0)]
    assert max_sustained_rate(ladder) == 400
    assert max_sustained_rate([step(300, shed=5)]) == 0.0
    assert max_sustained_rate([]) == 0.0


def test_durability_candidates_follow_send_and_answer_times():
    from service_workload import possible_final_values

    # a acked before b was sent: b overwrote a.
    assert possible_final_values([("a", 0, 1, True), ("b", 2, 3, True)]) == {"b"}
    # c overlapped b (answered after b was sent): either may be last.
    assert possible_final_values(
        [("a", 0, 1, True), ("b", 2, 3, True), ("c", 1.5, 4, True)]
    ) == {"b", "c"}
    # An errored write answered late may have been applied; one answered
    # before the last acknowledged send was overwritten.
    assert possible_final_values(
        [("a", 0, 1, True), ("x", 0.5, 0.8, False), ("y", 1.5, 9, False), ("b", 2, 3, True)]
    ) == {"b", "y"}
    assert possible_final_values([("x", 0, float("inf"), False)]) is None
