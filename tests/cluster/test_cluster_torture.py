"""Cluster crash-torture smoke: seeded schedules must hold atomicity.

CI's ``crash-torture`` job runs a larger sweep (``python -m
repro.cluster``); this suite keeps a small always-on sample in the tier-1
run so a regression in the 2PC recovery path fails fast.  ``n_shards=None``
is the cluster CLI's setting: a seeded shard count per schedule.
"""

from repro.fault.harness import run_schedule, run_torture


class TestKvSchedules:
    def test_a_dozen_seeded_schedules_hold_atomicity(self):
        reports = run_torture(
            schedules=12, seed=0, txns=25, tpcc_every=5, transient_every=0, n_shards=None
        )
        assert len(reports) == 12
        failures = [r for r in reports if not r.ok]
        assert failures == [], "\n".join(str(r) for r in failures)
        # The sample must actually exercise the interesting machinery.
        assert any(r.crashed for r in reports)
        assert sum(r.txns_cross_shard for r in reports) > 0

    def test_single_schedule_is_deterministic(self):
        first = run_schedule(seed=3, txns=25, n_shards=None)
        second = run_schedule(seed=3, txns=25, n_shards=None)
        assert first.ok and second.ok
        assert str(first) == str(second)


class TestTpccSchedules:
    def test_tpcc_consistency_at_two_shards(self):
        report = run_schedule(seed=2, mode="tpcc", txns=20, n_shards=2)
        assert report.ok, str(report)
        assert report.n_shards == 2

    def test_tpcc_consistency_at_four_shards(self):
        report = run_schedule(seed=5, mode="tpcc", txns=20, n_shards=4)
        assert report.ok, str(report)
        assert report.n_shards == 4
