"""Seeded crash-torture schedules as part of the tier-1 suite.

A small fleet runs per PR (the CI ``crash-torture`` job runs more); every
schedule must uphold the durability invariant — see
:mod:`repro.fault.harness` for its exact statement.
"""

import pytest

from repro.errors import DegradedError
from repro.fault import harness, run_schedule, run_torture
from repro.fault.harness import ScheduleReport


class TestCrashTorture:
    def test_ten_seeded_schedules_uphold_the_invariant(self):
        reports = run_torture(schedules=10, seed=0, txns=30, tpcc_every=0)
        assert [r.violations for r in reports] == [[]] * 10
        # The fleet must actually exercise crashes, not just clean runs.
        assert any(r.crashed for r in reports)
        assert len({r.crash_site for r in reports}) >= 3

    def test_kv_schedule_is_deterministic(self):
        a = run_schedule(3, mode="kv", txns=25)
        b = run_schedule(3, mode="kv", txns=25)
        assert (a.crashed, a.txns_committed, a.txns_acked, a.txns_recovered) == (
            b.crashed,
            b.txns_committed,
            b.txns_acked,
            b.txns_recovered,
        )

    def test_transient_faults_lose_nothing(self):
        report = run_schedule(104, mode="transient", txns=30)
        assert report.ok, report.violations
        assert report.faults_injected > 0
        assert report.txns_recovered == report.txns_committed

    def test_transient_faults_that_degrade_the_node_fail_the_schedule(
        self, monkeypatch
    ):
        # Transient device errors must never impair a node.  Make the first
        # failed flush degrade it: the run may not pass for a crash (a torn
        # crash image would hide what the clean shutdown lost).
        build = harness._Node.build

        def fragile(self, shard_keys=None):
            db = build(self, shard_keys)
            db.log_manager.degrade_after = 1
            return db

        monkeypatch.setattr(harness._Node, "build", fragile)
        with pytest.raises(DegradedError):
            run_schedule(104, mode="transient", txns=30)

    def test_tpcc_schedule_recovers_consistent(self):
        report = run_schedule(9, mode="tpcc", txns=15)
        assert report.ok, report.violations
        assert report.mode == "tpcc"
        assert report.txns_recovered >= report.txns_acked

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_tpcc_mode_runs_on_a_node_and_a_cluster(self, n_shards):
        # One entry point, one TPC-C mode: n_shards=1 is a plain Database,
        # 2 a ShardedDatabase with one warehouse per shard.
        report = run_schedule(7, mode="tpcc", txns=15, n_shards=n_shards)
        assert report.ok, str(report)
        assert (report.mode, report.n_shards) == ("tpcc", n_shards)
        assert report.txns_committed > 0

    def test_report_renders_a_reproducible_line(self):
        report = ScheduleReport(
            seed=42,
            mode="kv",
            crash_site="wal.flush.pre_fsync",
            crashed=True,
            txns_committed=10,
            txns_acked=8,
            txns_recovered=9,
            faults_injected=1,
        )
        line = str(report)
        assert "seed=   42" in line and "ok" in line
        bad = ScheduleReport(
            seed=1, mode="kv", crash_site=None, crashed=False,
            txns_committed=1, txns_acked=1, txns_recovered=0,
            faults_injected=0, violations=["acked transactions lost"],
        )
        assert not bad.ok
        assert "FAIL" in str(bad)


class TestTpccRetryIntegration:
    def test_driver_reports_retries_and_acks(self):
        from repro import Database
        from repro.workloads.tpcc.driver import TpccDriver
        from repro.workloads.tpcc.schema import TpccConfig

        db = Database()
        config = TpccConfig(
            warehouses=1, districts_per_warehouse=2, customers_per_district=12,
            items=40, initial_orders_per_district=8, stock_per_warehouse=40,
            block_size=1 << 12,
        )
        driver = TpccDriver(db, config=config, seed=5)
        driver.setup()
        run = driver.run(transactions_per_worker=20)
        assert run.committed > 0
        # Single-worker runs cannot conflict: zero resubmissions.
        assert run.retried == 0
        assert int(db.obs.counter("workload.txn_retries_total").value) == 0

    def test_conflicting_workers_resubmit_instead_of_failing(self):
        from repro import Database
        from repro.workloads.tpcc.driver import TpccDriver
        from repro.workloads.tpcc.schema import TpccConfig

        db = Database()
        config = TpccConfig(
            warehouses=1, districts_per_warehouse=2, customers_per_district=12,
            items=40, initial_orders_per_district=8, stock_per_warehouse=40,
            block_size=1 << 12,
        )
        driver = TpccDriver(db, config=config, seed=11)
        driver.setup()
        # Two workers on one warehouse: Payment/NewOrder collide on the
        # warehouse and district rows, forcing write-write conflicts.
        run = driver.run(transactions_per_worker=25, workers=2)
        assert run.committed > 0
        assert run.retried == int(
            db.obs.counter("workload.txn_retries_total").value
        )
