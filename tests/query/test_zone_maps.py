"""Tests for zone maps and block pruning."""

import pytest

from repro import ColumnSpec, Database, INT64, UTF8
from repro.query import TableScanner, aggregate
from repro.storage.constants import BlockState


def build(rows=1200, cold_format="gather"):
    """Blocks hold consecutive id ranges, so zone maps are selective."""
    db = Database(logging_enabled=False, cold_threshold_epochs=1,
                  cold_format=cold_format)
    info = db.create_table(
        "t",
        [ColumnSpec("id", INT64), ColumnSpec("s", UTF8)],
        block_size=1 << 13,
        watch_cold=True,
    )
    with db.transaction() as txn:
        for i in range(rows):
            info.table.insert(txn, {0: i, 1: f"row-{i}"})
    db.freeze_table("t")
    return db, info


class TestZoneMapComputation:
    def test_gather_builds_zone_maps(self):
        db, info = build()
        frozen = [b for b in info.table.blocks if b.state is BlockState.FROZEN]
        assert frozen
        for block in frozen:
            low, high = block.zone_maps[0]
            live = block.column_view(0)[: block.allocation_bitmap.count_set()]
            assert low == live.min()
            assert high == live.max()

    def test_dictionary_format_also_builds_zone_maps(self):
        db, info = build(cold_format="dictionary")
        frozen = [b for b in info.table.blocks if b.state is BlockState.FROZEN]
        assert frozen
        assert all(0 in b.zone_maps for b in frozen)

    def test_varlen_columns_have_no_zone_map(self):
        db, info = build()
        frozen = [b for b in info.table.blocks if b.state is BlockState.FROZEN]
        assert all(1 not in b.zone_maps for b in frozen)

    def test_null_only_column_has_no_zone_map(self):
        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "n", [ColumnSpec("x", INT64), ColumnSpec("s", UTF8)],
            block_size=1 << 13, watch_cold=True,
        )
        with db.transaction() as txn:
            for i in range(700):
                info.table.insert(txn, {0: None, 1: "v"})
        db.freeze_table("n")
        frozen = [b for b in info.table.blocks if b.state is BlockState.FROZEN]
        assert frozen
        assert all(0 not in b.zone_maps for b in frozen)

    def test_refreeze_recomputes(self):
        db, info = build()
        frozen = [b for b in info.table.blocks if b.state is BlockState.FROZEN]
        block = frozen[0]
        old_zone = block.zone_maps[0]
        from repro.storage.tuple_slot import TupleSlot

        with db.transaction() as txn:
            info.table.update(txn, TupleSlot(block.block_id, 0), {0: 10_000})
        db.freeze_table("t")
        assert block.zone_maps[0][1] == 10_000
        assert block.zone_maps[0] != old_zone


class TestPruning:
    def test_disjoint_blocks_pruned(self):
        db, info = build()
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0],
            range_filters={0: (0, 50)},
        )
        total = sum(b.num_rows for b in scanner.batches())
        assert scanner.blocks_pruned >= 1
        # Pruning must keep every block that *could* contain matches.
        assert total >= 51

    def test_pruned_aggregate_equals_unpruned(self):
        db, info = build()
        low, high = 100, 400
        pruned_scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0], range_filters={0: (low, high)}
        )
        pruned = aggregate(
            pruned_scanner, value_column=0, filter_column=0,
            predicate=lambda col: (col >= low) & (col <= high),
        )
        full_scanner = TableScanner(db.txn_manager, info.table, column_ids=[0])
        full = aggregate(
            full_scanner, value_column=0, filter_column=0,
            predicate=lambda col: (col >= low) & (col <= high),
        )
        assert pruned.count == full.count == high - low + 1
        assert pruned.total == full.total
        assert pruned_scanner.blocks_pruned > 0

    def test_open_ended_ranges(self):
        db, info = build()
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0], range_filters={0: (1000, None)}
        )
        list(scanner.batches())
        assert scanner.blocks_pruned >= 1
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0], range_filters={0: (None, 10)}
        )
        list(scanner.batches())
        assert scanner.blocks_pruned >= 1

    def test_hot_blocks_pruned_via_write_side_maps(self):
        # Reheating seeds the widen-only hot zone maps from the frozen
        # ones, so hot blocks stay prunable (and stay correct).
        db, info = build()
        for block in list(info.table.blocks):
            block.touch_hot()
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0], range_filters={0: (0, 1)}
        )
        result = aggregate(
            scanner, value_column=0, filter_column=0,
            predicate=lambda col: (col >= 0) & (col <= 1),
        )
        assert result.count == 2
        assert scanner.blocks_pruned >= 1

    def test_hot_zone_maps_widen_on_write(self):
        # Writing an out-of-range value into a reheated block widens its
        # hot map, so the block is no longer pruned for that range.
        db, info = build()
        last = info.table.blocks[-1]
        last.touch_hot()
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0], range_filters={0: (-5, -1)}
        )
        assert sum(b.selected_count for b in scanner.batches()) == 0
        assert scanner.blocks_pruned == len(info.table.blocks)
        with db.transaction() as txn:
            info.table.insert(txn, {0: -3, 1: "below-range"})
        scanner = TableScanner(
            db.txn_manager, info.table, column_ids=[0], range_filters={0: (-5, -1)}
        )
        assert sum(b.selected_count for b in scanner.batches()) == 1

    def test_no_filters_means_no_pruning(self):
        db, info = build()
        scanner = TableScanner(db.txn_manager, info.table, column_ids=[0])
        total = sum(b.num_rows for b in scanner.batches())
        assert total == 1200
        assert scanner.blocks_pruned == 0


class TestReheatDuringGather:
    def test_reheat_never_iterates_maps_a_gather_rewrites(self):
        # The interleaving behind a rare "dictionary changed size during
        # iteration" under TPC-C: a writer reheats a frozen block and,
        # while it folds the frozen zone maps into the hot ones, the
        # transformer cools and freezes the block again (a table without
        # varlen columns gathers without taking the write latch) and its
        # gather rewrites the zone maps.  Events pin the writer inside the
        # fold and the gather inside the rewrite.
        import threading

        from repro.transform.gather import gather_block

        db = Database(logging_enabled=False, cold_threshold_epochs=1)
        info = db.create_table(
            "f", [ColumnSpec("id", INT64), ColumnSpec("v", INT64)],
            block_size=1 << 13, watch_cold=True,
        )
        with db.transaction() as txn:
            for i in range(1200):
                info.table.insert(txn, {0: i, 1: -i})
        db.freeze_table("f")
        block = next(b for b in info.table.blocks if b.state is BlockState.FROZEN)
        exact = dict(block.zone_maps)
        assert len(exact) == 2

        writer_folding = threading.Event()
        gather_rewriting = threading.Event()
        writer_folded = threading.Event()

        class PausingMap(dict):
            def get(self, key, default=None):
                if not writer_folding.is_set():
                    writer_folding.set()
                    gather_rewriting.wait(5)
                return super().get(key, default)

        block.hot_zone_maps = PausingMap()
        wait_for_readers = block.wait_for_readers

        def folded_then_wait(timeout=None):
            writer_folded.set()
            return wait_for_readers(timeout)

        block.wait_for_readers = folded_then_wait
        failures = []

        def reheat():
            try:
                block.touch_hot()
            except Exception as exc:  # the race surfaces in the writer
                failures.append(exc)
                writer_folded.set()

        writer = threading.Thread(target=reheat)
        writer.start()
        assert writer_folding.wait(5)
        assert block.compare_and_swap_state(BlockState.HOT, BlockState.COOLING)
        assert block.compare_and_swap_state(BlockState.COOLING, BlockState.FREEZING)
        column_view = block.column_view

        def rewriting_view(column_id):
            gather_rewriting.set()
            writer_folded.wait(5)
            return column_view(column_id)

        block.column_view = rewriting_view
        try:
            gather_block(block)
        finally:
            del block.column_view
            gather_rewriting.set()
        block.set_state(BlockState.FROZEN)
        writer.join(5)
        assert not writer.is_alive()
        assert failures == []
        assert block.zone_maps == exact
        # The block left HOT under the writer, so the writer went round
        # again: it reheated the re-frozen block and seeded the new maps.
        assert block.state is BlockState.HOT
        assert block.hot_zone_maps == {c: [low, high] for c, (low, high) in exact.items()}
