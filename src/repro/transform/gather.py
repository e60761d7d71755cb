"""Phase 2 of the transformation: the varlen gather (Section 4.3).

With exclusive access to a compacted block (state FREEZING), the gather
walks each variable-length column once, copying every live value into one
contiguous values buffer and building the Arrow offsets array.  Entries for
long values are rewritten in place to reference the gathered buffer (the
ownership bit flips off); short values stay inlined for transactional
readers, while the gathered buffer carries them for Arrow readers.  The old
out-of-line buffers are reclaimed through the GC's deferred-action queue so
no in-flight reader can observe freed memory (Section 4.4).

Reads remain safe throughout: the gather only changes the *physical
location* of values, never the logical content, and each entry rewrite is
atomic with respect to readers (an aligned-store argument in the paper; a
latch-protected store here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import BlockStateError, StorageError
from repro.storage.constants import VARLEN_INLINE_LIMIT, BlockState
from repro.storage.varlen import read_entry, read_value, write_gathered_entry

if TYPE_CHECKING:
    from repro.storage.block import RawBlock


@dataclass
class GatherStats:
    """What one gather pass did (drives Figure 12's breakdown)."""

    live_tuples: int = 0
    values_bytes: int = 0
    entries_rewritten: int = 0
    heap_entries_reclaimed: int = 0
    null_counts: dict[int, int] = field(default_factory=dict)


def live_prefix_length(block: "RawBlock") -> int:
    """Length of the dense tuple prefix; compaction must have produced one.

    Canonical Arrow forbids gaps, so gathering is only legal on blocks whose
    allocated slots are exactly ``0..n-1``.
    """
    live = block.live_slots()
    n = len(live)
    if n and (live[0] != 0 or live[-1] != n - 1):
        raise StorageError(
            f"block {block.block_id} is not compacted: live slots are not a prefix"
        )
    return n


def gather_block(
    block: "RawBlock",
    defer: Callable[[Callable[[], None]], None] | None = None,
) -> GatherStats:
    """Gather every varlen column of ``block`` into canonical Arrow buffers.

    ``defer`` receives the memory-reclamation action (freeing replaced heap
    entries); when ``None`` the action runs immediately — only safe when the
    caller knows no concurrent readers exist (single-threaded benchmarks).
    """
    if block.state is not BlockState.FREEZING:
        raise BlockStateError(
            f"gather requires FREEZING, block is {block.state.name}"
        )
    n = live_prefix_length(block)
    stats = GatherStats(live_tuples=n)
    to_free: list[tuple[int, int]] = []

    for column_id in block.layout.varlen_column_ids():
        heap = block.varlen_heaps[column_id]
        old_gathered = block.gathered.get(column_id)
        old_values = old_gathered[1] if old_gathered is not None else None
        validity = block.validity_bitmaps[column_id]
        offsets = np.zeros(n + 1, dtype=np.int32)
        chunks: list[bytes] = []
        nulls = 0
        cursor = 0
        entry_meta: list[tuple[int, int, int, bytes]] = []  # slot, size, offset, prefix
        for slot in range(n):
            if not validity.get(slot):
                nulls += 1
                offsets[slot + 1] = cursor
                continue
            view = block.varlen_entry_view(column_id, slot)
            value = read_value(view, heap, old_values)
            chunks.append(value)
            if len(value) > VARLEN_INLINE_LIMIT:
                entry = read_entry(view)
                if entry.owns_buffer:
                    to_free.append((column_id, entry.pointer))
                entry_meta.append((slot, len(value), cursor, value[:4]))
            cursor += len(value)
            offsets[slot + 1] = cursor
        values = np.frombuffer(b"".join(chunks), dtype=np.uint8).copy()
        # Rewrite long-value entries to reference the gathered buffer; each
        # 16-byte store happens under the write latch so readers never see
        # a torn entry.
        with block.write_latch:
            for slot, size, offset, prefix in entry_meta:
                write_gathered_entry(
                    block.varlen_entry_view(column_id, slot), size, prefix, offset
                )
            block.replace_gathered(column_id, offsets, values)
        stats.values_bytes += cursor
        stats.entries_rewritten += len(entry_meta)
        stats.null_counts[column_id] = nulls

    compute_fixed_metadata(block, n, stats.null_counts)

    stats.heap_entries_reclaimed = len(to_free)
    if to_free:
        reclaim = _make_reclaim(block, to_free)
        if defer is not None:
            defer(reclaim)
        else:
            reclaim()
    return stats


def compute_fixed_metadata(
    block: "RawBlock", n: int, null_counts: dict[int, int]
) -> None:
    """Null counts and zone maps for fixed-width columns.

    Computed in the same pass as the gather (the paper: "it also computes
    metadata information, such as null count, for Arrow's metadata").
    Shared by the plain gather and the dictionary-compression variant so a
    re-frozen block never carries stale zone maps.
    """
    zone_maps: dict[int, tuple[float, float]] = {}
    for column_id in block.layout.fixed_column_ids():
        validity = block.validity_bitmaps[column_id]
        valid_mask = validity.to_numpy()[:n] if n else None
        live_valid = int(valid_mask.sum()) if valid_mask is not None else 0
        null_counts[column_id] = n - live_valid
        spec = block.layout.columns[column_id]
        if live_valid and spec.dtype.numpy_dtype.kind in "iuf":  # type: ignore[union-attr]
            values = block.column_view(column_id)[:n][valid_mask]
            zone_maps[column_id] = (values.min().item(), values.max().item())
    # Published by assignment, never rewritten in place: a writer reheating
    # the block may still be iterating the previous maps
    # (RawBlock._seed_hot_zone_maps).  The exact frozen maps supersede the
    # widen-only hot maps; a later FROZEN→HOT transition re-seeds them.
    block.zone_maps = zone_maps
    block.hot_zone_maps = {}


def _make_reclaim(block: "RawBlock", to_free: list[tuple[int, int]]):
    def _reclaim() -> None:
        for column_id, heap_id in to_free:
            block.varlen_heaps[column_id].free(heap_id)

    return _reclaim
