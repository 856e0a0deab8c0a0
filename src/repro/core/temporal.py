"""Temporal-pattern metrics (paper Section IV-C, Findings 12-14).

Covers the four adjacent-access transition types to the same block —
read-after-write (RAW), write-after-write (WAW), read-after-read (RAR),
write-after-read (WAR) — their elapsed-time distributions and counts, plus
block update intervals (time between consecutive writes to a block, reads
permitted in between).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional

import numpy as np

from ..trace.blocks import BlockEvents, block_events
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE

__all__ = [
    "TRANSITION_TYPES",
    "AdjacentAccessTimes",
    "BlockStream",
    "block_stream",
    "adjacent_access_times",
    "stream_adjacent_access_times",
    "pool_adjacent_access_times",
    "dataset_adjacent_access_times",
    "adjacent_access_counts",
    "update_intervals",
    "stream_update_intervals",
    "pool_update_intervals",
    "dataset_update_intervals",
]

#: Transition names keyed by (previous op was write, current op is write).
TRANSITION_TYPES = {
    (True, False): "RAW",
    (True, True): "WAW",
    (False, False): "RAR",
    (False, True): "WAR",
}


@dataclass(frozen=True)
class AdjacentAccessTimes:
    """Elapsed times (seconds) of same-block adjacent accesses, by type."""

    raw: np.ndarray
    waw: np.ndarray
    rar: np.ndarray
    war: np.ndarray

    def counts(self) -> Dict[str, int]:
        return {
            "RAW": len(self.raw),
            "WAW": len(self.waw),
            "RAR": len(self.rar),
            "WAR": len(self.war),
        }

    def get(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name.lower())
        except AttributeError:
            raise KeyError(f"unknown transition type: {name!r}") from None


class BlockStream(NamedTuple):
    """A volume's block events sorted by (block, time, request order)."""

    block_id: np.ndarray
    timestamps: np.ndarray
    is_write: np.ndarray


def block_stream(ev: BlockEvents) -> Optional[BlockStream]:
    """Sort block events by (block, time), preserving request order for
    simultaneous accesses to a block; None when there are no events."""
    if len(ev) == 0:
        return None
    order = np.lexsort((ev.req_index, ev.timestamps, ev.block_id))
    return BlockStream(ev.block_id[order], ev.timestamps[order], ev.is_write[order])


def adjacent_access_times(
    trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE
) -> AdjacentAccessTimes:
    """Classify every same-block adjacent access pair of the volume.

    Each consecutive pair of accesses to the same block contributes one
    elapsed time to exactly one of the four transition types, keyed by the
    (previous, current) op pair.
    """
    return stream_adjacent_access_times(block_stream(block_events(trace, block_size)))


def stream_adjacent_access_times(stream: Optional[BlockStream]) -> AdjacentAccessTimes:
    """:func:`adjacent_access_times` of an already sorted :class:`BlockStream`."""
    if stream is None:
        empty = np.array([], dtype=np.float64)
        return AdjacentAccessTimes(empty, empty.copy(), empty.copy(), empty.copy())
    block_id, ts, is_write = stream
    same_block = block_id[1:] == block_id[:-1]
    dt = (ts[1:] - ts[:-1])[same_block]
    prev_w = is_write[:-1][same_block]
    cur_w = is_write[1:][same_block]
    return AdjacentAccessTimes(
        raw=dt[prev_w & ~cur_w],
        waw=dt[prev_w & cur_w],
        rar=dt[~prev_w & ~cur_w],
        war=dt[~prev_w & cur_w],
    )


def _concat(arrays: Iterable[np.ndarray]) -> np.ndarray:
    nonempty = [a for a in arrays if len(a)]
    return np.concatenate(nonempty) if nonempty else np.array([], dtype=np.float64)


def pool_adjacent_access_times(per_volume: Iterable[AdjacentAccessTimes]) -> AdjacentAccessTimes:
    """Concatenate per-volume transition times, in the given volume order."""
    parts = list(per_volume)
    return AdjacentAccessTimes(
        raw=_concat(p.raw for p in parts),
        waw=_concat(p.waw for p in parts),
        rar=_concat(p.rar for p in parts),
        war=_concat(p.war for p in parts),
    )


def dataset_adjacent_access_times(
    dataset: TraceDataset, block_size: int = DEFAULT_BLOCK_SIZE
) -> AdjacentAccessTimes:
    """Fleet-level pooled transition times (paper Figures 14-15, Table V)."""
    return pool_adjacent_access_times(
        adjacent_access_times(trace, block_size) for trace in dataset.volumes()
    )


def adjacent_access_counts(
    dataset: TraceDataset, block_size: int = DEFAULT_BLOCK_SIZE
) -> Dict[str, int]:
    """Fleet-level RAW/WAW/RAR/WAR counts (paper Table V).

    Callers that also need the times should take
    ``dataset_adjacent_access_times(...).counts()`` instead of paying for
    a second pass.
    """
    return dataset_adjacent_access_times(dataset, block_size).counts()


def update_intervals(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Elapsed times between consecutive *writes* to the same block.

    Unlike WAW times, reads may occur between the two writes; a block
    written M times contributes M-1 intervals (Finding 14).
    """
    return stream_update_intervals(block_stream(block_events(trace.writes(), block_size)))


def stream_update_intervals(stream: Optional[BlockStream]) -> np.ndarray:
    """:func:`update_intervals` of a sorted :class:`BlockStream`.

    Reads in the stream are dropped first; filtering keeps the
    (block, time, request order) sort, so a whole-volume stream yields
    exactly what the writes-only stream does.
    """
    if stream is None:
        return np.array([], dtype=np.float64)
    writes = stream.is_write
    block_id, ts = stream.block_id[writes], stream.timestamps[writes]
    same_block = block_id[1:] == block_id[:-1]
    return (ts[1:] - ts[:-1])[same_block]


def pool_update_intervals(per_volume: Iterable[np.ndarray]) -> np.ndarray:
    """Concatenate per-volume update intervals, in the given volume order."""
    return _concat(per_volume)


def dataset_update_intervals(
    dataset: TraceDataset, block_size: int = DEFAULT_BLOCK_SIZE
) -> np.ndarray:
    """Pooled update intervals across the fleet (paper Table VI)."""
    return pool_update_intervals(update_intervals(v, block_size) for v in dataset.volumes())
