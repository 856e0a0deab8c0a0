"""Request-to-block mapping.

The paper's spatial and temporal metrics operate at block granularity
(default 4 KiB): working sets, read-/write-mostly classification,
RAW/WAW/RAR/WAR transitions, and cache simulation all reason about the
fixed-size blocks a request touches.  This module converts columnar request
arrays into per-(request, block) event arrays, fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dataset import VolumeTrace
from .record import DEFAULT_BLOCK_SIZE

__all__ = [
    "block_range",
    "expand_to_blocks",
    "BlockEvents",
    "block_events",
    "unique_blocks",
    "working_set_size",
    "block_traffic",
    "event_traffic",
    "count_block_events",
]


def block_range(offset: int, size: int, block_size: int = DEFAULT_BLOCK_SIZE) -> Tuple[int, int]:
    """First block index and number of blocks touched by a request."""
    if size <= 0:
        raise ValueError("size must be positive")
    first = offset // block_size
    last = (offset + size - 1) // block_size
    return first, last - first + 1


def _blocks_per_request(offsets: np.ndarray, sizes: np.ndarray, block_size: int) -> np.ndarray:
    return (offsets + sizes - 1) // block_size - offsets // block_size + 1


def count_block_events(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Number of (request, block) events :func:`block_events` would yield,
    without materializing them (a cheap per-volume cost estimate)."""
    return int(_blocks_per_request(trace.offsets, trace.sizes, block_size).sum())


def expand_to_blocks(
    offsets: np.ndarray,
    sizes: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand requests into per-block touches.

    Returns ``(req_index, block_id, nbytes)`` arrays where row *k* says
    request ``req_index[k]`` touches block ``block_id[k]`` with
    ``nbytes[k]`` bytes (partial at the first/last block of an unaligned
    request).  Rows are ordered by request then ascending block.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    n = len(offsets)
    if n == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    first = offsets // block_size
    counts = _blocks_per_request(offsets, sizes, block_size)
    total = int(counts.sum())
    req_index = np.repeat(np.arange(n, dtype=np.int64), counts)
    # Concatenated per-request aranges: position within each request's span.
    starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    block_id = np.repeat(first, counts) + within
    # Byte attribution: intersection of [offset, offset+size) with each block.
    block_lo = block_id * block_size
    block_hi = block_lo + block_size
    req_lo = np.repeat(offsets, counts)
    req_hi = req_lo + np.repeat(sizes, counts)
    nbytes = np.minimum(block_hi, req_hi) - np.maximum(block_lo, req_lo)
    return req_index, block_id, nbytes


@dataclass(frozen=True)
class BlockEvents:
    """Per-(request, block) touch events of one volume, in request order.

    Attributes:
        block_id: block index touched.
        timestamps: arrival time of the owning request.
        is_write: op type of the owning request.
        nbytes: bytes of the request falling inside the block.
        req_index: row index of the owning request in the source trace.
        block_size: block granularity used for the expansion.
    """

    block_id: np.ndarray
    timestamps: np.ndarray
    is_write: np.ndarray
    nbytes: np.ndarray
    req_index: np.ndarray
    block_size: int

    def __len__(self) -> int:
        return len(self.block_id)

    def reads(self) -> "BlockEvents":
        return self._select(~self.is_write)

    def writes(self) -> "BlockEvents":
        return self._select(self.is_write)

    def _select(self, mask: np.ndarray) -> "BlockEvents":
        return BlockEvents(
            self.block_id[mask],
            self.timestamps[mask],
            self.is_write[mask],
            self.nbytes[mask],
            self.req_index[mask],
            self.block_size,
        )


def block_events(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> BlockEvents:
    """Expand a volume trace into time-ordered :class:`BlockEvents`."""
    req_index, block_id, nbytes = expand_to_blocks(trace.offsets, trace.sizes, block_size)
    return BlockEvents(
        block_id=block_id,
        timestamps=trace.timestamps[req_index],
        is_write=trace.is_write[req_index],
        nbytes=nbytes,
        req_index=req_index,
        block_size=block_size,
    )


def unique_blocks(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Sorted array of distinct block ids touched by the trace."""
    _, block_id, _ = expand_to_blocks(trace.offsets, trace.sizes, block_size)
    return np.unique(block_id)


def working_set_size(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Working set size in bytes: #distinct blocks touched x block size."""
    return len(unique_blocks(trace, block_size)) * block_size


def block_traffic(
    trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block read and write traffic.

    Returns ``(blocks, read_bytes, write_bytes)`` where ``blocks`` is the
    sorted distinct block ids and the byte arrays give each block's total
    read and write traffic.
    """
    return event_traffic(block_events(trace, block_size))


def event_traffic(ev: BlockEvents) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`block_traffic` of an already expanded :class:`BlockEvents`."""
    if len(ev) == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    blocks, inverse = np.unique(ev.block_id, return_inverse=True)
    read_bytes = np.bincount(
        inverse[~ev.is_write], weights=ev.nbytes[~ev.is_write], minlength=len(blocks)
    ).astype(np.int64)
    write_bytes = np.bincount(
        inverse[ev.is_write], weights=ev.nbytes[ev.is_write], minlength=len(blocks)
    ).astype(np.int64)
    return blocks, read_bytes, write_bytes
