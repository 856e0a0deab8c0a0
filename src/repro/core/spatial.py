"""Spatial-pattern metrics (paper Section IV-B, Findings 8-11).

Covers request randomness (minimum offset distance over a sliding window of
recent requests), traffic aggregation in the hottest blocks,
read-mostly/write-mostly block classification, and update coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..trace.blocks import BlockEvents, block_events, block_traffic
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE

__all__ = [
    "DEFAULT_RANDOMNESS_WINDOW",
    "DEFAULT_RANDOMNESS_THRESHOLD",
    "random_request_mask",
    "randomness_ratio",
    "topk_block_traffic_fraction",
    "top_traffic_fraction",
    "MostlyTraffic",
    "MostlySums",
    "mostly_sums",
    "mostly_traffic",
    "pool_mostly_traffic",
    "dataset_mostly_traffic",
    "WorkingSets",
    "working_sets",
    "event_working_sets",
    "update_coverage",
]

#: Number of preceding requests compared against (paper / DiskAccel: 32).
DEFAULT_RANDOMNESS_WINDOW = 32

#: Offset-distance threshold beyond which a request is random (128 KiB).
DEFAULT_RANDOMNESS_THRESHOLD = 128 * 1024

#: Fraction of a block's traffic that must be reads (writes) for the block
#: to be read-mostly (write-mostly); the paper uses 95%.
MOSTLY_THRESHOLD = 0.95


def random_request_mask(
    trace: VolumeTrace,
    window: int = DEFAULT_RANDOMNESS_WINDOW,
    threshold: int = DEFAULT_RANDOMNESS_THRESHOLD,
) -> np.ndarray:
    """Boolean mask marking the random requests of a volume.

    A request is *random* when the minimum absolute distance between its
    offset and the offsets of the previous ``window`` requests exceeds
    ``threshold`` bytes.  The first request has no predecessors and is
    counted as random (it cannot be near any recent request).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    offsets = trace.offsets.astype(np.float64)
    n = len(offsets)
    if n == 0:
        return np.array([], dtype=bool)
    min_dist = np.full(n, np.inf)
    # One vectorized pass per lag: distance to the request `lag` positions
    # earlier; the running minimum over lags 1..window gives the metric.
    for lag in range(1, min(window, n - 1) + 1):
        d = np.abs(offsets[lag:] - offsets[:-lag])
        np.minimum(min_dist[lag:], d, out=min_dist[lag:])
    return min_dist > threshold


def randomness_ratio(
    trace: VolumeTrace,
    window: int = DEFAULT_RANDOMNESS_WINDOW,
    threshold: int = DEFAULT_RANDOMNESS_THRESHOLD,
) -> float:
    """Fraction of a volume's requests classified as random (Finding 8)."""
    if len(trace) == 0:
        return float("nan")
    return float(random_request_mask(trace, window, threshold).mean())


def topk_block_traffic_fraction(
    trace: VolumeTrace,
    top_fraction: float,
    op: str,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> float:
    """Fraction of read (or write) traffic landing in the hottest blocks.

    ``top_fraction`` selects the top-N% of the op's distinct blocks ranked
    by that op's per-block traffic (Finding 9: top-1% and top-10%).  At
    least one block is always selected.  NaN when the volume has no traffic
    of the requested op.
    """
    if op not in ("read", "write"):
        raise ValueError(f"op must be 'read' or 'write', got {op!r}")
    _, read_bytes, write_bytes = block_traffic(trace, block_size)
    return top_traffic_fraction(read_bytes if op == "read" else write_bytes, top_fraction)


def top_traffic_fraction(traffic: np.ndarray, top_fraction: float) -> float:
    """Share of one op's per-block ``traffic`` held by its hottest blocks
    (the per-volume core of :func:`topk_block_traffic_fraction`)."""
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    traffic = traffic[traffic > 0]
    if len(traffic) == 0:
        return float("nan")
    total = traffic.sum()
    k = max(1, int(len(traffic) * top_fraction))
    top = np.sort(traffic)[-k:]
    return float(top.sum() / total)


@dataclass(frozen=True)
class MostlyTraffic:
    """Traffic going to read-mostly / write-mostly blocks (Finding 10)."""

    read_to_read_mostly: float
    write_to_write_mostly: float


@dataclass(frozen=True)
class MostlySums:
    """One volume's (or a fleet's) Finding 10 byte sums.

    Read bytes landing in read-mostly blocks, write bytes landing in
    write-mostly blocks, and the read and write totals they divide by.
    """

    read_to_read_mostly: float = 0.0
    write_to_write_mostly: float = 0.0
    total_read: float = 0.0
    total_write: float = 0.0

    def __add__(self, other: "MostlySums") -> "MostlySums":
        return MostlySums(
            self.read_to_read_mostly + other.read_to_read_mostly,
            self.write_to_write_mostly + other.write_to_write_mostly,
            self.total_read + other.total_read,
            self.total_write + other.total_write,
        )

    def fractions(self) -> MostlyTraffic:
        nan = float("nan")
        return MostlyTraffic(
            read_to_read_mostly=(
                self.read_to_read_mostly / self.total_read if self.total_read > 0 else nan
            ),
            write_to_write_mostly=(
                self.write_to_write_mostly / self.total_write if self.total_write > 0 else nan
            ),
        )


def mostly_sums(
    read_bytes: np.ndarray, write_bytes: np.ndarray, threshold: float = MOSTLY_THRESHOLD
) -> MostlySums:
    """Classify one volume's blocks from their per-block read/write traffic.

    Block classification is per volume (block ids are per-volume address
    spaces); the sums it returns add up across a fleet.
    """
    total = read_bytes + write_bytes
    touched = total > 0
    rb, wb, tot = read_bytes[touched], write_bytes[touched], total[touched]
    read_mostly = rb >= threshold * tot
    write_mostly = wb >= threshold * tot
    return MostlySums(
        read_to_read_mostly=float(rb[read_mostly].sum()),
        write_to_write_mostly=float(wb[write_mostly].sum()),
        total_read=float(rb.sum()),
        total_write=float(wb.sum()),
    )


def mostly_traffic(
    trace: VolumeTrace,
    threshold: float = MOSTLY_THRESHOLD,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> MostlyTraffic:
    """Per-volume fractions of read traffic to read-mostly blocks and write
    traffic to write-mostly blocks."""
    return _volume_mostly_sums(trace, threshold, block_size).fractions()


def _volume_mostly_sums(trace: VolumeTrace, threshold: float, block_size: int) -> MostlySums:
    _, read_bytes, write_bytes = block_traffic(trace, block_size)
    return mostly_sums(read_bytes, write_bytes, threshold)


def pool_mostly_traffic(per_volume: Iterable[MostlySums]) -> MostlyTraffic:
    """Fleet fractions from per-volume sums, added in the given order."""
    pooled = MostlySums()
    for sums in per_volume:
        pooled = pooled + sums
    return pooled.fractions()


def dataset_mostly_traffic(
    dataset: TraceDataset,
    threshold: float = MOSTLY_THRESHOLD,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> MostlyTraffic:
    """Fleet-level Finding 10 numbers (paper Table III).

    Block classification happens per volume (block ids are per-volume
    address spaces), then traffic is summed across the fleet.
    """
    return pool_mostly_traffic(
        _volume_mostly_sums(trace, threshold, block_size) for trace in dataset.volumes()
    )


@dataclass(frozen=True)
class WorkingSets:
    """Working set sizes in bytes (Table I rows).

    ``update`` counts blocks written more than once; ``total`` counts all
    blocks touched by any request.
    """

    total: int
    read: int
    write: int
    update: int

    @property
    def update_coverage(self) -> float:
        """Update WSS / total WSS (Finding 11); NaN when nothing was touched."""
        if self.total == 0:
            return float("nan")
        return self.update / self.total


def working_sets(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> WorkingSets:
    """Total/read/write/update working set sizes of one volume."""
    return event_working_sets(block_events(trace, block_size))


def event_working_sets(ev: BlockEvents) -> WorkingSets:
    """:func:`working_sets` of an already expanded :class:`BlockEvents`."""
    if len(ev) == 0:
        return WorkingSets(0, 0, 0, 0)
    # One sort of (block, op) keys: a block's read key sorts just before
    # its write key, and a write key's count is the block's write touches.
    keys = ev.block_id << 1
    keys |= ev.is_write
    keys, touches = np.unique(keys, return_counts=True)
    blocks = keys >> 1
    written = (keys & 1).astype(bool)
    n_written = int(np.count_nonzero(written))
    block_size = ev.block_size
    return WorkingSets(
        total=(1 + int(np.count_nonzero(blocks[1:] != blocks[:-1]))) * block_size,
        read=(len(keys) - n_written) * block_size,
        write=n_written * block_size,
        update=int(np.count_nonzero(touches[written] > 1)) * block_size,
    )


def update_coverage(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> float:
    """Update WSS / total WSS of the volume (Finding 11); NaN when empty."""
    return working_sets(trace, block_size).update_coverage
