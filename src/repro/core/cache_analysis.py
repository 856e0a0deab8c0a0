"""LRU caching analysis (paper Finding 15).

For each volume, simulate a unified read+write LRU cache sized to a
fraction of the volume's working set and report per-op miss ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

from ..cache.base import CachePolicy
from ..cache.lru import LRUCache
from ..cache.simulator import CacheSimResult, simulate_stream
from ..trace.blocks import BlockEvents, block_events
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE

__all__ = [
    "DEFAULT_CACHE_FRACTIONS",
    "VolumeCacheResult",
    "volume_miss_ratios",
    "event_miss_ratios",
    "pool_miss_ratios",
    "dataset_miss_ratios",
    "MissRatioSummary",
]

#: WSS fractions the paper evaluates (1% and 10%).
DEFAULT_CACHE_FRACTIONS = (0.01, 0.10)


@dataclass(frozen=True)
class VolumeCacheResult:
    """Miss ratios of one volume at one cache size."""

    volume_id: str
    cache_fraction: float
    capacity_blocks: int
    result: CacheSimResult

    @property
    def read_miss_ratio(self) -> float:
        return self.result.read_miss_ratio

    @property
    def write_miss_ratio(self) -> float:
        return self.result.write_miss_ratio


def volume_miss_ratios(
    trace: VolumeTrace,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    block_size: int = DEFAULT_BLOCK_SIZE,
    policy_factory: Callable[[int], CachePolicy] = LRUCache,
) -> List[VolumeCacheResult]:
    """Simulate caches sized to fractions of the volume's WSS.

    The block-event expansion is shared across cache sizes; capacity is
    ``max(1, round(fraction * WSS_blocks))``.
    """
    ev = block_events(trace, block_size)
    wss_blocks = len(np.unique(ev.block_id)) if len(ev) else 0
    return event_miss_ratios(trace.volume_id, ev, wss_blocks, cache_fractions, policy_factory)


def event_miss_ratios(
    volume_id: str,
    ev: BlockEvents,
    wss_blocks: int,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    policy_factory: Callable[[int], CachePolicy] = LRUCache,
) -> List[VolumeCacheResult]:
    """:func:`volume_miss_ratios` of already expanded events whose working
    set spans ``wss_blocks`` distinct blocks."""
    out: List[VolumeCacheResult] = []
    for frac in cache_fractions:
        if not 0 < frac <= 1:
            raise ValueError(f"cache fraction must be in (0, 1], got {frac}")
        if wss_blocks == 0:
            continue
        capacity = max(1, int(round(frac * wss_blocks)))
        result = simulate_stream(ev.block_id, ev.is_write, policy_factory(capacity))
        out.append(
            VolumeCacheResult(
                volume_id=volume_id,
                cache_fraction=frac,
                capacity_blocks=capacity,
                result=result,
            )
        )
    return out


@dataclass(frozen=True)
class MissRatioSummary:
    """Per-op miss-ratio samples across a fleet, keyed by cache fraction."""

    read: Dict[float, np.ndarray]
    write: Dict[float, np.ndarray]

    def fractions(self) -> List[float]:
        return sorted(self.read)


def dataset_miss_ratios(
    dataset: TraceDataset,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    block_size: int = DEFAULT_BLOCK_SIZE,
    policy_factory: Callable[[int], CachePolicy] = LRUCache,
) -> MissRatioSummary:
    """Per-volume miss ratios across the fleet (paper Figure 18 data).

    Volumes without reads (writes) contribute no sample to the read
    (write) distribution at that cache size.
    """
    return pool_miss_ratios(
        (
            volume_miss_ratios(trace, cache_fractions, block_size, policy_factory)
            for trace in dataset.volumes()
        ),
        cache_fractions,
    )


def pool_miss_ratios(
    per_volume: Iterable[List[VolumeCacheResult]], cache_fractions: Sequence[float]
) -> MissRatioSummary:
    """Collect per-volume results into per-op samples, in the given volume
    order.  Volumes without reads (writes) contribute no read (write)
    sample at that cache size."""
    read: Dict[float, List[float]] = {float(f): [] for f in cache_fractions}
    write: Dict[float, List[float]] = {float(f): [] for f in cache_fractions}
    for results in per_volume:
        for res in results:
            if res.result.n_reads:
                read[res.cache_fraction].append(res.read_miss_ratio)
            if res.result.n_writes:
                write[res.cache_fraction].append(res.write_miss_ratio)
    return MissRatioSummary(
        read={f: np.asarray(v) for f, v in read.items()},
        write={f: np.asarray(v) for f, v in write.items()},
    )
