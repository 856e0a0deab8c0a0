"""Per-volume characterization: the metric suite and the profile.

:func:`volume_suite` is the one per-volume analysis path.  It expands a
volume into block events once and returns a small picklable
:class:`VolumeSummary` holding every block-level metric the paper uses
(spatial, temporal and caching).  ``evaluate_findings`` folds summaries
across a fleet; :func:`compute_profile` projects one summary, plus the
request-level load-intensity scalars, into a :class:`VolumeProfile` that
examples, the CLI and downstream tooling serialize.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List

import numpy as np

from ..trace.blocks import block_events, event_traffic
from ..trace.dataset import VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE
from .cache_analysis import DEFAULT_CACHE_FRACTIONS, VolumeCacheResult, event_miss_ratios
from .load_intensity import (
    average_intensity,
    burstiness_ratio,
    peak_intensity,
    write_read_ratio,
)
from .spatial import (
    MostlySums,
    WorkingSets,
    event_working_sets,
    mostly_sums,
    randomness_ratio,
    top_traffic_fraction,
)
from .temporal import (
    AdjacentAccessTimes,
    block_stream,
    stream_adjacent_access_times,
    stream_update_intervals,
)

__all__ = ["VolumeSummary", "volume_suite", "VolumeProfile", "compute_profile"]


@dataclass(frozen=True)
class VolumeSummary:
    """Every block-level per-volume metric, from one expansion."""

    n_requests: int
    randomness: float
    working_sets: WorkingSets
    top1_read: float
    top10_read: float
    top1_write: float
    top10_write: float
    mostly: MostlySums
    adjacent: AdjacentAccessTimes
    update_intervals: np.ndarray
    miss_ratios: List[VolumeCacheResult]


def volume_suite(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> VolumeSummary:
    """The per-volume metric suite: one block expansion, every metric.

    Each field equals the standalone per-volume function (e.g.
    ``working_sets(trace)``) because both call the same helpers; only the
    expansion and the (block, time) sort are shared.  Caches are
    simulated at :data:`~repro.core.cache_analysis.DEFAULT_CACHE_FRACTIONS`
    of the working set.  Module-level so the engine can pickle it to a
    pool worker.
    """
    ev = block_events(trace, block_size)
    _, read_bytes, write_bytes = event_traffic(ev)
    ws = event_working_sets(ev)
    stream = block_stream(ev)
    return VolumeSummary(
        n_requests=len(trace),
        randomness=randomness_ratio(trace),
        working_sets=ws,
        top1_read=top_traffic_fraction(read_bytes, 0.01),
        top10_read=top_traffic_fraction(read_bytes, 0.10),
        top1_write=top_traffic_fraction(write_bytes, 0.01),
        top10_write=top_traffic_fraction(write_bytes, 0.10),
        mostly=mostly_sums(read_bytes, write_bytes),
        adjacent=stream_adjacent_access_times(stream),
        update_intervals=stream_update_intervals(stream),
        miss_ratios=event_miss_ratios(
            trace.volume_id, ev, ws.total // block_size, DEFAULT_CACHE_FRACTIONS
        ),
    )


@dataclass(frozen=True)
class VolumeProfile:
    """All per-volume metrics from the paper's three analysis axes."""

    volume_id: str
    n_requests: int
    n_reads: int
    n_writes: int
    read_bytes: int
    write_bytes: int
    duration_seconds: float
    # Load intensity.
    average_intensity: float
    peak_intensity: float
    burstiness_ratio: float
    write_read_ratio: float
    # Spatial patterns.
    randomness_ratio: float
    working_sets: WorkingSets
    update_coverage: float
    top1_read_traffic: float
    top10_read_traffic: float
    top1_write_traffic: float
    top10_write_traffic: float
    read_to_read_mostly: float
    write_to_write_mostly: float
    # Temporal patterns.
    median_raw_time: float
    median_waw_time: float
    median_rar_time: float
    median_war_time: float
    median_update_interval: float
    # Caching (LRU at 1% and 10% of WSS).
    read_miss_ratio_1pct: float
    write_miss_ratio_1pct: float
    read_miss_ratio_10pct: float
    write_miss_ratio_10pct: float

    @property
    def is_write_dominant(self) -> bool:
        """Write-to-read ratio exceeds 1 (paper Section III-C)."""
        return self.write_read_ratio > 1

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-serializable dict (NaN preserved as float)."""
        d = asdict(self)
        d["working_sets"] = asdict(self.working_sets)
        return d


def _median_or_nan(values: np.ndarray) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def compute_profile(
    trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE
) -> VolumeProfile:
    """Compute the full characterization profile of one volume."""
    suite = volume_suite(trace, block_size)
    mostly = suite.mostly.fractions()
    at = suite.adjacent
    miss = {r.cache_fraction: r for r in suite.miss_ratios}

    def miss_ratio(frac: float, op: str) -> float:
        res = miss.get(frac)
        if res is None:
            return float("nan")
        return res.read_miss_ratio if op == "read" else res.write_miss_ratio

    return VolumeProfile(
        volume_id=trace.volume_id,
        n_requests=len(trace),
        n_reads=trace.n_reads,
        n_writes=trace.n_writes,
        read_bytes=trace.read_bytes,
        write_bytes=trace.write_bytes,
        duration_seconds=trace.duration if len(trace) else 0.0,
        average_intensity=average_intensity(trace),
        peak_intensity=peak_intensity(trace),
        burstiness_ratio=burstiness_ratio(trace),
        write_read_ratio=write_read_ratio(trace),
        randomness_ratio=suite.randomness,
        working_sets=suite.working_sets,
        update_coverage=suite.working_sets.update_coverage,
        top1_read_traffic=suite.top1_read,
        top10_read_traffic=suite.top10_read,
        top1_write_traffic=suite.top1_write,
        top10_write_traffic=suite.top10_write,
        read_to_read_mostly=mostly.read_to_read_mostly,
        write_to_write_mostly=mostly.write_to_write_mostly,
        median_raw_time=_median_or_nan(at.raw),
        median_waw_time=_median_or_nan(at.waw),
        median_rar_time=_median_or_nan(at.rar),
        median_war_time=_median_or_nan(at.war),
        median_update_interval=_median_or_nan(suite.update_intervals),
        read_miss_ratio_1pct=miss_ratio(0.01, "read"),
        write_miss_ratio_1pct=miss_ratio(0.01, "write"),
        read_miss_ratio_10pct=miss_ratio(0.10, "read"),
        write_miss_ratio_10pct=miss_ratio(0.10, "write"),
    )
