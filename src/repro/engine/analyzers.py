"""The engine's built-in analyzer: the streaming volume profile.

:class:`StreamingProfileAnalyzer` re-expresses
:mod:`repro.core.streaming_profile` as a mergeable fold over columnar
chunks and produces the same
:class:`~repro.core.streaming_profile.StreamingVolumeProfile`: exact
request/traffic counters, reservoir samples of request sizes and
inter-arrival times, and HyperLogLog working-set sketches.  The paper's
exact per-volume metrics (load intensity, spatial, temporal, cache) run
through :func:`repro.core.volume_profile.volume_suite` instead.

Exact counters are *exact*: chunked and parallel runs reproduce the
single-pass numbers bit-for-bit because states carry their first/last
timestamps, which is all ``merge`` needs to rebuild the cross-boundary
inter-arrival gap.  Sketches are deterministic for a given volume id
regardless of chunk size or worker count (sketch seeds hash the volume
id; merges happen in fixed order).

The analyzer requires each volume's chunks in time order, the order
trace files are written in.  It declares honest ``required_columns``
(no ``response_times``) so the planner (:mod:`repro.engine.plan`) can
prune what it does not read, and accepts an optional ``row_predicate``
restricting it to a time window / volume set / op kind of its own.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.streaming_profile import StreamingVolumeProfile
from ..stats.hll import HyperLogLog
from ..stats.streaming import ReservoirSampler
from ..trace.record import DEFAULT_BLOCK_SIZE
from .analyzer import DEFAULT_PERCENTILES, reservoir_percentiles, volume_seed
from .chunks import Chunk
from .plan import RowPredicate

__all__ = ["StreamingProfileAnalyzer", "DEFAULT_RESERVOIR_SIZE"]

#: Default reservoir capacity for quantile estimates (matches the legacy
#: streaming profiler).
DEFAULT_RESERVOIR_SIZE = 4096


def _new_reservoir(volume_id: str, salt: int, capacity: int) -> ReservoirSampler:
    return ReservoirSampler(
        capacity, np.random.default_rng(volume_seed(volume_id, salt))
    )


def _check_order(state_last: Optional[float], timestamps: np.ndarray) -> None:
    if len(timestamps) == 0:
        return
    if state_last is not None and timestamps[0] < state_last:
        raise ValueError("requests must be fed in timestamp order")


class _ProfileState:
    __slots__ = (
        "volume_id",
        "n_reads",
        "n_writes",
        "read_bytes",
        "write_bytes",
        "first_ts",
        "last_ts",
        "sizes",
        "gaps",
        "wss_total",
        "wss_read",
        "wss_write",
    )

    def __init__(self, volume_id: str, reservoir_size: int, hll_precision: int) -> None:
        seed = volume_seed(volume_id, 3)
        self.volume_id = volume_id
        self.n_reads = 0
        self.n_writes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.sizes = _new_reservoir(volume_id, 20, reservoir_size)
        self.gaps = _new_reservoir(volume_id, 21, reservoir_size)
        self.wss_total = HyperLogLog(hll_precision, seed=seed)
        self.wss_read = HyperLogLog(hll_precision, seed=seed)
        self.wss_write = HyperLogLog(hll_precision, seed=seed)


class StreamingProfileAnalyzer:
    """The legacy bounded-memory volume profile as an engine fold.

    Produces the same :class:`~repro.core.streaming_profile.StreamingVolumeProfile`
    dataclass as :class:`~repro.core.streaming_profile.StreamingVolumeProfiler`,
    with identical exact counters; sketch seeds hash the volume id (instead
    of arrival order) so results are reproducible under parallel fan-out.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        hll_precision: int = 14,
        percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES,
        row_predicate: Optional[RowPredicate] = None,
    ) -> None:
        self.name = "streaming_profile"
        self.block_size = block_size
        self.reservoir_size = reservoir_size
        self.hll_precision = hll_precision
        self.percentiles = percentiles
        self.required_columns = ("timestamps", "offsets", "sizes", "is_write")
        self.row_predicate = row_predicate

    def init_state(self, volume_id: str) -> _ProfileState:
        return _ProfileState(volume_id, self.reservoir_size, self.hll_precision)

    def consume(self, state: _ProfileState, chunk: Chunk) -> _ProfileState:
        n = len(chunk)
        if n == 0:
            return state
        ts = chunk.timestamps
        _check_order(state.last_ts, ts)
        gaps = np.diff(ts)
        if len(gaps) and np.any(gaps < 0):
            raise ValueError("requests must be fed in timestamp order")
        n_writes = int(np.count_nonzero(chunk.is_write))
        write_bytes = int(chunk.sizes[chunk.is_write].sum())
        state.n_writes += n_writes
        state.n_reads += n - n_writes
        state.write_bytes += write_bytes
        state.read_bytes += int(chunk.sizes.sum()) - write_bytes
        if state.last_ts is None:
            state.first_ts = float(ts[0])
        else:
            # Prepend the cross-chunk gap so every gap flows through
            # add_array, whose RNG consumption is batching-invariant —
            # reservoir contents then do not depend on chunk size.
            gaps = np.concatenate(([float(ts[0]) - state.last_ts], gaps))
        state.gaps.add_array(gaps)
        state.last_ts = float(ts[-1])
        state.sizes.add_array(chunk.sizes.astype(np.float64))
        req_index, block_id = chunk.block_expansion(self.block_size)
        is_write = chunk.is_write[req_index]
        state.wss_total.add_many(block_id)
        state.wss_read.add_many(block_id[~is_write])
        state.wss_write.add_many(block_id[is_write])
        return state

    def merge(self, earlier: _ProfileState, later: _ProfileState) -> _ProfileState:
        if later.first_ts is None:
            return earlier
        if earlier.last_ts is None:
            return later
        if later.first_ts < earlier.last_ts:
            raise ValueError("merge requires time-ordered partial states")
        merged = _ProfileState(earlier.volume_id, self.reservoir_size, self.hll_precision)
        merged.n_reads = earlier.n_reads + later.n_reads
        merged.n_writes = earlier.n_writes + later.n_writes
        merged.read_bytes = earlier.read_bytes + later.read_bytes
        merged.write_bytes = earlier.write_bytes + later.write_bytes
        merged.first_ts = earlier.first_ts
        merged.last_ts = later.last_ts
        merged.sizes = earlier.sizes.merge(later.sizes)
        merged.gaps = earlier.gaps.merge(later.gaps)
        merged.gaps.add(later.first_ts - earlier.last_ts)
        merged.wss_total = earlier.wss_total.merge(later.wss_total)
        merged.wss_read = earlier.wss_read.merge(later.wss_read)
        merged.wss_write = earlier.wss_write.merge(later.wss_write)
        return merged

    def finalize(self, state: _ProfileState) -> StreamingVolumeProfile:
        if state.n_reads + state.n_writes == 0:
            # A predicate can filter a volume's rows down to nothing;
            # finalize must still produce a (empty) profile, not raise.
            return StreamingVolumeProfile(
                volume_id=state.volume_id,
                n_requests=0,
                n_reads=0,
                n_writes=0,
                read_bytes=0,
                write_bytes=0,
                start_time=float("nan"),
                end_time=float("nan"),
                wss_total_bytes=0.0,
                wss_read_bytes=0.0,
                wss_write_bytes=0.0,
                size_percentiles={},
                interarrival_percentiles={},
            )
        bs = self.block_size
        return StreamingVolumeProfile(
            volume_id=state.volume_id,
            n_requests=state.n_reads + state.n_writes,
            n_reads=state.n_reads,
            n_writes=state.n_writes,
            read_bytes=state.read_bytes,
            write_bytes=state.write_bytes,
            start_time=float(state.first_ts),
            end_time=float(state.last_ts),
            wss_total_bytes=state.wss_total.estimate() * bs,
            wss_read_bytes=state.wss_read.estimate() * bs,
            wss_write_bytes=state.wss_write.estimate() * bs,
            size_percentiles=reservoir_percentiles(state.sizes, self.percentiles),
            interarrival_percentiles=reservoir_percentiles(state.gaps, self.percentiles),
        )
