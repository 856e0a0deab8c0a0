"""The paper's 15 findings as programmatic checks.

Each finding compares the "AliCloud-side" dataset against the "MSRC-side"
dataset and evaluates the paper's *qualitative* claim (direction of a
comparison, existence of a pattern) — not the absolute numbers, which
depend on the production environment.  ``evaluate_findings`` returns one
:class:`Finding` per paper finding with the measured evidence attached.

Block-level evidence (Findings 8-15) comes from :func:`volume_suite`, a
per-volume unit that expands the volume into block events once and
returns a small picklable :class:`VolumeSummary`.  The units fan out over
the engine's execution backend; the parent folds the summaries in
canonical volume order, so every pooled sum, concatenation, median and
percentile sees the same values in the same order at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..trace.blocks import block_events, count_block_events, event_traffic
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE
from .cache_analysis import (
    MissRatioSummary,
    VolumeCacheResult,
    event_miss_ratios,
    pool_miss_ratios,
)
from .load_intensity import (
    active_period_seconds,
    active_volume_timeseries,
    average_intensity,
    burstiness_ratio,
    interarrival_percentile_groups,
    overall_intensity,
)
from .spatial import (
    MostlySums,
    MostlyTraffic,
    event_working_sets,
    mostly_sums,
    pool_mostly_traffic,
    randomness_ratio,
    top_traffic_fraction,
)
from .temporal import (
    AdjacentAccessTimes,
    block_stream,
    pool_adjacent_access_times,
    pool_update_intervals,
    stream_adjacent_access_times,
    stream_update_intervals,
)

__all__ = [
    "Finding",
    "evaluate_findings",
    "FINDING_TITLES",
    "FINDING_CACHE_FRACTIONS",
    "VolumeSummary",
    "volume_suite",
]

#: Cache sizes (fractions of WSS) Finding 15 compares.
FINDING_CACHE_FRACTIONS = (0.01, 0.10)

FINDING_TITLES = {
    1: "Both traces have similar load intensities of volumes",
    2: "High burstiness in a non-negligible fraction of volumes, low overall",
    3: "AliCloud has more diverse burstiness across volumes than MSRC",
    4: "High short-term burstiness in inter-arrival times",
    5: "Most volumes active throughout; AliCloud more active",
    6: "Writes dominate activeness",
    7: "Removing writes drastically decreases activeness",
    8: "Random I/Os common; AliCloud more random than MSRC",
    9: "Reads/writes aggregate in small working sets; writes more aggregated",
    10: "Reads/writes aggregate in read-mostly/write-mostly blocks",
    11: "AliCloud has higher and more varied update coverage",
    12: "Large RAW time, small WAW time; AliCloud WAW count >> RAW count",
    13: "WAR time >> RAR time; RAR and WAR counts comparable",
    14: "Written blocks have varying update intervals",
    15: "Low miss ratios possible at small caches; AliCloud gains more from 1%->10%",
}


@dataclass
class Finding:
    """Result of checking one paper finding on a dataset pair."""

    id: int
    title: str
    holds: bool
    evidence: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "HOLDS" if self.holds else "DIFFERS"
        return f"Finding {self.id:2d} [{status}]: {self.title}"


@dataclass(frozen=True)
class VolumeSummary:
    """Every per-volume quantity Findings 8-15 consume, from one expansion."""

    n_requests: int
    randomness: float
    top10_read: float
    top10_write: float
    mostly: MostlySums
    update_coverage: float
    adjacent: AdjacentAccessTimes
    update_intervals: np.ndarray
    miss_ratios: List[VolumeCacheResult]


def volume_suite(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> VolumeSummary:
    """The per-volume metric suite: one block expansion, every metric.

    Each field equals the standalone per-volume function (e.g.
    ``update_coverage(trace)``) because both call the same helpers; only
    the expansion and the (block, time) sort are shared.  Module-level so
    the engine can pickle it to a pool worker.
    """
    ev = block_events(trace, block_size)
    _, read_bytes, write_bytes = event_traffic(ev)
    ws = event_working_sets(ev)
    stream = block_stream(ev)
    return VolumeSummary(
        n_requests=len(trace),
        randomness=randomness_ratio(trace),
        top10_read=top_traffic_fraction(read_bytes, 0.10),
        top10_write=top_traffic_fraction(write_bytes, 0.10),
        mostly=mostly_sums(read_bytes, write_bytes),
        update_coverage=ws.update_coverage,
        adjacent=stream_adjacent_access_times(stream),
        update_intervals=stream_update_intervals(stream),
        miss_ratios=event_miss_ratios(
            trace.volume_id, ev, ws.total // block_size, FINDING_CACHE_FRACTIONS
        ),
    )


def _finite(values: List[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr[np.isfinite(arr)]


def _volume_metric(dataset: TraceDataset, fn: Callable) -> np.ndarray:
    return _finite([fn(v) for v in dataset.volumes() if len(v)])


@dataclass(frozen=True)
class _FleetBlocks:
    """One fleet's block-level evidence, folded from its volume summaries."""

    randomness: np.ndarray
    top10_read: np.ndarray
    top10_write: np.ndarray
    mostly: MostlyTraffic
    update_coverage: np.ndarray
    adjacent: AdjacentAccessTimes
    update_intervals: np.ndarray
    miss_ratios: MissRatioSummary

    @classmethod
    def fold(cls, summaries: Sequence[VolumeSummary]) -> "_FleetBlocks":
        def per_volume(name: str) -> np.ndarray:
            return _finite([getattr(s, name) for s in summaries if s.n_requests])

        return cls(
            randomness=per_volume("randomness"),
            top10_read=per_volume("top10_read"),
            top10_write=per_volume("top10_write"),
            mostly=pool_mostly_traffic(s.mostly for s in summaries),
            update_coverage=per_volume("update_coverage"),
            adjacent=pool_adjacent_access_times(s.adjacent for s in summaries),
            update_intervals=pool_update_intervals(s.update_intervals for s in summaries),
            miss_ratios=pool_miss_ratios(
                (s.miss_ratios for s in summaries), FINDING_CACHE_FRACTIONS
            ),
        )


def _fleet_blocks(
    ali: TraceDataset,
    msrc: TraceDataset,
    block_size: int,
    workers: int,
    backend: Optional[str],
) -> Tuple[_FleetBlocks, _FleetBlocks]:
    """Run :func:`volume_suite` over both fleets, biggest volumes first."""
    from ..engine.runner import parallel_map

    volumes = ali.volumes() + msrc.volumes()
    summaries = parallel_map(
        volume_suite, volumes, workers,
        backend=backend,
        priorities=[float(count_block_events(v, block_size)) for v in volumes],
        block_size=block_size,
    )
    n_ali = ali.n_volumes
    return _FleetBlocks.fold(summaries[:n_ali]), _FleetBlocks.fold(summaries[n_ali:])


def evaluate_findings(
    ali: TraceDataset,
    msrc: TraceDataset,
    block_size: int = 4096,
    peak_interval: float = 60.0,
    activity_interval: float = 600.0,
    workers: int = 1,
    backend: Optional[str] = None,
) -> List[Finding]:
    """Evaluate all 15 findings on an (AliCloud-side, MSRC-side) pair.

    ``peak_interval`` and ``activity_interval`` are the paper's 1-minute
    and 10-minute windows; when evaluating time-compressed synthetic
    fleets pass ``scale.peak_interval`` / ``scale.activity_interval`` so
    the windows compress with the trace.  ``workers`` / ``backend``
    spread the per-volume suites (see :mod:`repro.engine.backends`); the
    result is identical for every setting.
    """
    findings: List[Finding] = []

    # --- Load intensity -----------------------------------------------------
    ali_avg = _volume_metric(ali, average_intensity)
    msrc_avg = _volume_metric(msrc, average_intensity)

    # Finding 1: similar per-volume intensity distributions — medians within
    # one order of magnitude and both dominated by <100 req/s volumes.
    med_a, med_m = float(np.median(ali_avg)), float(np.median(msrc_avg))
    f1 = (
        0.1 <= med_a / med_m <= 10
        and float(np.mean(ali_avg < 100)) > 0.9
        and float(np.mean(msrc_avg < 100)) > 0.9
    )
    findings.append(
        Finding(1, FINDING_TITLES[1], f1, {"median_avg_intensity": (med_a, med_m)})
    )

    # Finding 2: >=10% of volumes with burstiness > 100 in each trace, but
    # overall (aggregated) burstiness far below the bursty volumes' level.
    ali_burst = _volume_metric(ali, lambda v: burstiness_ratio(v, peak_interval))
    msrc_burst = _volume_metric(msrc, lambda v: burstiness_ratio(v, peak_interval))
    ov_a = overall_intensity(ali, peak_interval)
    ov_m = overall_intensity(msrc, peak_interval)
    frac_bursty_a = float(np.mean(ali_burst > 100))
    frac_bursty_m = float(np.mean(msrc_burst > 100))
    f2 = (
        frac_bursty_a > 0.05
        and frac_bursty_m > 0.05
        and ov_a.burstiness_ratio < 50
        and ov_m.burstiness_ratio < 50
    )
    findings.append(
        Finding(
            2,
            FINDING_TITLES[2],
            f2,
            {
                "frac_burstiness_gt_100": (frac_bursty_a, frac_bursty_m),
                "overall_burstiness": (ov_a.burstiness_ratio, ov_m.burstiness_ratio),
            },
        )
    )

    # Finding 3: AliCloud spans a wider burstiness range: more volumes at
    # both the low (<10) and the high (>1000) extremes.
    lo_a, lo_m = float(np.mean(ali_burst < 10)), float(np.mean(msrc_burst < 10))
    hi_a, hi_m = float(np.mean(ali_burst > 1000)), float(np.mean(msrc_burst > 1000))
    f3 = lo_a > lo_m and hi_a >= hi_m
    findings.append(
        Finding(3, FINDING_TITLES[3], f3, {"frac_lt_10": (lo_a, lo_m), "frac_gt_1000": (hi_a, hi_m)})
    )

    # Finding 4: medians of the 25/50/75th per-volume inter-arrival
    # percentiles are sub-second (high short-term burstiness) in both.
    ia_a = interarrival_percentile_groups(ali, (25, 50, 75))
    ia_m = interarrival_percentile_groups(msrc, (25, 50, 75))
    med_ia_a = {p: float(np.median(v)) for p, v in ia_a.items() if len(v)}
    med_ia_m = {p: float(np.median(v)) for p, v in ia_m.items() if len(v)}
    f4 = all(v < 2.0 for v in med_ia_a.values()) and all(v < 2.0 for v in med_ia_m.values())
    findings.append(
        Finding(4, FINDING_TITLES[4], f4, {"median_percentiles_ali": med_ia_a, "median_percentiles_msrc": med_ia_m})
    )

    # Findings 5-7 share the activity time series.
    interval = activity_interval
    ts_a = active_volume_timeseries(ali, interval)
    ts_m = active_volume_timeseries(msrc, interval)

    def active_fracs(dataset: TraceDataset, op=None) -> np.ndarray:
        t0, t1 = dataset.start_time, dataset.end_time
        span = max(t1 - t0, interval)
        return np.array(
            [
                active_period_seconds(v, t0, t1, interval, op) / span
                for v in dataset.volumes()
            ]
        )

    act_a, act_m = active_fracs(ali), active_fracs(msrc)
    # Finding 5: majority of volumes active >=95% of the trace period in
    # both, with AliCloud at least as active.
    frac95_a = float(np.mean(act_a >= 0.95))
    frac95_m = float(np.mean(act_m >= 0.95))
    f5 = frac95_a > 0.5 and frac95_m > 0.4 and frac95_a >= frac95_m
    findings.append(
        Finding(5, FINDING_TITLES[5], f5, {"frac_active_95pct": (frac95_a, frac95_m)})
    )

    # Finding 6: the write-active volume count tracks the active count.
    def overlap(ts) -> float:
        denom = np.maximum(ts.active, 1)
        return float(np.mean(ts.write_active / denom))

    ov6_a, ov6_m = overlap(ts_a), overlap(ts_m)
    f6 = ov6_a > 0.9 and ov6_m > 0.8
    findings.append(
        Finding(6, FINDING_TITLES[6], f6, {"write_active_over_active": (ov6_a, ov6_m)})
    )

    # Finding 7: dropping writes cuts the active-volume count substantially.
    def read_drop(ts) -> float:
        denom = np.maximum(ts.active, 1)
        return float(np.mean(1.0 - ts.read_active / denom))

    drop_a, drop_m = read_drop(ts_a), read_drop(ts_m)
    f7 = drop_a > 0.2 and drop_m > 0.1 and drop_a >= drop_m
    findings.append(
        Finding(7, FINDING_TITLES[7], f7, {"mean_active_reduction": (drop_a, drop_m)})
    )

    # --- Spatial patterns, temporal patterns, caching --------------------------
    # After the load-intensity findings, so their scratch arrays are freed
    # before the block-level summaries arrive.
    blocks_a, blocks_m = _fleet_blocks(ali, msrc, block_size, workers, backend)
    rnd_a, rnd_m = blocks_a.randomness, blocks_m.randomness
    f8 = float(np.median(rnd_a)) > float(np.median(rnd_m)) and float(np.mean(rnd_a > 0.5)) > 0.1
    findings.append(
        Finding(
            8,
            FINDING_TITLES[8],
            f8,
            {"median_randomness": (float(np.median(rnd_a)), float(np.median(rnd_m)))},
        )
    )

    # Finding 9: top-10% blocks absorb far more than 10% of traffic for the
    # median volume, and write aggregation beats read aggregation.
    r10_a, w10_a = blocks_a.top10_read, blocks_a.top10_write
    r10_m, w10_m = blocks_m.top10_read, blocks_m.top10_write
    f9 = (
        float(np.median(w10_a)) > 0.15
        and float(np.median(w10_m)) > 0.15
        and float(np.median(w10_a)) > float(np.median(r10_a))
    )
    findings.append(
        Finding(
            9,
            FINDING_TITLES[9],
            f9,
            {
                "median_top10_read": (float(np.median(r10_a)), float(np.median(r10_m))),
                "median_top10_write": (float(np.median(w10_a)), float(np.median(w10_m))),
            },
        )
    )

    # Finding 10: AliCloud read and write traffic mostly goes to read-mostly
    # and write-mostly blocks; MSRC write aggregation is weak.
    m_a, m_m = blocks_a.mostly, blocks_m.mostly
    f10 = (
        m_a.read_to_read_mostly > 0.5
        and m_a.write_to_write_mostly > 0.5
        and m_m.read_to_read_mostly > 0.5
        and m_a.write_to_write_mostly > m_m.write_to_write_mostly
    )
    findings.append(
        Finding(
            10,
            FINDING_TITLES[10],
            f10,
            {
                "ali": (m_a.read_to_read_mostly, m_a.write_to_write_mostly),
                "msrc": (m_m.read_to_read_mostly, m_m.write_to_write_mostly),
            },
        )
    )

    # Finding 11: AliCloud update coverage higher (median) and diverse.
    uc_a, uc_m = blocks_a.update_coverage, blocks_m.update_coverage
    f11 = float(np.median(uc_a)) > float(np.median(uc_m)) and float(np.std(uc_a)) > 0.1
    findings.append(
        Finding(
            11,
            FINDING_TITLES[11],
            f11,
            {"median_update_coverage": (float(np.median(uc_a)), float(np.median(uc_m)))},
        )
    )

    # --- Temporal patterns ----------------------------------------------------
    at_a, at_m = blocks_a.adjacent, blocks_m.adjacent
    counts_a, counts_m = at_a.counts(), at_m.counts()

    def med(arr: np.ndarray) -> float:
        return float(np.median(arr)) if len(arr) else float("nan")

    # Finding 12: RAW time >> WAW time in both; in AliCloud the WAW count
    # is several times the RAW count.
    f12 = (
        med(at_a.raw) > med(at_a.waw)
        and med(at_m.raw) > med(at_m.waw)
        and counts_a["WAW"] > 2 * counts_a["RAW"]
    )
    findings.append(
        Finding(
            12,
            FINDING_TITLES[12],
            f12,
            {
                "median_raw_s": (med(at_a.raw), med(at_m.raw)),
                "median_waw_s": (med(at_a.waw), med(at_m.waw)),
                "counts_ali": {k: counts_a[k] for k in ("RAW", "WAW")},
            },
        )
    )

    # Finding 13: WAR time >> RAR time in both; RAR count within ~6x of
    # WAR count (comparable in the paper: 2.5x and 4.2x).
    def count_ratio(counts) -> float:
        return counts["RAR"] / counts["WAR"] if counts["WAR"] else float("inf")

    f13 = (
        med(at_a.war) > med(at_a.rar)
        and med(at_m.war) > med(at_m.rar)
        and 0.3 <= count_ratio(counts_a) <= 25
    )
    findings.append(
        Finding(
            13,
            FINDING_TITLES[13],
            f13,
            {
                "median_rar_s": (med(at_a.rar), med(at_m.rar)),
                "median_war_s": (med(at_a.war), med(at_m.war)),
                "rar_war_ratio": (count_ratio(counts_a), count_ratio(counts_m)),
            },
        )
    )

    # Finding 14: update intervals span orders of magnitude within each
    # trace (p95/p25 huge) — "varying update intervals".
    ui_a, ui_m = blocks_a.update_intervals, blocks_m.update_intervals

    def spread(arr: np.ndarray) -> float:
        if len(arr) < 10:
            return float("nan")
        p25, p95 = np.percentile(arr, [25, 95])
        return float(p95 / max(p25, 1e-9))

    f14 = spread(ui_a) > 30 and spread(ui_m) > 30
    findings.append(
        Finding(14, FINDING_TITLES[14], f14, {"p95_over_p25": (spread(ui_a), spread(ui_m))})
    )

    # Finding 15: some volumes already effective at a 1% cache, and the
    # AliCloud-side 25th-percentile read miss ratio drops more from 1%->10%.
    mr_a, mr_m = blocks_a.miss_ratios, blocks_m.miss_ratios

    def q25(arr: np.ndarray) -> float:
        return float(np.percentile(arr, 25)) if len(arr) else float("nan")

    red_a = q25(mr_a.read[0.01]) - q25(mr_a.read[0.10])
    red_m = q25(mr_m.read[0.01]) - q25(mr_m.read[0.10])
    low_at_1pct = float(np.mean(mr_a.read[0.01] < 0.5)) if len(mr_a.read[0.01]) else 0.0
    f15 = red_a > red_m and low_at_1pct > 0.0
    findings.append(
        Finding(
            15,
            FINDING_TITLES[15],
            f15,
            {
                "q25_read_reduction": (red_a, red_m),
                "frac_volumes_low_miss_at_1pct": low_at_1pct,
            },
        )
    )

    return findings
