"""The per-volume metric suite behind ``evaluate_findings`` and ``analyze``.

Five contracts:

* the suite's fields equal the standalone per-volume functions on any
  trace (Hypothesis, with duplicate timestamps and block-straddling
  requests);
* ``compute_profile`` equals the profile composed from those standalone
  functions, and expands each volume into block events once;
* ``evaluate_findings`` is identical at every worker count and backend;
* its block-level evidence (Findings 8-15) equals a reference fold built
  only from the public per-function and ``dataset_*`` API;
* the parent's fold pools per-volume arrays in canonical volume order.

"Identical" compares ``repr`` of every evidence value, so NaN and numpy
scalar types must match exactly, not approximately.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.trace.blocks
from repro.core import (
    adjacent_access_counts,
    adjacent_access_times,
    compute_profile,
    dataset_adjacent_access_times,
    dataset_miss_ratios,
    dataset_mostly_traffic,
    dataset_update_intervals,
    evaluate_findings,
    mostly_traffic,
    randomness_ratio,
    topk_block_traffic_fraction,
    update_coverage,
    update_intervals,
    volume_miss_ratios,
    working_sets,
)
from repro.core.findings import FINDING_CACHE_FRACTIONS, _fleet_blocks
from repro.core.load_intensity import (
    average_intensity,
    burstiness_ratio,
    peak_intensity,
    write_read_ratio,
)
from repro.core.spatial import pool_mostly_traffic
from repro.core.volume_profile import VolumeProfile, volume_suite
from repro.trace import TraceDataset, VolumeTrace

from conftest import TEST_SCALE, make_trace

BS = 4096


def _with_edge_volumes(dataset: TraceDataset, name: str) -> TraceDataset:
    """``dataset`` plus an empty, a read-only and a write-only volume."""
    volumes = {v.volume_id: v for v in dataset.volumes()}
    volumes["edge_empty"] = VolumeTrace.empty("edge_empty")
    volumes["edge_reads"] = make_trace(
        "edge_reads",
        timestamps=[0.0, 1.0, 1.0, 5.0],
        offsets=[0, 100, 0, 3 * BS],
        sizes=[BS, 2 * BS, 512, BS],
        is_write=[False] * 4,
    )
    volumes["edge_writes"] = make_trace(
        "edge_writes",
        timestamps=[0.0, 2.0, 2.0, 9.0, 9.5],
        offsets=[0, 0, BS - 1, 0, 7 * BS],
        sizes=[BS, BS, 2, 3 * BS, BS],
        is_write=[True] * 5,
    )
    return TraceDataset(name, volumes)


@pytest.fixture(scope="module")
def fleets(tiny_ali, tiny_msrc):
    return (
        _with_edge_volumes(tiny_ali, "ali-edges"),
        _with_edge_volumes(tiny_msrc, "msrc-edges"),
    )


def _evaluate(fleets, **kwargs):
    ali, msrc = fleets
    return evaluate_findings(
        ali,
        msrc,
        peak_interval=TEST_SCALE.peak_interval,
        activity_interval=TEST_SCALE.activity_interval,
        **kwargs,
    )


def _fingerprint(findings):
    return [
        (f.id, f.holds, {k: repr(v) for k, v in f.evidence.items()}) for f in findings
    ]


@pytest.fixture(scope="module")
def serial_findings(fleets):
    return _evaluate(fleets, workers=1)


class TestWorkerInvariance:
    def test_two_workers_match_one(self, fleets, serial_findings):
        assert _fingerprint(_evaluate(fleets, workers=2)) == _fingerprint(serial_findings)

    def test_serial_backend_matches(self, fleets, serial_findings):
        in_process = _evaluate(fleets, workers=2, backend="serial")
        assert _fingerprint(in_process) == _fingerprint(serial_findings)

    def test_plain_tiny_fleets(self, tiny_ali, tiny_msrc):
        args = (tiny_ali, tiny_msrc)
        one = _evaluate(args, workers=1)
        two = _evaluate(args, workers=2)
        assert _fingerprint(one) == _fingerprint(two)
        assert [f.id for f in one] == list(range(1, 16))


def _finite(values):
    arr = np.asarray(values, dtype=np.float64)
    return arr[np.isfinite(arr)]


def _med(arr):
    return float(np.median(arr)) if len(arr) else float("nan")


def _reference_block_findings(ali, msrc):
    """Findings 8-15 as ``{id: (holds, evidence)}`` from the public API only."""

    def per_volume(ds, fn):
        return _finite([fn(v) for v in ds.volumes() if len(v)])

    out = {}
    rnd_a = per_volume(ali, randomness_ratio)
    rnd_m = per_volume(msrc, randomness_ratio)
    out[8] = (
        float(np.median(rnd_a)) > float(np.median(rnd_m)) and float(np.mean(rnd_a > 0.5)) > 0.1,
        {"median_randomness": (float(np.median(rnd_a)), float(np.median(rnd_m)))},
    )

    def top10(ds, op):
        return per_volume(ds, lambda v: topk_block_traffic_fraction(v, 0.10, op, BS))

    r10_a, w10_a, r10_m, w10_m = (
        top10(ali, "read"), top10(ali, "write"), top10(msrc, "read"), top10(msrc, "write")
    )
    out[9] = (
        float(np.median(w10_a)) > 0.15
        and float(np.median(w10_m)) > 0.15
        and float(np.median(w10_a)) > float(np.median(r10_a)),
        {
            "median_top10_read": (float(np.median(r10_a)), float(np.median(r10_m))),
            "median_top10_write": (float(np.median(w10_a)), float(np.median(w10_m))),
        },
    )

    m_a = dataset_mostly_traffic(ali, block_size=BS)
    m_m = dataset_mostly_traffic(msrc, block_size=BS)
    out[10] = (
        m_a.read_to_read_mostly > 0.5
        and m_a.write_to_write_mostly > 0.5
        and m_m.read_to_read_mostly > 0.5
        and m_a.write_to_write_mostly > m_m.write_to_write_mostly,
        {
            "ali": (m_a.read_to_read_mostly, m_a.write_to_write_mostly),
            "msrc": (m_m.read_to_read_mostly, m_m.write_to_write_mostly),
        },
    )

    uc_a = per_volume(ali, lambda v: update_coverage(v, BS))
    uc_m = per_volume(msrc, lambda v: update_coverage(v, BS))
    out[11] = (
        float(np.median(uc_a)) > float(np.median(uc_m)) and float(np.std(uc_a)) > 0.1,
        {"median_update_coverage": (float(np.median(uc_a)), float(np.median(uc_m)))},
    )

    at_a = dataset_adjacent_access_times(ali, BS)
    at_m = dataset_adjacent_access_times(msrc, BS)
    counts_a = adjacent_access_counts(ali, BS)
    counts_m = adjacent_access_counts(msrc, BS)
    out[12] = (
        _med(at_a.raw) > _med(at_a.waw)
        and _med(at_m.raw) > _med(at_m.waw)
        and counts_a["WAW"] > 2 * counts_a["RAW"],
        {
            "median_raw_s": (_med(at_a.raw), _med(at_m.raw)),
            "median_waw_s": (_med(at_a.waw), _med(at_m.waw)),
            "counts_ali": {k: counts_a[k] for k in ("RAW", "WAW")},
        },
    )

    def count_ratio(counts):
        return counts["RAR"] / counts["WAR"] if counts["WAR"] else float("inf")

    out[13] = (
        _med(at_a.war) > _med(at_a.rar)
        and _med(at_m.war) > _med(at_m.rar)
        and 0.3 <= count_ratio(counts_a) <= 25,
        {
            "median_rar_s": (_med(at_a.rar), _med(at_m.rar)),
            "median_war_s": (_med(at_a.war), _med(at_m.war)),
            "rar_war_ratio": (count_ratio(counts_a), count_ratio(counts_m)),
        },
    )

    def spread(arr):
        if len(arr) < 10:
            return float("nan")
        p25, p95 = np.percentile(arr, [25, 95])
        return float(p95 / max(p25, 1e-9))

    ui_a = dataset_update_intervals(ali, BS)
    ui_m = dataset_update_intervals(msrc, BS)
    out[14] = (
        spread(ui_a) > 30 and spread(ui_m) > 30,
        {"p95_over_p25": (spread(ui_a), spread(ui_m))},
    )

    mr_a = dataset_miss_ratios(ali, (0.01, 0.10), BS)
    mr_m = dataset_miss_ratios(msrc, (0.01, 0.10), BS)

    def q25(arr):
        return float(np.percentile(arr, 25)) if len(arr) else float("nan")

    red_a = q25(mr_a.read[0.01]) - q25(mr_a.read[0.10])
    red_m = q25(mr_m.read[0.01]) - q25(mr_m.read[0.10])
    low = float(np.mean(mr_a.read[0.01] < 0.5)) if len(mr_a.read[0.01]) else 0.0
    out[15] = (
        red_a > red_m and low > 0.0,
        {"q25_read_reduction": (red_a, red_m), "frac_volumes_low_miss_at_1pct": low},
    )
    return out


class TestReferenceFold:
    @pytest.mark.parametrize("with_edges", [False, True])
    def test_block_findings_match_public_api(
        self, with_edges, fleets, serial_findings, tiny_ali, tiny_msrc
    ):
        if with_edges:
            ali, msrc = fleets
            findings = serial_findings
        else:
            ali, msrc = tiny_ali, tiny_msrc
            findings = _evaluate((ali, msrc), workers=2)
        reference = _reference_block_findings(ali, msrc)
        for finding in findings[7:]:
            holds, evidence = reference[finding.id]
            assert finding.holds == holds, finding.id
            assert {k: repr(v) for k, v in finding.evidence.items()} == {
                k: repr(v) for k, v in evidence.items()
            }, finding.id


class TestCanonicalFold:
    def test_pooled_arrays_keep_volume_order(self, fleets):
        """Medians hide a reordered fold; the pooled arrays themselves do not."""
        ali, msrc = fleets
        for ds, blocks in zip(fleets, _fleet_blocks(ali, msrc, BS, workers=2, backend=None)):
            times = dataset_adjacent_access_times(ds, BS)
            for kind in ("raw", "waw", "rar", "war"):
                np.testing.assert_array_equal(getattr(blocks.adjacent, kind), getattr(times, kind))
            np.testing.assert_array_equal(blocks.update_intervals, dataset_update_intervals(ds, BS))
            ratios = dataset_miss_ratios(ds, FINDING_CACHE_FRACTIONS, BS)
            for frac in FINDING_CACHE_FRACTIONS:
                np.testing.assert_array_equal(blocks.miss_ratios.read[frac], ratios.read[frac])
                np.testing.assert_array_equal(blocks.miss_ratios.write[frac], ratios.write[frac])


# -- property: every suite field equals its standalone function ---------------

_requests = st.lists(
    st.tuples(
        st.integers(0, 6),  # few distinct timestamps: many exact duplicates
        # Unaligned offsets: dense ones revisit blocks, sparse ones spread
        # traffic over enough blocks that a top-10% share differs from top-1%.
        st.one_of(st.integers(0, 12 * 1024), st.integers(0, 256 * 1024)),
        st.integers(1, 3 * 1024),  # sizes straddling block boundaries
        st.booleans(),
    ),
    max_size=40,
)


def _trace_from(rows):
    if not rows:
        return VolumeTrace.empty("p")
    ts, offsets, sizes, writes = zip(*rows)
    return VolumeTrace.from_arrays(
        "p", np.asarray(ts, dtype=np.float64) / 2, offsets, sizes, writes
    )


def _same(a, b):
    assert repr(a) == repr(b)


#: Hand-picked rows for the edge volumes Hypothesis may not draw every run:
#: empty, read-only, write-only and single-request.
_EDGE_ROWS = [
    [],
    [(0, 0, 1024, False), (1, 100, 3000, False), (1, 0, 512, False)],
    [(0, 0, 1024, True), (0, 1000, 2048, True), (3, 0, 1024, True)],
    [(2, 700, 3000, True)],
]


def _edge_examples(test):
    for rows in _EDGE_ROWS:
        test = example(rows=rows, block_size=1024)(test)
    return test


@_edge_examples
@settings(max_examples=150, deadline=None)
@given(rows=_requests, block_size=st.sampled_from([512, 1024, 4096]))
def test_suite_fields_equal_standalone_functions(rows, block_size):
    trace = _trace_from(rows)
    summary = volume_suite(trace, block_size)
    assert summary.n_requests == len(trace)
    _same(summary.randomness, randomness_ratio(trace))
    _same(summary.working_sets, working_sets(trace, block_size))
    _same(summary.working_sets.update_coverage, update_coverage(trace, block_size))
    for frac in (0.01, 0.10):
        pct = int(frac * 100)
        for op in ("read", "write"):
            _same(
                getattr(summary, f"top{pct}_{op}"),
                topk_block_traffic_fraction(trace, frac, op, block_size),
            )
    _same(summary.mostly.fractions(), mostly_traffic(trace, block_size=block_size))
    _same(
        pool_mostly_traffic([summary.mostly]),
        dataset_mostly_traffic(TraceDataset("d", {"p": trace}), block_size=block_size),
    )
    times = adjacent_access_times(trace, block_size)
    for kind in ("raw", "waw", "rar", "war"):
        np.testing.assert_array_equal(getattr(summary.adjacent, kind), getattr(times, kind))
        assert getattr(summary.adjacent, kind).dtype == np.float64
    np.testing.assert_array_equal(summary.update_intervals, update_intervals(trace, block_size))
    assert summary.update_intervals.dtype == np.float64
    assert summary.miss_ratios == volume_miss_ratios(
        trace, FINDING_CACHE_FRACTIONS, block_size
    )


# -- compute_profile: a projection of the suite -------------------------------


def _median_or_nan(values):
    return float(np.median(values)) if len(values) else float("nan")


def _composed_profile(trace, block_size):
    """The profile built from the standalone per-volume functions, each of
    which expands the volume into block events on its own."""
    at = adjacent_access_times(trace, block_size)
    mostly = mostly_traffic(trace, block_size=block_size)
    miss = {r.cache_fraction: r for r in volume_miss_ratios(trace, (0.01, 0.10), block_size)}

    def miss_ratio(frac, op):
        res = miss.get(frac)
        if res is None:
            return float("nan")
        return res.read_miss_ratio if op == "read" else res.write_miss_ratio

    def top(frac, op):
        return topk_block_traffic_fraction(trace, frac, op, block_size)

    ws = working_sets(trace, block_size)
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
        randomness_ratio=randomness_ratio(trace),
        working_sets=ws,
        update_coverage=ws.update_coverage,
        top1_read_traffic=top(0.01, "read"),
        top10_read_traffic=top(0.10, "read"),
        top1_write_traffic=top(0.01, "write"),
        top10_write_traffic=top(0.10, "write"),
        read_to_read_mostly=mostly.read_to_read_mostly,
        write_to_write_mostly=mostly.write_to_write_mostly,
        median_raw_time=_median_or_nan(at.raw),
        median_waw_time=_median_or_nan(at.waw),
        median_rar_time=_median_or_nan(at.rar),
        median_war_time=_median_or_nan(at.war),
        median_update_interval=_median_or_nan(update_intervals(trace, block_size)),
        read_miss_ratio_1pct=miss_ratio(0.01, "read"),
        write_miss_ratio_1pct=miss_ratio(0.01, "write"),
        read_miss_ratio_10pct=miss_ratio(0.10, "read"),
        write_miss_ratio_10pct=miss_ratio(0.10, "write"),
    )


def _assert_same_profile(got, want):
    for f in dataclasses.fields(VolumeProfile):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name


@_edge_examples
@settings(max_examples=150, deadline=None)
@given(rows=_requests, block_size=st.sampled_from([512, 1024, 4096]))
def test_profile_equals_composed_standalone_functions(rows, block_size):
    trace = _trace_from(rows)
    _assert_same_profile(compute_profile(trace, block_size), _composed_profile(trace, block_size))


class TestComputeProfile:
    def test_fleet_volumes_match_composition(self, fleets):
        for ds in fleets:
            for trace in ds.volumes():
                _assert_same_profile(compute_profile(trace, BS), _composed_profile(trace, BS))

    def test_one_block_expansion_per_volume(self, fleets, monkeypatch):
        calls = []
        expand = repro.trace.blocks.expand_to_blocks

        def counting(*args, **kwargs):
            calls.append(1)
            return expand(*args, **kwargs)

        monkeypatch.setattr(repro.trace.blocks, "expand_to_blocks", counting)
        volumes = fleets[0].volumes()
        for trace in volumes:
            compute_profile(trace, BS)
        assert len(calls) == len(volumes)
