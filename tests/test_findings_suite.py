"""The per-volume metric suite behind ``evaluate_findings``.

Four contracts:

* the suite's fields equal the standalone per-volume functions on any
  trace (Hypothesis, with duplicate timestamps and block-straddling
  requests);
* ``evaluate_findings`` is identical at every worker count and backend;
* its block-level evidence (Findings 8-15) equals a reference fold built
  only from the public per-function and ``dataset_*`` API;
* the parent's fold pools per-volume arrays in canonical volume order.

"Identical" compares ``repr`` of every evidence value, so NaN and numpy
scalar types must match exactly, not approximately.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    adjacent_access_counts,
    adjacent_access_times,
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
)
from repro.core.findings import FINDING_CACHE_FRACTIONS, _fleet_blocks, volume_suite
from repro.core.spatial import pool_mostly_traffic
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
        st.integers(0, 12 * 1024),  # unaligned offsets
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


@settings(max_examples=150, deadline=None)
@given(rows=_requests, block_size=st.sampled_from([512, 1024, 4096]))
def test_suite_fields_equal_standalone_functions(rows, block_size):
    trace = _trace_from(rows)
    summary = volume_suite(trace, block_size)
    assert summary.n_requests == len(trace)
    _same(summary.randomness, randomness_ratio(trace))
    _same(summary.top10_read, topk_block_traffic_fraction(trace, 0.10, "read", block_size))
    _same(summary.top10_write, topk_block_traffic_fraction(trace, 0.10, "write", block_size))
    _same(summary.mostly.fractions(), mostly_traffic(trace, block_size=block_size))
    _same(
        pool_mostly_traffic([summary.mostly]),
        dataset_mostly_traffic(TraceDataset("d", {"p": trace}), block_size=block_size),
    )
    _same(summary.update_coverage, update_coverage(trace, block_size))
    times = adjacent_access_times(trace, block_size)
    for kind in ("raw", "waw", "rar", "war"):
        np.testing.assert_array_equal(getattr(summary.adjacent, kind), getattr(times, kind))
        assert getattr(summary.adjacent, kind).dtype == np.float64
    np.testing.assert_array_equal(summary.update_intervals, update_intervals(trace, block_size))
    assert summary.update_intervals.dtype == np.float64
    assert summary.miss_ratios == volume_miss_ratios(
        trace, FINDING_CACHE_FRACTIONS, block_size
    )
