"""Tests for repro.core.aggregate (Table I and Figures 2-4 data)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    TIB,
    active_days_cdf,
    basic_statistics,
    request_size_cdf,
    volume_mean_size_cdf,
    working_sets,
    write_read_ratio_cdf,
)
from repro.core.spatial import WorkingSets
from repro.trace import TraceDataset, VolumeTrace

from conftest import make_trace

BS = 4096


class TestBasicStatistics:
    def test_counts_and_traffic(self, simple_dataset):
        stats = basic_statistics(simple_dataset)
        assert stats.n_volumes == 2
        assert stats.n_reads_millions == pytest.approx(3 / 1e6)
        assert stats.n_writes_millions == pytest.approx(3 / 1e6)
        assert stats.read_traffic_tib == pytest.approx((4096 + 8192 + 4096) / TIB)
        assert stats.write_traffic_tib == pytest.approx(3 * 4096 / TIB)

    def test_working_sets(self, simple_dataset):
        stats = basic_statistics(simple_dataset)
        # v0 touches blocks {0,1,2}; v1 touches {0,1}.
        assert stats.wss_total_tib == pytest.approx(5 * BS / TIB)
        # v0 reads block 1; v1 reads blocks 0,1.
        assert stats.wss_read_tib == pytest.approx(3 * BS / TIB)
        # v0 writes blocks 0 (twice) and 2.
        assert stats.wss_write_tib == pytest.approx(2 * BS / TIB)
        assert stats.wss_update_tib == pytest.approx(1 * BS / TIB)

    def test_update_traffic(self, simple_dataset):
        stats = basic_statistics(simple_dataset)
        # Block 0 of v0 written twice: second write (4096 B) is update traffic.
        assert stats.update_traffic_tib == pytest.approx(BS / TIB)

    def test_duration_days_rounds_up(self, simple_dataset):
        stats = basic_statistics(simple_dataset)
        assert stats.duration_days == 1.0
        stats2 = basic_statistics(simple_dataset, duration_days=31)
        assert stats2.duration_days == 31

    def test_derived_fractions(self, simple_dataset):
        stats = basic_statistics(simple_dataset)
        assert stats.read_wss_fraction == pytest.approx(3 / 5)
        assert stats.write_wss_fraction == pytest.approx(2 / 5)
        assert stats.write_read_request_ratio == pytest.approx(1.0)
        assert stats.n_requests_millions == pytest.approx(6 / 1e6)


class TestSizeCDFs:
    def test_request_size_cdf_all_ops(self, simple_dataset):
        cdf = request_size_cdf(simple_dataset)
        assert cdf.n == 6
        assert cdf.max == 8192

    def test_request_size_cdf_per_op(self, simple_dataset):
        assert request_size_cdf(simple_dataset, op="write").n == 3
        assert request_size_cdf(simple_dataset, op="read").max == 8192

    def test_request_size_cdf_rejects_bad_op(self, simple_dataset):
        with pytest.raises(ValueError):
            request_size_cdf(simple_dataset, op="both")

    def test_volume_mean_size_cdf(self, simple_dataset):
        cdf = volume_mean_size_cdf(simple_dataset)
        assert cdf.n == 2  # one mean per volume
        assert cdf.max == pytest.approx((8192 + 4096) / 2)

    def test_volume_mean_size_skips_empty_op(self, simple_dataset):
        # v0 has writes, v1 does not: only one sample.
        assert volume_mean_size_cdf(simple_dataset, op="write").n == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            request_size_cdf(TraceDataset("d"))


class TestActiveDaysCDF:
    def test_counts(self):
        ds = TraceDataset("d")
        day = 86400.0
        ds.add(make_trace("a", timestamps=[0.0, day + 1, 2 * day + 1], offsets=[0] * 3, sizes=[512] * 3, is_write=[False] * 3))
        ds.add(make_trace("b", timestamps=[10.0], offsets=[0], sizes=[512], is_write=[False]))
        cdf = active_days_cdf(ds)
        assert cdf.n == 2
        assert cdf.max == 3
        assert cdf.fraction_below(2) == 0.5  # volume b active one day


class TestWriteReadRatioCDF:
    def test_infinite_ratios_clamped_above_finite(self):
        ds = TraceDataset("d")
        ds.add(make_trace("w", is_write=[True] * 4))  # inf
        ds.add(make_trace("m", is_write=[True, True, False, False]))  # 1.0
        cdf = write_read_ratio_cdf(ds)
        assert cdf.n == 2
        assert cdf.max > 1.0  # the clamped infinite volume
        assert cdf.fraction_above(1.0) == 0.5

    def test_preserves_threshold_queries(self, tiny_ali):
        cdf = write_read_ratio_cdf(tiny_ali)
        # The synthetic cloud fleet is overwhelmingly write-dominant.
        assert cdf.fraction_above(1.0) > 0.6


# -- property: Table I's block rows on arbitrary fleets -----------------------

_volume_rows = st.lists(
    st.tuples(
        st.integers(0, 6),  # few distinct timestamps: many exact duplicates
        st.integers(0, 12 * 1024),  # unaligned offsets
        st.integers(1, 3 * 1024),  # sizes straddling block boundaries
        st.booleans(),
    ),
    max_size=30,
)


def _volume(vid, rows):
    if not rows:
        return VolumeTrace.empty(vid)
    ts, offsets, sizes, writes = zip(*rows)
    return VolumeTrace.from_arrays(vid, np.asarray(ts, dtype=np.float64), offsets, sizes, writes)


def _loop_block_rows(trace, block_size):
    """Working sets and update traffic, request by request and block by block.

    Update traffic is the write bytes landing on a block after its first write.
    """
    read, writes, update_traffic = set(), {}, 0
    for offset, size, is_write in zip(
        trace.offsets.tolist(), trace.sizes.tolist(), trace.is_write.tolist()
    ):
        for block in range(offset // block_size, (offset + size - 1) // block_size + 1):
            if not is_write:
                read.add(block)
                continue
            if block in writes:
                lo, hi = block * block_size, (block + 1) * block_size
                update_traffic += min(hi, offset + size) - max(lo, offset)
            writes[block] = writes.get(block, 0) + 1
    ws = WorkingSets(
        total=len(read | set(writes)) * block_size,
        read=len(read) * block_size,
        write=len(writes) * block_size,
        update=sum(1 for n in writes.values() if n > 1) * block_size,
    )
    return ws, update_traffic


@settings(max_examples=100, deadline=None)
@given(
    fleet=st.lists(_volume_rows, min_size=1, max_size=4),
    block_size=st.sampled_from([512, 1024, 4096]),
)
def test_block_rows_equal_per_volume_working_sets(fleet, block_size):
    ds = TraceDataset("p", {f"v{i}": _volume(f"v{i}", rows) for i, rows in enumerate(fleet)})
    stats = basic_statistics(ds, block_size=block_size, duration_days=1.0)
    per_volume = [working_sets(v, block_size) for v in ds.volumes()]
    loops = [_loop_block_rows(v, block_size) for v in ds.volumes()]
    assert per_volume == [ws for ws, _ in loops]
    for row in ("total", "read", "write", "update"):
        assert getattr(stats, f"wss_{row}_tib") == sum(getattr(ws, row) for ws in per_volume) / TIB
    assert stats.update_traffic_tib == sum(upd for _, upd in loops) / TIB
