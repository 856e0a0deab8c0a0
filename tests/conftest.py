"""Shared fixtures: small deterministic traces and fleets."""

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.synth import Scale, make_alicloud_fleet, make_msrc_fleet
from repro.trace import TraceDataset, VolumeTrace


@pytest.fixture(scope="session", autouse=True)
def _ledger_sandbox(tmp_path_factory):
    """Point the default-on run ledger at a throwaway directory.

    CLI-invoking tests would otherwise append run records to the
    repository's own ``.repro/runs``.  Tests that exercise the ledger
    itself pass an explicit ``--ledger-dir`` / ``ledger_dir=``, which
    always wins over this env var.
    """
    from repro.obs import ledger

    previous = os.environ.get(ledger.ENV_VAR)
    os.environ[ledger.ENV_VAR] = str(tmp_path_factory.mktemp("run-ledger"))
    yield
    if previous is None:
        os.environ.pop(ledger.ENV_VAR, None)
    else:
        os.environ[ledger.ENV_VAR] = previous

#: Small time scale for fast tests: 4 "days" of 60 seconds.
TEST_SCALE = Scale(n_days=4, day_seconds=60.0)


def make_trace(volume_id="v0", timestamps=None, offsets=None, sizes=None, is_write=None, **kw):
    """Hand-rolled trace builder with convenient defaults."""
    timestamps = [0.0, 1.0, 2.0, 3.0] if timestamps is None else timestamps
    n = len(timestamps)
    offsets = [i * 4096 for i in range(n)] if offsets is None else offsets
    sizes = [4096] * n if sizes is None else sizes
    is_write = [False] * n if is_write is None else is_write
    return VolumeTrace.from_arrays(volume_id, timestamps, offsets, sizes, is_write, **kw)


@pytest.fixture(scope="session")
def tiny_ali():
    """Small AliCloud-side fleet shared across the test session."""
    return make_alicloud_fleet(n_volumes=12, seed=3, scale=TEST_SCALE)


@pytest.fixture(scope="session")
def tiny_msrc():
    """Small MSRC-side fleet shared across the test session.

    Seed chosen so the 8-volume sample keeps the full fleet's overall
    read dominance (tiny samples of a 36-volume population are noisy).
    """
    return make_msrc_fleet(n_volumes=8, seed=7, scale=TEST_SCALE)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def simple_dataset():
    """Two-volume dataset with fully hand-computable metrics."""
    v0 = make_trace(
        "v0",
        timestamps=[0.0, 10.0, 20.0, 30.0],
        offsets=[0, 4096, 0, 8192],
        sizes=[4096, 4096, 4096, 4096],
        is_write=[True, False, True, True],
    )
    v1 = make_trace(
        "v1",
        timestamps=[5.0, 6.0],
        offsets=[0, 0],
        sizes=[8192, 4096],
        is_write=[False, False],
    )
    return TraceDataset("simple", {"v0": v0, "v1": v1})


@dataclass(frozen=True)
class Tally:
    """One volume's read/write request counts and written bytes."""

    volume_id: str
    n_reads: int = 0
    n_writes: int = 0
    write_bytes: int = 0


class TallyAnalyzer:
    """A minimal engine fold that reads only ``sizes`` and ``is_write``.

    Narrower than the built-in ``StreamingProfileAnalyzer`` (which reads
    every core column), so tests can drive column pruning, per-analyzer
    predicates and several analyzers in one pass.
    """

    name = "tally"
    required_columns = ("sizes", "is_write")

    def __init__(self, row_predicate=None):
        self.row_predicate = row_predicate

    def init_state(self, volume_id):
        return Tally(volume_id)

    def consume(self, state, chunk):
        writes = chunk.is_write
        n_writes = int(np.count_nonzero(writes))
        return Tally(
            state.volume_id,
            state.n_reads + len(chunk) - n_writes,
            state.n_writes + n_writes,
            state.write_bytes + int(chunk.sizes[writes].sum()),
        )

    def merge(self, earlier, later):
        return Tally(
            earlier.volume_id,
            earlier.n_reads + later.n_reads,
            earlier.n_writes + later.n_writes,
            earlier.write_bytes + later.write_bytes,
        )

    def finalize(self, state):
        return state
