"""Seed-pinned input fleets for the pipeline benchmark.

Each seed yields one AliCloud-format fleet (12 volumes) and one
MSRC-format fleet (36 volumes), generated with ``repro.synth`` at
``--day-seconds 120`` and written as per-volume CSV files.  The program
under test sees only those files.

Synthetic volume sizes are heavy-tailed: twelve AliCloud volumes drawn
with different seeds range from 0.12M to 1.45M requests, which alone
would spread a fleet-wide wall time by ~20% across seeds.  So a seed
fixes the *content* of a fleet but not its size: the plain
``repro generate`` fleet is used when its request count, block-access
count and largest volume fall inside a narrow band around the seed-0
fleet, and otherwise the fleet is drawn from a larger seeded pool of
volumes by a deterministic subset search that lands inside the same
band.  Seed 0 is its own target, so it is the plain fleet (48 files,
979,124 requests).

Generated files are cached per seed under the work directory with a
manifest of their sha256 values, and checked on every use: against the
manifest always, and against ``reference.json`` for the pinned seeds,
so a change to ``repro.synth`` cannot silently move the numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Tuple

BLOCK_SIZE = 4096
DAY_SECONDS = 120.0
#: Relative band on a fleet's total requests and total block accesses.
TOTAL_BAND = 0.02
#: Relative band on the block accesses of the fleet's largest volume,
#: which sets the floor of ``analyze`` at two workers.
LARGEST_BAND = 0.04
#: Pool size (x fleet size) and number of pools tried before giving up.
POOL_FACTOR = 4
POOL_ATTEMPTS = 32

#: fleet name -> (format, volumes, seed offset, target requests, target
#: block accesses, target largest-volume block accesses).  The targets
#: are the seed-0 fleets' own figures.
FLEETS = {
    "ali": ("alicloud", 12, 0, 480_750, 2_449_031, 940_734),
    "msrc": ("msrc", 36, 1, 498_374, 4_720_423, 848_487),
}


class FleetError(RuntimeError):
    """A generated or cached fleet does not match its recorded digests."""


def _volume_size(trace) -> Tuple[int, int]:
    offsets, sizes = trace.offsets, trace.sizes
    blocks = (offsets + sizes - 1) // BLOCK_SIZE - offsets // BLOCK_SIZE + 1
    return len(trace), int(blocks.sum())


def _make(fmt: str, n_volumes: int, seed: int):
    from repro.synth import alicloud_scale, make_alicloud_fleet, make_msrc_fleet, msrc_scale

    if fmt == "alicloud":
        scale = alicloud_scale(n_days=31, day_seconds=DAY_SECONDS)
        return make_alicloud_fleet(n_volumes=n_volumes, seed=seed, scale=scale)
    scale = msrc_scale(n_days=7, day_seconds=DAY_SECONDS)
    return make_msrc_fleet(n_volumes=n_volumes, seed=seed, scale=scale)


def _fits(sizes: List[Tuple[int, int]], target: Tuple[int, int, int]) -> bool:
    """Whether (requests, blocks) per volume lie inside the size band."""
    t_req, t_blk, t_big = target
    return (
        abs(sum(r for r, _ in sizes) / t_req - 1.0) <= TOTAL_BAND
        and abs(sum(b for _, b in sizes) / t_blk - 1.0) <= TOTAL_BAND
        and abs(max(b for _, b in sizes) / t_big - 1.0) <= LARGEST_BAND
    )


def _subset(sizes: List[Tuple[int, int]], n: int, target, rng) -> List[int]:
    """Indices of ``n`` pool volumes inside the band, or [] if none found.

    Each pool volume inside the largest-volume band is tried as the
    largest, closest to the target first.  The rest, each no larger,
    start from a seeded random pick and are improved by best single
    swaps until no swap helps.
    """
    t_req, t_blk, t_big = target
    anchors = sorted(
        (i for i in range(len(sizes)) if abs(sizes[i][1] / t_big - 1.0) <= LARGEST_BAND),
        key=lambda i: (abs(sizes[i][1] - t_big), i),
    )
    for big in anchors:
        rest = [i for i in range(len(sizes)) if i != big and sizes[i][1] <= sizes[big][1]]
        if len(rest) < n - 1:
            continue
        rest = [rest[i] for i in rng.permutation(len(rest))]
        chosen, spare = rest[: n - 1], rest[n - 1:]

        def cost(ids):
            req = sizes[big][0] + sum(sizes[i][0] for i in ids)
            blk = sizes[big][1] + sum(sizes[i][1] for i in ids)
            return abs(req / t_req - 1.0) + abs(blk / t_blk - 1.0)

        best = cost(chosen)
        while True:
            move = None
            for a in range(len(chosen)):
                for b in range(len(spare)):
                    c = cost(chosen[:a] + [spare[b]] + chosen[a + 1:])
                    if c < best - 1e-12:
                        best, move = c, (a, b)
            if move is None:
                break
            a, b = move
            chosen[a], spare[b] = spare[b], chosen[a]
        ids = [big] + chosen
        if _fits([sizes[i] for i in ids], target):
            return ids
    return []


def build_fleet(name: str, seed: int):
    """The seed's fleet ``name`` as an in-memory ``TraceDataset``."""
    import numpy as np
    from repro.trace import TraceDataset

    fmt, n, offset, *target = FLEETS[name]
    plain = _make(fmt, n, seed + offset)
    if _fits([_volume_size(v) for v in plain.volumes()], target):
        return plain
    for attempt in range(1, POOL_ATTEMPTS + 1):
        pool = _make(fmt, POOL_FACTOR * n, (seed + offset) * 1_000_003 + attempt).volumes()
        rng = np.random.default_rng([seed, offset, attempt])
        ids = _subset([_volume_size(v) for v in pool], n, target, rng)
        if ids:
            return TraceDataset(plain.name, {pool[i].volume_id: pool[i] for i in sorted(ids)})
    raise FleetError(f"no {name} fleet inside the size band for seed {seed}")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digests(root: str) -> Dict[str, str]:
    out = {}
    for name in FLEETS:
        for fname in sorted(os.listdir(os.path.join(root, name))):
            out[f"{name}/{fname}"] = sha256_file(os.path.join(root, name, fname))
    return out


def write_fleets(root: str, seed: int) -> None:
    """Generate the seed's fleets and their manifest into ``root``."""
    from repro.trace import write_dataset_dir

    tmp = f"{root}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    rows, volumes = {}, {}
    for name, (fmt, *_rest) in FLEETS.items():
        dataset = build_fleet(name, seed)
        write_dataset_dir(dataset, os.path.join(tmp, name), fmt=fmt)
        rows[name] = int(dataset.n_requests)
        volumes[name] = int(dataset.n_volumes)
    manifest = {"seed": seed, "rows": rows, "volumes": volumes, "files": _digests(tmp)}
    with open(os.path.join(tmp, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(os.path.dirname(root), exist_ok=True)
    os.replace(tmp, root)


def ensure_fleets(work_dir: str, seed: int, env: Dict[str, str],
                  pinned: Dict[str, str] = None) -> dict:
    """Generate (once) and verify the seed's fleets under ``work_dir``.

    Generation runs in its own process (environment ``env``).  On Linux a
    child's peak RSS starts at its parent's, so a benchmark process that
    had generated a fleet itself would report that peak for every sample
    it starts.

    Returns the fleet manifest: ``dir`` (absolute), ``files`` (relative
    path -> sha256), and per-fleet ``rows`` and ``volumes``.  Raises
    :class:`FleetError` when a cached file no longer matches its manifest
    or a pinned seed's files differ from ``pinned``.
    """
    root = os.path.join(work_dir, "fleets", f"seed-{seed}")
    manifest_path = os.path.join(root, "manifest.json")
    if not os.path.exists(manifest_path):
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), root, str(seed)], check=True, env=env
        )
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if _digests(root) != manifest["files"]:
        raise FleetError(f"cached fleet {root} no longer matches its manifest")
    if pinned is not None and pinned != manifest["files"]:
        changed = sorted(
            k for k in set(pinned) | set(manifest["files"])
            if pinned.get(k) != manifest["files"].get(k)
        )
        raise FleetError(
            f"seed {seed} fleet differs from its pinned sha256 values "
            f"({len(changed)} files, e.g. {changed[:3]}); repro.synth changed"
        )
    manifest["dir"] = root
    return manifest


if __name__ == "__main__":
    write_fleets(sys.argv[1], int(sys.argv[2]))
