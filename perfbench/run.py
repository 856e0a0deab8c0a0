"""Paper-pipeline benchmark: ``findings``, ``analyze`` and ``ingest`` end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload findings --seed 0 --seconds 32 --trace 0

Each run generates (once per seed, cached under ``.perfbench/``) the
seed's AliCloud and MSRC fleets, builds what the workload needs with the
code under test, then runs samples for about ``--seconds``.  Every
sample is a fresh
process (``sample.py``) that imports ``repro.cli`` and calls
``repro.cli.main(argv)``, the interface the CLI keeps stable, so the
program can change underneath without touching the benchmark.

Workloads (``--workers`` never exceeds the 2 cores the figures were
taken on; see README.md for sizes and the reason for each):

* ``findings`` - ``repro findings`` on both fleets from a warm store,
  ``--workers 2 --verbose``: cache simulation and ``core`` metrics.
* ``analyze`` - ``repro analyze`` on each fleet from a warm store,
  ``--workers 2``: pool dispatch and pickling of whole volumes, per-volume
  profiles.
* ``ingest`` - ``repro ingest`` of both text directories into fresh
  stores, ``--workers 1``: text parsing and store writes, no ``core``.

``--trace 0`` prints the end-to-end metrics, medians over the run's
samples: ``wall_s`` (time inside the sample's ``main`` calls),
``setup_s`` (process start until ready to run: interpreter, ``import
repro.cli``, sample directory) and ``peak_rss_mb`` (largest single
process of the sample's tree, from ``os.wait4``).  ``--trace 1`` adds one
traced sample after the untraced ones and prints the per-layer metrics
and a layer table.  Every sample's outputs are checked; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)

import fleet  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("findings", "analyze", "ingest")
WARM_WORKLOADS = ("findings", "analyze")
FORMATS = {"ali": "alicloud", "msrc": "msrc"}


def load_metrics() -> Dict[str, Dict[str, str]]:
    """``end_to_end`` and ``per_layer`` metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")
    }


def workload_calls(workload: str, fleets: dict, store: Optional[str]) -> List[List[str]]:
    """The sample's CLI calls; relative paths land in the sample directory."""
    ali = os.path.join(fleets["dir"], "ali")
    msrc = os.path.join(fleets["dir"], "msrc")
    if workload == "findings":
        return [[
            "findings", "--ali-dir", ali, "--msrc-dir", msrc, "--store-dir", store,
            "--day-seconds", "120", "--workers", "2", "--verbose", "--ledger-dir", "ledger-0",
        ]]
    if workload == "analyze":
        return [
            ["analyze", ali, "--store-dir", store, "--workers", "2",
             "--output", "ali.json", "--ledger-dir", "ledger-0"],
            ["analyze", msrc, "--format", "msrc", "--store-dir", store, "--workers", "2",
             "--output", "msrc.json", "--ledger-dir", "ledger-1"],
        ]
    return [
        ["ingest", ali, "--store-dir", "store-0", "--workers", "1",
         "--output", "ingest-0.json", "--ledger-dir", "ledger-0"],
        ["ingest", msrc, "--format", "msrc", "--store-dir", "store-1", "--workers", "1",
         "--output", "ingest-1.json", "--ledger-dir", "ledger-1"],
    ]


def program_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def build_warm_store(fleets: dict, store: str, run_dir: str) -> None:
    """Build the run's store with the code under test (never reused)."""
    for name, fmt in FORMATS.items():
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "--log-level", "warning", "ingest",
             os.path.join(fleets["dir"], name), "--format", fmt, "--store-dir", store,
             "--workers", "2", "--no-ledger",
             "--output", os.path.join(run_dir, f"warm-{name}.json")],
            check=True, env=program_env(), cwd=run_dir, stdout=subprocess.DEVNULL,
        )


def run_sample(run_dir: str, index: int, calls: List[List[str]], trace: bool) -> dict:
    """Start one sample process, wait for it, and collect its measurements."""
    sample_dir = os.path.join(run_dir, f"sample-{index}")
    spec_path = os.path.join(run_dir, f"sample-{index}.spec.json")
    result_path = os.path.join(run_dir, f"sample-{index}.result.json")
    stdout_path = os.path.join(run_dir, f"sample-{index}.out")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"dir": sample_dir, "calls": calls, "trace": trace, "result": result_path}, fh)
    with open(stdout_path, "wb") as out, \
            open(os.path.join(run_dir, f"sample-{index}.err"), "wb") as err:
        spawned = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sample.py"), spec_path],
            stdout=out, stderr=err, env=program_env(), cwd=run_dir,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "index": index, "dir": sample_dir, "stdout": stdout_path, "exit": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime,
        "calls": [], "trace": trace,
    }
    if proc.returncode == 0:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        sample.update(
            pid=result["pid"], calls=result["calls"], import_s=result["import_s"],
            setup_s=result["ready"] - spawned, wall_s=sum(c["wall"] for c in result["calls"]),
        )
    return sample


def _ledger(sample_dir: str, k: int) -> List[dict]:
    ledger_dir = os.path.join(sample_dir, f"ledger-{k}")
    records = []
    for fname in sorted(os.listdir(ledger_dir)) if os.path.isdir(ledger_dir) else []:
        with open(os.path.join(ledger_dir, fname), encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def _segments_digest(store_dir: str) -> str:
    """sha256 over every column segment, keyed by source file name."""
    h = hashlib.sha256()
    for entry in sorted(os.listdir(store_dir)):
        source = entry.rsplit("-", 1)[0]  # drop the source-path hash suffix
        for seg in sorted(os.listdir(os.path.join(store_dir, entry))):
            if seg.endswith(".npy"):
                digest = fleet.sha256_file(os.path.join(store_dir, entry, seg))
                h.update(f"{source}/{seg}:{digest}\n".encode())
    return h.hexdigest()


def call_outputs(workload: str, sample: dict, fleets: dict) -> List[Optional[dict]]:
    """Each call's checked outputs, or None where a fact check failed.

    Fact checks hold for any seed: they compare outputs with what the
    generator wrote (row and volume counts) and with the program's own
    counters (a warm-store sample parses nothing and hits every file).
    """
    outs: List[Optional[dict]] = []
    names = list(FORMATS)
    n_files = sum(fleets["volumes"].values())
    for k, call in enumerate(sample["calls"]):
        if call["error"] is not None:
            outs.append(None)
            continue
        records = _ledger(sample["dir"], k)
        counters = records[0]["metrics"] if len(records) == 1 else None
        if counters is None:
            outs.append(None)
            continue
        if workload == "findings":
            with open(sample["stdout"], encoding="utf-8") as fh:
                text = fh.read()
            n_findings = sum(line.startswith("Finding ") for line in text.splitlines())
            held = text.rstrip().rsplit("\n", 1)[-1]
            ok = (
                n_findings == 15 and held.endswith("of 15 findings hold")
                and call["rc"] == (0 if held.startswith("15 of") else 1)
                and counters.get("parse.lines", 0) == 0
                and counters.get("store.hits", 0) == n_files
            )
            out = {"rc": call["rc"], "stdout": hashlib.sha256(text.encode()).hexdigest()}
        elif workload == "analyze":
            path = os.path.join(sample["dir"], f"{names[k]}.json")
            with open(path, encoding="utf-8") as fh:
                profiles = json.load(fh)["profiles"]
            ok = (
                call["rc"] == 0
                and len(profiles) == fleets["volumes"][names[k]]
                and sum(p["n_requests"] for p in profiles) == fleets["rows"][names[k]]
                and counters.get("parse.lines", 0) == 0
                and counters.get("store.hits", 0) == fleets["volumes"][names[k]]
            )
            out = {"rc": call["rc"], "output": fleet.sha256_file(path)}
        else:
            with open(os.path.join(sample["dir"], f"ingest-{k}.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            ok = (
                call["rc"] == 0
                and report["rows"] == fleets["rows"][names[k]]
                and report["built"] == report["files"] == fleets["volumes"][names[k]]
                and report["dropped_lines"] == 0
            )
            out = {
                "rc": call["rc"], "rows": report["rows"],
                "segments": _segments_digest(os.path.join(sample["dir"], f"store-{k}")),
            }
        outs.append(out if ok else None)
    return outs


def check_sample(workload: str, sample: dict, n_calls: int, fleets: dict,
                 expected: Optional[list]):
    """(ops, failed ops, outputs) of one sample of ``n_calls`` CLI calls."""
    if sample["exit"] != 0 or len(sample["calls"]) != n_calls:
        return n_calls, n_calls, None
    outs = call_outputs(workload, sample, fleets)
    failed = sum(
        out is None or (expected is not None and out != expected[k])
        for k, out in enumerate(outs)
    )
    return n_calls, failed, outs


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(workload: str, fleets: dict, run_dir: str) -> List[List[str]]:
    """The workload's CLI calls, after building its warm store if it has one."""
    store = None
    if workload in WARM_WORKLOADS:
        store = os.path.join(run_dir, "store")
        build_warm_store(fleets, store, run_dir)
    return workload_calls(workload, fleets, store)


def new_run_dir(label: str) -> str:
    _clean_stale_runs()
    run_dir = os.path.join(WORK, "runs", f"{label}-{os.getpid()}")
    os.makedirs(run_dir)
    return run_dir


def _clean_stale_runs() -> None:
    runs = os.path.join(WORK, "runs")
    for name in os.listdir(runs) if os.path.isdir(runs) else []:
        pid = int(name.rsplit("-", 1)[-1])
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(runs, name), ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object."""
    units = load_metrics()["per_layer" if trace else "end_to_end"]
    pins = load_reference()["seeds"].get(str(seed))
    fleets = fleet.ensure_fleets(
        WORK, seed, program_env(), pinned=pins["fleet"] if pins else None
    )
    expected = pins["outputs"][workload] if pins else None
    run_dir = new_run_dir(f"{workload}-s{seed}")
    try:
        calls = prepare(workload, fleets, run_dir)
        samples, attempted, failed = [], 0, 0
        # Start another sample while at least half of it, at the pace of
        # the slowest so far, fits in --seconds: a run overshoots by at
        # most half a sample, and the sample count stays the same over a
        # wide range of host speeds.
        start, longest = perf_counter(), 0.0
        while not samples or perf_counter() - start + longest / 2 <= seconds:
            begun = perf_counter()
            samples.append(run_sample(run_dir, len(samples), calls, trace=False))
            ops, bad, outs = check_sample(workload, samples[-1], len(calls), fleets, expected)
            attempted, failed = attempted + ops, failed + bad
            if expected is None and outs is not None and None not in outs:
                expected = outs  # later samples must repeat the first good one
            print(
                f"sample {samples[-1]['index']}: wall {samples[-1].get('wall_s', 0):.3f} s, "
                f"setup {samples[-1].get('setup_s', 0):.3f} s, "
                f"rss {samples[-1]['rss_mb']:.1f} MB, failed ops {bad}/{ops}"
            )
            shutil.rmtree(samples[-1]["dir"], ignore_errors=True)
            longest = max(longest, perf_counter() - begun)
        good = [s for s in samples if s["exit"] == 0]
        wall = statistics.median(s["wall_s"] for s in good) if good else 0.0
        if not trace:
            values = {
                "wall_s": wall,
                "setup_s": statistics.median(s["setup_s"] for s in good) if good else 0.0,
                "peak_rss_mb": statistics.median(s["rss_mb"] for s in good) if good else 0.0,
            }
        else:
            traced = run_sample(run_dir, len(samples), calls, trace=True)
            ops, bad, _ = check_sample(workload, traced, len(calls), fleets, expected)
            attempted, failed = attempted + ops, failed + bad
            values = traced_metrics(traced, good, wall, list(units))
        if set(values) != set(units):
            raise SystemExit(
                f"measured metrics {sorted(set(values) ^ set(units))} do not match "
                "BENCHMARK.json's list"
            )
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def traced_metrics(traced: dict, untraced: List[dict], untraced_wall: float,
                   names: List[str]) -> Dict[str, float]:
    """Per-layer metrics of the traced sample; prints the layer table."""
    if traced["exit"] != 0 or not untraced:
        return {k: 0.0 for k in names}
    ledger = [r for k in range(len(traced["calls"])) for r in _ledger(traced["dir"], k)]
    layers = tracer.layer_metrics(tracer.load_spans(traced["dir"]), traced["pid"], ledger)
    layers["cli.import_s"] = statistics.median(s["import_s"] for s in untraced)
    layers["proc.cpu_s"] = statistics.median(s["cpu_s"] for s in untraced)
    layers["bench.trace_overhead_s"] = traced["wall_s"] - untraced_wall
    wall = traced["wall_s"]
    print(f"traced wall {wall:.3f} s, untraced median {untraced_wall:.3f} s, "
          f"attributed to named layers {1 - layers['bench.unattributed_s'] / wall:.1%}")
    print(tracer.layer_table(layers, wall))
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        parser.exit(2, f"error: no program source at {SRC}; run from a full checkout\n")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
