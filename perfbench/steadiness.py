"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 1-10

Runs the benchmark exactly as ``BENCHMARK.json`` says, on each of its
workloads, once per seed in each of two sets of the same code.  The sets
are interleaved run by run (which set goes first alternates by seed) and
within a set the workloads go round-robin, so host-speed drift lands on
every workload and both sets alike.  The default seeds are pinned in
``reference.json``, so every sample is also checked against recorded
outputs.

For every end-to-end metric and workload it prints each set's median,
quartiles and spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), then checks
that each spread is within the metric's bound (it also says whether it
is below a third of it), and that the two sets' medians differ by no
more than the bound in either direction.  Raw results go to
``.perfbench/steadiness-<time>.json``.  Exits 1 if a check fails or an
operation failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int) -> dict:
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = elapsed
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [[], []] for w in workloads}
    for i, seed in enumerate(args.seeds):
        for workload in workloads:
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                r = run_once(bench, workload, seed)
                results[workload][s].append(dict(r, seed=seed))
                values = " ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items())
                print(f"set {s} {workload} seed {seed}: {values} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} run {r['run_s']:.1f} s", flush=True)
    ok = True
    print()
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in (0, 1):
                values = [r["metrics"][name]["value"] for r in results[workload][s]]
                q1, q2, q3, sp = spread(values)
                medians.append(q2)
                verdict = "ok" if sp < bound / 3 else "within bound" if sp <= bound else "TOO WIDE"
                ok &= sp <= bound
                print(f"{workload:<9}{name:<12} set {s}: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                      f"spread {sp:.3f} (bound {bound}) {verdict}")
            change = medians[1] / medians[0] - 1.0
            agree = abs(change) <= bound
            ok &= agree
            print(f"{workload:<9}{name:<12} set 1 vs set 0: {change:+.3f} "
                  f"{'agree' if agree else 'DISAGREE'}")
    failed = sum(r["failed"] for w in results.values() for s in w for r in s)
    ok &= failed == 0
    print(f"failed operations: {failed}")
    path = os.path.join(ROOT, ".perfbench", f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "results": results}, fh, indent=1)
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
