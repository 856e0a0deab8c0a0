"""Record the pinned seeds' fleet digests and reference outputs.

Usage (from the repository root)::

    python3 perfbench/pin.py --seed 0 --seed 17

For each seed this regenerates the fleets, runs one sample of every
workload, checks the seed-independent facts, and writes the generated
files' sha256 values and each CLI call's exit status and output digests
to ``reference.json``.  Run it only after a deliberate change to
``repro.synth`` or to a command's output, and review the diff.
"""

import argparse
import json
import shutil
import sys

import fleet
import run


def pin(seed: int) -> dict:
    fleets = fleet.ensure_fleets(run.WORK, seed, run.program_env())
    outputs = {}
    for workload in run.WORKLOADS:
        run_dir = run.new_run_dir(f"pin-{workload}-s{seed}")
        try:
            calls = run.prepare(workload, fleets, run_dir)
            sample = run.run_sample(run_dir, 0, calls, trace=False)
            _, failed, outs = run.check_sample(workload, sample, len(calls), fleets, None)
            if failed:
                sys.exit(f"seed {seed}: {workload} failed its fact checks; see {run_dir}")
            outputs[workload] = outs
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return {"fleet": fleets["files"], "outputs": outputs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args()
    reference = run.load_reference()
    for seed in args.seed:
        reference["seeds"][str(seed)] = pin(seed)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
