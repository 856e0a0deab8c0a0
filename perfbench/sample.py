"""One benchmark sample: a fresh process that runs ``repro.cli.main`` calls.

Usage: ``python3 perfbench/sample.py SPEC.json`` (started by ``run.py``).

SPEC holds ``dir`` (the sample's own directory, created here), ``calls``
(one argv list per CLI call), ``trace`` (install the layer wrappers) and
``result`` (where to write timings).  Everything a user pays on each
invocation happens before ``ready``: interpreter start, ``import
repro.cli`` and creating the sample directory.  Standard output of the
calls goes wherever the parent pointed this process's stdout.
"""

import json
import os
import sys
import traceback
from time import perf_counter


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    start = perf_counter()
    import repro.cli

    import_s = perf_counter() - start
    os.makedirs(spec["dir"])
    os.chdir(spec["dir"])
    ready = perf_counter()

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install(spec["dir"])
    calls = []
    for argv in spec["calls"]:
        error = None
        root = tracer.open(tracing.ROOT) if tracer else None
        t0 = perf_counter()
        try:
            rc = repro.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc, error = None, traceback.format_exc()
            sys.stderr.write(error)
        wall = perf_counter() - t0
        if tracer:
            tracer.close(root)
        sys.stdout.flush()
        calls.append({"argv": argv, "rc": rc, "wall": wall, "error": error})
    if tracer:
        tracer.flush()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "ready": ready, "import_s": import_s, "calls": calls}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
