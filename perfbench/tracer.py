"""Per-layer spans for the benchmark's traced sample.

The program is not changed: :func:`install` replaces each layer's
public functions, in every ``repro`` module that references them, with
wrappers that record a span per call (name, start, end, parent, pid).
A function that returns an iterator gets one span per ``next()``, so
lazily parsed or served chunks are charged to the layer that produced
them, not to the consumer.  Spans stay in memory in every process; a
forked pool worker starts an empty buffer and writes it out when the
worker exits, the sample process writes its own at the end.

:func:`layer_metrics` merges the buffers.  A span's self time is its
duration minus the time its child spans (same process) cover.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: span name -> (module, functions); ``None`` means every function in the
#: module's ``__all__``.  ``_iter_batch_columns`` is private but it is the
#: one text-parse core behind both ``iter_chunks`` and the store's ``build_entry``.
LAYERS = {
    "parse": ("repro.engine.chunks", ["_iter_batch_columns"]),
    "store.build": ("repro.store.builder", ["build_entry", "ingest_file", "ingest_dir"]),
    "store.serve": ("repro.store.reader", ["try_serve", "serve_chunks", "serve_range"]),
    "engine.materialize": ("repro.engine.chunks", ["read_dataset_dir_chunked"]),
    "engine.map": ("repro.engine.runner", ["parallel_map", "resilient_map"]),
    "trace.blocks": ("repro.trace.blocks", None),
    "core.findings": ("repro.core.findings", None),
    "core.profile": ("repro.core.volume_profile", None),
    "core.load_intensity": ("repro.core.load_intensity", None),
    "core.spatial": ("repro.core.spatial", None),
    "core.temporal": ("repro.core.temporal", None),
    "core.cache_analysis": ("repro.core.cache_analysis", None),
    "cache.simulate": ("repro.cache.simulator", None),
    "obs.ledger": ("repro.obs.ledger", None),
}
ROOT = "cli"

#: Per-layer metric -> the span whose self time it reports.
SELF_TIMES = {
    "parse.self_s": "parse",
    "store.build_self_s": "store.build",
    "store.serve_s": "store.serve",
    "engine.materialize_s": "engine.materialize",
    "engine.map_s": "engine.map",
    "trace.blocks_self_s": "trace.blocks",
    "core.findings_self_s": "core.findings",
    "core.profile_self_s": "core.profile",
    "core.load_intensity_s": "core.load_intensity",
    "core.spatial_s": "core.spatial",
    "core.temporal_s": "core.temporal",
    "core.cache_analysis_self_s": "core.cache_analysis",
    "cache.simulate_s": "cache.simulate",
    "obs.ledger_s": "obs.ledger",
}

#: Per-layer metric -> counter in the program's own ledger records.
LEDGER_COUNTS = {
    "parse.lines": "parse.lines",
    "parse.bytes": "parse.bytes",
    "store.bytes_written": "store.bytes_written",
    "store.rows": "store.rows",
    "store.mmap_bytes": "store.mmap_bytes",
    "store.hits": "store.hits",
    "engine.worker_busy_s": "engine.unit_seconds.sum",
    "engine.units": "engine.unit_seconds.count",
    "cache.accesses": "cache.accesses",
    "cache.misses": "cache.misses",
}


def _payload_bytes(obj, depth: int = 0) -> int:
    """Array bytes reachable from ``obj``: what pickling a unit ships."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if depth > 4:
        return 0
    if isinstance(obj, dict):
        return sum(_payload_bytes(v, depth + 1) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(v, depth + 1) for v in obj)
    fields = getattr(obj, "__slots__", None) or getattr(obj, "__dict__", None) or ()
    return sum(_payload_bytes(getattr(obj, f, None), depth + 1) for f in fields)


class Tracer:
    """One process's span buffer plus the counts the wrappers take."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.stack: List[int] = []
        self.counts: Dict[str, float] = collections.Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "spans": self.spans, "counts": self.counts}, fh)

    def _arm_worker(self) -> None:
        # Runs in a forked multiprocessing child after its finalizer
        # registry was cleared; the finalizer runs when the worker exits.
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def _iterate(self, it, name: str):
        try:
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if hasattr(result, "__next__"):
                return tracer._iterate(result, name)
            return result

        return wrapper


def _count_expansion(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["trace.block_expansions"] += 1
    tracer.counts["trace.block_events"] += len(result[1])


def _count_simulation(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["cache.simulate_calls"] += 1


def _count_shipping(tracer: Tracer, args, kwargs, result) -> None:
    # parallel_map/resilient_map(fn, items, workers, ...): units cross the
    # pool only when more than one worker and more than one unit exist.
    items = args[1] if len(args) > 1 else kwargs.get("items")
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    if workers > 1 and isinstance(items, Sequence) and len(items) > 1:
        values = result[0] if isinstance(result, tuple) else result
        tracer.counts["engine.shipped_bytes"] += _payload_bytes(items) + _payload_bytes(values)


HOOKS = {
    ("repro.trace.blocks", "expand_to_blocks"): _count_expansion,
    ("repro.cache.simulator", "simulate_stream"): _count_simulation,
    ("repro.engine.runner", "parallel_map"): _count_shipping,
    ("repro.engine.runner", "resilient_map"): _count_shipping,
}


def install(out_dir: str) -> Tracer:
    """Wrap every layer function in every loaded ``repro`` module."""
    tracer = Tracer(out_dir)
    replacements = {}
    for name, (module_name, functions) in LAYERS.items():
        module = importlib.import_module(module_name)
        if functions is None:
            functions = [
                f for f in module.__all__
                if inspect.isfunction(getattr(module, f))
                and getattr(module, f).__module__ == module_name
            ]
        for fname in functions:
            fn = getattr(module, fname)
            hook = HOOKS.get((module_name, fname))
            replacements[id(fn)] = (fn, tracer.wrap(fn, name, hook))
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    multiprocessing.util.register_after_fork(tracer, Tracer._arm_worker)
    return tracer


def _self_times(spans: List[list]) -> List[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def load_spans(out_dir: str) -> List[dict]:
    buffers = []
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("spans-") and fname.endswith(".json"):
            with open(os.path.join(out_dir, fname), encoding="utf-8") as fh:
                buffers.append(json.load(fh))
    return buffers


def layer_metrics(buffers: List[dict], main_pid: int, ledger: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from merged span buffers and ledger records."""
    self_by_span: Dict[str, float] = collections.Counter()
    counts: Dict[str, float] = collections.Counter()
    wall = attributed = 0.0
    for buf in buffers:
        spans = buf["spans"]
        if any(end is None for _, _, end, _ in spans):
            raise RuntimeError(f"unclosed span in process {buf['pid']}")
        for (name, _, _, _), own in zip(spans, _self_times(spans)):
            self_by_span[name] += own
        counts.update(buf["counts"])
        if buf["pid"] != main_pid:
            continue
        for i, (name, start, end, parent) in enumerate(spans):
            if name == ROOT and parent == -1:
                wall += end - start
            elif parent >= 0 and spans[parent][0] == ROOT:
                attributed += end - start
    out = {metric: self_by_span.get(span, 0.0) for metric, span in SELF_TIMES.items()}
    for metric, key in LEDGER_COUNTS.items():
        out[metric] = float(sum(r["metrics"].get(key, 0) for r in ledger))
    weights = [
        (r["metrics"]["engine.utilization"], r["metrics"].get("engine.wall_seconds", 0.0))
        for r in ledger if "engine.utilization" in r["metrics"]
    ]
    total = sum(w for _, w in weights)
    out["engine.utilization"] = sum(u * w for u, w in weights) / total if total else 0.0
    for key in ("engine.shipped_bytes", "trace.block_expansions", "trace.block_events",
                "cache.simulate_calls"):
        out[key] = float(counts.get(key, 0))
    out["bench.unattributed_s"] = wall - attributed
    return out


def layer_table(metrics: Dict[str, float], wall: float) -> str:
    """A printable table: each layer's self time, share of wall and counts."""
    rows = [f"{'layer metric':<28}{'value':>16}{'share of wall':>16}"]
    for key in sorted(metrics):
        value = metrics[key]
        timed = key.endswith("_s") and key not in ("cli.import_s", "proc.cpu_s")
        share = f"{value / wall:>15.1%}" if timed and wall > 0 else ""
        rows.append(f"{key:<28}{value:>16.4f}{share:>16}")
    return "\n".join(rows)

