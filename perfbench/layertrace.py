"""Per-layer timers, installed around public functions for a traced run.

Each target is a public function (or method) in the namespace its
callers look it up in, e.g. ``repro.serve.server.grid_map`` for the
server's batches and ``repro.sim.sweep.grid_map`` for library callers.
Batches run in ``asyncio.to_thread``, so every update takes a lock.
An untraced run never constructs a :class:`LayerTrace`.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict


def _grid_counts(res) -> dict:
    return {
        "tapes": res.tapes,
        "fallbacks": res.fallbacks,
        "points": len(res.makespans),
        "classes": res.classes,
        "divergent": len(res.divergent),
    }


#: (module, attribute path, layer name, keep spans, counts from result).
TARGETS = (
    ("repro.serve.server", "SweepRequest.make", "server.make", True, None),
    ("repro.serve.server", "SimulationServer.submit", "server.submit", True,
     None),
    ("repro.serve.server", "Job.wait", "server.wait", True, None),
    ("repro.serve.server", "fingerprint", "registry.fingerprint", False, None),
    ("repro.serve.registry", "fingerprint", "registry.fingerprint", False,
     None),
    ("repro.serve.server", "build", "registry.build", False, None),
    ("repro.serve.server", "grid_map", "server.grid_map", True,
     lambda out: {"points": len(out)}),
    ("repro.sim.sweep", "grid_map", "sweep.grid_map", True,
     lambda out: {"points": len(out)}),
    ("repro.serve.cache", "ResultCache.get", "cache.get", False,
     lambda out: {"hits": out is not None, "misses": out is None}),
    ("repro.serve.cache", "ResultCache.put", "cache.put", True, None),
    ("repro.serve.cache", "CachePersistence.load", "cache.replay", False,
     lambda out: {"entries": len(out)}),
    ("repro.serve.cache", "CachePersistence.record", "cache.journal", True,
     None),
    ("repro.serve.cache", "CachePersistence.snapshot", "cache.snapshot", True,
     None),
    ("repro.sim.compiled", "compile_programs", "compiled.compile", False,
     None),
    ("repro.sim.compiled", "evaluate_grid", "compiled.evaluate_grid", False,
     _grid_counts),
    ("repro.sim.compiled", "evaluate_folded_grid", "fold.evaluate", True,
     _grid_counts),
    ("repro.algorithms.broadcast", "binomial_tree_folded", "fold.tree", True,
     None),
    ("repro.sim.compiled", "fold_tree", "fold.fold", True, None),
    ("repro.sim.machine", "LogPMachine.run", "machine.run", False, None),
)


class LayerTrace:
    """Call counts, busy time and (for some layers) spans, per layer name."""

    def __init__(self):
        self._lock = threading.Lock()
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: Counter = Counter()
            self.ns: Counter = Counter()
            self.counts: Counter = Counter()
            self.spans: dict = defaultdict(list)

    def _record(self, name, t0, t1, keep_span, extra) -> None:
        with self._lock:
            self.calls[name] += 1
            self.ns[name] += t1 - t0
            if keep_span:
                self.spans[name].append((t0, t1))
            if extra:
                for k, v in extra.items():
                    self.counts[f"{name}.{k}"] += v

    def _wrap(self, fn, name, keep_span, counts):
        record = self._record
        clock = time.perf_counter_ns
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                t0 = clock()
                out = await fn(*args, **kwargs)
                record(name, t0, clock(), keep_span, counts and counts(out))
                return out

            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            record(name, t0, clock(), keep_span, counts and counts(out))
            return out

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for module, path, name, keep_span, counts in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(
                    self._wrap(raw.__func__, name, keep_span, counts)
                )
            else:
                new = self._wrap(raw, name, keep_span, counts)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def covered_ns(spans) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(spans):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def batch_wait_ns(waits, batches) -> list:
    """Each wait minus the grid evaluation of the batch that ended it.

    A job's points all land in one coalesced batch, whose evaluation is
    the last one ending inside the wait; a wait with none (a cache hit)
    is all batching and queueing.
    """
    batches = sorted(batches, key=lambda span: span[1])
    ends = [end for _start, end in batches]
    out = []
    for start, end in waits:
        j = bisect.bisect_right(ends, end) - 1
        own = 0
        if j >= 0 and batches[j][0] >= start:
            own = batches[j][1] - batches[j][0]
        out.append((end - start) - own)
    return out
