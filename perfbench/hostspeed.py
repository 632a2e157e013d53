"""Host-speed normalisation: timed work runs in slices bracketed by a probe.

A shared host changes speed in phases that last several seconds, and CPU
time tracks wall time through them, so neither clock alone separates a
code change from a host change.  The timed phase is therefore cut into
slices of ``SLICE_S`` seconds.  Before and after each slice, while the
program under test is idle, a fixed pure-Python probe runs with the
cyclic GC paused and is timed with ``time.thread_time()``: no thread of
the program and no GC setting of the program can move it.  Each slice's
timings are scaled by ``NOMINAL_PROBE_MS / probe``, where ``probe`` is
the mean of the probes on either side of the slice.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

#: Probe loop length: 30-60 ms of dict/str work on a 2-vCPU x86 VM,
#: depending on the host's phase.
PROBE_ITERS = 80_000
#: What the probe is taken to cost on a host of reference speed.  A
#: constant, so that normalised figures from two runs compare directly.
NOMINAL_PROBE_MS = 30.0
#: Target length of one slice of timed work.
SLICE_S = 0.3


def probe_ms() -> float:
    """Time the fixed probe in thread CPU milliseconds, GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table: dict[str, int] = {}
        for i in range(PROBE_ITERS):
            key = "k%d" % (i & 2047)
            table[key] = table.get(key, 0) + len(key)
        return (time.thread_time() - start) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100); 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Slice:
    """One slice of timed work; ``latencies_s`` holds completed ops only."""

    wall_s: float = 0.0
    ops: int = 0
    failed: int = 0
    points: int = 0
    latencies_s: list = field(default_factory=list)
    traced: bool = False


@dataclass
class SlicedRun:
    """Probes and slices in time order: probe, slice, probe, ..., probe."""

    probes_ms: list = field(default_factory=list)
    slices: list = field(default_factory=list)

    def probe(self) -> None:
        self.probes_ms.append(probe_ms())

    def factor(self, i: int) -> float:
        """Scale for slice ``i``: nominal over the mean bracketing probe."""
        around = (self.probes_ms[i] + self.probes_ms[i + 1]) / 2.0
        return NOMINAL_PROBE_MS / around

    @property
    def attempted(self) -> int:
        return sum(s.ops for s in self.slices)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.slices)

    def summary(self, *, traced: bool = False, normalise: bool = True) -> dict:
        """Throughput and latency over the slices with ``traced`` status."""
        time_s = 0.0
        ops = points = 0
        lat: list[float] = []
        for i, s in enumerate(self.slices):
            if s.traced != traced:
                continue
            f = self.factor(i) if normalise else 1.0
            time_s += s.wall_s * f
            ops += s.ops - s.failed
            points += s.points
            lat.extend(x * f for x in s.latencies_s)
        return {
            "time_s": time_s,
            "ops": ops,
            "ops_per_s": ops / time_s if time_s else 0.0,
            "points_per_s": points / time_s if time_s else 0.0,
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_p90_ms": percentile(lat, 90) * 1e3,
            "latency_p99_ms": percentile(lat, 99) * 1e3,
        }

    def probe_stats(self) -> dict:
        med = statistics.median(self.probes_ms)
        return {
            "probe_ms": med,
            "probe_spread": (max(self.probes_ms) - min(self.probes_ms)) / med,
        }


def run_sliced(seconds: float, run_slice, *, before_slice=None) -> SlicedRun:
    """Drive ``run_slice(stop_at) -> Slice`` for ``seconds`` of wall time.

    ``stop_at`` is the ``perf_counter`` time after which the slice starts
    no new operation.  ``before_slice(i) -> bool`` runs outside the timed
    slice and says whether slice ``i`` is traced.
    """
    run = SlicedRun()
    run.probe()
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end:
        traced = before_slice(i) if before_slice is not None else False
        start = time.perf_counter()
        s = run_slice(start + SLICE_S)
        s.wall_s = time.perf_counter() - start
        s.traced = traced
        run.slices.append(s)
        run.probe()
        i += 1
    return run
