"""The benchmark's one command: run a workload, check it, print metrics.

    python3 perfbench/run.py --workload serve_hit --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see README.md).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A result that
differs from its reference exits 1 and names the operation; a checkout
without the package exits 2.  Neither prints a result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-ups timed per untraced run, each in a fresh interpreter.
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "points_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "protocol.self_ms": "ms",
    "server.make_us": "us",
    "server.submit_self_us": "us",
    "server.batch_wait_ms": "ms",
    "server.points_per_batch": "count",
    "server.sharded_batches": "count",
    "registry.fingerprint_calls": "count",
    "registry.fingerprint_us": "us",
    "registry.fingerprint_share": "share",
    "registry.build_us": "us",
    "cache.hit_rate": "share",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "cache.replay_ms": "ms",
    "cache.replay_entries": "count",
    "cache.journal_records": "count",
    "cache.journal_ms": "ms",
    "cache.snapshots": "count",
    "cache.snapshot_ms": "ms",
    "sweep.grid_map_calls": "count",
    "sweep.grid_map_ms": "ms",
    "sweep.points_per_call": "count",
    "compiled.compile_calls": "count",
    "compiled.compile_ms": "ms",
    "compiled.evaluate_grid_ms": "ms",
    "compiled.tapes": "count",
    "compiled.tapes_per_call": "count",
    "compiled.fallback_share": "share",
    "fold.build_ms": "ms",
    "fold.evaluate_ms": "ms",
    "fold.classes": "count",
    "fold.divergent_points": "count",
    "machine.runs": "count",
    "machine.run_ms": "ms",
    "host.probe_ms": "ms",
    "host.probe_spread": "share",
    "raw.ops_per_s": "1/s",
    "raw.points_per_s": "1/s",
    "raw.latency_p50_ms": "ms",
    "raw.latency_p90_ms": "ms",
    "tail.latency_p99_ms": "ms",
    "failed_share": "share",
    "trace.unattributed_share": "share",
    "trace.overhead": "ratio",
}

#: Layer entry points whose spans account for wall time; the rest of
#: the wall time is ``trace.unattributed_share``.
TOP_LEVEL = (
    "server.make",
    "server.submit",
    "server.grid_map",
    "cache.put",
    "cache.journal",
    "cache.snapshot",
    "sweep.grid_map",
    "fold.tree",
    "fold.fold",
    "fold.evaluate",
)


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--doctor-expected", action="store_true",
        help="self-test: corrupt one expected value; the run must fail",
    )
    ap.add_argument("--setup-sample", choices=sorted(WORKLOADS),
                    help=argparse.SUPPRESS)
    ap.add_argument("--fill-catalogue", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--cache-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.child = args.setup_sample is not None or args.fill_catalogue
    if not args.child and args.workload is None:
        ap.error("--workload is required")
    return args


def setup_sample(name: str, cache_dir: str | None) -> float:
    """One set-up from the first call into ``repro``, in this process."""
    from workloads import folded_setup, grid_setup, serve_setup, serve_teardown

    start = time.perf_counter()
    if name.startswith("serve"):
        loop = asyncio.new_event_loop()
        state = loop.run_until_complete(serve_setup(cache_dir))
        elapsed = time.perf_counter() - start
        loop.run_until_complete(serve_teardown(*state))
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
        return elapsed
    if name == "grid_sweep":
        grid_setup()
    else:
        folded_setup()
    return time.perf_counter() - start


def measure_setup(workload, name: str) -> list[float]:
    """Time ``SETUP_SAMPLES`` set-ups, each in a fresh interpreter."""
    from workloads import run_child

    out = []
    for _ in range(SETUP_SAMPLES):
        cache_dir = workload.sample_dir()
        args = ["--setup-sample", name]
        if cache_dir is not None:
            args += ["--cache-dir", cache_dir]
        out.append(json.loads(run_child(*args).splitlines()[-1])["setup_s"])
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, setup: list[float], rss_mb: float) -> dict:
    norm = run.summary()
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": norm["ops_per_s"],
        "points_per_s": norm["points_per_s"],
        "latency_p50_ms": norm["latency_p50_ms"],
        "latency_p90_ms": norm["latency_p90_ms"],
        "peak_rss_mb": rss_mb,
    }


def diagnostics(run) -> dict:
    """Figures recorded on every run and never gated."""
    raw = run.summary(normalise=False)
    out = {f"host.{k}": v for k, v in run.probe_stats().items()}
    out.update({f"raw.{k}": raw[k] for k in (
        "ops_per_s", "points_per_s", "latency_p50_ms", "latency_p90_ms")})
    out["tail.latency_p99_ms"] = run.summary()["latency_p99_ms"]
    out["failed_share"] = run.failed / max(run.attempted, 1)
    return out


def layer_metrics(trace, run, replay: tuple, server_stats: dict) -> dict:
    """Per-layer figures from the traced slices (raw wall clock)."""
    from layertrace import batch_wait_ns, covered_ns

    calls, ns, cnt = trace.calls, trace.ns, trace.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(name, scale):
        return ratio(ns[name], calls[name]) / scale

    traced = [s for s in run.slices if s.traced]
    wall_ns = sum(s.wall_s for s in traced) * 1e9
    done = sum(len(s.latencies_s) for s in traced)
    client_ns = sum(sum(s.latencies_s) for s in traced) * 1e9
    server_ns = ns["server.make"] + ns["server.submit"] + ns["server.wait"]
    waits = batch_wait_ns(trace.spans["server.wait"],
                          trace.spans["server.grid_map"])
    grid_calls = calls["server.grid_map"] + calls["sweep.grid_map"]
    grid_points = cnt["server.grid_map.points"] + cnt["sweep.grid_map.points"]
    evals = calls["compiled.evaluate_grid"] + calls["fold.evaluate"]
    tapes = cnt["compiled.evaluate_grid.tapes"] + cnt["fold.evaluate.tapes"]
    hits, misses = cnt["cache.get.hits"], cnt["cache.get.misses"]
    per_op = {}
    for flag in (True, False):
        part = run.summary(traced=flag)
        per_op[flag] = ratio(part["time_s"], part["ops"])
    spans = [sp for name in TOP_LEVEL for sp in trace.spans[name]]
    out = {
        "protocol.self_ms": ratio(client_ns - server_ns, done) / 1e6
        if calls["server.submit"] else 0.0,
        "server.make_us": mean("server.make", 1e3),
        "server.submit_self_us": ratio(
            ns["server.submit"] - ns["registry.fingerprint"]
            - ns["cache.get"], calls["server.submit"]) / 1e3,
        "server.batch_wait_ms": ratio(sum(waits), len(waits)) / 1e6,
        "server.points_per_batch": ratio(cnt["server.grid_map.points"],
                                         calls["server.grid_map"]),
        "server.sharded_batches": server_stats.get("sharded_batches", 0),
        "registry.fingerprint_calls": calls["registry.fingerprint"],
        "registry.fingerprint_us": mean("registry.fingerprint", 1e3),
        "registry.fingerprint_share": ratio(ns["registry.fingerprint"],
                                            wall_ns),
        "registry.build_us": mean("registry.build", 1e3),
        "cache.hit_rate": ratio(hits, hits + misses),
        "cache.get_us": mean("cache.get", 1e3),
        "cache.put_us": mean("cache.put", 1e3),
        "cache.replay_ms": replay[0] / 1e6,
        "cache.replay_entries": replay[1],
        "cache.journal_records": calls["cache.journal"],
        "cache.journal_ms": mean("cache.journal", 1e6),
        "cache.snapshots": calls["cache.snapshot"],
        "cache.snapshot_ms": mean("cache.snapshot", 1e6),
        "sweep.grid_map_calls": grid_calls,
        "sweep.grid_map_ms": ratio(
            ns["server.grid_map"] + ns["sweep.grid_map"], grid_calls) / 1e6,
        "sweep.points_per_call": ratio(grid_points, grid_calls),
        "compiled.compile_calls": calls["compiled.compile"],
        "compiled.compile_ms": mean("compiled.compile", 1e6),
        "compiled.evaluate_grid_ms": mean("compiled.evaluate_grid", 1e6),
        "compiled.tapes": tapes,
        "compiled.tapes_per_call": ratio(tapes, evals),
        "compiled.fallback_share": ratio(
            cnt["compiled.evaluate_grid.fallbacks"]
            + cnt["fold.evaluate.fallbacks"],
            cnt["compiled.evaluate_grid.points"] + cnt["fold.evaluate.points"],
        ),
        "fold.build_ms": ratio(ns["fold.tree"] + ns["fold.fold"],
                               calls["fold.fold"]) / 1e6,
        "fold.evaluate_ms": mean("fold.evaluate", 1e6),
        "fold.classes": ratio(cnt["fold.evaluate.classes"],
                              calls["fold.evaluate"]),
        "fold.divergent_points": cnt["fold.evaluate.divergent"],
        "machine.runs": calls["machine.run"],
        "machine.run_ms": mean("machine.run", 1e6),
        "trace.unattributed_share": 1.0 - ratio(covered_ns(spans), wall_ns),
        "trace.overhead": ratio(per_op[True], per_op[False]),
    }
    out.update(diagnostics(run))
    return out


def pin_to_one_cpu() -> None:
    """Keep every thread of the run, and the set-up processes it starts,
    on one CPU: the probe then times the CPU that does the work.  (On a
    shared VM the two vCPUs are contended unequally, and the server's
    batch thread and the event loop may otherwise sit on different ones.)
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.child:
        pin_to_one_cpu()  # children inherit the CPU
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    if args.setup_sample is not None:
        setup_s = setup_sample(args.setup_sample, args.cache_dir)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.fill_catalogue:
        from workloads import fill_catalogue

        fill_catalogue(args.cache_dir, json.load(sys.stdin))
        return 0
    try:
        import repro.serve
    except ImportError as exc:
        return fail(f"cannot import repro from {src}: {exc}", 2)
    if not os.path.abspath(repro.serve.__file__).startswith(src + os.sep):
        return fail(f"repro imported from outside {src}", 2)

    from hostspeed import run_sliced
    from layertrace import LayerTrace
    from workloads import WORKLOADS

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        workload.prepare()
        if args.doctor_expected:
            workload.doctor()
        # Only an untraced, undoctored run prints ``setup_s``.
        setup = []
        if not args.trace and not args.doctor_expected:
            setup = measure_setup(workload, args.workload)
        trace = LayerTrace() if args.trace else None
        if trace is not None:
            trace.install()
        workload.setup()
        replay = (0, 0)
        if trace is not None:
            replay = (trace.ns["cache.replay"],
                      trace.counts["cache.replay.entries"])
            trace.reset()

        def before_slice(i: int) -> bool:
            workload.between_slices()
            # Traced runs alternate traced and untraced slices; the
            # untraced ones give ``trace.overhead`` its baseline.
            if trace is None:
                return False
            if i % 2 == 0:
                trace.install()
                return True
            trace.uninstall()
            return False

        run = run_sliced(args.seconds, workload.run_slice,
                         before_slice=before_slice)
        # Read before the checks, whose reference runs are not the program.
        rss_mb = peak_rss_mb()
        if trace is not None:
            trace.uninstall()
        stats = workload.server_stats()
        workload.teardown()
        bad = workload.check()
    try:
        os.rmdir(scratch)
    except OSError:
        pass  # another run is using it
    for line in workload.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if bad:
        for line in bad[:20]:
            print(f"MISMATCH {line}", file=sys.stderr)
        return fail(f"{len(bad)} result(s) differ from their reference", 1)
    if run.attempted < 1:
        return fail("no operation completed in the timed phase", 1)

    if trace is None:
        values = end_to_end(run, setup, rss_mb)
        units = END_TO_END
        print("diagnostics", json.dumps(dict(diagnostics(run),
                                             setup_samples_s=setup)))
    else:
        values = layer_metrics(trace, run, replay, stats)
        units = PER_LAYER
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
