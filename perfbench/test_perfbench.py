"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Tiny runs of every workload through the one command check the metric
names and units against BENCHMARK.json, the layer invariants, and that a
doctored expected value makes the run fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import SlicedRun, Slice, percentile  # noqa: E402
from layertrace import LayerTrace, batch_wait_ns, covered_ns  # noqa: E402
from workloads import WORKLOADS as ALL  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
# grid_sweep is runnable but not listed in BENCHMARK.json (see README.md).
WORKLOADS = sorted(ALL)


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(ALL)


def run_bench(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


_results: dict = {}


def result(workload, trace):
    key = (workload, trace)
    if key not in _results:
        proc = run_bench(workload, "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr[-3000:]
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_layer_invariants():
    def layer(workload, name):
        return result(workload, 1)["metrics"][name]["value"]

    assert layer("serve_hit", "cache.hit_rate") == 1.0
    assert layer("serve_miss", "cache.hit_rate") == 0.0
    assert layer("serve_hit", "cache.replay_entries") > 0
    assert layer("serve_hit", "compiled.compile_calls") == 0
    for workload in ("serve_hit", "serve_miss"):
        assert layer(workload, "server.sharded_batches") == 0
        assert layer(workload, "registry.fingerprint_calls") > 0
    assert layer("serve_miss", "cache.journal_records") > 0
    assert layer("grid_sweep", "compiled.tapes") > 0
    assert layer("folded_grid", "fold.divergent_points") == 0
    assert layer("folded_grid", "fold.classes") > 0
    # Every served point is a replayed hit, so the event machine runs
    # only for the checks' references, which the trace does not count.
    assert layer("serve_hit", "machine.runs") == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_doctored_expected_value_fails_the_run(workload):
    proc = run_bench(workload, "--doctor-expected")
    assert proc.returncode == 1
    assert "MISMATCH" in proc.stderr and " op " in proc.stderr
    assert '"correct"' not in proc.stdout


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("serve_hit", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_normalisation_scales_by_the_bracketing_probes():
    run = SlicedRun(probes_ms=[60.0, 60.0], slices=[
        Slice(wall_s=2.0, ops=10, points=40, latencies_s=[0.2] * 10)])
    norm, raw = run.summary(), run.summary(normalise=False)
    assert raw["ops_per_s"] == 5.0
    assert norm["ops_per_s"] == pytest.approx(10.0)  # probe ran 2x nominal
    assert norm["latency_p50_ms"] == pytest.approx(100.0)
    assert percentile([1, 2, 3, 4], 50) == 2.5


def test_span_arithmetic():
    assert covered_ns([(0, 10), (5, 20), (30, 40)]) == 30
    # Wait 0..100 ended by batch 60..90; wait 0..50 was a cache hit.
    assert batch_wait_ns([(0, 100), (0, 50)], [(60, 90)]) == [70, 50]


def test_trace_restores_what_it_wraps():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.serve.cache import ResultCache
    from repro.serve.server import SweepRequest
    from repro.sim import sweep

    before = (sweep.grid_map, ResultCache.__dict__["get"],
              SweepRequest.__dict__["make"])
    trace = LayerTrace()
    trace.install()
    assert sweep.grid_map is not before[0]
    SweepRequest.make("flood", [{"L": 6, "o": 1, "g": 4, "P": 4}])
    trace.uninstall()
    assert trace.calls["server.make"] == 1
    assert (sweep.grid_map, ResultCache.__dict__["get"],
            SweepRequest.__dict__["make"]) == before
