"""The compiled path: bit-identity, grids, refusal semantics.

The contract under test is the one the fuzz harness enforces at scale
(``repro.sim.fuzz`` check 5): for any deterministic fixed-latency
schedule, the compiled path — a recorded tape at one point, vectorized
replay over a grid, or the event-machine fallback past the tape budget
— produces *exactly* what the event machine produces.  Every comparison
here is ``==``; there are no tolerances to hide behind.

Also covered: the machine-kwarg variants the tape recorder mirrors
(capacity override, ``enforce_capacity=False``, ``hw_barrier_cost``,
``merge_overhead_into_gap`` parameter sets, LogGP long messages),
capacity-stall accounting cross-checked through ``stall_report()``,
numpy-vs-pure-python replay parity, the seed-axis differential (seeded
latency draws replayed as per-column tape inputs, pinned bit-identical
over 100 seeds x 3 fuzz families), TopologyFabric per-hop lowering on
the Section 5 topologies, branch-splitting for bounded ``Now``
programs, and the backend selection rules: ``compiled``/``auto``
refuse load-dependent timing (contention, loss, faults) loudly instead
of silently falling back, while seeded models and deterministic routed
fabrics compile.
"""

from __future__ import annotations

import pytest

from repro.core import LogPParams
from repro.core.loggp import LogGPParams
from repro.sim import (
    Barrier,
    Compute,
    FixedLatency,
    LogPMachine,
    Now,
    Poll,
    Recv,
    Send,
    UniformLatency,
)
from repro.sim.compiled import (
    BACKENDS,
    CompileError,
    TimingDependentError,
    backend_ineligibility,
    compile_at,
    compile_programs,
    compile_representatives,
    evaluate_grid,
    evaluate_seed_grid,
    resolve_backend,
)
from repro.sim.fuzz import LATENCIES, make_case
from repro.sim.net import LatencyFabric, TopologyFabric
from repro.sim.sweep import GridMapReport, grid_map

BASE = LogPParams(L=6, o=2, g=4, P=8)


# ----------------------------------------------------------------------
# Program factories
# ----------------------------------------------------------------------


def _bcast(rank: int, P: int):
    """Pipelined chain broadcast of 4 items: P-generic, stall-prone."""

    def run():
        for idx in range(4):
            if rank > 0:
                msg = yield Recv(tag=("it", idx))
                val = msg.payload
            else:
                val = idx
            if rank < P - 1:
                yield Send(rank + 1, payload=val, tag=("it", idx))
        return rank

    return run()


def _flood(rank: int, P: int):
    """Many-to-one flood: deep in the capacity-stall regime."""

    def run():
        if rank == 0:
            for _ in range(6 * (P - 1)):
                yield Recv()
            return None
        for _ in range(6):
            yield Send(0)
        return None

    return run()


def _barrier_prog(rank: int, P: int):
    def run():
        yield Compute(rank + 1)
        yield Barrier()
        if rank == 0:
            yield Send(1, payload="after")
        elif rank == 1:
            yield Recv()
        return rank

    return run()


def _loggp_prog(rank: int, P: int):
    """Long (multi-word) messages: exercises the LogGP G term."""

    def run():
        if rank == 0:
            yield Send(1, words=64, payload="bulk")
            yield Send(1, words=1, payload="short")
            return None
        if rank == 1:
            yield Recv()
            yield Recv()
        return None

    return run()


def _now_prog(rank: int, P: int):
    def run():
        t = yield Now()
        yield Compute(t + 1)
        return None

    return run()


def _clocked(rank: int, P: int):
    """Reads a clock that depends on ``o``: the send's overhead."""

    def run():
        if rank == 0:
            yield Send(1)
        else:
            yield Recv()
        t = yield Now()
        yield Compute(t)
        return t

    return run()


# ----------------------------------------------------------------------
# Single-point differential
# ----------------------------------------------------------------------


def _assert_matches(factory, params, **kw) -> None:
    """A one-point tape and the machine agree exactly on every shared
    field."""
    machine = LogPMachine(
        params, latency=FixedLatency(params.L), trace=False, **kw
    ).run(factory)
    prog = compile_programs(factory, params.P)
    gr = evaluate_grid(prog, [params], **kw)
    assert (gr.tapes, gr.fallbacks) == (1, 0)  # the tape, not the machine
    assert gr.makespans == [machine.makespan]
    assert gr.total_stall_times == [machine.total_stall_time]
    assert prog.n_messages == machine.total_messages
    assert tuple(prog.values) == tuple(machine.values())


@pytest.mark.parametrize("factory", [_bcast, _flood, _barrier_prog])
@pytest.mark.parametrize(
    "params",
    [
        BASE,
        LogPParams(L=12, o=1, g=1, P=6),  # high capacity, no stalls
        LogPParams(L=9, o=0.5, g=3, P=4),  # fractional overhead
    ],
)
def test_scalar_differential(factory, params):
    _assert_matches(factory, params)


@pytest.mark.parametrize("seed", range(12))
def test_scalar_differential_fuzz_families(seed):
    """A thin slice of the fuzz differential, pinned into tier 1."""
    case = make_case(seed)
    _assert_matches(case.factory, case.params)


def test_capacity_override_and_disabled():
    _assert_matches(_flood, BASE, capacity=2)
    _assert_matches(_flood, BASE, capacity=1)
    _assert_matches(_flood, BASE, enforce_capacity=False)


def test_hw_barrier_cost():
    _assert_matches(_barrier_prog, BASE, hw_barrier_cost=3.5)


def test_merge_overhead_into_gap_variant():
    """The Section 3.1 ``o := max(o, g)`` analysis sets (g ignored, so
    capacity degenerates) still evaluate bit-identically."""
    merged = BASE.merge_overhead_into_gap()
    _assert_matches(_bcast, merged, enforce_capacity=False)


def test_loggp_long_messages():
    p = LogGPParams(L=6, o=2, g=4, G=0.5, P=2)
    machine = LogPMachine(p, trace=False).run(_loggp_prog)
    prog = compile_programs(_loggp_prog, 2)
    gr = evaluate_grid(prog, [p])
    assert gr.makespans == [machine.makespan]
    assert prog.n_messages == machine.total_messages


def test_stall_report_cross_check():
    """Capacity-stall totals agree with a traced machine run whose
    stall_report() shows the stalls resolved."""
    machine = LogPMachine(
        BASE, latency=FixedLatency(BASE.L), trace=True
    ).run(_flood)
    report = machine.stall_report()
    assert report.stalls > 0 and report.ok  # the regime is exercised
    gr = evaluate_grid(compile_programs(_flood, BASE.P), [BASE])
    assert gr.total_stall_times == [machine.total_stall_time]
    assert gr.total_stall_times[0] > 0


def test_compile_error_on_timing_dependence():
    """Bare lowering (no clock oracle) still refuses ``Now`` — with the
    dedicated subclass grid_map routes to the branch-splitting path."""
    assert issubclass(TimingDependentError, CompileError)
    with pytest.raises(TimingDependentError, match="Now"):
        compile_programs(_now_prog, 2)


# ----------------------------------------------------------------------
# Grid replay
# ----------------------------------------------------------------------

GRID = [
    LogPParams(L=float(L), o=o, g=float(g), P=8)
    for L in (1, 3, 6, 9, 14)
    for g in (1, 2, 4, 7)
    for o in (0.5, 2.0)
]


@pytest.mark.parametrize("factory", [_bcast, _flood])
def test_grid_matches_machine_per_point(factory):
    gr = evaluate_grid(compile_programs(factory, 8), GRID, max_tapes=64)
    assert gr.fallbacks == 0  # every point tape-covered, none punted
    for i, p in enumerate(GRID):
        res = LogPMachine(p, latency=FixedLatency(p.L), trace=False).run(
            factory
        )
        assert (gr.makespans[i], gr.total_stall_times[i]) == (
            res.makespan,
            res.total_stall_time,
        ), f"grid point {i} ({p.L}, {p.o}, {p.g}) diverged"


def test_grid_numpy_python_replay_parity():
    pytest.importorskip("numpy")
    prog = compile_programs(_bcast, 8)
    a = evaluate_grid(prog, GRID, use_numpy=True)
    b = evaluate_grid(prog, GRID, use_numpy=False)
    assert a.makespans == b.makespans
    assert a.total_stall_times == b.total_stall_times


def test_grid_machine_fallback_is_exact():
    """With max_tapes=0 every point (and every seed column) runs on the
    event machine, bit-identical to direct machine runs."""
    prog = compile_programs(_flood, 8)
    pts = GRID[:6]
    gr = evaluate_grid(prog, pts, max_tapes=0)
    assert gr.tapes == 0 and gr.fallbacks == len(pts)
    want = [LogPMachine(p, trace=False).run(_flood) for p in pts]
    assert gr.makespans == [r.makespan for r in want]
    assert gr.total_stall_times == [r.total_stall_time for r in want]

    make = LATENCIES["jittered"]
    seeds = [4, 9]
    sg = evaluate_seed_grid(
        prog, pts[:3], seeds, lambda p, s: make(p.L, s), max_tapes=0
    )
    assert sg.tapes == 0 and sg.fallbacks == 3 * len(seeds)
    want = [
        LogPMachine(p, latency=make(p.L, s), trace=False).run(_flood)
        for p in pts[:3]
        for s in seeds
    ]
    assert sg.makespans == [r.makespan for r in want]
    assert sg.total_stall_times == [r.total_stall_time for r in want]


def test_machine_fallback_reports_clock_divergence():
    """A schedule lowered at one point's clock, run on the machine at a
    point that reads a different clock, is reported divergent (left
    for re-lowering), not evaluated."""
    here, there = (
        LogPParams(L=4, o=1, g=2, P=2),
        LogPParams(L=4, o=3, g=4, P=2),
    )
    prog = compile_at(_clocked, 2, here)
    assert prog.uses_now
    gr = evaluate_grid(prog, [here, there], max_tapes=0)
    assert (gr.fallbacks, gr.divergent) == (1, [1])
    ref = LogPMachine(here, trace=False).run(_clocked)
    assert gr.makespans[0] == ref.makespan


def test_grid_rejects_mismatched_p():
    prog = compile_programs(_bcast, 4)
    with pytest.raises(ValueError, match="group grid points by P"):
        evaluate_grid(prog, [BASE])


@pytest.mark.parametrize("max_tapes", [0, 32])
def test_grid_input_refusals(max_tapes):
    """Every input the grid refuses is refused up front with the
    machine's message, whether its points would be taped or run on the
    machine (max_tapes=0)."""
    from repro.sim import SimulationError
    from repro.sim.net import FaultyFabric

    prog = compile_programs(_bcast, 8)
    fixed = FixedLatency(6.0)
    refused = [
        (dict(latency=fixed, fabric=LatencyFabric(fixed)), "not both"),
        (
            dict(fabric=FaultyFabric(TopologyFabric.ring(8, L=6), drop=0.1)),
            "does not support lossy fabrics",
        ),
        (dict(latency=FixedLatency(9.0)), "latency model bound 9.0 exceeds"),
        (dict(fabric=TopologyFabric.ring(8, L=9)), "fabric unloaded bound"),
        (dict(hw_barrier_cost=-1.0), "hw_barrier_cost must be >= 0"),
        (dict(capacity=0), "capacity must be >= 1"),
    ]
    for kw, match in refused:
        with pytest.raises(ValueError, match=match):
            evaluate_grid(prog, [BASE], max_tapes=max_tapes, **kw)
    with pytest.raises(ValueError, match="group grid points by P"):
        evaluate_grid(
            compile_programs(_bcast, 4), [BASE], max_tapes=max_tapes
        )
    with pytest.raises(SimulationError, match="requires LogGP"):
        evaluate_grid(
            compile_programs(_loggp_prog, 2),
            [LogPParams(L=6, o=2, g=4, P=2)],
            max_tapes=max_tapes,
        )

    make = LATENCIES["uniform"]
    refused = [
        (dict(), 3.0, "latency model bound 9.0 exceeds"),
        (dict(hw_barrier_cost=-1.0), 0.0, "hw_barrier_cost must be >= 0"),
        (dict(capacity=0), 0.0, "capacity must be >= 1"),
    ]
    for kw, extra_L, match in refused:
        with pytest.raises(ValueError, match=match):
            evaluate_seed_grid(
                prog,
                [BASE],
                [1],
                lambda p, s: make(p.L + extra_L, s),
                max_tapes=max_tapes,
                **kw,
            )


# ----------------------------------------------------------------------
# Backend selection and refusal
# ----------------------------------------------------------------------


def test_backend_names():
    assert BACKENDS == ("machine", "compiled", "auto")
    with pytest.raises(ValueError, match="must be one of"):
        resolve_backend("vectorized", latency=None, fabric=None)


def test_backend_machine_always_allowed():
    lat = UniformLatency(6.0)
    assert resolve_backend("machine", latency=lat, fabric=None) == "machine"


@pytest.mark.parametrize("backend", ["compiled", "auto"])
def test_backend_accepts_seeded_latency(backend):
    """Seeded draws replay exactly under the reset() contract, so any
    LatencyModel is compiled-eligible since the seed-axis lowering."""
    lat = UniformLatency(6.0, lo_frac=0.25, seed=3)
    assert backend_ineligibility(lat, None) is None
    assert resolve_backend(backend, latency=lat, fabric=None) == "compiled"


def test_backend_accepts_deterministic_topology_fabric():
    fabric = TopologyFabric.ring(8, L=6)
    assert backend_ineligibility(None, fabric) is None
    assert (
        resolve_backend("auto", latency=None, fabric=fabric) == "compiled"
    )


@pytest.mark.parametrize("backend", ["compiled", "auto"])
def test_backend_refuses_load_dependent_fabric(backend):
    """Contention queues resolve delivery from runtime load — still
    machine-only, and the refusal reason names the clause."""
    from repro.sim.net import ContentionFabric

    fabric = ContentionFabric.ring(8, L=8)
    reason = backend_ineligibility(None, fabric)
    assert reason is not None and "runtime load" in reason
    with pytest.raises(ValueError, match="runtime load"):
        resolve_backend(backend, latency=None, fabric=fabric)


def test_backend_accepts_latency_fabric():
    fabric = LatencyFabric(FixedLatency(6.0))
    assert backend_ineligibility(None, fabric) is None
    assert (
        resolve_backend("auto", latency=None, fabric=fabric) == "compiled"
    )


@pytest.mark.parametrize("backend", ["compiled", "auto"])
def test_backend_refuses_fault_plan(backend):
    """Compiled schedules assume fault-free execution: a FaultPlan (or a
    heartbeat detector) must be a loud ValueError, like lossy fabrics —
    never a silent fall back to the machine."""
    from repro.sim.faults import CrashStop, FaultPlan, HeartbeatConfig

    plan = FaultPlan([CrashStop(1, 10.0)])
    assert backend_ineligibility(fault_plan=plan) is not None
    with pytest.raises(ValueError, match="FaultPlan.*fault-free"):
        resolve_backend(backend, fault_plan=plan)
    hb = HeartbeatConfig(period=8.0, timeout=24.0)
    assert backend_ineligibility(heartbeat=hb) is not None
    with pytest.raises(ValueError, match="heartbeat"):
        resolve_backend(backend, heartbeat=hb)
    # A machine backend accepts both; no-fault configs stay eligible.
    assert resolve_backend("machine", fault_plan=plan, heartbeat=hb) == "machine"
    assert backend_ineligibility(fault_plan=None, heartbeat=None) is None


def test_grid_map_refuses_fault_plan_on_auto():
    from repro.sim.faults import CrashStop, FaultPlan

    plan = FaultPlan([CrashStop(1, 10.0)])
    with pytest.raises(ValueError, match="backend='machine'"):
        grid_map(_bcast, [BASE], backend="auto", fault_plan=plan)


def test_grid_map_machine_runs_fault_plan():
    """backend='machine' executes the plan: the crash changes the
    makespan relative to the fault-free run of the same grid point."""
    from repro.sim.faults import CrashStop, FaultPlan

    plan = FaultPlan([CrashStop(3, 0.0)])
    # The broadcast factory wedges without its rank-3 subtree, so use a
    # root-only stream that rank 3's crash merely truncates.
    def prog(rank: int, P: int):
        if rank == 3:
            for _ in range(4):
                yield Send(0)
            return None
        if rank == 0:
            got = 0
            while got < 4:
                m = yield Recv(timeout=200.0)
                if m is None:
                    break
                got += 1
            return got
        return None
        yield

    [(clean, _)] = grid_map(prog, [BASE], backend="machine")
    [(faulty, _)] = grid_map(
        prog, [BASE], backend="machine", fault_plan=plan
    )
    assert faulty != clean


def test_grid_map_refuses_loudly_not_silently():
    """The refusal surfaces from grid_map itself, before any work."""
    from repro.sim.net import ContentionFabric

    for backend in ("auto", "compiled"):
        with pytest.raises(ValueError, match="runtime load"):
            grid_map(
                _bcast, [BASE], backend=backend,
                fabric=ContentionFabric.ring(8, L=8),
            )


def test_grid_map_parity_mixed_p():
    """grid_map groups by P, compiles per group, merges in order."""
    grid = [
        LogPParams(L=float(L), o=2, g=float(g), P=P)
        for P in (4, 8, 5)
        for L in (2, 6, 11)
        for g in (1, 4)
    ]
    compiled = grid_map(_bcast, grid, backend="compiled")
    machine = grid_map(_bcast, grid, backend="machine")
    assert compiled == machine


def test_grid_map_now_program_branch_splits_on_both_backends():
    """Bounded timing dependence no longer forces the machine: both
    ``auto`` and ``compiled`` lower the Now-observing program per
    branch region and stay bit-identical to the machine."""
    grid = [
        LogPParams(L=4, o=1, g=2, P=2),
        LogPParams(L=9, o=1, g=2, P=2),
        LogPParams(L=9, o=3, g=4, P=2),
    ]
    for prog in (_now_prog, _fragile_now):
        machine = grid_map(prog, grid, backend="machine")
        report = GridMapReport()
        assert grid_map(prog, grid, backend="auto", report=report) == machine
        assert report.groups[0].path == "compiled-forked"
        assert grid_map(prog, grid, backend="compiled") == machine


# ----------------------------------------------------------------------
# Seed-axis replay
# ----------------------------------------------------------------------

N_SEEDS = 100


def _distinct_family_cases(n: int = 3) -> list:
    """The first fuzz case of each of ``n`` distinct program families."""
    cases, seen = [], set()
    for seed in range(200):
        case = make_case(seed)
        if case.family not in seen:
            seen.add(case.family)
            cases.append(case)
            if len(cases) == n:
                return cases
    raise AssertionError(f"fewer than {n} families in 200 fuzz seeds")


@pytest.mark.parametrize("lat_name", ["uniform", "jittered"])
def test_seed_grid_differential_fuzz_families(lat_name):
    """The seed-axis pin: every (point, seed) column of
    evaluate_seed_grid equals one machine run with a fresh same-seed
    latency model — 100 seeds x 3 fuzz families, exact equality."""
    make = LATENCIES[lat_name]
    seeds = range(N_SEEDS)
    for case in _distinct_family_cases():
        prog = compile_programs(case.factory, case.params.P)
        res = evaluate_seed_grid(
            prog, [case.params], seeds, lambda p, s: make(p.L, s)
        )
        assert (res.n_points, res.n_seeds) == (1, N_SEEDS)
        assert not res.divergent
        for s in seeds:
            mres = LogPMachine(
                case.params, latency=make(case.params.L, s), trace=False
            ).run(case.factory)
            assert (res.makespans[s], res.total_stall_times[s]) == (
                mres.makespan,
                mres.total_stall_time,
            ), f"family {case.family} seed {s} diverged under {lat_name}"


def test_seed_grid_numpy_python_replay_parity():
    pytest.importorskip("numpy")
    make = LATENCIES["jittered"]
    for case in _distinct_family_cases():
        prog = compile_programs(case.factory, case.params.P)
        a, b = (
            evaluate_seed_grid(
                prog,
                [case.params],
                range(N_SEEDS),
                lambda p, s: make(p.L, s),
                use_numpy=use,
            )
            for use in (True, False)
        )
        assert a.makespans == b.makespans, case.family
        assert a.total_stall_times == b.total_stall_times, case.family


def test_seed_grid_point_major_layout():
    """Column p * n_seeds + s: two points x three seeds line up with
    per-point machine runs in point-major order."""
    make = LATENCIES["uniform"]
    grid = [
        LogPParams(L=6.0, o=2.0, g=4.0, P=4),
        LogPParams(L=9.0, o=1.0, g=3.0, P=4),
    ]
    seeds = [3, 11, 42]
    res = evaluate_seed_grid(
        compile_programs(_bcast, 4), grid, seeds, lambda p, s: make(p.L, s)
    )
    want = []
    for p in grid:
        for s in seeds:
            mres = LogPMachine(
                p, latency=make(p.L, s), trace=False
            ).run(_bcast)
            want.append((mres.makespan, mres.total_stall_time))
    assert list(zip(res.makespans, res.total_stall_times)) == want


def test_grid_map_seeded_latency_shared_model_parity():
    """grid_map's shared seeded model equals a fresh same-seed model per
    point: both backends reset the model before every point."""
    grid = [LogPParams(L=4.0, o=o, g=2.0, P=4) for o in (0.5, 1.0, 2.0)]
    compiled = grid_map(
        _bcast,
        grid,
        backend="compiled",
        latency=UniformLatency(4.0, lo_frac=0.25, seed=5),
    )
    want = []
    for p in grid:
        mres = LogPMachine(
            p,
            latency=UniformLatency(4.0, lo_frac=0.25, seed=5),
            trace=False,
        ).run(_bcast)
        want.append((mres.makespan, mres.total_stall_time))
    assert compiled == want


# ----------------------------------------------------------------------
# TopologyFabric lowering
# ----------------------------------------------------------------------


def _section5_fabrics() -> list:
    from repro.topology import FatTree, Mesh2D

    return [
        pytest.param(TopologyFabric.ring(8, L=6), id="ring8"),
        pytest.param(
            TopologyFabric.for_topology(Mesh2D(16), L=6), id="mesh2d16"
        ),
        pytest.param(
            TopologyFabric.for_topology(FatTree(16), L=6), id="fattree16"
        ),
    ]


@pytest.mark.parametrize("fabric", _section5_fabrics())
@pytest.mark.parametrize("factory", [_bcast, _flood])
def test_topology_fabric_grid_parity(fabric, factory):
    """Deterministic per-hop flights lower exactly: compiled grids over
    ring / mesh / fat-tree match the machine point for point."""
    grid = [
        LogPParams(L=6.0, o=o, g=float(g), P=fabric.P)
        for o in (0.5, 2.0)
        for g in (1, 4)
    ]
    compiled = grid_map(factory, grid, backend="compiled", fabric=fabric)
    machine = grid_map(factory, grid, backend="machine", fabric=fabric)
    assert compiled == machine


def test_topology_fabric_scalar_evaluate_parity():
    """A one-point tape with a fabric: same flights, same makespan,
    message counts intact."""
    fabric = TopologyFabric.ring(8, L=6)
    machine = LogPMachine(BASE, fabric=fabric, trace=False).run(_bcast)
    prog = compile_programs(_bcast, 8)
    gr = evaluate_grid(prog, [BASE], fabric=fabric)
    assert gr.makespans == [machine.makespan]
    assert gr.total_stall_times == [machine.total_stall_time]
    assert prog.n_messages == machine.total_messages


# ----------------------------------------------------------------------
# Branch-splitting fallback and dispatch reporting
# ----------------------------------------------------------------------


def _fragile_now(rank: int, P: int):
    """Lowers only at the true clock: a clock assumed at t=0 would drive
    ``Compute`` negative.  compile_at takes its clock from a machine
    run, so this lowers."""

    def run():
        yield Compute(2.0)
        t = yield Now()
        yield Compute(t - 1.0)
        return t

    return run()


def _poll_branch(rank: int, P: int):
    """Cannot lower: rank 0 branches on a ``Poll`` count, which the
    compiler always resumes with 0, so the schedule lowered at the
    machine's clock readings takes the other branch and reads a later
    clock."""

    def run():
        if rank == 1:
            yield Send(0)
            return None
        yield Compute(20.0)  # rank 1's message has landed by now
        drained = yield Poll()
        if not drained:
            yield Compute(5.0)
        t = yield Now()
        yield Recv()
        return t

    return run()


def test_forked_fallback_refusal_semantics():
    """When branch-splitting cannot lower the program, ``auto`` degrades
    to the machine carrying the CompileError reason; ``compiled`` raises
    the same error instead of silently running the slow path."""
    pts = [LogPParams(L=4, o=1, g=2, P=2)]
    report = GridMapReport()
    auto = grid_map(_poll_branch, pts, backend="auto", report=report)
    assert auto == grid_map(_poll_branch, pts, backend="machine")
    [group] = report.groups
    assert group.path == "machine"
    assert "does not reproduce" in group.reason
    assert report.degraded == [group]
    with pytest.raises(CompileError, match="does not reproduce"):
        grid_map(_poll_branch, pts, backend="compiled")


def _recv_timeout(rank, P):
    """Rank 0 waits 5 cycles, gives up, computes, then receives."""
    if rank == 0:
        msg = yield Recv(timeout=5)
        if msg is None:
            yield Compute(100)
            yield Recv()
    else:
        yield Compute(50)
        yield Send(0)


def test_recv_timeout_refuses_to_compile():
    """Whether a ``Recv(timeout=...)`` expires depends on simulated
    time, so both lowerings refuse it: ``auto`` runs the machine and
    names the reason, ``compiled`` raises.  Lowered as a plain receive
    it would report 60.0 instead of the machine's 107.0."""
    p = LogPParams(L=6, o=2, g=4, P=2)
    with pytest.raises(CompileError, match="timeout"):
        compile_programs(_recv_timeout, 2)
    with pytest.raises(CompileError, match="timeout"):
        compile_representatives(_recv_timeout, 2, [0])
    report = GridMapReport()
    assert grid_map(_recv_timeout, [p], backend="auto", report=report) == [
        (107.0, 0.0)
    ]
    [group] = report.groups
    assert group.path == "machine" and "timeout" in group.reason
    with pytest.raises(CompileError, match="timeout"):
        grid_map(_recv_timeout, [p], backend="compiled")


def test_grid_map_report_names_dispatch_paths():
    """The report distinguishes straight-line tapes from branch-split
    regions, and records tape counts for both."""
    report = GridMapReport()
    grid_map(_bcast, [BASE], backend="auto", report=report)
    assert report.backend == "compiled"
    [group] = report.groups
    assert (group.path, group.P, group.n_points) == ("compiled", 8, 1)
    assert group.tapes >= 1 and group.reason == ""

    report = GridMapReport()
    grid = [LogPParams(L=4, o=1, g=2, P=2), LogPParams(L=9, o=1, g=2, P=2)]
    res = grid_map(_now_prog, grid, backend="auto", report=report)
    [group] = report.groups
    assert group.path == "compiled-forked" and group.tapes >= 1
    assert not report.degraded
    assert res == grid_map(_now_prog, grid, backend="machine")


def test_compile_at_requires_factory():
    """Per-pass recompilation needs fresh generators: a pre-built
    sequence is refused up front, not half-consumed."""
    from repro.sim.compiled import compile_at

    gens = [_now_prog(r, 2) for r in range(2)]
    with pytest.raises(CompileError, match="factory"):
        compile_at(gens, 2, LogPParams(L=4, o=1, g=2, P=2))
