"""The four workloads: seeded inputs, one timed operation, result checks.

Every workload draws its inputs from ``random.Random(seed)`` and cycles
through a fixed set of request shapes in a seeded order, so each seed
has the same mix of shapes and differs only in order and parameter
values.  Only public ``repro`` API is used.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time

from hostspeed import Slice

HERE = os.path.dirname(os.path.abspath(__file__))

FAMILIES = ("stream", "flood", "bcast_tree")
SERVE_P = (4, 8, 16)
SERVE_NPTS = (1, 2, 4, 8)
#: Served overheads lie 1/256 apart, so a request mostly records a single
#: tape: the small-grid regime, and cheap enough requests that a run
#: holds enough of them for a steady median.
SERVE_O_STEP = 1 / 256
GRID_O_STEP = 1 / 4
#: Closed-loop client connections; one per vCPU of the reference host.
CLIENTS = 2
#: Outside the traffic's o range and never in the served catalogue, so
#: the warm-up is a miss in every set-up and never pre-fills the traffic.
WARMUP_SWEEP = ("stream", ((6.0, 9.0, 4.0, 4),))

GRID_P = (8, 16, 32)
GRID_O_POINTS = 8
GRID_BOX = 10
GRID_SAMPLE = 2

FOLD_P = tuple(2**e for e in range(16, 21))
FOLD_O_POINTS = 8


class Offsets:
    """Distinct small dyadic offsets ``r / denom``, ``r`` running through a
    seeded permutation of ``range(span)`` (an odd stride is a bijection
    modulo a power of two).  Added to a fixed ladder of parameters, they
    make every operation's inputs new while keeping its shape, so that
    the work per operation does not depend on the seed."""

    def __init__(self, rng: random.Random, span: int = 1 << 14,
                 denom: int = 1 << 16):
        self.span, self.denom = span, denom
        self.base = rng.randrange(span)
        self.stride = rng.randrange(span) | 1
        self.used = 0

    def next(self) -> float:
        if self.used >= self.span:
            raise RuntimeError(f"offsets exhausted after {self.used} uses")
        r = (self.base + self.used * self.stride) % self.span
        self.used += 1
        return r / self.denom


def o_ladder(n: int, step: float, eps: float) -> list[float]:
    """``n`` overheads ``step`` apart, shifted by ``eps`` < ``step``."""
    return [0.5 + step * j + eps for j in range(n)]


def shape_cycle(rng: random.Random, shapes):
    """Endless seeded order over ``shapes``: every shape once per round."""
    shapes = list(shapes)
    while True:
        rng.shuffle(shapes)
        yield from shapes


def wire_points(points) -> list[dict]:
    """``(L, o, g, P)`` tuples as submit-frame point mappings."""
    return [{"L": L, "o": o, "g": g, "P": P} for L, o, g, P in points]


def run_child(*args: str, stdin: str | None = None) -> str:
    """Run ``run.py`` with hidden ``args`` in a fresh interpreter and return
    its standard output.  What the child loads stays out of this process,
    so it reaches neither a set-up sample's imports nor ``peak_rss_mb``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=os.path.dirname(HERE), input=stdin, stdout=subprocess.PIPE,
        text=True, timeout=120, check=True,
    )
    return proc.stdout


def machine_pairs(family: str, points) -> list[tuple[float, float]]:
    """The event machine's ``(makespan, stall)`` for each served point."""
    from repro.core import LogPParams
    from repro.serve.registry import build
    from repro.sim import sweep

    return sweep.grid_map(
        build(family, {}, None),
        [LogPParams(L=L, o=o, g=g, P=P) for L, o, g, P in points],
        backend="machine",
    )


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------


async def serve_start(cache_dir: str):
    """Server with cache replay, TCP listener and clients."""
    from repro.serve import ServeConfig, SimulationServer
    from repro.serve.protocol import ServeClient, start_tcp_server

    server = SimulationServer(ServeConfig(cache_dir=cache_dir))
    listener = await start_tcp_server(server)
    host, port = listener.sockets[0].getsockname()[:2]
    clients = [await ServeClient.connect(host, port) for _ in range(CLIENTS)]
    return server, listener, clients


async def serve_setup(cache_dir: str):
    """``serve_start`` plus one warm-up miss, which loads numpy and the
    compiled path."""
    state = await serve_start(cache_dir)
    family, points = WARMUP_SWEEP
    await state[2][0].submit(family, wire_points(points), backend="auto")
    return state


async def serve_teardown(server, listener, clients) -> None:
    for client in clients:
        await client.aclose()
    listener.close()
    await listener.wait_closed()
    await server.aclose()


def fill_catalogue(cache_dir: str, catalogue) -> None:
    """Serve every sweep of ``catalogue`` once, then close the server,
    which snapshots the results into ``cache_dir``.  No warm-up."""

    async def fill():
        state = await serve_start(cache_dir)
        for family, points in catalogue:
            await state[2][0].submit(
                family, wire_points(points), backend="auto"
            )
        await serve_teardown(*state)

    asyncio.run(fill())


class ServeWorkload:
    """Closed loop of ``CLIENTS`` connections against one in-process
    server; ``hit`` replays a served catalogue, otherwise all points are
    new."""

    def __init__(self, seed: int, tmp: str, hit: bool):
        self.name = "serve_hit" if hit else "serve_miss"
        self.hit = hit
        self.tmp = tmp
        self.mismatches: list = []
        self.rng = random.Random(seed)
        self.offsets = Offsets(self.rng, denom=1 << 22)
        self.shapes = shape_cycle(
            self.rng, itertools.product(FAMILIES, SERVE_P, SERVE_NPTS)
        )
        self.served: list = []  # (op, sweep, results) not yet checked
        self.errors: list = []
        self.catalogue: list = []
        self.expected: dict = {}
        self.prepared_dir = os.path.join(tmp, "prepared")
        self._samples = itertools.count()
        self.ops = 0
        self.doctored = False
        self.loop = None
        self.state = None

    def _new_sweep(self, shape) -> tuple:
        family, P, n = shape
        eps = self.offsets.next()
        return family, tuple(
            (6.0, o, 4.0, P) for o in o_ladder(n, SERVE_O_STEP, eps)
        )

    def prepare(self) -> None:
        """Untimed: for ``hit``, serve the catalogue once and snapshot it,
        in a child process."""
        os.makedirs(self.prepared_dir)
        if not self.hit:
            self.requests = (self._new_sweep(s) for s in self.shapes)
            return
        n_shapes = len(FAMILIES) * len(SERVE_P) * len(SERVE_NPTS)
        self.catalogue = [
            self._new_sweep(next(self.shapes)) for _ in range(n_shapes)
        ]
        for sweep in self.catalogue:
            self.expected[sweep] = machine_pairs(*sweep)
        run_child("--fill-catalogue", "--cache-dir", self.prepared_dir,
                  stdin=json.dumps(self.catalogue))
        self.requests = shape_cycle(self.rng, self.catalogue)

    def sample_dir(self) -> str:
        """A fresh cache directory for one set-up sample."""
        path = os.path.join(self.tmp, f"sample{next(self._samples)}")
        shutil.copytree(self.prepared_dir, path)
        return path

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.state = self.loop.run_until_complete(
            serve_setup(self.sample_dir())
        )

    def run_slice(self, stop_at: float) -> Slice:
        s = Slice()

        async def client(conn):
            while time.perf_counter() < stop_at:
                family, points = sweep = next(self.requests)
                wire = wire_points(points)
                start = time.perf_counter()
                try:
                    frame = await conn.submit(family, wire, backend="auto")
                except RuntimeError as exc:
                    s.ops += 1
                    s.failed += 1
                    self.errors.append(f"{family}: {exc}")
                    continue
                s.latencies_s.append(time.perf_counter() - start)
                s.ops += 1
                s.points += len(points)
                self.ops += 1
                self.served.append((self.ops, sweep, frame["results"]))

        async def all_clients():
            await asyncio.gather(*(client(c) for c in self.state[2]))

        self.loop.run_until_complete(all_clients())
        return s

    def between_slices(self) -> None:
        """Untimed: check the cache hits served so far, so memory stays
        flat.  Misses wait for ``check``: their references cost more than
        serving them."""
        if self.hit:
            self._check_served()

    def server_stats(self) -> dict:
        return self.state[0].stats_snapshot()

    def teardown(self) -> None:
        self.loop.run_until_complete(serve_teardown(*self.state))
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    def doctor(self) -> None:
        """Corrupt one expected value, to prove a mismatch is caught."""
        self.doctored = True
        if self.hit:
            sweep = self.catalogue[0]
            mk, st = self.expected[sweep][0]
            self.expected[sweep] = [(mk + 1.0, st)] + self.expected[sweep][1:]

    def _compare(self, op: int, sweep: tuple, results: list) -> None:
        got = [tuple(pair) for pair in results]
        want = self.expected[sweep]
        if got == want:
            return
        family, points = sweep
        where = f"{self.name} op {op} ({family}, P={points[0][3]})"
        if len(got) != len(want):
            self.mismatches.append(
                f"{where}: {len(got)} pairs served for {len(want)} points"
            )
            return
        j = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        self.mismatches.append(
            f"{where}: (L, o, g, P)={points[j]} served {got[j]}, "
            f"event machine {want[j]}"
        )

    def _check_served(self) -> None:
        for op, sweep, results in self.served:
            self._compare(op, sweep, results)
        self.served.clear()

    def check(self) -> list[str]:
        """Every served pair equals the event machine's value."""
        if not self.hit:
            for _, sweep, _ in self.served:
                self.expected[sweep] = machine_pairs(*sweep)
            if self.doctored and self.served:
                want = self.expected[self.served[0][1]]
                want[0] = (want[0][0] + 1.0, want[0][1])
        self._check_served()
        return self.mismatches


# ----------------------------------------------------------------------
# Library workloads
# ----------------------------------------------------------------------


class GridSweepWorkload:
    """``grid_map(backend="auto")`` over a fresh o-sweep at each of
    ``GRID_P`` plus an L x g box at P=8 that reaches the tape cap."""

    def __init__(self, seed: int, tmp: str):
        self.rng = random.Random(seed)
        self.offsets = Offsets(self.rng)
        self.families = shape_cycle(self.rng, FAMILIES)
        self.samples: list = []  # (op, family, point, served pair)
        self.errors: list = []
        self.doctored = False

    def prepare(self) -> None:
        from repro.core import LogPParams
        from repro.serve.registry import build

        self.LogPParams = LogPParams
        self.programs = {f: build(f, {}, None) for f in FAMILIES}

    def sample_dir(self) -> None:
        return None

    def setup(self) -> None:
        grid_setup()

    def _grid(self) -> list:
        mk = self.LogPParams
        eps = self.offsets.next()
        pts = [
            mk(L=6.0, o=o, g=4.0, P=P)
            for P in GRID_P
            for o in o_ladder(GRID_O_POINTS, GRID_O_STEP, eps)
        ]
        pts += [
            mk(L=2.0 + 0.5 * i, o=1.0 + eps, g=1.0 + 0.5 * j, P=8)
            for i in range(GRID_BOX)
            for j in range(GRID_BOX)
        ]
        return pts

    def run_slice(self, stop_at: float) -> Slice:
        from repro.sim import sweep

        s = Slice()
        while time.perf_counter() < stop_at:
            family = next(self.families)
            pts = self._grid()
            start = time.perf_counter()
            try:
                out = sweep.grid_map(
                    self.programs[family], pts, backend="auto"
                )
            except Exception as exc:  # noqa: BLE001 - counted as failed
                s.ops += 1
                s.failed += 1
                self.errors.append(f"{family}: {type(exc).__name__}: {exc}")
                continue
            s.latencies_s.append(time.perf_counter() - start)
            s.ops += 1
            s.points += len(out)
            op = len(self.samples) // GRID_SAMPLE
            for i in self.rng.sample(range(len(pts)), GRID_SAMPLE):
                self.samples.append((op, family, pts[i], out[i]))
        return s

    def between_slices(self) -> None:
        pass

    def server_stats(self) -> dict:
        return {}

    def teardown(self) -> None:
        pass

    def doctor(self) -> None:
        """Corrupt one expected value, to prove a mismatch is caught."""
        self.doctored = True

    def check(self) -> list[str]:
        """A seeded sample of every call equals the machine backend."""
        from repro.sim import sweep

        bad = []
        for k, (op, family, pt, got) in enumerate(self.samples):
            (want,) = sweep.grid_map(self.programs[family], [pt],
                                     backend="machine")
            if self.doctored and k == 0:
                want = (want[0] + 1.0, want[1])
            if tuple(got) != tuple(want):
                bad.append(
                    f"grid_sweep op {op} ({family}): point {pt} gave "
                    f"{got}, machine backend {want}"
                )
        return bad


def grid_setup() -> None:
    """Warm-up: loads numpy and the compiled path through one call."""
    from repro.core import LogPParams
    from repro.serve.registry import build
    from repro.sim import sweep

    sweep.grid_map(
        build("flood", {}, None),
        [LogPParams(L=6.0, o=9.0, g=4.0, P=4)],
        backend="auto",
    )


class FoldedGridWorkload:
    """Build, fold and grid-evaluate a binomial broadcast at huge P."""

    def __init__(self, seed: int, tmp: str):
        self.rng = random.Random(seed)
        self.sizes = shape_cycle(self.rng, FOLD_P)
        # The fold guard needs multiples of 1/64.
        self.offsets = Offsets(self.rng, span=1 << 10, denom=1 << 6)
        self.samples: list = []  # (op, point, served pair)
        self.divergent = 0
        self.errors: list = []
        self.doctored = False

    def prepare(self) -> None:
        from repro.core import LogPParams

        self.LogPParams = LogPParams

    def sample_dir(self) -> None:
        return None

    def setup(self) -> None:
        folded_setup()

    def run_slice(self, stop_at: float) -> Slice:
        from repro.algorithms import broadcast
        from repro.sim import compiled

        s = Slice()
        while time.perf_counter() < stop_at:
            P = next(self.sizes)
            L = 6.0 + self.offsets.next()
            pts = [
                self.LogPParams(L=L, o=0.25 + 0.125 * j, g=4.0, P=P)
                for j in range(FOLD_O_POINTS)
            ]
            start = time.perf_counter()
            try:
                folded = compiled.fold_tree(broadcast.binomial_tree_folded(P))
                res = compiled.evaluate_folded_grid(folded, pts)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                s.ops += 1
                s.failed += 1
                self.errors.append(f"P={P}: {type(exc).__name__}: {exc}")
                continue
            s.latencies_s.append(time.perf_counter() - start)
            s.ops += 1
            s.points += len(pts)
            self.divergent += len(res.divergent)
            j = self.rng.randrange(len(pts))
            self.samples.append(
                (len(self.samples), pts[j],
                 (res.makespans[j], res.total_stall_times[j]))
            )
        return s

    def between_slices(self) -> None:
        pass

    def server_stats(self) -> dict:
        return {}

    def teardown(self) -> None:
        pass

    def doctor(self) -> None:
        """Corrupt one expected value, to prove a mismatch is caught."""
        self.doctored = True

    def check(self) -> list[str]:
        """No divergent point; a seeded sample equals ``evaluate_folded``."""
        from repro.algorithms import broadcast
        from repro.sim import compiled

        bad = []
        if self.divergent:
            bad.append(
                f"folded_grid: {self.divergent} divergent point(s); the "
                "workload no longer measures the folded path alone"
            )
        folded = {}
        for k, (op, pt, got) in enumerate(self.samples):
            if pt.P not in folded:
                folded[pt.P] = compiled.fold_tree(
                    broadcast.binomial_tree_folded(pt.P)
                )
            r = compiled.evaluate_folded(folded[pt.P], pt)
            want = (r.makespan, r.total_stall_time)
            if self.doctored and k == 0:
                want = (want[0] + 1.0, want[1])
            if got != want:
                bad.append(
                    f"folded_grid op {op}: point {pt} gave {got}, "
                    f"evaluate_folded {want}"
                )
        return bad


def folded_setup() -> None:
    """Warm-up: one small build + fold + folded grid evaluation."""
    from repro.algorithms import broadcast
    from repro.core import LogPParams
    from repro.sim import compiled

    folded = compiled.fold_tree(broadcast.binomial_tree_folded(16))
    compiled.evaluate_folded_grid(
        folded, [LogPParams(L=6.0, o=0.5, g=4.0, P=16)]
    )


WORKLOADS = {
    "serve_hit": functools.partial(ServeWorkload, hit=True),
    "serve_miss": functools.partial(ServeWorkload, hit=False),
    "grid_sweep": GridSweepWorkload,
    "folded_grid": FoldedGridWorkload,
}
