"""Vectorized grid evaluation: record one run, replay it everywhere.

A deterministic schedule's *control flow* — which handler runs next,
which branch each comparison takes — is piecewise-constant over the
``(L, o, g)`` parameter space: nearby points execute the identical
event sequence with different float values flowing through it.  This
module exploits that:

1. **Record.**  :class:`_TapeEvaluator` ports the event machine's
   handlers one for one over the compiled opcode stream, with every
   simulated time *boxed* as ``(value, slot)``.  Each float operation
   the machine semantics perform — one add per ``+``, one max per
   running-max fold, one sub+add per stall episode — appends one tape
   instruction, so a replayed slot reproduces the recorded value's IEEE
   arithmetic bit-for-bit, never an algebraic simplification of it.
   Every ``engine.schedule`` call in the machine has a ``_sched`` call
   here, in the same program position, so sequence numbers — and
   therefore tie-breaks — coincide.  Every branch the run takes
   appends a *constraint*: float comparisons, the engine's
   past-tolerance clamp, activation-dedup key hits/misses,
   capacity comparisons against the per-point ``ceil(L/g)`` limit —
   and a *dependency partial order* over executed events.  Requiring
   the replayed point to reproduce the full event interleaving would
   split the grid at every crossing of two unrelated ranks' event
   times, so ordering is constrained only where it can change results:
   each handler execution declares the state cells it touches (one per
   processor, one for the barrier), and successive touchers of a cell
   must pop in recorded order under the engine's ``(time, seq)`` rule.
   Time ties are pinned without knowing replayed seq numbers: a pair
   whose recorded seqs already match its pop order adds ``<=`` plus a
   recursive order edge between the two events' *schedulers* (handler
   code order then fixes the seqs); a pair popped against seq order
   requires strictly increasing times.  Cancelled activations get the
   same edge from their cancelling event, so a superseded entry cannot
   pop early and execute at a replayed point.  Events whose footprints
   never meet may interleave differently at a covered point — the tape
   is single-assignment dataflow, so commuting executions produce the
   identical instruction stream and results.
2. **Replay.**  :func:`_replay` evaluates the tape's instruction list
   over arrays of grid points (numpy when available, a pure-python
   loop otherwise) and checks every constraint per point.  A point
   that satisfies all constraints provably executes the recorded
   handler sequence up to commuting interleavings, so its replayed
   makespan and stall totals are *exactly* what the machine would
   produce there.
3. **Re-reference.**  Points that violate a constraint lie in a
   different control-flow region: the first such point becomes the
   next recording reference, up to ``max_tapes`` regions; stragglers
   run one at a time on the event machine itself
   (:func:`_machine_factory` replays the op stream as machine
   programs).  The fallback changes cost only, never results.

Beyond the fixed-``L`` default, the tape lowers the machine's other
deterministic timing configurations:

* **Seeded latency models** (:func:`evaluate_grid` ``latency=`` /
  ``fabric=LatencyFabric(model)``): each injection consumes one
  ``model.draw(src, dst)``; the tape records the draw's *stream index*
  (term ``_T_DRAW``) instead of its value, and replay feeds per-point
  draw values through a draws matrix.  Draws come off one shared RNG
  stream in global injection order, so every draw-consuming injection
  touches a dedicated RNG footprint cell — covered points provably
  consume the stream in the recorded order.  :func:`evaluate_seed_grid`
  stacks a **seed axis** on top: columns are (point, seed) pairs, each
  with its own freshly-reset model, so a 500-seed sweep replays as one
  vectorized evaluation.
* **Topology routing** (:func:`evaluate_grid`
  ``fabric=TopologyFabric(...)``): the per-hop flight
  ``serialization + hops(src, dst) * hop_delay`` is a pure function of
  the pair, so it lowers to per-pair literal terms on the arrival slot
  — same float expression shape as ``TopologyFabric.submit``, bit for
  bit.
* **Bounded timing dependence** (:func:`evaluate_forked`): a schedule
  lowered at one point's clock readings (:func:`compile_at`) records
  each ``OP_NOW`` reading as an equality constraint; points that
  cannot satisfy it are *divergent* — they lie in a different
  branch-split region and get their own lowering, up to the
  ``max_tapes`` budget, with stragglers run on the event machine.

``tests/test_compiled.py`` pins grid output per-point equal to machine
runs across fuzz-generated programs and parameter grids.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..engine import SimulationError
from ..latency import FixedLatency
from ..machine import LogPMachine
from ..net import LatencyFabric, TopologyFabric
from ..program import Barrier, Compute, Now, Poll, Recv, Send, Sleep
from .compiler import (
    OP_COMPUTE,
    OP_NOW,
    OP_POLL,
    OP_RECV,
    OP_SEND,
    OP_SLEEP,
    CompileError,
    CompiledProgram,
    compile_programs,
)

__all__ = [
    "GridResult",
    "SeedGridResult",
    "TimingDivergence",
    "compile_at",
    "evaluate_forked",
    "evaluate_grid",
    "evaluate_seed_grid",
]

try:  # numpy is optional; the pure-python replay is exact, just slower
    import numpy as _np
except ImportError:  # pragma: no cover - image always has numpy
    _np = None

class TimingDivergence(SimulationError):
    """An ``OP_NOW`` assumption failed: the schedule was compiled
    against a clock reading that this evaluation did not reproduce.
    The compiled ops after that point encode the wrong control flow —
    refuse rather than return plausible garbage.  The grid layer
    catches this and reports the point as divergent, for
    :func:`evaluate_forked` to lower again at its own parameters."""


# Processor states (machine.py uses interned strings; ints here).
_RUNNING = 0
_STALL_SEND = 1
_WAIT_RECV = 2
_WAIT_BARRIER = 3
_SLEEPING = 4
_POLLING = 5
_WAIT_GAP = 6
_DONE = 7

# Event codes for the inlined queue (machine.py binds methods instead).
_EV_ACTIVATION = 0
_EV_INJECT = 1
_EV_ARRIVAL = 2
_EV_RECV_DONE = 3
_EV_WAKE = 4
_EV_BARRIER = 5

#: Engine.schedule's past-tolerance: see repro.sim.engine.PAST_TOLERANCE.
_PAST_TOL = 1e-12
#: Queue compaction threshold, as in Engine.
_COMPACT = 8192

# Tape instructions: (code, out, ...) producing slot ``out``.
_I_CONST = 0  # (out, term, k)            v = term
_I_ADD = 1    # (out, a, term, k)         v = slots[a] + term
_I_ADDS = 2   # (out, a, b)               v = slots[a] + slots[b]
_I_MAX = 3    # (out, a, b)               v = max(slots[a], slots[b])
_I_STALL = 4  # (out, acc, now, start)    v = slots[acc] + (slots[now]-slots[start])

# Parameter terms a tape instruction may reference.
_T_LIT = 0    # literal float k
_T_L = 1      # per-point L
_T_O = 2      # per-point o
_T_G = 3      # per-point gap g
_T_SI = 4     # per-point send interval max(g, o)
_T_GLONG = 5  # k * per-point LogGP long-message Gap
_T_DRAW = 6   # per-point latency-draw input k (index into the D matrix)

# Constraints: all must hold for a replayed point to be valid.
_C_LE = 0     # slots[a] <= slots[b]
_C_LT = 1     # slots[a] <  slots[b]
_C_EQ = 2     # slots[a] == slots[b]
_C_NE = 3     # slots[a] != slots[b]
_C_CLAMP = 4  # now - tol <= slots[a] < slots[b]  (engine clamp branch)
_C_CAP = 5    # (count >= capacity) == observed; (a=count, b=observed)
_C_GLPOS = 6  # (long-message Gap > 0) == observed; (a=observed)


class _Tape:
    """The recorded run: instructions, constraints, output slots."""

    __slots__ = (
        "code", "cons", "n_slots", "makespan_slot", "stall_slot",
    )

    def __init__(self) -> None:
        self.code: list = []
        self.cons: list = []
        self.n_slots = 0
        self.makespan_slot = -1
        self.stall_slot = -1


class _TMsg:
    __slots__ = ("src", "dst", "tag", "words", "arrive")

    def __init__(self, src, dst, tag, words):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.words = words
        self.arrive = None


class _TProc:
    __slots__ = (
        "rank", "ops", "n_ops", "ip", "pending", "state",
        "busy_until", "last_send_start", "last_recv_start",
        "last_activity", "port_free", "mailbox", "arrived",
        "pending_inject", "stall_started", "queued_on",
        "pending_activations", "poll_drained", "sends", "receives",
        "stall_time", "finished_at",
    )

    def __init__(self, rank, ops, zero, neginf):
        self.rank = rank
        self.ops = ops
        self.n_ops = len(ops)
        self.ip = 0
        self.pending = None
        self.state = _RUNNING
        self.busy_until = zero
        self.last_send_start = neginf
        self.last_recv_start = neginf
        self.last_activity = zero
        self.port_free = neginf
        self.mailbox: list = []
        self.arrived: list = []
        self.pending_inject = None
        self.stall_started = None
        self.queued_on = None
        #: key float -> (event id, key slot); value-compared on lookup
        #: so every hit/miss is recorded as an eq/ne constraint.
        self.pending_activations: dict = {}
        self.poll_drained = 0
        self.sends = 0
        self.receives = 0
        self.stall_time = zero
        self.finished_at = zero


class _TapeEvaluator:
    """One machine run over a compiled schedule, recording a :class:`_Tape`.

    Every simulated time is a ``(float value, tape slot)`` pair; the
    float drives this run exactly as the event machine's handlers do
    (same branches, same event order), the slot makes the arithmetic
    replayable.  What it drops is everything a deterministic run never
    touches: generator dispatch, trace records, the lossy/ARQ and fault
    machinery.  Port parity with the machine is enforced by the
    per-point grid-vs-machine equality tests and fuzz check 5.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        params,
        *,
        enforce_capacity: bool,
        capacity: int,
        hw_barrier_cost: float,
        compute_jitter,
        max_events: int,
        timing: tuple = ("params",),
    ):
        P = compiled.P
        self._P = P
        self._o = float(params.o)
        self._g = float(params.g)
        self._si = float(params.send_interval)
        self._L = float(params.L)
        self._Gl = getattr(params, "G", None)
        # Flight-time lowering mode.  ``_flight_fixed`` modes take the
        # machine's fixed fast path (arrive = (now + stream) + flight):
        #   ("params",)         flight is the per-point L      (_T_L)
        #   ("const", c)        flight is the model constant c (_T_LIT)
        #   ("const_axis", c)   flight is per-column input 0   (_T_DRAW)
        # Fabric modes take the submit path (arrive = submit + stream):
        #   ("draw", model)     one model.draw per injection   (_T_DRAW)
        #   ("topo", fabric)    per-(src, dst) route literals  (_T_LIT)
        mode = timing[0]
        self._flight_fixed = None
        self._flight_model = None
        self._flight_topo = None
        if mode == "params":
            self._flight_fixed = (_T_L, 0.0, self._L)
        elif mode == "const":
            self._flight_fixed = (_T_LIT, timing[1], timing[1])
        elif mode == "const_axis":
            self._flight_fixed = (_T_DRAW, 0, timing[1])
        elif mode == "draw":
            self._flight_model = timing[1]
        else:  # "topo"
            self._flight_topo = timing[1]
        self._topo_flight: dict = {}
        #: (src, dst) of each consumed draw, in stream order; replay
        #: rebuilds per-point draw values by walking this sequence.
        self.draw_pairs: list = []
        self._capacity = capacity
        self._enforce = enforce_capacity
        self._hw_barrier = float(hw_barrier_cost)
        self._jitter = compute_jitter
        self._budget = max_events
        self.tape = _Tape()
        #: slot -> slots it is >= at *every* parameter point (the add
        #: chain with nonnegative terms / both max operands); used to
        #: prune structurally-implied <= constraints.
        self._anc: dict[int, tuple] = {}
        self._con_seen: set = set()
        self._cap_seen: set = set()
        self._lits: dict[float, int] = {}
        zero = self._lit(0.0)
        neginf = self._lit(float("-inf"))
        self._zero = zero
        self._procs = [
            _TProc(r, compiled.ops[r], zero, neginf) for r in range(P)
        ]
        self._values = compiled.values
        self._inflight_from = [0] * P
        self._inflight_to = [0] * P
        self._stall_queue: list[list[int]] = [[] for _ in range(P)]
        self._barrier_waiting: list[int] = []
        self._total_messages = 0
        self._queue: list = []
        self._seq = 0
        self._cancelled: set = set()
        self._now = zero
        self._cur_seq = -1
        self._events = 0
        #: State cells touched by the current handler execution:
        #: 0..P-1 per processor, P for the barrier, P+1 for the latency
        #: RNG stream (draw mode: draws must replay in recorded order).
        self._fp: set = set()
        #: Per cell, the seq of the last executed event that touched it.
        self._last_touch: list = [None] * (P + 2)
        #: Ordered pairs already constrained (memo for :meth:`_order`).
        self._ordpairs: set = set()
        #: Per scheduled seq: its (post-clamp) time slot and the seq of
        #: the event executing when it was scheduled (-1: preamble).
        self._m_slot: list = []
        self._m_sched: list = []

    # -- tape primitives ---------------------------------------------

    def _slot(self) -> int:
        tape = self.tape
        s = tape.n_slots
        tape.n_slots = s + 1
        return s

    def _lit(self, v: float):
        cached = self._lits.get(v)
        if cached is None:
            cached = self._slot()
            self.tape.code.append((_I_CONST, cached, _T_LIT, v))
            self._lits[v] = cached
        return (v, cached)

    def _add(self, t, term: int, k: float, termval: float):
        out = self._slot()
        self.tape.code.append((_I_ADD, out, t[1], term, k))
        if term != _T_LIT or k >= 0:
            # Parameter terms are nonnegative at every point, so out is
            # >= t on the whole grid, not just at the reference.
            self._anc[out] = (t[1],)
        return (t[0] + termval, out)

    def _max(self, a, b):
        out = self._slot()
        self.tape.code.append((_I_MAX, out, a[1], b[1]))
        self._anc[out] = (a[1], b[1])
        return (a[0] if a[0] >= b[0] else b[0], out)

    def _implied(self, a: int, b: int) -> bool:
        """``slots[a] <= slots[b]`` at every point, structurally."""
        if a == b:
            return True
        anc = self._anc
        t = anc.get(b)
        if t is None:
            return False
        if a in t:  # depth-1 hit: the overwhelmingly common case
            return True
        stack = list(t)
        budget = 12
        while stack:
            s = stack.pop()
            if s == a:
                return True
            budget -= 1
            if budget <= 0:
                return False
            stack.extend(anc.get(s, ()))
        return False

    def _con2(self, kind: int, a: int, b: int) -> None:
        """Append a binary constraint, deduplicated and pruned."""
        key = (kind << 60) | (a << 30) | b
        seen = self._con_seen
        if key in seen:
            return
        seen.add(key)
        if kind == _C_LE and self._implied(a, b):
            return
        self.tape.cons.append((kind, a, b))

    def _lt(self, a, b) -> bool:
        """Record and return the branch ``a < b``."""
        if a[0] < b[0]:
            self._con2(_C_LT, a[1], b[1])
            return True
        self._con2(_C_LE, b[1], a[1])
        return False

    def _cap_ge(self, count: int) -> bool:
        """Record and return the branch ``count >= capacity``."""
        r = count >= self._capacity
        key = (count, r)
        if key not in self._cap_seen:
            self._cap_seen.add(key)
            self.tape.cons.append((_C_CAP, count, r))
        return r

    # -- inlined engine with ordering constraints --------------------

    def _sched(self, t, code: int, a, b=None, c=None) -> int:
        now = self._now
        if t[0] < now[0]:
            if t[0] < now[0] - _PAST_TOL:
                raise SimulationError(
                    f"event scheduled at {t[0]} before current time {now[0]}"
                )
            self._con2(_C_CLAMP, t[1], now[1])
            t = now
        else:
            self._con2(_C_LE, now[1], t[1])
        seq = self._seq
        self._seq = seq + 1
        self._m_slot.append(t[1])
        self._m_sched.append(self._cur_seq)
        entry = (t[0], seq, t[1], code, a, b, c)
        queue = self._queue
        if not queue or queue[-1] < entry:
            queue.append(entry)
        else:
            insort(queue, entry)
        return seq

    def _order(self, sa: int, sb: int) -> None:
        """Constrain the event with seq ``sa`` to pop before seq ``sb``.

        The engine pops by ``(time, seq)``, and replayed seq numbers are
        unknowable at record time (commuting handlers may interleave
        differently, shifting every seq they assign).  Two facts survive
        replay: an event outlives its scheduler (``_sched``'s validity
        bound plus in-handler assignment), and within one handler seqs
        follow code order.  So: a pair popped against recorded seq order
        needs strictly increasing times; a pair in seq order needs
        ``<=`` plus — for a time tie to break the same way — the same
        pop-order claim about the two *schedulers*, which pins the
        relative seqs.  The walk up the scheduler chains terminates at a
        shared scheduler or the preamble (whose seqs are fixed).
        """
        pairs = self._ordpairs
        m_slot = self._m_slot
        m_sched = self._m_sched
        while True:
            key = (sa << 32) | sb
            if key in pairs:
                return
            pairs.add(key)
            if sa > sb:
                self._con2(_C_LT, m_slot[sa], m_slot[sb])
                return
            if m_sched[sb] == sa:
                # b was scheduled during a's own execution: a pops
                # first at every point, no constraint needed.
                return
            self._con2(_C_LE, m_slot[sa], m_slot[sb])
            sa = m_sched[sa]
            sb = m_sched[sb]
            if sa == sb or sa < 0 or sb < 0:
                return

    def run(self):
        procs = self._procs
        for proc in procs:
            self._sched_activation(proc, self._now)
        queue = self._queue
        cancelled = self._cancelled
        head = 0
        events = 0
        budget = self._budget
        fp = self._fp
        fp.clear()  # preamble touches precede everything; drop them
        last = self._last_touch
        order = self._order
        while True:
            try:
                entry = queue[head]
            except IndexError:
                break
            head += 1
            if head >= _COMPACT:
                del queue[:head]
                head = 0
            sq = entry[1]
            if cancelled and sq in cancelled:
                cancelled.remove(sq)
                continue
            events += 1
            if events > budget:
                raise SimulationError(
                    f"exceeded max_events={budget}; likely livelock"
                )
            self._now = (entry[0], entry[2])
            self._cur_seq = sq
            code = entry[3]
            if code == _EV_ACTIVATION:
                self._on_activation(entry[4], entry[5])
            elif code == _EV_ARRIVAL:
                self._on_arrival(entry[4])
            elif code == _EV_RECV_DONE:
                self._on_recv_done(entry[4], entry[5])
            elif code == _EV_INJECT:
                self._on_inject(entry[4])
            elif code == _EV_WAKE:
                self._on_wake(entry[4], entry[5])
            else:
                self._on_barrier_release(entry[4])
            # Dependency edges: this event pops after every earlier
            # event touching any state cell its handler touched.
            prevs = None
            for cell in fp:
                pe = last[cell]
                if pe is not None:
                    if prevs is None:
                        prevs = {pe}
                    else:
                        prevs.add(pe)
                last[cell] = sq
            fp.clear()
            if prevs is not None:
                for pe in prevs:
                    order(pe, sq)
        self._events = events
        self._check_completion()
        makespan = None
        for p in procs:
            pm = self._max(p.finished_at, p.last_activity)
            makespan = pm if makespan is None else self._max(makespan, pm)
        total = procs[0].stall_time
        for p in procs[1:]:
            out = self._slot()
            self.tape.code.append(
                (_I_ADDS, out, total[1], p.stall_time[1])
            )
            total = (total[0] + p.stall_time[0], out)
        tape = self.tape
        tape.makespan_slot = makespan[1]
        tape.stall_slot = total[1]
        return {
            "makespan": makespan[0],
            "total_stall_time": total[0],
            "total_messages": self._total_messages,
            "events_run": events,
        }

    # -- activation plumbing with dedup-key constraints --------------

    def _sched_activation(self, proc, t) -> None:
        self._fp.add(proc.rank)
        pending = proc.pending_activations
        hit = False
        for kv, (_kid, kslot) in pending.items():
            if kv == t[0]:
                self._con2(_C_EQ, t[1], kslot)
                hit = True
            else:
                self._con2(_C_NE, t[1], kslot)
        if not hit:
            pending[t[0]] = (
                self._sched(t, _EV_ACTIVATION, proc, t),
                t[1],
            )

    def _supersede_activations(self, proc, until) -> None:
        self._fp.add(proc.rank)
        pending = proc.pending_activations
        cur_seq = self._cur_seq
        stale = []
        for kv, (kid, kslot) in pending.items():
            if kv < until[0]:
                self._con2(_C_LT, kslot, until[1])
                # A cancelled entry must still be *in the queue* at the
                # moment of cancellation — if a replayed point moved it
                # before the current event, it would pop and execute
                # first.  Pin the pop order.
                self._order(cur_seq, kid)
                stale.append(kv)
            else:
                self._con2(_C_LE, until[1], kslot)
        if stale:
            cancelled = self._cancelled
            for kv in stale:
                cancelled.add(pending.pop(kv)[0])

    def _on_activation(self, proc, t) -> None:
        proc.pending_activations.pop(t[0], None)
        self._activate(proc)

    # -- interpreter loop (ports machine._activate) ------------------

    def _activate(self, proc) -> None:
        now = self._now
        rank = proc.rank
        self._fp.add(rank)
        while True:
            state = proc.state
            if state == _DONE:
                if proc.pending_inject is not None:
                    self._try_inject(proc)
                if proc.arrived:
                    self._try_drain(proc)
                return
            if self._lt(now, proc.busy_until):
                self._sched_activation(proc, proc.busy_until)
                return
            if state == _SLEEPING or state == _WAIT_BARRIER:
                if proc.arrived:
                    self._try_drain(proc)
                return
            if proc.pending_inject is not None:
                if self._try_inject(proc):
                    proc.state = _RUNNING
                    continue
                proc.state = _STALL_SEND
                if proc.arrived:
                    self._try_drain(proc)
                return
            op = proc.pending
            if op is None:
                ip = proc.ip
                if ip >= proc.n_ops:
                    proc.state = _DONE
                    proc.finished_at = now
                    if proc.arrived:
                        self._try_drain(proc)
                    return
                op = proc.ops[ip]
                proc.ip = ip + 1
                proc.pending = op
                if op[0] == OP_POLL:
                    proc.poll_drained = 0
            kind = op[0]
            if kind == OP_SEND:
                # earliest = max(last_send_start + si, port_free): the
                # machine's branchy form is value-equal to the fold.
                earliest = self._max(
                    self._add(
                        proc.last_send_start, _T_SI, 0.0, self._si
                    ),
                    proc.port_free,
                )
                if self._lt(now, earliest):
                    proc.state = _WAIT_GAP
                    self._sched_activation(proc, earliest)
                    if proc.arrived:
                        self._try_drain(proc)
                    return
                end = self._add(now, _T_O, 0.0, self._o)
                proc.pending_inject = _TMsg(rank, op[1], op[3], op[2])
                self._total_messages += 1
                proc.last_send_start = now
                proc.sends += 1
                proc.busy_until = end
                proc.last_activity = self._max(proc.last_activity, end)
                self._sched(end, _EV_INJECT, proc)
                proc.state = _RUNNING
                ip = proc.ip
                if ip >= proc.n_ops:
                    proc.pending = None
                    proc.state = _DONE
                    proc.finished_at = end
                    return
                op = proc.ops[ip]
                proc.ip = ip + 1
                proc.pending = op
                if op[0] == OP_POLL:
                    proc.poll_drained = 0
                return
            if kind == OP_RECV:
                if self._mailbox_take(proc, op[1]):
                    proc.pending = None
                    proc.state = _RUNNING
                    continue
                proc.state = _WAIT_RECV
                if proc.arrived:
                    self._try_drain(proc)
                return
            if kind == OP_COMPUTE:
                cycles = op[1]
                if self._jitter is not None:
                    cycles = float(self._jitter(rank, cycles))
                    if cycles < 0:
                        raise SimulationError(
                            f"compute_jitter returned negative cycles "
                            f"{cycles} for proc {rank}"
                        )
                end = self._add(now, _T_LIT, cycles, cycles)
                proc.busy_until = end
                proc.last_activity = self._max(proc.last_activity, end)
                proc.pending = None
                proc.state = _RUNNING
                if cycles > 0:
                    if proc.pending_activations:
                        self._supersede_activations(proc, end)
                    self._sched_activation(proc, end)
                    return
                continue
            if kind == OP_SLEEP:
                proc.state = _SLEEPING
                wake = self._add(now, _T_LIT, op[1], op[1])
                proc.pending = None
                self._sched(wake, _EV_WAKE, proc, wake)
                if proc.arrived:
                    self._try_drain(proc)
                return
            if kind == OP_POLL:
                if proc.arrived:
                    gate = self._add(
                        proc.last_recv_start, _T_G, 0.0, self._g
                    )
                    if not self._lt(now, gate):
                        proc.state = _POLLING
                        self._try_drain(proc)
                        return
                proc.pending = None
                proc.state = _RUNNING
                continue
            if kind == OP_NOW:
                assumed = self._lit(op[1])
                if now[0] != assumed[0]:
                    raise TimingDivergence(
                        f"proc {rank} observed Now()={now[0]} at the "
                        f"recording reference but the schedule assumed "
                        f"{op[1]} — this point belongs to a different "
                        "branch-split region"
                    )
                # A replayed point takes this schedule's control flow
                # only if it reproduces the compiled clock reading.
                self._con2(_C_EQ, now[1], assumed[1])
                proc.pending = None
                continue
            # OP_BARRIER
            proc.pending = None
            proc.state = _WAIT_BARRIER
            self._fp.add(self._P)
            waiting = self._barrier_waiting
            waiting.append(rank)
            if len(waiting) == self._P:
                self._release_barrier()
            elif proc.arrived:
                self._try_drain(proc)
            return

    # -- receive side ------------------------------------------------

    def _mailbox_take(self, proc, tag) -> bool:
        mailbox = proc.mailbox
        if tag is None:
            if mailbox:
                mailbox.pop(0)
                return True
            return False
        for i, t in enumerate(mailbox):
            if t == tag:
                del mailbox[i]
                return True
        return False

    def _try_drain(self, proc) -> None:
        self._fp.add(proc.rank)
        if not proc.arrived or proc.state == _RUNNING:
            return
        now = self._now
        if self._lt(now, proc.busy_until):
            self._sched_activation(proc, proc.busy_until)
            return
        if proc.pending_inject is not None and proc.stall_started is None:
            return
        earliest = self._add(proc.last_recv_start, _T_G, 0.0, self._g)
        if self._lt(now, earliest):
            self._sched_activation(proc, earliest)
            return
        msg = proc.arrived.pop(0)
        end = self._add(now, _T_O, 0.0, self._o)
        rank = proc.rank
        proc.last_recv_start = now
        proc.busy_until = end
        proc.receives += 1
        proc.last_activity = self._max(proc.last_activity, end)
        if proc.pending_activations:
            self._supersede_activations(proc, end)
        self._inflight_to[rank] -= 1
        if self._stall_queue[rank]:
            self._release_dst_slot(rank)
        self._sched(end, _EV_RECV_DONE, proc, msg)

    def _on_recv_done(self, proc, msg) -> None:
        self._fp.add(proc.rank)
        state = proc.state
        tag = msg.tag
        if state == _WAIT_RECV and not proc.mailbox:
            want = proc.pending[1]
            if want is None or want == tag:
                proc.pending = None
                proc.state = _RUNNING
                self._activate(proc)
                return
        proc.mailbox.append(tag)
        if state == _POLLING:
            proc.poll_drained += 1
            self._activate(proc)
            return
        if state == _WAIT_RECV:
            if self._mailbox_take(proc, proc.pending[1]):
                proc.pending = None
                proc.state = _RUNNING
                self._activate(proc)
                return
        if proc.arrived and proc.state != _RUNNING:
            self._try_drain(proc)
        if proc.state == _STALL_SEND or proc.state == _WAIT_GAP:
            self._sched_activation(
                proc, self._max(self._now, proc.busy_until)
            )

    # -- injection / capacity ----------------------------------------

    def _on_inject(self, proc) -> None:
        self._fp.add(proc.rank)
        if proc.pending_inject is None:
            return
        if self._try_inject(proc):
            self._activate(proc)
        else:
            if proc.state != _DONE:
                proc.state = _STALL_SEND
            if proc.arrived:
                self._try_drain(proc)

    def _try_inject(self, proc) -> bool:
        msg = proc.pending_inject
        now = self._now
        rank = msg.src
        dst = msg.dst
        self._fp.add(rank)
        self._fp.add(dst)
        if self._enforce:
            needs_src = self._cap_ge(self._inflight_from[rank])
            needs_dst = self._cap_ge(self._inflight_to[dst])
            if needs_src or needs_dst:
                self._park(proc, dst)
                return False
        if proc.stall_started is not None:
            out = self._slot()
            self.tape.code.append(
                (
                    _I_STALL,
                    out,
                    proc.stall_time[1],
                    now[1],
                    proc.stall_started[1],
                )
            )
            proc.stall_time = (
                proc.stall_time[0] + (now[0] - proc.stall_started[0]),
                out,
            )
            proc.last_activity = self._max(proc.last_activity, now)
            proc.stall_started = None
        if proc.queued_on is not None:
            self._stall_queue[proc.queued_on].remove(rank)
            proc.queued_on = None
        words = msg.words
        fixed = self._flight_fixed
        if words > 1:
            k = float(words - 1)
            gl = self._Gl or 0.0
            # stream > 0 iff the per-point long Gap > 0 (k >= 1): a
            # grid-dependent branch, so it needs its own constraint.
            positive = k * gl > 0
            if ("gl", positive) not in self._cap_seen:
                self._cap_seen.add(("gl", positive))
                self.tape.cons.append((_C_GLPOS, positive))
            if fixed is not None:
                # Fixed fast path: arrive = (now + stream) + flight.
                withstream = self._add(now, _T_GLONG, k, k * gl)
                msg.arrive = self._add(
                    withstream, fixed[0], fixed[1], fixed[2]
                )
                if positive:
                    proc.port_free = withstream
            else:
                # Fabric path: arrive = submit(now) + stream, with
                # port_free = now + stream computed separately — the
                # machine's exact expressions.
                msg.arrive = self._add(
                    self._flight_submit(now, rank, dst),
                    _T_GLONG,
                    k,
                    k * gl,
                )
                if positive:
                    proc.port_free = self._add(now, _T_GLONG, k, k * gl)
        elif fixed is not None:
            msg.arrive = self._add(now, fixed[0], fixed[1], fixed[2])
        else:
            msg.arrive = self._flight_submit(now, rank, dst)
        self._inflight_from[rank] += 1
        self._inflight_to[dst] += 1
        proc.pending_inject = None
        self._sched(msg.arrive, _EV_ARRIVAL, msg)
        return True

    def _flight_submit(self, now, src: int, dst: int):
        """Tape the fabric path's ``submit`` arrival (pre-streaming)."""
        model = self._flight_model
        if model is not None:
            # LatencyFabric.submit: t + model.draw(src, dst).  Record
            # the stream *index*; replay supplies per-point values.
            # No ancestor edge for the draw term: nothing structural
            # guarantees another point's draw keeps the sum monotone,
            # so every ordering constraint on it stays explicit.
            idx = len(self.draw_pairs)
            val = float(model.draw(src, dst))
            self.draw_pairs.append((src, dst))
            self._fp.add(self._P + 1)
            out = self._slot()
            self.tape.code.append((_I_ADD, out, now[1], _T_DRAW, idx))
            return (now[0] + val, out)
        # TopologyFabric.submit: (t + serialization) + hops * hop_delay
        # — both terms pure functions of (src, dst), literal on every
        # grid point.
        fab = self._flight_topo
        key = (src, dst)
        hop = self._topo_flight.get(key)
        if hop is None:
            hop = len(fab._route_links(src, dst)) * fab.hop_delay
            self._topo_flight[key] = hop
        ser = fab.serialization
        return self._add(self._add(now, _T_LIT, ser, ser), _T_LIT, hop, hop)

    def _park(self, proc, dst) -> None:
        if proc.stall_started is None:
            proc.stall_started = self._now
        if proc.queued_on is None:
            proc.queued_on = dst
            self._stall_queue[dst].append(proc.rank)

    def _release_src_slot(self, src: int) -> None:
        self._fp.add(src)
        proc = self._procs[src]
        if proc.stall_started is None or proc.pending_inject is None:
            return
        dst = proc.pending_inject.dst
        self._fp.add(dst)
        admitted = not self._cap_ge(
            self._inflight_from[src]
        ) and not self._cap_ge(self._inflight_to[dst])
        if admitted:
            self._sched_activation(
                proc, self._max(self._now, proc.busy_until)
            )

    def _release_dst_slot(self, dst: int) -> None:
        self._fp.add(dst)
        queue = self._stall_queue[dst]
        if not queue:
            return
        budget = self._capacity - self._inflight_to[dst]
        for rank in queue:
            # budget <= 0 iff (inflight + admissions so far) >= capacity;
            # that count is path-structural, the capacity is per-point.
            if self._cap_ge(self._capacity - budget):
                break
            self._fp.add(rank)
            admitted = not self._cap_ge(self._inflight_from[rank])
            if admitted:
                budget -= 1
                waiter = self._procs[rank]
                self._sched_activation(
                    waiter, self._max(self._now, waiter.busy_until)
                )

    def _on_arrival(self, msg) -> None:
        src = msg.src
        self._fp.add(src)
        self._fp.add(msg.dst)
        self._inflight_from[src] -= 1
        src_proc = self._procs[src]
        if src_proc.stall_started is not None:
            self._release_src_slot(src)
        dst = self._procs[msg.dst]
        dst.arrived.append(msg)
        if dst.state != _RUNNING:
            if not self._lt(self._now, dst.busy_until):
                self._try_drain(dst)
            else:
                self._sched_activation(dst, dst.busy_until)

    # -- sleep / barrier ---------------------------------------------

    def _on_wake(self, proc, wake) -> None:
        self._fp.add(proc.rank)
        if proc.state == _SLEEPING and not self._lt(self._now, wake):
            if self._lt(self._now, proc.busy_until):
                self._sched(proc.busy_until, _EV_WAKE, proc, wake)
                return
            proc.state = _RUNNING
            self._activate(proc)

    def _release_barrier(self) -> None:
        self._fp.add(self._P)
        release = self._add(
            self._now, _T_LIT, self._hw_barrier, self._hw_barrier
        )
        waiting = self._barrier_waiting
        self._barrier_waiting = []
        for rank in waiting:
            self._fp.add(rank)
            proc = self._procs[rank]
            self._sched(
                self._max(release, proc.busy_until), _EV_BARRIER, rank
            )

    def _on_barrier_release(self, rank: int) -> None:
        self._fp.add(rank)
        proc = self._procs[rank]
        if proc.state == _WAIT_BARRIER:
            proc.state = _RUNNING
            self._activate(proc)

    def _check_completion(self) -> None:
        stuck = [p.rank for p in self._procs if p.state != _DONE]
        if stuck:
            raise SimulationError(
                f"deadlock: procs {stuck} never finished"
            )
        for proc in self._procs:
            if proc.arrived or proc.pending_inject is not None:
                raise SimulationError(
                    f"proc {proc.rank} ended mid-flight"
                )


@dataclass(slots=True)
class GridResult:
    """Per-point results of a grid evaluation, in submission order.

    Each point's makespan and stall total are the event machine's
    exactly, whether the point was replayed from a tape or run on the
    machine itself; a one-point grid is the compiled path's
    single-point evaluation.  Per-rank accounting and the stall/wakeup
    feed are not reported here — a traced machine run has them.
    """

    makespans: list[float]
    total_stall_times: list[float]
    #: Number of control-flow regions recorded (reference runs); 0 on
    #: the folded path, which records no tapes.
    tapes: int
    #: Points the tapes did not cover, run one at a time on the event
    #: machine (exact, slower); 0 on the folded path.
    fallbacks: int
    #: Points whose clock observations contradict every recorded
    #: ``OP_NOW`` assumption — their entries are *unfilled*; the caller
    #: recompiles them at their own parameters (:func:`evaluate_forked`).
    divergent: list[int] = field(default_factory=list)
    #: True when produced by the symmetry-folded path (:mod:`.fold`):
    #: one class walk over every point at once, ``classes``
    #: equivalence classes standing in for P ranks.  Unfilled
    #: ``divergent`` entries there are points the fold refuses at
    #: their own parameters (a capacity stall) — the caller evaluates
    #: them unfolded.
    folded: bool = False
    classes: int = 0


@dataclass(slots=True)
class SeedGridResult:
    """Per-(point, seed) results, point-major: column ``p * n_seeds + s``."""

    makespans: list[float]
    total_stall_times: list[float]
    n_points: int
    n_seeds: int
    #: Number of control-flow regions recorded (reference runs).
    tapes: int
    #: Columns the tapes did not cover, run one at a time on the event
    #: machine (exact, slower).
    fallbacks: int
    #: Columns divergent from every recorded ``OP_NOW`` assumption
    #: (unfilled — see :class:`GridResult`).
    divergent: list[int] = field(default_factory=list)
    #: Folded-path markers, for API symmetry with :class:`GridResult`
    #: (seeded draws are not foldable today, so always the defaults).
    folded: bool = False
    classes: int = 0


def _term_values(term: int, k, arrs):
    L, o, g, si, Gl, D = arrs
    if term == _T_LIT:
        return k
    if term == _T_L:
        return L
    if term == _T_O:
        return o
    if term == _T_G:
        return g
    if term == _T_SI:
        return si
    if term == _T_GLONG:
        return k * Gl
    return D[k]  # _T_DRAW: k is the draw-stream index


#: Constraint rows batched per fancy-indexing chunk — bounds the
#: (rows x npts) comparison temporaries to a few MB.
_CONS_CHUNK = 512


def _replay_numpy(tape: _Tape, arrs, caps):
    np = _np
    npts = len(caps)
    # One (slot, point) matrix; ``out=`` targets write rows in place so
    # the code loop allocates no temporaries.  Slots are SSA, so an
    # instruction's output row never aliases its inputs.
    S = np.empty((tape.n_slots, npts), dtype=float)
    for ins in tape.code:
        op = ins[0]
        if op == _I_ADD:
            np.add(
                S[ins[2]], _term_values(ins[3], ins[4], arrs),
                out=S[ins[1]],
            )
        elif op == _I_MAX:
            np.maximum(S[ins[2]], S[ins[3]], out=S[ins[1]])
        elif op == _I_CONST:
            S[ins[1]] = _term_values(ins[2], ins[3], arrs)
        elif op == _I_ADDS:
            np.add(S[ins[2]], S[ins[3]], out=S[ins[1]])
        else:  # _I_STALL
            np.subtract(S[ins[3]], S[ins[4]], out=S[ins[1]])
            np.add(S[ins[2]], S[ins[1]], out=S[ins[1]])
    mk = S[tape.makespan_slot].copy()
    st = S[tape.stall_slot].copy()
    # Bucket the constraints by kind, then check each bucket as a
    # handful of matrix comparisons instead of one python-dispatched
    # array op per constraint — the replay hot path for large tapes.
    by_kind: list = [[] for _ in range(7)]
    for con in tape.cons:
        by_kind[con[0]].append(con)
    ok = np.ones(npts, dtype=bool)
    for kind in (_C_LE, _C_LT, _C_EQ, _C_NE, _C_CLAMP):
        rows = by_kind[kind]
        for i in range(0, len(rows), _CONS_CHUNK):
            chunk = rows[i : i + _CONS_CHUNK]
            a = S[np.fromiter((c[1] for c in chunk), dtype=np.intp)]
            b = S[np.fromiter((c[2] for c in chunk), dtype=np.intp)]
            if kind == _C_LE:
                res = a <= b
            elif kind == _C_LT:
                res = a < b
            elif kind == _C_EQ:
                res = a == b
            elif kind == _C_NE:
                res = a != b
            else:  # _C_CLAMP
                res = (a < b) & (a >= b - _PAST_TOL)
            ok &= res.all(axis=0)
            if not ok.any():
                return ok, mk, st
    cap_rows = by_kind[_C_CAP]
    if cap_rows:
        counts = np.fromiter(
            (c[1] for c in cap_rows), dtype=np.int64
        )
        observed = np.fromiter(
            (c[2] for c in cap_rows), dtype=bool
        )
        res = (counts[:, None] >= caps[None, :]) == observed[:, None]
        ok &= res.all(axis=0)
    for con in by_kind[_C_GLPOS]:
        ok &= (arrs[4] > 0) == con[1]
        if not ok.any():
            break
    return ok, mk, st


def _replay_python(tape: _Tape, pts, caps):
    """Scalar replay of one tape at each point: exact, numpy-free."""
    oks = []
    mks = []
    sts = []
    for (L, o, g, si, Gl, D), cap in zip(pts, caps):
        arrs = (L, o, g, si, Gl, D)
        slots: list = [0.0] * tape.n_slots
        for ins in tape.code:
            op = ins[0]
            if op == _I_ADD:
                slots[ins[1]] = slots[ins[2]] + _term_values(
                    ins[3], ins[4], arrs
                )
            elif op == _I_MAX:
                a = slots[ins[2]]
                b = slots[ins[3]]
                slots[ins[1]] = a if a >= b else b
            elif op == _I_CONST:
                slots[ins[1]] = _term_values(ins[2], ins[3], arrs)
            elif op == _I_ADDS:
                slots[ins[1]] = slots[ins[2]] + slots[ins[3]]
            else:
                slots[ins[1]] = slots[ins[2]] + (
                    slots[ins[3]] - slots[ins[4]]
                )
        ok = True
        for con in tape.cons:
            c = con[0]
            if c == _C_LE:
                ok = slots[con[1]] <= slots[con[2]]
            elif c == _C_LT:
                ok = slots[con[1]] < slots[con[2]]
            elif c == _C_EQ:
                ok = slots[con[1]] == slots[con[2]]
            elif c == _C_NE:
                ok = slots[con[1]] != slots[con[2]]
            elif c == _C_CLAMP:
                t, n = slots[con[1]], slots[con[2]]
                ok = (t < n) and (t >= n - _PAST_TOL)
            elif c == _C_CAP:
                ok = (con[1] >= cap) == con[2]
            else:
                ok = (Gl > 0) == con[1]
            if not ok:
                break
        oks.append(bool(ok))
        mks.append(slots[tape.makespan_slot])
        sts.append(slots[tape.stall_slot])
    return oks, mks, sts


def _grid_timing(pts, latency, fabric):
    """Resolve the grid's shared timing configuration.

    The machine's latency/fabric normalisation, over a whole grid:
    the same mutual-exclusion and bound validation (machine-identical
    ``ValueError`` messages, checked at *every* grid point), returning
    the recorder ``timing`` spec plus the latency model whose draw
    stream feeds the replay (``None`` off the draw path).
    """
    if fabric is not None:
        if latency is not None:
            raise ValueError(
                "give latency or fabric, not both (a plain latency "
                "model is run as a LatencyFabric)"
            )
        if fabric.lossy:
            raise ValueError(
                "the compiled evaluator does not support lossy "
                "fabrics: ARQ timeout-and-retry is timing-dependent "
                "control flow — use the event machine"
            )
        for p in pts:
            if fabric.bound > p.L + 1e-12:
                raise ValueError(
                    f"fabric unloaded bound {fabric.bound} exceeds "
                    f"L={p.L}"
                )
        if type(fabric) is LatencyFabric:
            model = fabric.model
            if type(model) is FixedLatency:
                return ("const", float(model.L)), None
            return ("draw", model), model
        if type(fabric) is TopologyFabric:
            return ("topo", fabric), None
        raise ValueError(
            "the compiled grid replay supports LatencyFabric and the "
            f"deterministic TopologyFabric, not {type(fabric).__name__}"
            " — use the event machine"
        )
    if latency is not None:
        for p in pts:
            if latency.L > p.L + 1e-12:
                raise ValueError(
                    f"latency model bound {latency.L} exceeds L={p.L}"
                )
        if type(latency) is FixedLatency:
            return ("const", float(latency.L)), None
        return ("draw", latency), latency
    return ("params",), None


def _validate_grid(compiled, pts, hw_barrier_cost, max_tapes, capacity):
    """Shared grid validation; returns per-point effective capacities."""
    if hw_barrier_cost < 0:
        raise ValueError(
            f"hw_barrier_cost must be >= 0, got {hw_barrier_cost}"
        )
    if max_tapes < 0:
        raise ValueError(f"max_tapes must be >= 0, got {max_tapes}")
    for p in pts:
        if p.P != compiled.P:
            raise ValueError(
                f"grid point P={p.P} does not match compiled "
                f"P={compiled.P}; group grid points by P"
            )
        if compiled.max_words > 1 and getattr(p, "G", None) is None:
            raise SimulationError(
                f"multi-word send (words={compiled.max_words}) requires "
                "LogGP parameters with a per-word gap G"
            )
    caps = [
        (p.capacity if capacity is None else capacity) for p in pts
    ]
    for c in caps:
        if c < 1:
            raise ValueError(f"capacity must be >= 1, got {c}")
    return caps


def _resolve_use_numpy(use_numpy):
    if use_numpy is None:
        return _np is not None
    if use_numpy and _np is None:
        raise RuntimeError("numpy requested but not importable")
    return use_numpy


def _raw_point(p):
    return (
        float(p.L),
        float(p.o),
        float(p.g),
        float(p.send_interval),
        float(getattr(p, "G", None) or 0.0),
    )


def _op_action(op: tuple):
    """The program action a compiled op was lowered from."""
    kind = op[0]
    if kind == OP_SEND:
        return Send(op[1], tag=op[3], words=op[2])
    if kind == OP_RECV:
        return Recv(op[1])
    if kind == OP_COMPUTE:
        return Compute(op[1])
    if kind == OP_SLEEP:
        return Sleep(op[1])
    if kind == OP_POLL:
        return Poll()
    if kind == OP_NOW:
        return Now()
    return Barrier()


def _machine_factory(compiled: CompiledProgram):
    """``compiled``'s op streams as a machine program factory.

    Each rank yields its ops as actions and returns its compile-time
    value, so ``LogPMachine(...).run(_machine_factory(compiled))`` is
    the reference evaluation of the schedule: grid stragglers run
    through it.  An ``OP_NOW`` whose clock reading differs from the
    assumed one raises :class:`TimingDivergence`.
    """
    scripts = [[(op, _op_action(op)) for op in ops] for ops in compiled.ops]
    values = compiled.values

    def program(rank: int, P: int):
        for op, action in scripts[rank]:
            got = yield action
            if op[0] == OP_NOW and got != op[1]:
                raise TimingDivergence(
                    f"proc {rank} observed Now()={got} but the schedule "
                    f"was compiled assuming {op[1]}; control flow after "
                    "this point is not this schedule's — lower it at "
                    "this parameter point (compile_at) or use the event "
                    "machine"
                )
        return values[rank]

    return program


def compile_at(
    programs,
    P: int,
    params,
    *,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    max_events: int = 50_000_000,
) -> CompiledProgram:
    """Lower a timing-dependent program at one parameter point.

    A program that observes ``Now`` cannot compile parameter-free, but
    it *can* compile against the clock readings of one run.  The event
    machine runs the real factory once at ``params``, recording every
    rank's ``Now`` readings; the factory is then compiled once with
    those readings as the oracle, so its generators see exactly the
    resume values the machine delivered.

    The lowering is checked before it is returned: the compiled
    schedule is run on the machine at ``params`` and must reproduce
    every reading.  A program whose action sequence also depends on
    something the compiler cannot see (a ``Poll`` count, a receive
    timestamp) fails that check, and the refusal is a loud
    :class:`CompileError`, so ``backend="auto"`` falls back to the
    machine with the reason.  An error of the program itself (a
    deadlock, an invalid send) is raised by the machine run unchanged.

    ``programs`` must be a *factory* ``(rank, P) -> generator``: it is
    driven twice, by the machine and by the compiler.
    """
    if not callable(programs):
        raise CompileError(
            "timing-dependent lowering drives the program twice, which "
            "requires a program factory (rank, P) -> generator, not "
            "a sequence of already-built generators"
        )
    kw = dict(
        latency=latency,
        fabric=fabric,
        enforce_capacity=enforce_capacity,
        capacity=capacity,
        hw_barrier_cost=hw_barrier_cost,
        compute_jitter=compute_jitter,
        max_events=max_events,
    )
    readings: list[list[float]] = [[] for _ in range(P)]

    def recording(rank: int, P_: int):
        gen = programs(rank, P_)
        log = readings[rank]
        resume = None
        while True:
            try:
                action = gen.send(resume)
            except StopIteration as stop:
                return stop.value
            resume = yield action
            if type(action) is Now:
                log.append(resume)

    LogPMachine(params, trace=False, **kw).run(recording)
    try:
        compiled = compile_programs(programs, P, now_values=readings)
    except CompileError:
        raise
    except Exception as exc:
        # The readings are the machine's, but the compiler resumes
        # other actions with placeholders (Poll counts, NaN receive
        # timestamps) that can steer a program into errors the machine
        # run never hit.  That is a lowering failure, not a
        # configuration error: refuse as CompileError.
        raise CompileError(
            "timing-dependent lowering failed while driving generators "
            f"at the machine's clock readings: {exc}"
        ) from exc
    if compiled.uses_now:
        try:
            LogPMachine(params, trace=False, **kw).run(
                _machine_factory(compiled)
            )
        except TimingDivergence as exc:
            raise CompileError(
                "timing-dependent schedule lowered at the machine's "
                f"clock readings does not reproduce them at {params!r} "
                f"({exc}): the program's actions depend on more than "
                "its clock — run it on the event machine"
            ) from exc
    return compiled


def evaluate_grid(
    compiled: CompiledProgram,
    grid: Sequence,
    *,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    max_events: int = 50_000_000,
    max_tapes: int = 32,
    use_numpy: bool | None = None,
) -> GridResult:
    """Evaluate one compiled program at every parameter point in ``grid``.

    Each point's makespan and total stall time are exactly what the
    event machine produces there — vectorization changes cost, never
    values.  Points are covered by up to ``max_tapes`` recorded
    control-flow regions; uncovered stragglers run on the machine
    (``GridResult.fallbacks``).

    Args:
        compiled: output of :func:`compile_programs`.
        grid: LogPParams points; every ``P`` must equal ``compiled.P``
            (vectorization is over ``(L, o, g)`` — fan out over ``P``
            by compiling per processor count, as ``sweep.grid_map``
            does).
        latency: a :class:`~repro.sim.latency.LatencyModel` shared by
            every point, exactly as the machine takes it: reset before
            each point's run, drawn once per injection in event order.
            Seeded models replay vectorized through the tape's draw
            inputs.  Mutually exclusive with ``fabric``.
        fabric: a :class:`~repro.sim.net.LatencyFabric` or
            deterministic :class:`~repro.sim.net.TopologyFabric`;
            per-hop routed flight lowers to per-pair literals.
        use_numpy: force (True) or forbid (False) the numpy replay;
            ``None`` uses numpy when importable.

    A ``uses_now`` schedule (lowered by :func:`compile_at`)
    evaluates only at points reproducing its assumed clock readings;
    the rest are returned *unfilled* in ``GridResult.divergent`` for
    the caller to recompile (:func:`evaluate_forked` automates this).
    """
    pts = list(grid)
    if not pts:
        return GridResult([], [], 0, 0)
    caps = _validate_grid(compiled, pts, hw_barrier_cost, max_tapes, capacity)
    timing, model = _grid_timing(pts, latency, fabric)
    if fabric is not None:
        fabric.reset()
        fabric.attach(None, compiled.P, False)
    use_numpy = _resolve_use_numpy(use_numpy)
    n = len(pts)
    raw = [_raw_point(p) for p in pts]
    makespans = [0.0] * n
    stalls = [0.0] * n
    remaining = list(range(n))
    tapes = 0
    divergent: list[int] = []
    while remaining and tapes < max_tapes:
        ref = remaining[0]
        if model is not None:
            model.reset()
        rec = _TapeEvaluator(
            compiled,
            pts[ref],
            enforce_capacity=enforce_capacity,
            capacity=caps[ref],
            hw_barrier_cost=hw_barrier_cost,
            compute_jitter=compute_jitter,
            max_events=max_events,
            timing=timing,
        )
        try:
            out = rec.run()
        except TimingDivergence:
            divergent.append(ref)
            remaining = remaining[1:]
            continue
        tapes += 1
        makespans[ref] = out["makespan"]
        stalls[ref] = out["total_stall_time"]
        rest = remaining[1:]
        if not rest:
            remaining = []
            break
        if model is not None and rec.draw_pairs:
            # One shared model: its params are fixed at construction
            # and it is reset per point, so every point sees the same
            # draw sequence — per-tape constants on the draw inputs.
            model.reset()
            draws = [float(v) for v in model.draw_batch(rec.draw_pairs)]
        else:
            draws = None
        if use_numpy:
            np = _np
            arrs = tuple(
                np.asarray([raw[i][k] for i in rest], dtype=float)
                for k in range(5)
            ) + (draws,)
            cap_arr = np.asarray([caps[i] for i in rest], dtype=np.int64)
            ok, mk, st = _replay_numpy(rec.tape, arrs, cap_arr)
            next_remaining = []
            for j, i in enumerate(rest):
                if ok[j]:
                    makespans[i] = float(mk[j])
                    stalls[i] = float(st[j])
                else:
                    next_remaining.append(i)
            remaining = next_remaining
        else:
            ok, mk, st = _replay_python(
                rec.tape,
                [(*raw[i], draws) for i in rest],
                [caps[i] for i in rest],
            )
            next_remaining = []
            for j, i in enumerate(rest):
                if ok[j]:
                    makespans[i] = mk[j]
                    stalls[i] = st[j]
                else:
                    next_remaining.append(i)
            remaining = next_remaining
    fallbacks = 0
    program = _machine_factory(compiled) if remaining else None
    for i in remaining:
        try:
            res = LogPMachine(
                pts[i],
                latency=latency,
                fabric=fabric,
                enforce_capacity=enforce_capacity,
                capacity=capacity,
                hw_barrier_cost=hw_barrier_cost,
                compute_jitter=compute_jitter,
                trace=False,
                max_events=max_events,
            ).run(program)
        except TimingDivergence:
            divergent.append(i)
            continue
        fallbacks += 1
        makespans[i] = res.makespan
        stalls[i] = res.total_stall_time
    divergent.sort()
    return GridResult(makespans, stalls, tapes, fallbacks, divergent)


def evaluate_seed_grid(
    compiled: CompiledProgram,
    grid: Sequence,
    seeds: Sequence[int],
    latency_factory,
    *,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    max_events: int = 50_000_000,
    max_tapes: int = 32,
    use_numpy: bool | None = None,
) -> SeedGridResult:
    """Evaluate a compiled program over a (point x seed) product grid.

    Column ``p * len(seeds) + s`` is exactly
    ``LogPMachine(grid[p], latency=latency_factory(grid[p], seeds[s]))``
    run on the compiled program's factory — bit identical, enforced by
    the seed-axis differential tests.  One recorded tape covers every
    column whose control flow matches; the per-seed latency draws enter
    the replay as a draws matrix (one row per consumed draw, one column
    per (point, seed) pair), so a 500-seed sweep is a single vectorized
    evaluation rather than 500 machine runs.

    Args:
        compiled: output of :func:`compile_programs`.
        grid: LogPParams points, all with ``P == compiled.P``.
        seeds: seed values, passed to ``latency_factory`` verbatim.
        latency_factory: ``(params, seed) ->``
            :class:`~repro.sim.latency.LatencyModel`; called once per
            column.  Models are reset before every use, so a column
            replays the machine's exact draw sequence.

    ``FixedLatency`` columns take the machine's fixed fast path (a
    different float ordering than drawn flights), so they share tapes
    only with each other; mixed factories are handled by partitioning.
    """
    pts = list(grid)
    seed_list = list(seeds)
    npts = len(pts)
    nseeds = len(seed_list)
    ncols = npts * nseeds
    if ncols == 0:
        return SeedGridResult([], [], npts, nseeds, 0, 0)
    caps = _validate_grid(compiled, pts, hw_barrier_cost, max_tapes, capacity)
    use_numpy = _resolve_use_numpy(use_numpy)
    raw = [_raw_point(p) for p in pts]
    models = []
    for p in pts:
        for s in seed_list:
            m = latency_factory(p, s)
            if m.L > p.L + 1e-12:
                raise ValueError(
                    f"latency model bound {m.L} exceeds L={p.L}"
                )
            models.append(m)
    makespans = [0.0] * ncols
    stalls = [0.0] * ncols
    tapes = 0
    fallbacks = 0
    divergent: list[int] = []
    drawn_cols = [
        c for c in range(ncols) if type(models[c]) is not FixedLatency
    ]
    fixed_cols = [
        c for c in range(ncols) if type(models[c]) is FixedLatency
    ]
    n_msgs = compiled.n_messages
    draw_cache: dict[int, list[float]] = {}

    def _draw_col(c: int, pairs) -> list[float]:
        """Column ``c``'s draw values along the tape's pair sequence.

        A pair-independent model's stream is a pure function of
        position, and every tape consumes exactly one draw per message,
        so the same values serve every tape — computed once per column
        instead of once per (tape, column).
        """
        mc = models[c]
        if not mc.pair_dependent and len(pairs) == n_msgs:
            cached = draw_cache.get(c)
            if cached is None:
                mc.reset()
                cached = [float(v) for v in mc.draw_batch(pairs)]
                draw_cache[c] = cached
            return cached
        mc.reset()
        return [float(v) for v in mc.draw_batch(pairs)]

    for group, is_fixed in ((drawn_cols, False), (fixed_cols, True)):
        remaining = group
        while remaining and tapes < max_tapes:
            ref = remaining[0]
            m = models[ref]
            p = pts[ref // nseeds]
            if is_fixed:
                timing = ("const_axis", float(m.L))
            else:
                m.reset()
                timing = ("draw", m)
            rec = _TapeEvaluator(
                compiled,
                p,
                enforce_capacity=enforce_capacity,
                capacity=caps[ref // nseeds],
                hw_barrier_cost=hw_barrier_cost,
                compute_jitter=compute_jitter,
                max_events=max_events,
                timing=timing,
            )
            try:
                out = rec.run()
            except TimingDivergence:
                divergent.append(ref)
                remaining = remaining[1:]
                continue
            tapes += 1
            makespans[ref] = out["makespan"]
            stalls[ref] = out["total_stall_time"]
            rest = remaining[1:]
            if not rest:
                remaining = []
                break
            pairs = rec.draw_pairs
            n_draws = 1 if is_fixed else len(pairs)
            rest_caps = [caps[c // nseeds] for c in rest]
            if use_numpy:
                np = _np
                if is_fixed:
                    D = np.asarray(
                        [[float(models[c].L) for c in rest]], dtype=float
                    )
                else:
                    D = np.asarray(
                        [_draw_col(c, pairs) for c in rest], dtype=float
                    ).reshape(len(rest), n_draws).T
                arrs = tuple(
                    np.asarray(
                        [raw[c // nseeds][k] for c in rest], dtype=float
                    )
                    for k in range(5)
                ) + (D,)
                cap_arr = np.asarray(rest_caps, dtype=np.int64)
                ok, mk, st = _replay_numpy(rec.tape, arrs, cap_arr)
                next_remaining = []
                for j, c in enumerate(rest):
                    if ok[j]:
                        makespans[c] = float(mk[j])
                        stalls[c] = float(st[j])
                    else:
                        next_remaining.append(c)
                remaining = next_remaining
            else:
                rows = []
                for c in rest:
                    if is_fixed:
                        dcol = [float(models[c].L)]
                    else:
                        dcol = _draw_col(c, pairs)
                    rows.append((*raw[c // nseeds], dcol))
                ok, mk, st = _replay_python(rec.tape, rows, rest_caps)
                next_remaining = []
                for j, c in enumerate(rest):
                    if ok[j]:
                        makespans[c] = mk[j]
                        stalls[c] = st[j]
                    else:
                        next_remaining.append(c)
                remaining = next_remaining
        program = _machine_factory(compiled) if remaining else None
        for c in remaining:
            try:
                res = LogPMachine(
                    pts[c // nseeds],
                    latency=models[c],
                    enforce_capacity=enforce_capacity,
                    capacity=capacity,
                    hw_barrier_cost=hw_barrier_cost,
                    compute_jitter=compute_jitter,
                    trace=False,
                    max_events=max_events,
                ).run(program)
            except TimingDivergence:
                divergent.append(c)
                continue
            fallbacks += 1
            makespans[c] = res.makespan
            stalls[c] = res.total_stall_time
    divergent.sort()
    return SeedGridResult(
        makespans, stalls, npts, nseeds, tapes, fallbacks, divergent
    )


def evaluate_forked(
    programs,
    P: int,
    grid: Sequence,
    *,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter: Callable[[int, float], float] | None = None,
    max_events: int = 50_000_000,
    max_tapes: int = 32,
    use_numpy: bool | None = None,
) -> GridResult:
    """Branch-splitting grid evaluation of a timing-dependent program.

    A program that observes ``Now`` has no parameter-free schedule, but
    its control flow is still piecewise-constant over the grid: lower
    it at the first uncovered point (:func:`compile_at`), evaluate that
    schedule across the remaining points — the recorded ``OP_NOW``
    equality constraints admit exactly the points sharing its branch
    decisions — and re-fork on the divergent rest.  Each fork resolves
    at least its own reference point, so the loop terminates; after
    ``max_tapes`` regions the stragglers run on the event machine.
    Results are bit-identical to the machine everywhere, and a program
    that cannot be lowered refuses loudly with
    :class:`~repro.sim.compiled.CompileError` (from ``compile_at``).

    ``programs`` must be a factory ``(rank, P) -> generator`` — each
    fork drives fresh generators.
    """
    pts = list(grid)
    n = len(pts)
    if n == 0:
        return GridResult([], [], 0, 0)
    kw = dict(
        latency=latency,
        fabric=fabric,
        enforce_capacity=enforce_capacity,
        capacity=capacity,
        hw_barrier_cost=hw_barrier_cost,
        compute_jitter=compute_jitter,
        max_events=max_events,
    )
    makespans = [0.0] * n
    stalls = [0.0] * n
    remaining = list(range(n))
    tapes = 0
    fallbacks = 0
    forks = 0
    while remaining and forks < max_tapes:
        compiled = compile_at(programs, P, pts[remaining[0]], **kw)
        forks += 1
        gr = evaluate_grid(
            compiled,
            [pts[i] for i in remaining],
            max_tapes=max_tapes,
            use_numpy=use_numpy,
            **kw,
        )
        tapes += gr.tapes
        fallbacks += gr.fallbacks
        div = set(gr.divergent)
        nxt = []
        for j, i in enumerate(remaining):
            if j in div:
                nxt.append(i)
            else:
                makespans[i] = gr.makespans[j]
                stalls[i] = gr.total_stall_times[j]
        if len(nxt) == len(remaining):  # pragma: no cover - compile_at
            # checked the reference point, so it always evaluates clean
            raise SimulationError(
                "branch-splitting made no progress over "
                f"{len(remaining)} points"
            )
        remaining = nxt
    for i in remaining:
        res = LogPMachine(pts[i], trace=False, **kw).run(programs)
        fallbacks += 1
        makespans[i] = res.makespan
        stalls[i] = res.total_stall_time
    return GridResult(makespans, stalls, tapes, fallbacks)
