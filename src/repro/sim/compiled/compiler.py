"""Lower LogP programs to a static schedule.

The event machine replays a program by *running* it: generators yield
actions, the engine orders them in time, and resume values flow back in.
For a deterministic run none of that machinery affects *which* actions
execute — a program whose control flow does not depend on simulated time
performs the same action sequence under every ``(L, o, g)``.  The
compiler exploits that: it drives the generators once, at compile time,
with placeholder resume values, and records the flattened per-rank
action sequences as tuples of opcodes.  The result — a
:class:`CompiledProgram` — is **parameter-independent**: one compile
serves a single evaluation, a 500-seed differential, or an entire
``(L, o, g)`` grid.

Compile-time execution mirrors the machine's *matching* semantics
(which message satisfies which ``Recv``) without its timing:

* messages are delivered to a per-rank compile-time mailbox in program
  order; an untagged ``Recv`` takes the oldest, a tagged ``Recv`` scans
  for the oldest tag match — exactly the machine's mailbox discipline;
* ``Barrier`` releases only when all ``P`` ranks have reached it;
* programs that cannot finish without timing information — circular
  waits, a barrier some rank never reaches — fail compilation with
  :class:`CompileError` rather than compiling to a wrong schedule.

Restrictions (the price of timing-free lowering):

* ``Now`` is rejected by default: its resume value is simulated time,
  so any program observing it is timing-dependent by construction.
  The rejection is the distinct :class:`TimingDependentError` so
  callers can tell "needs a clock" from "cannot compile at all".
  Passing ``now_values`` (per-rank FIFO oracles of resume values)
  lowers such a program *at an assumed clock*: each ``Now`` records an
  ``(OP_NOW, value)`` op carrying the oracle value it consumed, and
  every evaluation checks the assumption at run time.
  :func:`repro.sim.compiled.compile_at` takes the oracle from one
  machine run, so the assumed values are the machine's true ones at one
  parameter point; the grid recorder turns each assumption into an
  equality constraint, so other points sharing the schedule replay
  vectorized and divergent points re-record (branch-splitting).
* ``Poll`` compiles (it is timing-only: evaluation replays its drain
  semantics), but its compile-time resume value is always ``0`` —
  a program that *branches its action sequence* on the drained count is
  outside the deterministic-schedule contract this subsystem serves.
* ``Recv`` resume values carry the matched message's source, payload
  and tag, but ``sent_at``/``received_at`` are NaN — timestamps do not
  exist at compile time.  Programs that fold payloads commutatively
  (every collective in this repo) are unaffected.
* ``Recv(timeout=...)`` is rejected with :class:`CompileError`: whether
  the wait expires depends on simulated time, so the action sequence
  after it is timing-dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Sequence

from ..program import (
    Barrier,
    Compute,
    Now,
    Poll,
    ReceivedMessage,
    Recv,
    Send,
    Sleep,
)

__all__ = [
    "OP_SEND",
    "OP_RECV",
    "OP_COMPUTE",
    "OP_SLEEP",
    "OP_POLL",
    "OP_BARRIER",
    "OP_NOW",
    "CompileError",
    "TimingDependentError",
    "CompiledProgram",
    "compile_programs",
    "compile_representatives",
]

# Opcodes.  Each compiled op is a plain tuple with the opcode first:
#   (OP_SEND, dst, words, tag)
#   (OP_RECV, tag)
#   (OP_COMPUTE, cycles)
#   (OP_SLEEP, cycles)
#   (OP_POLL,)
#   (OP_BARRIER,)
#   (OP_NOW, assumed_time)
OP_SEND, OP_RECV, OP_COMPUTE, OP_SLEEP, OP_POLL, OP_BARRIER, OP_NOW = (
    range(7)
)

ProgramFactory = Callable[[int, int], Generator]


class CompileError(ValueError):
    """A program cannot be lowered to a static schedule."""


class TimingDependentError(CompileError):
    """The program observes ``Now`` — it needs a clock to lower.

    Raised by :func:`compile_programs` when no ``now_values`` oracle is
    supplied.  Distinct from a bare :class:`CompileError` so the grid
    layer can route such programs through the
    branch-splitting path (:func:`repro.sim.compiled.compile_at`)
    instead of giving up.
    """


@dataclass(frozen=True, slots=True)
class CompiledProgram:
    """A LogP program flattened to per-rank opcode sequences.

    Parameter-independent: evaluate it at any ``LogPParams`` with
    ``P == self.P`` — one point or a whole grid — with
    :func:`repro.sim.compiled.evaluate_grid` (or over a seed axis with
    :func:`repro.sim.compiled.evaluate_seed_grid`).  The tape recorder
    evaluates it; points past the tape budget run its op streams on the
    event machine, which is the reference semantics.
    """

    P: int
    #: ``ops[rank]`` is that rank's action sequence, in program order.
    ops: tuple[tuple[tuple, ...], ...]
    #: Per-rank program return values, recorded at compile time.
    values: tuple[Any, ...]
    #: Total number of sends across all ranks.
    n_messages: int
    #: Largest ``Send.words`` anywhere; > 1 requires LogGP params (G).
    max_words: int = 1
    uses_barrier: bool = False
    #: True when any rank observed ``Now``: the schedule embeds assumed
    #: clock readings (``OP_NOW`` ops) that every evaluation checks.
    uses_now: bool = False

    @property
    def n_ops(self) -> int:
        return sum(len(seq) for seq in self.ops)


@dataclass(slots=True)
class _RankState:
    """Compile-time execution state for one rank."""

    gen: Generator
    ops: list = field(default_factory=list)
    #: (src, payload, tag) triples delivered but not yet received.
    mailbox: list = field(default_factory=list)
    #: Unmatched Recv we are blocked on, or None.
    waiting_recv: Recv | None = None
    at_barrier: bool = False
    done: bool = False
    value: Any = None


def _refuse_timeout(rank: int, action: Recv) -> None:
    if action.timeout is not None:
        raise CompileError(
            f"proc {rank} used Recv(timeout={action.timeout}): whether "
            "the wait times out depends on simulated time, so the "
            "schedule is timing-dependent — run it on the event machine"
        )


def _take(mailbox: list, tag) -> "tuple | None":
    """Oldest-first mailbox take — the machine's matching discipline."""
    if tag is None:
        return mailbox.pop(0) if mailbox else None
    for i, msg in enumerate(mailbox):
        if msg[2] == tag:
            return mailbox.pop(i)
    return None


def compile_programs(
    programs: "ProgramFactory | Sequence[Generator]",
    P: int,
    *,
    now_values: "Sequence[Sequence[float]] | None" = None,
) -> CompiledProgram:
    """Drive ``programs`` to completion at compile time; record the ops.

    ``programs`` is either a factory ``(rank, P) -> generator`` (the
    machine's usual form) or a sequence of ``P`` already-built
    generators.  Either way the generators are *consumed* here.

    Args:
        now_values: per-rank FIFO oracles of ``Now`` resume values.
            When given, each ``Now`` consumes the next value for its
            rank (0.0 once a rank's oracle runs dry) and records it in an ``(OP_NOW, value)`` op.  Without it, any
            ``Now`` raises :class:`TimingDependentError`.

    Raises:
        TimingDependentError: on ``Now`` with no ``now_values`` oracle.
        CompileError: on an unknown action, an invalid or
            self-targeted send, a non-generator program, or a schedule
            that deadlocks at compile time (circular receive waits, a
            barrier not reached by every rank).
    """
    if P < 1:
        raise CompileError(f"P must be >= 1, got {P}")
    if callable(programs):
        gens = [programs(rank, P) for rank in range(P)]
    else:
        gens = list(programs)
        if len(gens) != P:
            raise CompileError(
                f"expected {P} programs, got {len(gens)}"
            )
    for rank, g in enumerate(gens):
        if not hasattr(g, "send"):
            raise CompileError(
                f"program for rank {rank} is not a generator "
                f"(got {type(g).__name__})"
            )
    ranks = [_RankState(gen=g) for g in gens]
    if now_values is None:
        now_feed = None
    else:
        if len(now_values) != P:
            raise CompileError(
                f"now_values must have one oracle per rank "
                f"({P}), got {len(now_values)}"
            )
        now_feed = [list(vals) for vals in now_values]
        now_cursor = [0] * P
    n_messages = 0
    max_words = 1
    uses_barrier = False
    uses_now = False
    remaining = P

    def _step(rank: int) -> bool:
        """Run one rank until it blocks or finishes.

        Returns True if at least one action was executed (progress).
        """
        nonlocal n_messages, max_words, uses_barrier, uses_now, remaining
        st = ranks[rank]
        progressed = False
        resume = None
        while True:
            if st.waiting_recv is not None:
                got = _take(st.mailbox, st.waiting_recv.tag)
                if got is None:
                    return progressed
                st.ops.append((OP_RECV, st.waiting_recv.tag))
                st.waiting_recv = None
                resume = ReceivedMessage(
                    src=got[0],
                    payload=got[1],
                    tag=got[2],
                    sent_at=math.nan,
                    received_at=math.nan,
                )
                progressed = True
            try:
                action = st.gen.send(resume)
            except StopIteration as stop:
                st.value = stop.value
                st.done = True
                remaining -= 1
                return True
            resume = None
            cls = type(action)
            if cls is Send:
                dst = action.dst
                if dst == rank:
                    raise CompileError(
                        f"proc {rank} tried to send to itself"
                    )
                if not 0 <= dst < P:
                    raise CompileError(
                        f"proc {rank} sent to invalid destination {dst} "
                        f"(P={P})"
                    )
                st.ops.append((OP_SEND, dst, action.words, action.tag))
                ranks[dst].mailbox.append(
                    (rank, action.payload, action.tag)
                )
                n_messages += 1
                if action.words > max_words:
                    max_words = action.words
                progressed = True
            elif cls is Recv:
                _refuse_timeout(rank, action)
                st.waiting_recv = action
            elif cls is Compute:
                st.ops.append((OP_COMPUTE, float(action.cycles)))
                progressed = True
            elif cls is Sleep:
                st.ops.append((OP_SLEEP, float(action.cycles)))
                progressed = True
            elif cls is Poll:
                st.ops.append((OP_POLL,))
                resume = 0
                progressed = True
            elif cls is Barrier:
                st.ops.append((OP_BARRIER,))
                st.at_barrier = True
                uses_barrier = True
                return True
            elif cls is Now:
                if now_feed is None:
                    raise TimingDependentError(
                        f"proc {rank} used Now: simulated time is not "
                        "available at compile time, so the schedule is "
                        "timing-dependent — run it on the event machine"
                    )
                feed = now_feed[rank]
                cur = now_cursor[rank]
                assumed = feed[cur] if cur < len(feed) else 0.0
                now_cursor[rank] = cur + 1
                st.ops.append((OP_NOW, assumed))
                resume = assumed
                uses_now = True
                progressed = True
            else:
                raise CompileError(
                    f"proc {rank} yielded unknown action {action!r}"
                )

    while remaining:
        progress = False
        for rank in range(P):
            st = ranks[rank]
            if st.done or st.at_barrier:
                continue
            if _step(rank):
                progress = True
            if all(r.at_barrier for r in ranks):
                # Barrier release: every rank reached it.
                for r in ranks:
                    r.at_barrier = False
                progress = True
        if not progress:
            blocked = []
            for rank, st in enumerate(ranks):
                if st.done:
                    continue
                if st.at_barrier:
                    blocked.append(f"proc {rank} waiting at a barrier")
                elif st.waiting_recv is not None:
                    tag = st.waiting_recv.tag
                    what = "a message" if tag is None else f"tag {tag!r}"
                    blocked.append(f"proc {rank} waiting to receive {what}")
                else:  # pragma: no cover - _step always blocks or finishes
                    blocked.append(f"proc {rank} blocked")
            raise CompileError(
                "schedule deadlocks at compile time: "
                + "; ".join(blocked)
            )

    return CompiledProgram(
        P=P,
        ops=tuple(tuple(st.ops) for st in ranks),
        values=tuple(st.value for st in ranks),
        n_messages=n_messages,
        max_words=max_words,
        uses_barrier=uses_barrier,
        uses_now=uses_now,
    )


def compile_iterable(
    programs: Iterable[Generator], P: int
) -> CompiledProgram:
    """Convenience wrapper: compile from any iterable of generators."""
    return compile_programs(list(programs), P)


def compile_representatives(
    programs: ProgramFactory,
    P: int,
    ranks: "Sequence[int]",
) -> dict[int, tuple[tuple, ...]]:
    """Compile only the listed ranks, each driven solo — Θ(reps), not Θ(P).

    The symmetry-folding layer (:mod:`.fold`) groups ranks into
    equivalence classes and needs one opcode schedule per class
    *representative*.  Building that through :func:`compile_programs`
    would instantiate and drive all ``P`` generators — exactly the
    Θ(P) cost folding exists to avoid.  This drives each listed rank's
    generator alone instead: a ``Recv`` resumes immediately with a
    placeholder :class:`~repro.sim.program.ReceivedMessage` (unknown
    ``src``, ``None`` payload), since no peer runs to deliver the real
    one.

    The contract this rests on is the fold layer's own eligibility
    shape: the rank's *action sequence* must not depend on the payload
    or source of a received message (forwarding an opaque payload is
    fine — folding only compares opcode skeletons, never payloads).  A
    program that branches on received data produces a wrong schedule
    here, which the fold layer's differential tests exist to catch;
    programs needing cross-rank resolution (``Barrier``) or a clock
    (``Now``) raise :class:`CompileError` because solo driving cannot
    resolve them faithfully.

    Returns ``{rank: ops}`` with the same per-rank op-tuple format as
    :class:`CompiledProgram.ops`.
    """
    if P < 1:
        raise CompileError(f"P must be >= 1, got {P}")
    out: dict[int, tuple[tuple, ...]] = {}
    for rank in ranks:
        if not 0 <= rank < P:
            raise CompileError(
                f"representative rank {rank} out of range (P={P})"
            )
        if rank in out:
            continue
        gen = programs(rank, P)
        if not hasattr(gen, "send"):
            raise CompileError(
                f"program for rank {rank} is not a generator "
                f"(got {type(gen).__name__})"
            )
        ops: list = []
        resume = None
        while True:
            try:
                action = gen.send(resume)
            except StopIteration:
                break
            resume = None
            cls = type(action)
            if cls is Send:
                dst = action.dst
                if dst == rank:
                    raise CompileError(
                        f"proc {rank} tried to send to itself"
                    )
                if not 0 <= dst < P:
                    raise CompileError(
                        f"proc {rank} sent to invalid destination {dst} "
                        f"(P={P})"
                    )
                ops.append((OP_SEND, dst, action.words, action.tag))
            elif cls is Recv:
                _refuse_timeout(rank, action)
                ops.append((OP_RECV, action.tag))
                resume = ReceivedMessage(
                    src=-1,
                    payload=None,
                    tag=action.tag,
                    sent_at=math.nan,
                    received_at=math.nan,
                )
            elif cls is Compute:
                ops.append((OP_COMPUTE, float(action.cycles)))
            elif cls is Sleep:
                ops.append((OP_SLEEP, float(action.cycles)))
            elif cls is Poll:
                ops.append((OP_POLL,))
                resume = 0
            elif cls is Barrier:
                raise CompileError(
                    f"proc {rank} used Barrier: barrier release needs "
                    "every rank, so a solo representative compile "
                    "cannot resolve it — use compile_programs"
                )
            elif cls is Now:
                raise TimingDependentError(
                    f"proc {rank} used Now: simulated time is not "
                    "available at compile time, so the schedule is "
                    "timing-dependent — run it on the event machine"
                )
            else:
                raise CompileError(
                    f"proc {rank} yielded unknown action {action!r}"
                )
        out[rank] = tuple(ops)
    return out
