"""Backend selection for compiled evaluation: explicit and safe.

The compiled fast path reproduces the machine bit-for-bit whenever
flight times are *deterministic given the configuration*: the constant
``L``, a seeded latency model (its ``reset()`` contract makes every
run replay the same draw sequence, which the grid tape vectorizes as
per-point draw inputs), or a :class:`~repro.sim.net.TopologyFabric`'s
per-hop routed flight (a pure function of (src, dst)).  What it cannot
represent is timing resolved from *runtime load*: contention queues and
lossy ARQ retries change delivery as a function of the schedule being
executed, and fault plans / heartbeat detectors inject traffic the
compiled opcode stream does not contain.  Callers pick a ``backend``:

* ``"machine"`` — always the event machine; any configuration.
* ``"compiled"`` — always the compiled evaluator; raises ``ValueError``
  when the timing configuration is ineligible and ``CompileError`` when
  the program itself cannot be lowered.
* ``"auto"`` — the compiled evaluator when the timing configuration is
  eligible, with one deliberate asymmetry: an *ineligible timing
  configuration* is a loud ``ValueError``, never a silent fall back to
  the machine.  Auto-selecting the slow path there would make a sweep
  silently 10× slower the day someone swaps in a contended fabric; the
  caller must say ``backend="machine"`` to mean that.  A program that
  merely cannot be *lowered* (its actions depend on more than its
  clock) falls back to the machine — that is a property of
  the program, not a configuration mistake — and the fallback carries
  the ``CompileError`` reason (see ``sweep.grid_map``'s report).

Symmetry folding (:mod:`.fold`) is a second, stricter tier *inside*
the compiled path: it collapses ranks into equivalence classes and
needs flight times that are not merely deterministic but
*class-invariant* — one constant per message, independent of which
rank sends it.  ``fold`` modes follow the same philosophy:

* ``"off"`` — never fold; the plain compiled evaluator.
* ``"on"`` — always fold; raises ``ValueError`` when the timing
  configuration is fold-ineligible (:func:`fold_ineligibility`) and
  lets :class:`~.fold.FoldError` propagate when the program's shape
  cannot be folded.
* ``"auto"`` — fold when the timing configuration allows it and the
  program folds; a :class:`~.fold.FoldError` (a property of the
  program, not a configuration mistake) degrades to the unfolded
  compiled evaluator with the reason recorded in the dispatch report.
  A fold-ineligible *timing configuration* under ``"auto"`` is **not**
  an error — unlike backend auto-selection there is no silent 10×
  cliff: the unfolded compiled path is the normal, fully supported
  evaluator, so auto simply runs unfolded.
"""

from __future__ import annotations

__all__ = [
    "BACKENDS",
    "FOLD_MODES",
    "backend_ineligibility",
    "fold_ineligibility",
    "resolve_backend",
    "resolve_fold",
]

BACKENDS = ("machine", "compiled", "auto")

FOLD_MODES = ("auto", "on", "off")


def backend_ineligibility(
    latency=None, fabric=None, fault_plan=None, heartbeat=None
) -> str | None:
    """Why this timing configuration cannot use the compiled evaluator.

    Returns ``None`` when eligible: no faults, and flight times from
    any :class:`~repro.sim.latency.LatencyModel` (bare or wrapped in a
    :class:`~repro.sim.net.LatencyFabric` — seeded models replay their
    draw sequence exactly under the ``reset()`` contract) or a
    deterministic :class:`~repro.sim.net.TopologyFabric`.  Otherwise a
    human-readable reason (used verbatim in the ``ValueError``).
    """
    if fabric is not None:
        from ..net import LatencyFabric, TopologyFabric

        eligible = type(fabric) is LatencyFabric or (
            type(fabric) is TopologyFabric and not fabric.lossy
        )
        if not eligible:
            return (
                f"fabric {type(fabric).__name__} resolves delivery "
                "from runtime load (contention queues, ARQ retries); "
                "the compiled evaluator supports LatencyFabric and "
                "the deterministic TopologyFabric"
            )
    if fault_plan is not None:
        return (
            "a FaultPlan crashes or slows processors at runtime; "
            "compiled schedules assume fault-free execution"
        )
    if heartbeat is not None:
        return (
            "a heartbeat detector emits runtime traffic on the message "
            "ports; compiled schedules assume fault-free execution"
        )
    return None


def fold_ineligibility(
    latency=None, fabric=None, compute_jitter=None
) -> str | None:
    """Why this timing configuration cannot use symmetry folding.

    Folding needs *class-invariant* flight: every message in the run
    takes the same fixed time regardless of sender, receiver, or event
    order.  That admits the constant ``L`` and a
    :class:`~repro.sim.latency.FixedLatency` model (bare or wrapped in
    a :class:`~repro.sim.net.LatencyFabric`); it excludes seeded
    latency models (draws are consumed in event order, which folding
    does not reproduce), topology fabrics (flight is a function of the
    (src, dst) pair), and ``compute_jitter`` (rank-indexed by
    construction).  Returns ``None`` when eligible, else a
    human-readable reason.
    """
    if compute_jitter is not None:
        return (
            "compute_jitter is rank-indexed — per-rank cycles are not "
            "class-invariant"
        )
    if fabric is not None:
        from ..net import LatencyFabric

        if type(fabric) is not LatencyFabric:
            return (
                f"fabric {type(fabric).__name__} resolves flight per "
                "(src, dst) pair or from runtime load — not "
                "class-invariant"
            )
        latency = fabric.model
    if latency is not None:
        from ..latency import FixedLatency

        if type(latency) is not FixedLatency:
            return (
                f"latency model {type(latency).__name__} draws per "
                "message in event order — draws are not class-invariant"
            )
    return None


def resolve_fold(
    fold: str, *, latency=None, fabric=None, compute_jitter=None
) -> str:
    """Validate ``fold`` against the timing configuration.

    Returns ``"on"`` or ``"off"``.  ``"on"`` raises ``ValueError`` when
    :func:`fold_ineligibility` reports a reason; ``"auto"`` resolves to
    ``"off"`` instead — the unfolded compiled evaluator is the normal
    path, not a performance cliff (see the module docstring).  Whether
    the *program* folds is decided later by
    :func:`~.fold.fold_program`; under ``"auto"`` a
    :class:`~.fold.FoldError` there degrades to unfolded with the
    reason recorded in the caller's report.
    """
    if fold not in FOLD_MODES:
        raise ValueError(f"fold must be one of {FOLD_MODES}, got {fold!r}")
    if fold == "off":
        return "off"
    reason = fold_ineligibility(
        latency=latency, fabric=fabric, compute_jitter=compute_jitter
    )
    if reason is None:
        return "on"
    if fold == "on":
        raise ValueError(
            f"fold='on' cannot use symmetry folding: {reason}. Pass "
            "fold='auto' or fold='off' to run unfolded."
        )
    return "off"


def resolve_backend(
    backend: str, *, latency=None, fabric=None, fault_plan=None, heartbeat=None
) -> str:
    """Validate ``backend`` against the timing configuration.

    Returns ``"machine"`` or ``"compiled"``.  ``"auto"`` and
    ``"compiled"`` raise ``ValueError`` when
    :func:`backend_ineligibility` reports a reason — loud refusal, not
    silent fallback (see the module docstring).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "machine":
        return "machine"
    reason = backend_ineligibility(
        latency=latency,
        fabric=fabric,
        fault_plan=fault_plan,
        heartbeat=heartbeat,
    )
    if reason is not None:
        raise ValueError(
            f"backend={backend!r} cannot use the compiled evaluator: "
            f"{reason}. Pass backend='machine' to run this "
            "configuration on the event machine."
        )
    return "compiled"
