"""Symmetry folding: evaluate P-rank schedules as C equivalence classes.

Section 5 collectives are overwhelmingly rank-symmetric: every leaf of
an optimal broadcast tree, every same-(depth, slot) node of a binomial
tree runs the *same* opcode schedule against different peer ids.  The
unfolded compiled path (:mod:`.grid`) still tapes one schedule per
rank, so cost grows Θ(P).  This module partitions ranks into
equivalence classes and evaluates one representative per class, with
class *multiplicities* weighting the aggregate counters — Θ(C) where
C is often ``O(log² P)`` (binomial: 386 classes at P = 2^10, 6196 at
P = 2^20).

Canonical form
--------------
A rank's canonical form is ``(skeleton, arrival-form)``:

* **skeleton** — its lowered ops with every ``OP_SEND`` destination
  dropped (words and tags kept).  Peer ids are thereby rewritten to
  symbolic roles: "my parent", "my k-th child".
* **arrival-form** — the symbolic time at which its (single) incoming
  message arrives, expressed as a *max of affine forms* over the basis
  ``(1, L, o, g, send_interval)``.  Forms are built by walking each
  class's schedule once (max-plus algebra: adds distribute over max)
  and pruned by pointwise dominance — ``b ≥ a`` for all valid
  parameter points iff the coefficient difference ``d = b - a`` has
  ``d_1 ≥ 0``, ``d_L ≥ 0`` and ``d_si + min(d_o, 0) + min(d_g, 0) ≥ 0``
  (using ``0 ≤ o ≤ si`` and ``0 ≤ g ≤ si``).  The dominance collapse
  is what makes same-depth binomial subtrees merge: a saturated send
  chain ``max(end_{m-1}, start_{m-1} + si)`` simplifies to
  ``start_{m-1} + si`` because ``si ≥ o``.

Two ranks with equal canonical forms execute structurally identical
float chains fed by value-equal inputs, so under the dyadic-exactness
guard (below) their realized times are bit-identical and one
representative speaks for the class.

Eligibility and the refusal taxonomy
------------------------------------
Folding *refuses* — a loud :class:`FoldError` naming the reason, never
a silent wrong answer — whenever per-rank state could couple ranks
within a class:

* ``OP_BARRIER`` / ``OP_POLL`` / ``OP_NOW`` ops (global coupling,
  timing-dependent drains, clock observation);
* multi-word sends (LogGP streaming occupies the port);
* multi-source fan-in (a rank receiving more than one message) or a
  receive that is not the rank's first op;
* cyclic message dependence (defensive: the compiler's deadlock check
  already rejects these);
* draw-latency models (per-message RNG draws break rank symmetry),
  topology fabrics (per-``(src, dst)`` routing), compute jitter
  (rank-indexed);
* non-dyadic parameters or compute/sleep literals — the bit-identity
  guard: all inputs must be multiples of ``1/64`` with magnitude
  ≤ 2^20, so every realized sum stays exactly representable and
  float addition is associative across the fold;
* a capacity stall at the evaluated point — stalls serialize through
  the wait-graph queue, which is rank-ordered and therefore not
  class-invariant (per point: the grid reports it as divergent).

Evaluation: one walk, two arithmetic domains
--------------------------------------------
:func:`_walk` states the timeline rule once — receive ``o`` after the
arrival, then send one ``si`` apart, each message arriving ``flight``
after its inject ends — using only ``+``, comparisons and a ``vmax``
function.  :func:`evaluate_folded` runs it on plain floats;
:func:`evaluate_folded_grid` runs it once on numpy arrays holding every
grid point (``vmax = np.maximum``), which is IEEE-identical per point.
The symbolic :func:`_walk_forms` that builds class keys stays separate:
it computes over a basis index, not times.

Capacity soundness under multiplicities
---------------------------------------
With one incoming message per rank the destination-side in-flight
window never exceeds 1 ≤ capacity, so only the *source-side* window
counts.  The count at inject m (ending at ``end_m``) is the number of
earlier sends ``j < m`` whose arrival ``a_j`` has not popped yet.  An
arrival strictly before ``end_m`` has popped.  An arrival tying
``end_m`` pops first iff ``flight >= o``: the two events are scheduled
``start_m - end_j = flight - o`` apart, and in the triple tie
``flight == o`` the arrival's seq is still lower because the inject
pop that schedules it precedes every event able to commit send m at
that timestamp (recv sits at op 0; later computes/sleeps process at or
after the prior send's end).  So ``a_j`` is in flight iff
``a_j > end_m``, or ``a_j == end_m`` and ``flight < o``.

Arrivals never decrease along a send chain, so the in-flight set is a
suffix of the earlier sends, and "count ≥ cap" holds exactly when
arrival ``m - cap`` is in flight — an O(1) test per send and distinct
capacity.  A point where it holds would stall, and stall queues are
rank-ordered, not class-invariant: :func:`evaluate_folded` raises
:class:`FoldError`, and :func:`evaluate_folded_grid` masks the point
into ``GridResult.divergent``.  Where no point stalls the counts never
feed a value, so the folded chains — pure max/add expressions — are
exact.  At the default capacity ``⌈L/g⌉`` and ``flight <= L``, tree
traffic provably never stalls: count ≤ ⌈L/si⌉ − 1 < ⌈L/g⌉ since
``si ≥ g``.

``tests/test_fold.py`` pins class counts per family, bit-identity
folded ≡ unfolded ≡ machine at small P, and the huge-P scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .compiler import (
    OP_BARRIER,
    OP_COMPUTE,
    OP_NOW,
    OP_POLL,
    OP_RECV,
    OP_SEND,
    OP_SLEEP,
    CompiledProgram,
)
from .grid import GridResult, _grid_timing

__all__ = [
    "FoldError",
    "FoldedProgram",
    "FoldedResult",
    "RankClass",
    "evaluate_folded",
    "evaluate_folded_grid",
    "fold_program",
    "fold_tree",
]


class FoldError(ValueError):
    """A schedule (or parameter point) is not soundly foldable.

    The message is the *reason* — surfaced verbatim in
    ``GridGroupReport.fold_reason`` so an asymmetric program degrades
    loudly, never silently.
    """


# -- dyadic-exactness guard ------------------------------------------

#: Folding requires every parameter and literal to be a multiple of
#: ``1/_GRAIN`` so realized sums are exact and association-free.
_GRAIN = 64.0
#: ... with magnitude at most this, so grain-scaled sums stay under
#: 2^53 across any realizable chain (coefficient mass is bounded too).
_MAGNITUDE = float(2**20)
#: Total |coefficient| mass bound per symbolic form: with terms
#: ≤ 2^20 the realized value stays ≤ 2^46, exact at grain 64.
_MASS = float(2**26)


def _dyadic(x: float) -> bool:
    x = float(x)
    return -_MAGNITUDE <= x <= _MAGNITUDE and (x * _GRAIN).is_integer()


def _check_point_dyadic(L: float, o: float, g: float, si: float) -> None:
    for name, v in (("L", L), ("o", o), ("g", g), ("send_interval", si)):
        if not _dyadic(v):
            raise FoldError(
                f"non-dyadic parameter {name}={v}: folding guarantees "
                f"bit-identity only for multiples of 1/{int(_GRAIN)} "
                f"with magnitude <= {int(_MAGNITUDE)} (exact, "
                "association-free float sums) — use the unfolded path"
            )


# -- symbolic time forms ---------------------------------------------

#: Affine basis indices over (1, L, o, g, send_interval).
_B_CONST, _B_L, _B_O, _B_G, _B_SI = range(5)

_AFF_ZERO = (0.0, 0.0, 0.0, 0.0, 0.0)


def _dominates(b: tuple, a: tuple) -> bool:
    """``b >= a`` at every valid point (0 <= o,g <= si; L,si >= 0)."""
    d0 = b[0] - a[0]
    dL = b[1] - a[1]
    if d0 < 0 or dL < 0:
        return False
    do = b[2] - a[2]
    dg = b[3] - a[3]
    dsi = b[4] - a[4]
    return dsi + min(do, 0.0) + min(dg, 0.0) >= 0.0


class _Forms:
    """Interned max-of-affine-forms time expressions.

    A form id is a key only — the timed walk runs the
    representative's full float chain, never a simplified form — so
    interning affects *which ranks merge*, not what is computed.
    """

    __slots__ = ("_ids", "nodes")

    def __init__(self) -> None:
        self._ids: dict = {}
        self.nodes: list = []
        self.intern((_AFF_ZERO,))

    @property
    def zero(self) -> int:
        return 0

    def intern(self, branches: tuple) -> int:
        i = self._ids.get(branches)
        if i is None:
            i = len(self.nodes)
            self.nodes.append(branches)
            self._ids[branches] = i
        return i

    def add(self, fid: int, term: int, k: float) -> int:
        """``form + k * basis[term]`` (distributes over the max)."""
        out = []
        for br in self.nodes[fid]:
            c = list(br)
            c[term] += k
            if sum(abs(v) for v in c) > _MASS:
                raise FoldError(
                    "schedule too deep for exact folding: symbolic "
                    "coefficient mass exceeds the dyadic-exactness "
                    "bound"
                )
            out.append(tuple(c))
        return self.intern(tuple(out))

    def vmax(self, fa: int, fb: int) -> int:
        if fa == fb:
            return fa
        cand = list(self.nodes[fa]) + list(self.nodes[fb])
        kept: list = []
        for br in cand:
            if any(
                _dominates(other, br)
                for other in cand
                if other is not br
            ):
                # Keep exactly one copy of mutually-dominating equals.
                if br in kept or any(
                    _dominates(other, br) and not _dominates(br, other)
                    for other in cand
                ):
                    continue
            kept.append(br)
        kept = sorted(set(kept))
        if len(kept) > 16:
            raise FoldError(
                "symbolic arrival form too complex (> 16 unresolved "
                "max branches) — this schedule's symmetry is not "
                "recognisable"
            )
        return self.intern(tuple(kept))


# -- the folded program ----------------------------------------------


@dataclass(slots=True)
class RankClass:
    """One equivalence class of ranks: a schedule and a multiplicity."""

    index: int
    #: Number of ranks in the class.
    size: int
    #: Smallest member rank (the representative).
    rep: int
    #: The class schedule: ops with ``OP_SEND`` destinations dropped —
    #: ``(OP_SEND, words, tag)``; other ops verbatim.
    skeleton: tuple
    #: Parent class index (-1 for roots: ranks receiving nothing).
    parent: int
    #: Send index within the parent class feeding this class (-1 root).
    parent_send: int
    #: Message-forest depth (roots at 0).
    depth: int
    #: Destination class per send, when well-defined (compact tree
    #: constructors); ``None`` for generic folds, where members of one
    #: class may address different child classes.
    children: tuple | None = None
    #: Representative's program return value (``None`` for compact
    #: constructors, which never ran the generators).
    value: Any = None

    @property
    def n_sends(self) -> int:
        return sum(1 for op in self.skeleton if op[0] == OP_SEND)


@dataclass(slots=True)
class FoldedProgram:
    """A compiled program folded to per-class schedules.

    ``classes`` is topologically ordered (every class's parent
    precedes it), so one forward pass evaluates the whole forest.
    Per-rank schedules are never materialized: ``class_index(rank)``
    maps on demand.
    """

    P: int
    classes: list
    #: ``rank -> class index``: a sequence (generic folds) or a
    #: callable (compact constructors — O(1) per rank, O(C) memory).
    class_of: Any
    n_messages: int
    source: str = "generic"

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_index(self, rank: int) -> int:
        if not 0 <= rank < self.P:
            raise IndexError(f"rank {rank} out of range 0..{self.P - 1}")
        if callable(self.class_of):
            return self.class_of(rank)
        return self.class_of[rank]

    def sizes(self) -> list:
        return [c.size for c in self.classes]


def _literals_dyadic(classes) -> None:
    for cls in classes:
        for op in cls.skeleton:
            if op[0] in (OP_COMPUTE, OP_SLEEP) and not _dyadic(op[1]):
                raise FoldError(
                    f"non-dyadic compute/sleep literal {op[1]}: "
                    "folding guarantees bit-identity only for "
                    f"multiples of 1/{int(_GRAIN)} with magnitude <= "
                    f"{int(_MAGNITUDE)}"
                )


def _skeleton(ops: tuple) -> tuple:
    return tuple(
        (OP_SEND, op[2], op[3]) if op[0] == OP_SEND else op
        for op in ops
    )


def fold_program(compiled: CompiledProgram) -> FoldedProgram:
    """Partition a compiled program's ranks into equivalence classes.

    Θ(P) discovery: one pass classifies every rank by
    ``(skeleton, arrival-form)`` in message-forest topological order.
    Raises :class:`FoldError` (with the refusal reason) for schedules
    whose semantics are not class-invariant — see the module
    docstring's taxonomy.
    """
    P = compiled.P
    if compiled.max_words > 1:
        raise FoldError(
            "multi-word sends (LogGP G streaming) occupy the send "
            "port across messages — not foldable"
        )
    if compiled.uses_barrier:
        raise FoldError("barrier synchronization couples all ranks")
    if compiled.uses_now:
        raise FoldError(
            "Now-observing schedule: clock readings are compiled per "
            "parameter point, not per class"
        )
    ops_of = compiled.ops
    incoming: list = [None] * P
    for r in range(P):
        ops = ops_of[r]
        n_recv = 0
        si = 0
        for i, op in enumerate(ops):
            k = op[0]
            if k == OP_BARRIER:
                raise FoldError(
                    "barrier synchronization couples all ranks"
                )
            if k == OP_POLL:
                raise FoldError(
                    f"rank {r} polls: drained counts are "
                    "timing-dependent and not class-invariant"
                )
            if k == OP_NOW:
                raise FoldError(
                    "Now-observing schedule: clock readings are "
                    "compiled per parameter point, not per class"
                )
            if k == OP_RECV:
                n_recv += 1
                if i != 0:
                    raise FoldError(
                        f"rank {r} receives at op {i}, not at the "
                        "schedule head — pre-receive work breaks the "
                        "single-arrival canonical form"
                    )
            elif k == OP_SEND:
                dst = op[1]
                if incoming[dst] is not None:
                    raise FoldError(
                        f"rank {dst} is sent more than one message "
                        "(multi-source fan-in) — arrival interleaving "
                        "is not class-invariant"
                    )
                incoming[dst] = (r, si, op[3])
                si += 1
        if n_recv > 1:
            raise FoldError(
                f"rank {r} receives {n_recv} messages (multi-source "
                "fan-in) — arrival interleaving is not class-invariant"
            )
    for r in range(P):
        has_recv = bool(ops_of[r]) and ops_of[r][0][0] == OP_RECV
        if incoming[r] is not None and not has_recv:
            raise FoldError(
                f"rank {r} is sent a message it never receives"
            )
        if has_recv and incoming[r] is None:
            raise FoldError(
                f"rank {r} receives but nothing is sent to it"
            )

    # Topological order over the message forest (single parent each).
    order = [r for r in range(P) if incoming[r] is None]
    pos = 0
    seen = len(order)
    children_of: list = [[] for _ in range(P)]
    for r in range(P):
        if incoming[r] is not None:
            children_of[incoming[r][0]].append(r)
    while pos < len(order):
        r = order[pos]
        pos += 1
        for c in children_of[r]:
            order.append(c)
            seen += 1
    if seen != P:
        raise FoldError(
            "cyclic message dependence — rings and ping-pong pairs "
            "have no class-invariant schedule"
        )

    forms = _Forms()
    classes: list = []
    key_to_idx: dict = {}
    class_of = [0] * P
    #: Per class: form id of each send's arrival time, for child keys.
    send_forms: list = []
    for r in order:
        inc = incoming[r]
        if inc is None:
            arr_form = -1
            parent = -1
            parent_send = -1
            depth = 0
        else:
            src, sidx, _tag = inc
            parent = class_of[src]
            parent_send = sidx
            arr_form = send_forms[parent][sidx]
            depth = classes[parent].depth + 1
        skel = _skeleton(ops_of[r])
        key = (skel, arr_form)
        idx = key_to_idx.get(key)
        if idx is None:
            idx = len(classes)
            key_to_idx[key] = idx
            classes.append(
                RankClass(
                    index=idx,
                    size=1,
                    rep=r,
                    skeleton=skel,
                    parent=parent,
                    parent_send=parent_send,
                    depth=depth,
                    value=compiled.values[r],
                )
            )
            send_forms.append(
                _walk_forms(
                    forms,
                    skel,
                    forms.zero if arr_form < 0 else arr_form,
                    arr_form >= 0,
                )
            )
        else:
            cls = classes[idx]
            cls.size += 1
            if r < cls.rep:
                cls.rep = r
                cls.value = compiled.values[r]
        class_of[r] = idx
    return FoldedProgram(
        P=P,
        classes=classes,
        class_of=class_of,
        n_messages=compiled.n_messages,
        source="generic",
    )


def _walk_forms(
    forms: _Forms, skeleton: tuple, arrival: int, has_recv: bool
) -> list:
    """Symbolic schedule walk: the arrival form of each send."""
    if has_recv:
        now = forms.add(arrival, _B_O, 1.0)
    else:
        now = forms.zero
    last_send = None
    out = []
    for op in skeleton[1 if has_recv else 0 :]:
        k = op[0]
        if k == OP_COMPUTE or k == OP_SLEEP:
            now = forms.add(now, _B_CONST, float(op[1]))
        else:  # OP_SEND
            if last_send is None:
                start = now
            else:
                start = forms.vmax(
                    now, forms.add(last_send, _B_SI, 1.0)
                )
            end = forms.add(start, _B_O, 1.0)
            out.append(forms.add(end, _B_L, 1.0))
            last_send = start
            now = end
    return out


def fold_tree(tree, *, root: int = 0, tag: str = "tbcast") -> FoldedProgram:
    """Fold a broadcast tree without driving any generators.

    Accepts an explicit tree — a
    :class:`repro.algorithms.broadcast.BroadcastTree`, or its bare
    per-rank ``children`` lists — synthesized to per-rank ops and
    folded generically; or a *class-compact* folded tree
    (``.classes``, as ``FoldedTree`` from the huge-P constructors),
    which converts directly in Θ(C) with no per-rank work at all: the
    P = 2^20 path.  ``root`` applies to bare children lists only.

    The synthesized schedule is exactly what
    ``compile_programs(broadcast_program(tree, ...))`` lowers to —
    non-roots receive first, then send to their children in order —
    so folded results are bit-identical to the compiled-unfolded path.
    """
    if hasattr(tree, "classes"):
        classes = []
        n_messages = 0
        for i, tc in enumerate(tree.classes):
            is_root = tc.parent < 0
            skel = ()
            if not is_root:
                skel += ((OP_RECV, tag),)
            skel += ((OP_SEND, 1, tag),) * len(tc.children)
            classes.append(
                RankClass(
                    index=i,
                    size=tc.size,
                    rep=tc.rep,
                    skeleton=skel,
                    parent=tc.parent,
                    parent_send=tc.parent_send,
                    depth=tc.depth,
                    children=tuple(tc.children),
                )
            )
            if not is_root:
                n_messages += tc.size
        for cls in classes:
            if cls.parent >= 0 and cls.parent >= cls.index:
                raise FoldError(
                    "folded tree classes are not topologically "
                    f"ordered: class {cls.index} has parent "
                    f"{cls.parent}"
                )
        return FoldedProgram(
            P=tree.P,
            classes=classes,
            class_of=tree.classify,
            n_messages=n_messages,
            source="tree",
        )
    children = tree.children if hasattr(tree, "children") else tree
    root = getattr(tree, "root", root)
    P = len(children)
    ops = []
    n_messages = 0
    for r in range(P):
        kids = children[r]
        if P == 1:
            ops.append(())
            continue
        rops: tuple = () if r == root else ((OP_RECV, tag),)
        rops += tuple((OP_SEND, c, 1, tag) for c in kids)
        n_messages += len(kids)
        ops.append(rops)
    compiled = CompiledProgram(
        P=P,
        ops=tuple(ops),
        values=tuple([None] * P),
        n_messages=n_messages,
        max_words=1,
    )
    folded = fold_program(compiled)
    folded.source = "tree"
    return folded


# -- folded evaluation: one walk, two arithmetic domains ------------


@dataclass(slots=True)
class FoldedResult:
    """Per-class results of a folded evaluation.

    Aggregates match the machine's ``MachineResult`` exactly; the
    per-rank views (``finished_at``, ``sends``, ``receives``,
    ``value``) are expanded on demand (O(1) per rank) instead of
    materialized, and match the machine's per-rank results.
    """

    makespan: float
    total_messages: int
    total_stall_time: float
    P: int
    n_classes: int
    class_makespans: list
    class_finished_at: list
    class_sends: list
    class_receives: list
    class_sizes: list
    folded: FoldedProgram

    def finished_at(self, rank: int) -> float:
        return self.class_finished_at[self.folded.class_index(rank)]

    def sends(self, rank: int) -> int:
        return self.class_sends[self.folded.class_index(rank)]

    def receives(self, rank: int) -> int:
        return self.class_receives[self.folded.class_index(rank)]

    def value(self, rank: int) -> Any:
        return self.folded.classes[self.folded.class_index(rank)].value

    def expand_finished_at(self, limit: int | None = None) -> list:
        """Per-rank ``finished_at`` for ranks ``0..limit-1``."""
        n = self.P if limit is None else min(limit, self.P)
        cf = self.class_finished_at
        folded = self.folded
        return [cf[folded.class_index(r)] for r in range(n)]


def _check(
    folded: FoldedProgram,
    pts: list,
    latency,
    fabric,
    capacity: int | None,
    hw_barrier_cost: float,
    compute_jitter,
):
    """The refusals shared by both entry points.

    Returns ``(flight, caps)``: the fixed latency model's flight time,
    or ``None`` when every point flies at its own ``L``; and each
    point's effective capacity.
    """
    for p in pts:
        if p.P != folded.P:
            raise ValueError(
                f"point P={p.P} does not match folded P={folded.P}; "
                "group grid points by P"
            )
    caps = [(p.capacity if capacity is None else capacity) for p in pts]
    for c in caps:
        if c < 1:
            raise ValueError(f"capacity must be >= 1, got {c}")
    if hw_barrier_cost < 0:
        raise ValueError(
            f"hw_barrier_cost must be >= 0, got {hw_barrier_cost}"
        )
    if compute_jitter is not None:
        raise FoldError(
            "compute_jitter is rank-indexed — per-rank cycles are "
            "not class-invariant"
        )
    timing, model = _grid_timing(pts, latency, fabric)
    if model is not None or timing[0] not in ("params", "const"):
        raise FoldError(
            "seeded latency models draw per message in event order — "
            "draws are not class-invariant"
            if timing[0] == "draw"
            else "topology fabrics route per (src, dst) pair — "
            "flight is not class-invariant"
        )
    for p in pts:
        _check_point_dyadic(
            float(p.L), float(p.o), float(p.g), float(p.send_interval)
        )
    flight = timing[1] if timing[0] == "const" else None
    if flight is not None and not _dyadic(flight):
        raise FoldError(
            f"non-dyadic flight time {flight} — see the "
            "dyadic-exactness guard"
        )
    _literals_dyadic(folded.classes)
    return flight, caps


def _walk(classes, o, si, flight, checks, vmax):
    """The timeline rule of every class, in topological class order.

    A class receives (``o`` after its arrival), then computes, sleeps
    and sends, each inject starting no earlier than ``si`` after the
    previous one and arriving ``flight`` after it ends.  The code uses
    ``+``, comparisons and ``vmax`` only, so it runs unchanged on
    plain floats (``vmax=max``) and on numpy arrays holding every grid
    point at once (``vmax=np.maximum``) — IEEE-identical per point.

    ``checks`` holds one ``(cap, mask)`` pair per distinct capacity
    (empty when capacity is not enforced; ``mask`` is ``None`` when
    every point has that capacity).  Arrivals along a send chain never
    decrease, so at send ``m`` the in-flight count reaches ``cap``
    exactly when arrival ``m - cap`` is still in flight: later than
    the inject's end, or tying it where ``flight < o`` (see the module
    docstring).

    Yields ``(finished_at, last_activity, n_sends, stalled)`` per
    class; ``stalled`` is truthy where that class stalls on capacity.
    """
    ties_held = flight < o
    if not np.any(ties_held):
        ties_held = None
    arrive_of: list = []
    for cls in classes:
        if cls.parent >= 0:
            now = arrive_of[cls.parent][cls.parent_send] + o
            ops = cls.skeleton[1:]
        else:
            now = 0.0
            ops = cls.skeleton
        la = now
        last_send = None
        arrs: list = []
        stalled = False
        for op in ops:
            k = op[0]
            if k == OP_SEND:
                if last_send is not None:
                    now = vmax(now, last_send + si)
                start = now
                now = start + o
                m = len(arrs)
                for cap, mask in checks:
                    if m >= cap:
                        a = arrs[m - cap]
                        hit = a > now
                        if ties_held is not None:
                            hit = hit | ((a == now) & ties_held)
                        if mask is not None:
                            hit = hit & mask
                        stalled = stalled | hit
                arrs.append(now + flight)
                last_send = start
                la = now
            else:
                now = now + op[1]
                if k == OP_COMPUTE:
                    la = now
        arrive_of.append(arrs)
        yield now, la, len(arrs), stalled


def _evaluate_point(folded, p, flight, cap, enforce_capacity):
    """The float walk at one checked point; :class:`FoldError` on a stall."""
    classes = folded.classes
    o = float(p.o)
    checks = ((cap, None),) if enforce_capacity else ()
    walk = _walk(
        classes,
        o,
        float(p.send_interval),
        float(p.L) if flight is None else flight,
        checks,
        max,
    )
    fins: list = []
    pms: list = []
    sends: list = []
    makespan = 0.0
    total_messages = 0
    for cls, (fin, la, n_sends, stalled) in zip(classes, walk):
        if stalled:
            raise FoldError(
                f"capacity stall at this point: class {cls.index} "
                f"(rep rank {cls.rep}) reaches its capacity of {cap} "
                "messages in flight — stall queues are rank-ordered, "
                "not class-invariant"
            )
        pm = fin if la is fin else max(fin, la)
        fins.append(fin)
        pms.append(pm)
        sends.append(n_sends)
        total_messages += cls.size * n_sends
        if pm > makespan:
            makespan = pm
    return FoldedResult(
        makespan=makespan,
        total_messages=total_messages,
        total_stall_time=0.0,
        P=folded.P,
        n_classes=len(classes),
        class_makespans=pms,
        class_finished_at=fins,
        class_sends=sends,
        class_receives=[int(c.parent >= 0) for c in classes],
        class_sizes=[c.size for c in classes],
        folded=folded,
    )


def evaluate_folded(
    folded: FoldedProgram,
    params,
    *,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter=None,
) -> FoldedResult:
    """Evaluate a folded program at one parameter point, Θ(C).

    Aggregates (makespan, message and stall totals) and every
    expanded per-rank view are exactly what the machine produces for
    the unfolded program, under the dyadic-exactness guard.  A
    capacity stall at this point raises :class:`FoldError` naming the
    class and its representative rank.
    """
    flight, caps = _check(
        folded, [params], latency, fabric, capacity, hw_barrier_cost,
        compute_jitter,
    )
    return _evaluate_point(
        folded, params, flight, caps[0], enforce_capacity
    )


def evaluate_folded_grid(
    folded: FoldedProgram,
    grid: Sequence,
    *,
    latency=None,
    fabric=None,
    enforce_capacity: bool = True,
    capacity: int | None = None,
    hw_barrier_cost: float = 0.0,
    compute_jitter=None,
) -> GridResult:
    """Evaluate a folded program at every point of an ``(L, o, g)`` grid.

    The folded counterpart of :func:`.grid.evaluate_grid`: one walk
    over the classes with every time held as a numpy array over the
    grid's points, Θ(C) array operations in all.  A one-point grid
    runs the float walk instead, which is cheaper than array setup.
    Values are exactly the unfolded compiled path's (and the
    machine's) under the dyadic-exactness guard.

    Points that cannot be folded at their own parameters — a capacity
    stall — are returned *unfilled* in ``GridResult.divergent`` for
    the caller to evaluate unfolded, the same contract as ``uses_now``
    divergence in the unfolded grid.  Whole-grid ineligibility (draw
    timing, topology fabric, jitter, non-dyadic points) raises
    :class:`FoldError` instead.
    """
    pts = list(grid)
    n = len(pts)
    if not n:
        return GridResult([], [], 0, 0, folded=True, classes=folded.n_classes)
    flight, caps = _check(
        folded, pts, latency, fabric, capacity, hw_barrier_cost,
        compute_jitter,
    )
    if n == 1:
        try:
            res = _evaluate_point(
                folded, pts[0], flight, caps[0], enforce_capacity
            )
            makespans, divergent = [res.makespan], []
        except FoldError:
            makespans, divergent = [0.0], [0]
    else:
        checks: tuple = ()
        if enforce_capacity:
            distinct = sorted(set(caps))
            cap_arr = np.array(caps)
            checks = tuple(
                (c, None if len(distinct) == 1 else cap_arr == c)
                for c in distinct
            )
        makespan = 0.0
        bad = False
        for fin, la, _n, stalled in _walk(
            folded.classes,
            np.array([float(p.o) for p in pts]),
            np.array([float(p.send_interval) for p in pts]),
            np.array([float(p.L) for p in pts]) if flight is None else flight,
            checks,
            np.maximum,
        ):
            makespan = np.maximum(
                makespan, fin if la is fin else np.maximum(fin, la)
            )
            if stalled is not False:
                bad = bad | stalled
        bad = np.broadcast_to(bad, (n,))
        makespans = np.where(bad, 0.0, makespan).tolist()
        divergent = np.flatnonzero(bad).tolist()
    return GridResult(
        makespans,
        [0.0] * n,
        0,
        0,
        divergent,
        folded=True,
        classes=folded.n_classes,
    )
