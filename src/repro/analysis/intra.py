"""Intraprocedural evaluation (Figures 8–11).

``ProcEvaluator.run`` is the paper's ``EvalProc``: iterate over the flow
graph in reverse-postorder rounds until a round changes nothing, with the
two evaluation order constraints that make strong updates safe (§4.1):

* never evaluate a node until one of its immediate predecessors has been
  evaluated;
* never evaluate an assignment until its destination locations are known
  (a dereference of a pointer with no values yet is deferred to a later
  round).

Rounds are change-driven: a round skips every node none of whose inputs
changed since its last evaluation.  The per-node records
(:class:`~repro.memory.pointsto.NodeRecord`) and the ``evaluated`` set
live on the PTF's points-to state, so they survive revisits of the PTF.
A node is re-evaluated when

* a block it read was written later (sparse: a per-base write clock;
  dense: its predecessors' out-maps);
* the ``pointer_version`` of a block it read moved since the read;
* ``mark_changed`` invalidated the state (own parameter subsumption,
  uniqueness downgrade), or — for call nodes — the subsumption epoch
  moved (synced before each skip test);
* a φ was inserted at it, or its count of evaluated predecessors changed;
* it set ``frame.changed`` (deferrals, initial fetches);
* it is a call node whose callee dependencies moved
  (``InterproceduralMixin.call_deps_stale``);
* it consulted the calling context itself, or was deferred, and the PTF
  is now revisited under another frame.

Only evaluations that cannot change anything are skipped: the
state-changing evaluations, in order, are those of whole-body passes
(``tests/analysis/test_change_driven.py`` checks this).  Rounds can
only be fewer: a whole-body pass may raise ``frame.changed`` in an
evaluation that changes no state and so force one more round; a skipped
node cannot.  ``max_passes`` still counts rounds.

Assignments of one word or less copy the source's pointer values; aggregate
assignments copy the pointer fields at matching offsets (§4.4).  A strong
update requires a single destination location set that names a unique
location (§4.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..frontend.ctypes_model import WORD_SIZE
from ..ir.expr import (
    AddressTerm,
    AdjustTerm,
    ContentsTerm,
    DerefLoc,
    LocExpr,
    SymbolLoc,
    UnknownTerm,
    ValueExpr,
)
from ..ir.nodes import AssignNode, CallNode, EntryNode, ExitNode, MeetNode, Node
from ..memory.locset import LocationSet
from ..memory.pointsto import NodeRecord, SparseState, normalize_loc
from .context import Frame
from .guards import GuardTripped

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Analyzer

__all__ = ["ProcEvaluator", "AnalysisBudgetExceeded"]

EMPTY: frozenset = frozenset()


class AnalysisBudgetExceeded(GuardTripped):
    """The fixpoint iteration failed to converge within the pass budget.

    Historically this was the engine's only safety valve (and it *raised*
    out of the whole analysis).  It is now one rung of the degradation
    ladder: a :class:`~repro.analysis.guards.GuardTripped` subclass with
    ``reason="max_passes"``, caught by the interprocedural layer, which
    quarantines the procedure and degrades its callers to the
    conservative havoc summary (``--strict`` restores raise-through).
    """

    def __init__(self, proc: str = "", detail: str = "") -> None:
        super().__init__("max_passes", proc, detail)


class ProcEvaluator:
    """Evaluates one procedure under one PTF/calling context."""

    def __init__(self, analyzer: "Analyzer", frame: Frame) -> None:
        self.analyzer = analyzer
        self.frame = frame
        self.proc = frame.proc
        self.state = frame.ptf.state
        #: lives on the state, so a revisit of the PTF starts from it
        self.evaluated: set[int] = self.state.evaluated

    # ------------------------------------------------------------------
    # EvalProc (Figure 8)
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Iterate the procedure body to a local fixpoint.

        Wall-clock time lands in two buckets: this procedure's *inclusive*
        time (callees analyzed from its call sites count here too) and its
        *exclusive* self-time (inclusive minus nested callee evaluations),
        split by :meth:`Metrics.start_proc`/:meth:`Metrics.end_proc`.  Each
        RPO round bumps the ``eval_passes`` counter, and when tracing is on
        the evaluation becomes an ``eval`` span containing one ``pass``
        complete-event per round.
        """
        metrics = self.analyzer.metrics
        tr = self.analyzer.trace
        metrics.start_proc(self.proc.name)
        if tr is not None:
            tr.begin(
                f"eval {self.proc.name}",
                "proc",
                proc=self.proc.name,
                ptf=self.frame.ptf.uid,
            )
        passes = 0
        try:
            passes = self._run_rounds()
        finally:
            metrics.end_proc(passes)
            if tr is not None:
                tr.end(f"eval {self.proc.name}", "proc", passes=passes)

    def _run_rounds(self) -> int:
        """RPO rounds until one changes nothing; each round evaluates only
        the nodes :meth:`_stale` reports."""
        budget = self.analyzer.budget
        max_passes = budget.max_passes
        max_entries = budget.max_state_entries
        faults = self.analyzer.faults
        forced_nonconvergence = (
            faults is not None and faults.nonconverge(self.proc.name)
        )
        metrics = self.analyzer.metrics
        tr = self.analyzer.trace
        state = self.state
        records = state.records
        passes = 0
        while True:
            if budget.deadline_at is not None and budget.deadline_exceeded():
                raise GuardTripped(
                    "deadline",
                    self.proc.name,
                    f"wall-clock budget of {budget.deadline_seconds}s "
                    f"exhausted after {passes} passes",
                )
            t0 = tr.now_us() if tr is not None else 0
            before = state.change_counter
            self.frame.changed = False
            evaluated = skipped = changed = 0
            for node in self.proc.rpo:
                if isinstance(node, EntryNode):
                    self.evaluated.add(node.uid)
                    continue
                preds = self._evaluated_preds(node)
                if not preds:
                    continue
                state.sync_epoch()
                rec = records.get(node.uid)
                if rec is not None and not self._stale(node, rec, preds):
                    skipped += 1
                    continue
                evaluated += 1
                changed += self._evaluate(node, preds)
            passes += 1
            metrics.eval_passes += 1
            metrics.node_evals += evaluated
            metrics.node_evals_changed += changed
            metrics.node_skips += skipped
            converged = state.change_counter == before and not self.frame.changed
            if converged and forced_nonconvergence:
                converged = False  # injected: pretend the pass changed state
            if tr is not None:
                tr.complete(
                    "pass",
                    "pass",
                    t0,
                    tr.now_us() - t0,
                    proc=self.proc.name,
                    index=passes,
                    changed=not converged,
                    evaluated=evaluated,
                    skipped=skipped,
                )
            if max_entries is not None and self._state_entries() > max_entries:
                raise GuardTripped(
                    "state_entries",
                    self.proc.name,
                    f"{self._state_entries()} points-to entries exceed the "
                    f"cap of {max_entries}",
                )
            if converged:
                return passes
            if passes >= max_passes:
                raise AnalysisBudgetExceeded(
                    self.proc.name,
                    "injected non-convergence"
                    if forced_nonconvergence
                    else f"no fixpoint after {passes} passes",
                )

    def _stale(self, node: Node, rec: NodeRecord, preds: int) -> bool:
        """Whether ``node`` may evaluate differently than its last time."""
        return (
            rec.preds != preds
            or (rec.context is not None and rec.context is not self.frame)
            or self.state.is_stale(node, rec)
            or (rec.calls is not None and self.analyzer.call_deps_stale(rec.calls))
        )

    def _evaluate(self, node: Node, preds: int) -> bool:
        """Evaluate one node, recording its reads; True when it changed
        the state."""
        state = self.state
        frame = self.frame
        counter = state.change_counter
        outer_changed = frame.changed
        frame.changed = False
        state.begin_node(node, preds)
        try:
            state.merge_at(node, self.evaluated)
            if isinstance(node, (MeetNode, ExitNode)):
                # the exit node is a join too: return edges from many
                # points converge there, so φ-functions may land on it
                self.eval_meet(node)
            elif isinstance(node, AssignNode):
                self.eval_assign(node)
            elif isinstance(node, CallNode):
                self.analyzer.eval_call(frame, self, node)
            state.finish_node(node)
        finally:
            state.end_node()
        self.evaluated.add(node.uid)
        if frame.changed:
            # a deferral or an initial fetch: evaluate it again next round
            state.records.pop(node.uid, None)
        else:
            frame.changed = outer_changed
        return state.change_counter != counter

    def _state_entries(self) -> int:
        """Size proxy for the procedure state: assigned keys plus lazily
        fetched initial entries (both representations maintain the two)."""
        state = self.state
        return len(state.assigned_keys) + len(getattr(state, "_initial", ()))

    def _evaluated_preds(self, node: Node) -> int:
        evaluated = self.evaluated
        return sum(
            1 for p in node.preds if p.uid in evaluated or isinstance(p, EntryNode)
        )

    # ------------------------------------------------------------------
    # EvalMeet (Figure 9) — sparse states only; dense states merge maps
    # ------------------------------------------------------------------

    def eval_meet(self, node: Node) -> None:
        state = self.state
        if not isinstance(state, SparseState):
            return
        for loc in sorted(
            state.phi_locations(node), key=lambda l: (l.base.uid, l.offset, l.stride)
        ):
            values: set[LocationSet] = set()
            for pred in node.preds:
                if pred.uid not in self.evaluated and not isinstance(pred, EntryNode):
                    continue
                values |= state.lookup(loc, pred, before=False)
            state.assign_phi(loc, frozenset(values), node)

    # ------------------------------------------------------------------
    # EvalAssign (Figure 11)
    # ------------------------------------------------------------------

    def eval_assign(self, node: AssignNode) -> None:
        if node.dst is None:
            self.eval_value(node.src, node)  # side effects only
            return
        dsts = self.eval_loc(node.dst, node)
        if not dsts:
            # destination locations not yet known (§4.1): defer this node
            self.frame.defer(node)
            self.eval_value(node.src, node)
            return
        if node.size > WORD_SIZE:
            self.eval_aggregate_assign(node, dsts)
            return
        srcs = self.eval_value(node.src, node)
        strong = (
            self.analyzer.options.strong_updates
            and len(dsts) == 1
            and dsts[0].is_unique
        )
        prov = self.state.provenance
        if prov is not None:
            prov.set_context("assign", sources=self._source_locs(node))
        try:
            for dst in dsts:
                self.frame.assign(dst, srcs, node, strong, size=node.size)
        finally:
            if prov is not None:
                prov.clear_context()

    def _source_locs(self, node: AssignNode) -> tuple[str, ...]:
        """Canonical strings of the locations whose *contents* flow into
        this assignment (provenance chain sources).  Address-of and unknown
        terms are chain terminators and contribute nothing."""
        out: list[str] = []

        def visit(terms) -> None:
            for term in terms:
                if isinstance(term, ContentsTerm):
                    for loc in self.eval_loc(term.loc, node):
                        out.append(str(normalize_loc(loc)))
                elif isinstance(term, AdjustTerm):
                    visit(term.value.terms)

        visit(node.src.terms)
        return tuple(dict.fromkeys(out))

    def eval_aggregate_assign(self, node: AssignNode, dsts: list[LocationSet]) -> None:
        """Multi-word copy: move pointer fields at matching offsets (§4.4)."""
        strong = (
            self.analyzer.options.strong_updates
            and len(dsts) == 1
            and dsts[0].is_unique
        )
        copied: dict[int, set[LocationSet]] = {}
        blurred: set[LocationSet] = set()
        for term in node.src.terms:
            if isinstance(term, ContentsTerm):
                src_locs = self.eval_loc(term.loc, node)
                for src in src_locs:
                    for offset, stride, vals in self._pointer_fields(
                        src, node, node.size
                    ):
                        if stride or src.stride:
                            blurred |= vals
                        else:
                            copied.setdefault(offset - src.offset, set()).update(vals)
            elif isinstance(term, AddressTerm):
                # storing an address with an aggregate width: treat as word
                locs = self.eval_loc(term.loc, node)
                copied.setdefault(0, set()).update(locs)
            elif isinstance(term, AdjustTerm):
                vals = self._eval_adjust(term, node)
                copied.setdefault(0, set()).update(vals)
        prov = self.state.provenance
        if prov is not None:
            prov.set_context(
                "assign", sources=self._source_locs(node), detail="aggregate copy"
            )
        try:
            if strong:
                # one strong write per copied offset; the offset-0 write
                # carries the full copy width so it kills every stale pointer
                # within the copied range
                dst = dsts[0]
                self.frame.assign(
                    dst, frozenset(copied.get(0, set())), node, True, size=node.size
                )
                for delta, vals in sorted(copied.items()):
                    if delta == 0:
                        continue
                    target = dst.with_offset(delta) if dst.stride == 0 else dst
                    self.frame.assign(
                        target, frozenset(vals), node, True, size=WORD_SIZE
                    )
            else:
                for delta, vals in sorted(copied.items()):
                    for dst in dsts:
                        target = dst.with_offset(delta) if dst.stride == 0 else dst
                        self.frame.assign(
                            target, frozenset(vals), node, False, size=WORD_SIZE
                        )
            if blurred:
                for dst in dsts:
                    self.frame.assign(
                        dst.blurred(), frozenset(blurred), node, False, size=node.size
                    )
        finally:
            if prov is not None:
                prov.clear_context()

    def _pointer_fields(
        self, src: LocationSet, node: Node, size: int
    ) -> list[tuple[int, int, frozenset]]:
        """Registered pointer locations of ``src``'s block within the copied
        range, with their current values."""
        out = []
        probe = LocationSet(src.base, src.offset, src.stride)
        self.frame.ensure_initial(probe, size)
        self.state.note_read(src.base)  # the registry decides which fields
        for offset, stride in sorted(src.base.pointer_locations):
            key = LocationSet(src.base, offset, stride)
            if not probe.overlaps(key, width=max(size, 1), other_width=1):
                continue
            vals = self.frame.lookup_value(key, node, WORD_SIZE)
            if vals:
                out.append((offset, stride, vals))
        return out

    # ------------------------------------------------------------------
    # expression evaluation (EvalExpr / EvalDeref, Figure 10)
    # ------------------------------------------------------------------

    def eval_loc(self, loc: LocExpr, node: Node) -> list[LocationSet]:
        """The location sets denoted by a location expression at ``node``."""
        if isinstance(loc, SymbolLoc):
            block = self.frame.resolve_symbol_block(loc.symbol)
            return [LocationSet(block, loc.offset, loc.stride)]
        assert isinstance(loc, DerefLoc)
        pointer_vals = self.eval_value(loc.pointer, node)
        out: list[LocationSet] = []
        seen: set[LocationSet] = set()
        for v in pointer_vals:
            if loc.blur:
                target = v.blurred()
            else:
                target = v.with_offset(loc.offset)
                if loc.stride:
                    target = target.with_stride(loc.stride)
            target = normalize_loc(target)
            if target not in seen:
                seen.add(target)
                out.append(target)
        return out

    def eval_value(self, value: ValueExpr, node: Node) -> frozenset:
        """The pointer values a value expression may produce at ``node``."""
        result: set[LocationSet] = set()
        for term in value.terms:
            if isinstance(term, UnknownTerm):
                continue
            if isinstance(term, AddressTerm):
                result.update(self.eval_loc(term.loc, node))
            elif isinstance(term, ContentsTerm):
                for loc in self.eval_loc(term.loc, node):
                    result |= self.frame.lookup_value(loc, node, term.size)
            elif isinstance(term, AdjustTerm):
                result |= self._eval_adjust(term, node)
        return frozenset(result)

    def _eval_adjust(self, term: AdjustTerm, node: Node) -> frozenset:
        inner = self.eval_value(term.value, node)
        out: set[LocationSet] = set()
        for v in inner:
            if term.blur:
                out.add(v.blurred())
            else:
                adjusted = v.with_offset(term.offset)
                if term.stride:
                    adjusted = adjusted.with_stride(term.stride)
                out.add(adjusted)
        return frozenset(out)
