"""Points-to functions: flow-sensitive maps from location sets to values.

At each statement a points-to function maps the location sets containing
pointers to the locations that may be reached through them (§3.3).  Two
interchangeable state representations implement the same interface:

* :class:`DenseState` — a full points-to map per flow-graph node.  Simple
  and obviously correct; used as the reference implementation and in the
  sparse-vs-dense ablation benchmark.
* :class:`SparseState` — the paper's scheme (§4.2): per-node *deltas* only,
  dominator-tree walks to find the most recent assignment, φ-functions
  inserted dynamically at iterated dominance frontiers, and strong-update
  fences for unique locations (§4.3).

Both honour the same uniqueness rules: a *strong update* (overwriting the
destination's previous contents) happens only when the destination is a
single location set with no stride whose base is a unique block (§4.1).

Keys follow parameter subsumption lazily: whenever a location set's base is
an extended parameter that has been subsumed (§3.2), the key is normalized
to the representative parameter before use.

Lookup memoization (the hot path)
---------------------------------

The sparse representation's dominator walks are the hottest loop of the
whole engine: every dereference triggers ``lookup_overlapping``, which
walks the dominator tree once per registered pointer location of the base
block.  :class:`SparseState` therefore memoizes

* ``_search`` results keyed ``(loc, node.uid, inclusive, fence.uid)``,
* ``_find_strong_fence`` results keyed ``(loc, node.uid, width, inclusive)``,
* ``lookup_overlapping`` results keyed
  ``(loc, node.uid, width, before, base.pointer_version)``,

each partitioned *per base block*.  Every cached answer depends only on
defs, φ results and initial entries whose key shares the probe's base
block (searches are exact-key, fences and overlap sets consult only
same-base entries), so recording a def for ``loc`` invalidates just the
partition of ``loc.base`` — untouched bases stay warm across fixpoint
passes, which is where most of the hit rate comes from.  The two events
that are *not* attributable to one base — parameter subsumption, which
rewrites keys wholesale, and a uniqueness downgrade, which changes fence
applicability — funnel through :meth:`SparseState.mark_changed` and drop
everything (both are rare).  Walks additionally *path-fill*: every
dominator visited on the way to an answer caches that answer too (into
the *inclusive* partition, where the answer is valid regardless of
whether the walk that reaches it later starts at the node itself), and
every walk consults that same partition at each dominator it visits — a
warm entry there short-circuits the remaining walk.  Together the two
halves amount to path compression: a cold walk of length k warms k
future probes, and any later probe anywhere below the warmed chain
terminates after at most one cold step.  The key list consulted by
``lookup_overlapping`` is cached separately, keyed by the block's
monotone ``pointer_version``, because the pointer-location registry
changes far more rarely than the points-to values do.

Change tracking (for change-driven evaluation)
----------------------------------------------

:mod:`repro.analysis.intra` re-evaluates a node only when something it
read has changed since its last evaluation, so each state keeps the
per-node :class:`NodeRecord` table, the ``evaluated`` set, and a write
clock.  While a node is under evaluation (``begin_node``/``end_node``)
every read records its block and that block's ``pointer_version`` at the
first read.  The sparse state stamps each written base with the clock
(``_note_write``); the dense state stamps each node whose out-map
changed, since a dense node reads only its predecessors' out-maps.
``mark_changed`` invalidates every record; a move of the subsumption
epoch (another PTF's parameters were subsumed) invalidates the records
of call nodes; a φ inserted at a meet node drops that node's record.

Provenance
----------

When an :class:`repro.diagnostics.provenance.ProvenanceLog` is threaded
in (``AnalyzerOptions.provenance=True``), every state mutation that
records new points-to information — ``assign``, ``assign_phi``,
``set_initial`` — tags the written ``(location, values)`` entry with a
derivation record (the assigning node, initial-value fetch, summary
binding or φ-merge, plus the engine-provided source context), which the
``repro explain`` CLI walks back to source lines.  With provenance off
(the default) each hook is one ``is not None`` check.

Values are interned (:func:`intern_values` hash-conses the frozensets,
:func:`~repro.memory.locset.intern_locset` the location sets inside them)
so that the equality checks behind dict probes and change detection
usually succeed on identity.  ``lookup_cache=False`` switches every cache
off and must produce bit-identical results — the caches are pure
memoization, asserted by the property tests.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..diagnostics import Metrics
from ..ir.dominators import iterated_frontier
from ..ir.nodes import CallNode, MeetNode, Node
from . import blocks as _blocks
from .blocks import ExtendedParameter, MemoryBlock
from .locset import LocationSet, intern_locset

__all__ = [
    "Values",
    "NodeRecord",
    "DenseState",
    "SparseState",
    "normalize_loc",
    "normalize_values",
    "intern_values",
    "reset_interning",
    "values_intern_size",
]

#: A points-to value: the set of locations a pointer may target.
Values = frozenset  # frozenset[LocationSet]

EMPTY: frozenset = frozenset()

#: hash-cons table for points-to value sets; bounded to keep a long-lived
#: process (or a long test run) from accumulating dead blocks
_VALUES_INTERN: dict = {}
_VALUES_INTERN_CAP = 1 << 18

#: cache-miss sentinel (``None`` is a valid fence result)
_MISS = object()


def intern_values(values: frozenset) -> frozenset:
    """Return the canonical instance of ``values`` (hash-consing).

    Interned value sets make the ``old != new`` change-detection compares
    and dict probes across the engine hit the identity fast path.
    """
    if not values:
        return EMPTY
    hit = _VALUES_INTERN.get(values)
    if hit is not None:
        return hit
    if len(_VALUES_INTERN) >= _VALUES_INTERN_CAP:
        _VALUES_INTERN.clear()
    _VALUES_INTERN[values] = values
    return values


def values_intern_size() -> int:
    """Live entry count of the global value-set hash-cons table.

    A memory gauge for the snapshot layer: the table is bounded by
    ``_VALUES_INTERN_CAP`` (it clears wholesale at the cap), so this also
    tells *how close* a run drove it to the flush threshold.
    """
    return len(_VALUES_INTERN)


def reset_interning() -> None:
    """Drop the global value-intern table and restart block uid numbering
    (see :func:`repro.memory.blocks.reset_uid_counter`).  Used by the
    benchmark harness and the equivalence tests to give every analysis an
    identical process state; never call it between analyses that share
    memory blocks."""
    _VALUES_INTERN.clear()
    _blocks.reset_uid_counter()


def normalize_loc(loc: LocationSet) -> LocationSet:
    """Rewrite a location set whose base parameter has been subsumed."""
    base = loc.base
    if base.subsumed_by is None:
        # canonical-instance fast path: nothing to rewrite, already interned
        if loc._interned:  # type: ignore[attr-defined]
            return loc
        return intern_locset(loc)
    rep = base.representative()
    return intern_locset(LocationSet(rep, loc.offset, loc.stride))


def normalize_values(values: Iterable[LocationSet]) -> frozenset:
    if not isinstance(values, frozenset):
        values = frozenset(values)
    # fast path: nothing to rewrite — intern and return as-is
    for v in values:
        if v.base.subsumed_by is not None:
            return intern_values(frozenset(normalize_loc(x) for x in values))
    return intern_values(values)


def _register(loc: LocationSet) -> bool:
    """Register ``loc`` as a pointer-holding location on its block (§3.3)."""
    return loc.base.register_pointer_location(loc.offset, loc.stride)


class NodeRecord:
    """What one node's last evaluation depended on.

    ``seq`` is the state's write clock when the evaluation began and
    ``preds`` its count of evaluated predecessors.  ``reads`` maps each
    block whose contents or pointer registry it consulted to the block's
    ``pointer_version`` at the first read.  ``calls`` holds the callee
    dependencies the interprocedural layer recorded (see
    ``InterproceduralMixin.call_deps_stale``), or None.  ``context`` is
    the frame whose calling context the evaluation consulted beyond the
    state (an unbound parameter, a function pointer passed in), or None.
    """

    __slots__ = ("seq", "preds", "reads", "calls", "context")

    def __init__(self, seq: int, preds: int) -> None:
        self.seq = seq
        self.preds = preds
        self.reads: dict[MemoryBlock, int] = {}
        self.calls: Optional[list[tuple]] = None
        self.context = None

    def add_call(self, dep: tuple) -> None:
        if self.calls is None:
            self.calls = []
        self.calls.append(dep)


class PointsToState:
    """Interface shared by the dense and sparse representations."""

    kind = "abstract"

    def __init__(
        self,
        entry: Node,
        lookup_cache: bool = True,
        metrics: Optional[Metrics] = None,
        provenance=None,
    ) -> None:
        self.entry = entry
        #: keys ever assigned by the procedure body (excludes pure initial
        #: entries); the PTF summary is built from these
        self.assigned_keys: set[LocationSet] = set()
        #: bumped whenever anything changes; drives the fixpoint loop *and*
        #: the lookup-cache invalidation generation
        self.change_counter = 0
        #: when False, every memoization layer is bypassed (ablation /
        #: ``AnalyzerOptions.lookup_cache=False``)
        self.lookup_cache = lookup_cache
        #: shared diagnostics sink; a private one when not threaded in
        self.metrics = metrics if metrics is not None else Metrics()
        #: optional shared :class:`repro.diagnostics.provenance.
        #: ProvenanceLog`; when None (the default) every provenance hook
        #: is a single ``is not None`` check — same contract as tracing
        self.provenance = provenance
        # -- change tracking (see the module docstring) --
        #: uids of the nodes evaluated at least once; survives revisits
        self.evaluated: set[int] = set()
        #: node uid -> the record of its last evaluation
        self.records: dict[int, NodeRecord] = {}
        #: record of the node under evaluation (None between nodes)
        self.current: Optional[NodeRecord] = None
        #: write clock; every recorded write advances it
        self._clock = 0
        #: clock value of the last global invalidation
        self._invalidated = 0
        #: clock value of the last subsumption-epoch move seen
        self._epoch_moved = 0
        #: snapshot of the global subsumption epoch (see ``sync_epoch``)
        self._keys_epoch = _blocks.subsumption_epoch()

    # -- initial values (procedure inputs, recorded at the entry node) --

    def set_initial(self, loc: LocationSet, values: Iterable[LocationSet]) -> None:
        raise NotImplementedError

    def get_initial(self, loc: LocationSet) -> Optional[frozenset]:
        raise NotImplementedError

    def initial_items(self) -> list[tuple[LocationSet, frozenset]]:
        raise NotImplementedError

    # -- transfer ---------------------------------------------------------

    def assign(
        self,
        loc: LocationSet,
        values: Iterable[LocationSet],
        node: Node,
        strong: bool,
        size: int = 4,
    ) -> bool:
        """Record ``loc -> values`` at ``node``; returns True on change.

        ``size`` is the byte width of the store: a strong update kills every
        overlapping location within it.
        """
        raise NotImplementedError

    def assign_phi(
        self, loc: LocationSet, values: Iterable[LocationSet], node: Node
    ) -> bool:
        """Record a φ result: replaces the recorded merge at a meet node but
        is not a strong update (it does not fence overlapping locations)."""
        return self.assign(loc, values, node, strong=False)

    def lookup(self, loc: LocationSet, node: Node, before: bool = True) -> frozenset:
        """Exact-key lookup of the values of ``loc`` visible at ``node``
        (before the node executes when ``before`` is True)."""
        raise NotImplementedError

    def lookup_overlapping(
        self, loc: LocationSet, node: Node, width: int = 1, before: bool = True
    ) -> frozenset:
        """Dereference semantics (§4.3): union the values of every
        registered pointer location overlapping ``loc``, respecting strong
        update fences for unique locations."""
        raise NotImplementedError

    def merge_at(self, node: Node, evaluated: set[int]) -> None:
        """Prepare the in-state of ``node`` from its evaluated predecessors."""
        raise NotImplementedError

    def finish_node(self, node: Node) -> None:
        """Commit a node's evaluation (change detection hook)."""
        return

    def summary(self, exit_node: Node) -> dict[LocationSet, frozenset]:
        """The final points-to function over assigned keys at the exit."""
        out: dict[LocationSet, frozenset] = {}
        for key in sorted(self.assigned_keys, key=lambda l: (l.base.uid, l.offset, l.stride)):
            key_n = normalize_loc(key)
            vals = self.lookup(key_n, exit_node, before=True)
            if vals:
                out[key_n] = vals
        return out

    def mark_changed(self) -> None:
        """Non-local change (parameter subsumption, uniqueness downgrade):
        every node must be re-evaluated."""
        self.change_counter += 1
        self._invalidate()

    # -- change tracking ---------------------------------------------------

    def begin_node(self, node: Node, preds: int) -> None:
        """Start recording the reads of one node evaluation."""
        rec = NodeRecord(self._clock, preds)
        self.records[node.uid] = rec
        self.current = rec

    def end_node(self) -> None:
        self.current = None

    def note_read(self, block: MemoryBlock) -> None:
        """Record that the node under evaluation consulted ``block``."""
        rec = self.current
        if rec is not None and block not in rec.reads:
            rec.reads[block] = block.pointer_version

    def is_stale(self, node: Node, rec: NodeRecord) -> bool:
        """Whether anything ``rec`` read may have changed since."""
        if self._invalidated > rec.seq:
            return True
        if self._epoch_moved > rec.seq and isinstance(node, CallNode):
            return True
        for block, version in rec.reads.items():
            if block.pointer_version != version:
                return True
        return self._written_since(node, rec)

    def _written_since(self, node: Node, rec: NodeRecord) -> bool:
        raise NotImplementedError

    def _invalidate(self) -> None:
        self._clock += 1
        self._invalidated = self._clock

    def sync_epoch(self) -> None:
        """Catch up with parameter subsumptions performed since the last
        sync (the state cannot observe ``subsumed_by`` assignments
        directly).  Cheap when nothing happened (one module-attribute
        compare).

        A subsumption of this PTF's own parameters comes with
        ``mark_changed``; a move seen only here subsumed another PTF's
        parameters, which no key or value of this state names.  Only call
        nodes look at other PTFs (matching their input domains,
        translating their summaries), so the move invalidates those."""
        if self._keys_epoch != _blocks._subsumption_epoch:
            self._keys_epoch = _blocks._subsumption_epoch
            self._renormalize()
            self._clock += 1
            self._epoch_moved = self._clock

    def _renormalize(self) -> None:
        """Representation hook for ``sync_epoch``."""
        return

    # -- memory accounting -------------------------------------------------

    def entry_count(self) -> int:
        """Assigned keys plus lazily fetched initial entries — the same
        size proxy the ``max_state_entries`` guard polls."""
        return len(self.assigned_keys) + len(getattr(self, "_initial", ()))

    def footprint(self) -> dict[str, int]:
        """Live per-representation size gauges (snapshot memory profile).

        Both representations report ``entries`` (the guard proxy) and
        ``initial``; each adds its own dominant structures — per-node map
        cells for the dense state, defs/φ/memo-partition entries for the
        sparse one.
        """
        return {"entries": self.entry_count(), "initial": len(getattr(self, "_initial", ()))}


# ---------------------------------------------------------------------------
# Dense representation
# ---------------------------------------------------------------------------


class DenseState(PointsToState):
    """Full per-node points-to maps (reference implementation)."""

    kind = "dense"

    def __init__(
        self,
        entry: Node,
        lookup_cache: bool = True,
        metrics: Optional[Metrics] = None,
        provenance=None,
    ) -> None:
        super().__init__(
            entry, lookup_cache=lookup_cache, metrics=metrics, provenance=provenance
        )
        self._initial: dict[LocationSet, frozenset] = {}
        #: node uid -> map at node exit
        self._out: dict[int, dict[LocationSet, frozenset]] = {}
        #: node uid -> map at node entry (after merging predecessors)
        self._in: dict[int, dict[LocationSet, frozenset]] = {}
        #: node uid -> the out map from the previous pass (change detection)
        self._prev_out: dict[int, Optional[dict]] = {}
        #: node uid -> write clock when its out map (the entry's: the
        #: initial map) last changed
        self._out_seq: dict[int, int] = {}

    # -- initial ----------------------------------------------------------

    def set_initial(self, loc: LocationSet, values: Iterable[LocationSet]) -> None:
        loc = normalize_loc(loc)
        vals = normalize_values(values)
        _register(loc)
        old = self._initial.get(loc)
        # compare the *union* against the old entry: re-recording values
        # already present must not mark the state changed, or redundant
        # set_initial calls trigger spurious extra fixpoint passes
        new = vals if old is None else intern_values(old | vals)
        if old != new:
            self._initial[loc] = new
            self._note_out(self.entry)
            if self.provenance is not None:
                self.provenance.tag_initial(loc, vals, self.entry)

    def get_initial(self, loc: LocationSet) -> Optional[frozenset]:
        return self._initial.get(normalize_loc(loc))

    def initial_items(self) -> list[tuple[LocationSet, frozenset]]:
        return list(self._initial.items())

    # -- maps ------------------------------------------------------------

    def _map_at(self, node: Node, before: bool) -> dict[LocationSet, frozenset]:
        if node is self.entry:
            return self._initial
        if before:
            return self._in.get(node.uid, {})
        return self._out.get(node.uid, self._in.get(node.uid, {}))

    def merge_at(self, node: Node, evaluated: set[int]) -> None:
        if node is self.entry:
            return
        merged: dict[LocationSet, frozenset] = {}
        for pred in node.preds:
            if pred.uid not in evaluated and pred is not self.entry:
                continue
            pmap = self._out.get(pred.uid)
            if pmap is None:
                pmap = self._initial if pred is self.entry else self._in.get(pred.uid, {})
            for key, vals in pmap.items():
                key = normalize_loc(key)
                vals = normalize_values(vals)
                old = merged.get(key)
                merged[key] = vals if old is None else intern_values(old | vals)
        self._in[node.uid] = merged
        # out starts as a copy of in; assign() then mutates it in place, and
        # finish_node compares against the previous pass's out map
        self._prev_out[node.uid] = self._out.get(node.uid)
        self._out[node.uid] = dict(merged)

    def finish_node(self, node: Node) -> None:
        if node is self.entry:
            return
        if self._out.get(node.uid) != self._prev_out.get(node.uid):
            self._note_out(node)

    def _note_out(self, node: Node) -> None:
        self.change_counter += 1
        self._clock += 1
        self._out_seq[node.uid] = self._clock

    def _written_since(self, node: Node, rec: NodeRecord) -> bool:
        # a dense node reads only its in-map: its predecessors' out-maps
        out_seq = self._out_seq
        seq = rec.seq
        for pred in node.preds:
            if out_seq.get(pred.uid, 0) > seq:
                return True
        return False

    def assign(
        self,
        loc: LocationSet,
        values: Iterable[LocationSet],
        node: Node,
        strong: bool,
        size: int = 4,
    ) -> bool:
        loc = normalize_loc(loc)
        vals = normalize_values(values)
        if vals:
            _register(loc)
        self.assigned_keys.add(loc)
        out = self._out.setdefault(node.uid, dict(self._in.get(node.uid, {})))
        changed = False
        if strong:
            # a strong update overwrites every location the write covers
            doomed = [
                k
                for k in out
                if k.base is loc.base
                and k != loc
                and loc.overlaps(k, width=max(size, 1), other_width=1)
            ]
            for k in doomed:
                del out[k]
                changed = True
            if out.get(loc) != vals:
                out[loc] = vals
                changed = True
        else:
            old = out.get(loc, EMPTY)
            new = intern_values(old | vals)
            if new != old:
                out[loc] = new
                changed = True
        if changed:
            if strong:
                self.metrics.strong_updates += 1
            else:
                self.metrics.weak_updates += 1
            if self.provenance is not None:
                self.provenance.tag(loc, vals, node, strong)
        return changed

    def lookup(self, loc: LocationSet, node: Node, before: bool = True) -> frozenset:
        self.metrics.lookups += 1
        loc = normalize_loc(loc)
        table = self._map_at(node, before)
        hit = table.get(loc)
        if hit is None:
            # keys may have been recorded before their base was subsumed
            for key, vals in table.items():
                if normalize_loc(key) == loc:
                    hit = vals
                    break
        return normalize_values(hit or EMPTY)

    def lookup_overlapping(
        self, loc: LocationSet, node: Node, width: int = 1, before: bool = True
    ) -> frozenset:
        self.metrics.lookups += 1
        loc = normalize_loc(loc)
        result: set[LocationSet] = set()
        for key, vals in self._map_at(node, before).items():
            key_n = normalize_loc(key)
            if key_n.base is loc.base and loc.overlaps(key_n, width=width, other_width=1):
                result |= vals
        return normalize_values(result)

    def footprint(self) -> dict[str, int]:
        out = super().footprint()
        out["map_cells"] = sum(len(m) for m in self._in.values()) + sum(
            len(m) for m in self._out.values()
        )
        out["nodes_mapped"] = len(self._in)
        return out


# ---------------------------------------------------------------------------
# Sparse representation (the paper's §4.2 scheme)
# ---------------------------------------------------------------------------


class SparseState(PointsToState):
    """Per-node deltas + dominator-walk lookups + dynamic φ insertion.

    Only the points-to values that change at a node are recorded.  Looking
    up the value of a pointer searches back through the dominating flow
    graph nodes for the most recent assignment; meet nodes carry φ-functions
    (inserted at iterated dominance frontiers when a location is assigned)
    that combine the values from each predecessor (§4.2, Figure 9).

    The dominator walks are memoized behind generation-invalidated caches;
    see the module docstring for the invariants.
    """

    kind = "sparse"

    def __init__(
        self,
        entry: Node,
        lookup_cache: bool = True,
        metrics: Optional[Metrics] = None,
        provenance=None,
    ) -> None:
        super().__init__(
            entry, lookup_cache=lookup_cache, metrics=metrics, provenance=provenance
        )
        self._initial: dict[LocationSet, frozenset] = {}
        #: node uid -> {loc: (values, strong, kill_size)}; kill_size is the
        #: byte width a strong update overwrote (0 for weak and φ entries)
        self._defs: dict[int, dict[LocationSet, tuple[frozenset, bool, int]]] = {}
        #: node uid -> φ locations attached to that (meet) node
        self.phis: dict[int, set[LocationSet]] = {}
        # -- memoization, partitioned per base block (see module docstring);
        # recording a def for ``loc`` drops only ``loc.base``'s partition.
        # Two-level layout: the outer key carries everything but the node,
        # the inner dict is keyed by bare node uid — path compression then
        # fills int-keyed entries instead of allocating a tuple per node --
        #: base uid -> {(loc, inclusive, fence uid): {node uid: values}}
        self._search_cache: dict[int, dict[tuple, dict[int, frozenset]]] = {}
        #: base uid -> {(loc, width): {node uid: fence node or None}}
        self._fence_cache: dict[int, dict[tuple, dict[int, Optional[Node]]]] = {}
        #: base uid -> {(loc, width, before, ptr_version): {node uid: values}}
        self._overlap_cache: dict[int, dict[tuple, dict[int, frozenset]]] = {}
        #: (loc, width, pointer_version) -> overlapping registered keys;
        #: keyed by the block's monotone pointer_version, so *not* cleared
        #: on value changes — the registry grows far more rarely
        self._overlap_keys: dict[tuple, tuple[LocationSet, ...]] = {}
        #: base block -> write clock of its last def/φ/initial change
        self._written: dict[MemoryBlock, int] = {}

    # -- initial ---------------------------------------------------------

    def set_initial(self, loc: LocationSet, values: Iterable[LocationSet]) -> None:
        loc = normalize_loc(loc)
        vals = normalize_values(values)
        _register(loc)
        old = self._initial.get(loc)
        new = vals if old is None else intern_values(old | vals)
        if old != new:
            self._initial[loc] = new
            self._note_write(loc)
            if self.provenance is not None:
                self.provenance.tag_initial(loc, vals, self.entry)

    def get_initial(self, loc: LocationSet) -> Optional[frozenset]:
        return self._initial.get(normalize_loc(loc))

    def initial_items(self) -> list[tuple[LocationSet, frozenset]]:
        return list(self._initial.items())

    def merge_at(self, node: Node, evaluated: set[int]) -> None:
        # sparse states do not materialize merged maps; φ evaluation happens
        # when the meet node itself is evaluated (Figure 9)
        return

    # -- φ bookkeeping -----------------------------------------------------

    def phi_locations(self, node: Node) -> set[LocationSet]:
        return {normalize_loc(l) for l in self.phis.get(node.uid, ())}

    def _insert_phis(self, loc: LocationSet, node: Node) -> None:
        for meet in iterated_frontier([node]):
            locs = self.phis.setdefault(meet.uid, set())
            if loc not in locs:
                locs.add(loc)
                self.metrics.phi_insertions += 1
                # a pending φ is only visible to lookups once assign_phi
                # records its value (which invalidates), so bump the
                # fixpoint counter without dropping any cache partition;
                # the meet node must evaluate the new φ
                self.change_counter += 1
                self.records.pop(meet.uid, None)

    # -- transfer ---------------------------------------------------------

    def assign(
        self,
        loc: LocationSet,
        values: Iterable[LocationSet],
        node: Node,
        strong: bool,
        size: int = 4,
    ) -> bool:
        loc = normalize_loc(loc)
        vals = normalize_values(values)
        if vals:
            _register(loc)
        self.assigned_keys.add(loc)
        defs = self._defs.setdefault(node.uid, {})
        old = defs.get(loc)
        if not strong and old is not None:
            vals = vals | old[0]
        if not strong:
            # a weak update must preserve what was already visible here
            self.note_read(loc.base)
            vals = vals | self._search(loc, node, inclusive=False)
        new_entry = (intern_values(vals), strong, size if strong else 0)
        if old != new_entry:
            defs[loc] = new_entry
            if strong:
                self.metrics.strong_updates += 1
            else:
                self.metrics.weak_updates += 1
            if self.provenance is not None:
                self.provenance.tag(loc, new_entry[0], node, strong)
            self._note_write(loc)
            self._insert_phis(loc, node)
            return True
        return False

    def assign_phi(
        self, loc: LocationSet, values: Iterable[LocationSet], node: Node
    ) -> bool:
        """Record a φ merge: exact replacement, never a strong-update fence."""
        loc = normalize_loc(loc)
        vals = normalize_values(values)
        if vals:
            _register(loc)
        defs = self._defs.setdefault(node.uid, {})
        old = defs.get(loc)
        new_entry = (vals, False, 0)
        if old != new_entry:
            defs[loc] = new_entry
            if self.provenance is not None:
                self.provenance.tag_phi(loc, vals, node)
            self._note_write(loc)
            self._insert_phis(loc, node)
            return True
        return False

    # -- lookups -----------------------------------------------------------

    def lookup(self, loc: LocationSet, node: Node, before: bool = True) -> frozenset:
        self.metrics.lookups += 1
        loc = normalize_loc(loc)
        self.note_read(loc.base)
        return self._search(loc, node, inclusive=not before)

    def _defs_at(
        self, node: Node, loc: LocationSet
    ) -> Optional[tuple[frozenset, bool, int]]:
        defs = self._defs.get(node.uid)
        if defs is None:
            return None
        # keys are kept canonical: mark_changed() renormalizes any key whose
        # base was subsumed, so an exact probe is complete
        return defs.get(loc)

    # -- cache plumbing ---------------------------------------------------

    def _note_write(self, loc: LocationSet) -> None:
        """A def/φ/initial entry for ``loc`` changed: bump the fixpoint
        counter, stamp ``loc.base`` with the write clock, and drop its memo
        partition (cached answers for other bases cannot depend on this
        entry)."""
        self.change_counter += 1
        self._clock += 1
        self._written[loc.base] = self._clock
        uid = loc.base.uid
        self._search_cache.pop(uid, None)
        self._fence_cache.pop(uid, None)
        self._overlap_cache.pop(uid, None)

    def mark_changed(self) -> None:
        """Non-local change (parameter subsumption, uniqueness downgrade):
        no single base owns the effect, so drop every memo partition and
        rewrite def keys whose base parameter was subsumed (§3.2).  The
        ``_overlap_keys`` table survives: it depends only on the
        pointer-location registry, whose monotone version is part of its
        keys."""
        super().mark_changed()
        self._renormalize()
        self._keys_epoch = _blocks.subsumption_epoch()

    def _renormalize(self) -> None:
        self._search_cache.clear()
        self._fence_cache.clear()
        self._overlap_cache.clear()
        self._renormalize_def_keys()

    def _written_since(self, node: Node, rec: NodeRecord) -> bool:
        written = self._written
        seq = rec.seq
        for block in rec.reads:
            if written.get(block, 0) > seq:
                return True
        return False

    def _renormalize_def_keys(self) -> None:
        """Rewrite def keys recorded before their base was subsumed.

        Exact-key probes then stay complete without a linear fallback scan.
        When the canonical key already has an entry it wins — matching the
        lookup semantics this replaces, where an exact hit shadowed any
        stale aliases — and among several stale aliases the first in
        insertion order is kept.
        """
        for defs in self._defs.values():
            stale = [k for k in defs if k.base.subsumed_by is not None]
            for k in stale:
                entry = defs.pop(k)
                k_n = normalize_loc(k)
                if k_n not in defs:
                    defs[k_n] = entry

    def _search(
        self,
        loc: LocationSet,
        node: Node,
        inclusive: bool,
        fence: Optional[Node] = None,
    ) -> frozenset:
        """Memoized dominator-tree search for the latest def of ``loc``.

        ``fence`` (a strong-update node) bounds the search: defs at the
        fence itself are visible, anything strictly before it is not.
        """
        self.sync_epoch()
        if not self.lookup_cache:
            return self._search_walk(loc, node, inclusive, fence)
        metrics = self.metrics
        fence_uid = fence.uid if fence is not None else -1
        cache = self._search_cache.get(loc.base.uid)
        if cache is None:
            cache = self._search_cache[loc.base.uid] = {}
        key = (loc, inclusive, fence_uid)
        by_node = cache.get(key)
        if by_node is None:
            by_node = cache[key] = {}
        hit = by_node.get(node.uid)
        if hit is not None:
            metrics.cache_hits += 1
            return hit
        metrics.cache_misses += 1
        # the *inclusive* partition doubles as the walk's shortcut table:
        # the value-after-n cached there is exactly what the remaining walk
        # from n would compute, so a walk that reaches a warm dominator
        # stops right there instead of re-walking to the def/entry
        if inclusive:
            incl = by_node
        else:
            incl = cache.get((loc, True, fence_uid))
            if incl is None:
                incl = cache[(loc, True, fence_uid)] = {}
        trail: list[int] = []
        result = self._search_walk(loc, node, inclusive, fence, trail, incl)
        by_node[node.uid] = result
        # path compression: every dominator whose defs the walk checked and
        # missed (and the one it stopped at) yields this same answer for an
        # inclusive search starting there
        for uid in trail:
            incl[uid] = result
        return result

    def _search_walk(
        self,
        loc: LocationSet,
        node: Node,
        inclusive: bool,
        fence: Optional[Node] = None,
        trail: Optional[list[int]] = None,
        memo: Optional[dict[int, frozenset]] = None,
    ) -> frozenset:
        """The raw walk of §4.2 (uncached); ``trail`` collects the uids of
        nodes at which an inclusive restart would produce the same result.

        ``memo`` is the inclusive-result shortcut table for this
        (loc, fence) pair: a warm entry at a visited dominator is exactly
        the remaining walk's answer, so the walk stops there.
        """
        steps = 0
        n: Optional[Node] = node
        first = True
        result = EMPTY
        while n is not None:
            if not first or inclusive:
                if memo is not None and n is not node:
                    hit = memo.get(n.uid)
                    if hit is not None:
                        result = hit
                        break
                if trail is not None:
                    trail.append(n.uid)
                hit = self._defs_at(n, loc)
                if hit is not None:
                    result = normalize_values(hit[0])
                    break
            if fence is not None and n is fence:
                result = EMPTY
                break
            if n is self.entry:
                result = normalize_values(self._initial.get(loc, EMPTY))
                break
            first = False
            n = n.idom
            steps += 1
        self.metrics.dom_walk_steps += steps
        return result

    def _find_strong_fence(
        self, loc: LocationSet, node: Node, width: int, inclusive: bool = False
    ) -> Optional[Node]:
        """The most recent dominating strong update that overwrote the
        *entire* ``width``-byte read at ``loc`` (§4.3), memoized.

        Coverage of the full read range is required: a narrower strong
        update leaves the history of the uncovered bytes visible, exactly
        as the dense representation's per-key kill does.  ``inclusive``
        reads (the value *after* the node executes) also see a covering
        strong update at the node itself.
        """
        self.sync_epoch()
        if not self.lookup_cache:
            return self._fence_walk(loc, node, width, inclusive)
        metrics = self.metrics
        cache = self._fence_cache.get(loc.base.uid)
        if cache is None:
            cache = self._fence_cache[loc.base.uid] = {}
        by_node = cache.get((loc, width, inclusive))
        if by_node is None:
            by_node = cache[(loc, width, inclusive)] = {}
        hit = by_node.get(node.uid, _MISS)
        if hit is not _MISS:
            metrics.cache_hits += 1
            return hit  # type: ignore[return-value]
        metrics.cache_misses += 1
        # inclusive partition = mid-walk shortcut table (see _search)
        if inclusive:
            incl = by_node
        else:
            incl = cache.get((loc, width, True))
            if incl is None:
                incl = cache[(loc, width, True)] = {}
        trail: list[int] = []
        result = self._fence_walk(loc, node, width, inclusive, trail, incl)
        by_node[node.uid] = result
        for uid in trail:
            incl[uid] = result
        return result

    def _fence_walk(
        self,
        loc: LocationSet,
        node: Node,
        width: int,
        inclusive: bool = False,
        trail: Optional[list[int]] = None,
        memo: Optional[dict[int, Optional[Node]]] = None,
    ) -> Optional[Node]:
        steps = 0
        n: Optional[Node] = node
        first = True
        result: Optional[Node] = None
        while n is not None:
            if not first or inclusive:
                if memo is not None and n is not node:
                    hit = memo.get(n.uid, _MISS)
                    if hit is not _MISS:
                        result = hit  # type: ignore[assignment]
                        break
                defs = self._defs.get(n.uid)
                if defs is not None and self._has_covering_strong_def(
                    defs, loc, width
                ):
                    result = n
                    break
                # no covering strong def here: a restart from n checks (or
                # skips) its own clean defs and then walks the same ancestors
                if trail is not None:
                    trail.append(n.uid)
            if n is self.entry:
                break
            first = False
            n = n.idom
            steps += 1
        self.metrics.dom_walk_steps += steps
        return result

    @staticmethod
    def _has_covering_strong_def(
        defs: dict[LocationSet, tuple[frozenset, bool, int]],
        loc: LocationSet,
        width: int,
    ) -> bool:
        for key, (_vals, strong, kill_size) in defs.items():
            if not strong:
                continue
            key_n = normalize_loc(key)
            if key_n.base is not loc.base:
                continue
            if key_n.stride or loc.stride:
                # strong updates only target stride-0 unique sets (§4.1);
                # a strided read is never fully covered by one store
                continue
            if (
                key_n.offset <= loc.offset
                and key_n.offset + max(kill_size, 1) >= loc.offset + width
            ):
                return True
        return False

    def _overlapping_keys(self, loc: LocationSet, width: int) -> tuple[LocationSet, ...]:
        """Registered pointer locations of ``loc.base`` that a ``width``-byte
        read at ``loc`` can touch, cached per registry version."""
        base = loc.base
        cache_key = (loc, width, base.pointer_version)
        if self.lookup_cache:
            hit = self._overlap_keys.get(cache_key)
            if hit is not None:
                return hit
        keys: list[LocationSet] = []
        for offset, stride in sorted(base.pointer_locations):
            key = intern_locset(LocationSet(base, offset, stride))
            if loc.overlaps(key, width=width, other_width=1):
                keys.append(key)
        result = tuple(keys)
        if self.lookup_cache:
            self._overlap_keys[cache_key] = result
        return result

    def lookup_overlapping(
        self, loc: LocationSet, node: Node, width: int = 1, before: bool = True
    ) -> frozenset:
        metrics = self.metrics
        metrics.lookups += 1
        self.sync_epoch()
        loc = normalize_loc(loc)
        # the answer depends on the base's defs *and* its registry
        self.note_read(loc.base)
        by_node = None
        if self.lookup_cache:
            cache = self._overlap_cache.get(loc.base.uid)
            if cache is None:
                cache = self._overlap_cache[loc.base.uid] = {}
            cache_key = (loc, width, before, loc.base.pointer_version)
            by_node = cache.get(cache_key)
            if by_node is None:
                by_node = cache[cache_key] = {}
            hit = by_node.get(node.uid)
            if hit is not None:
                metrics.cache_hits += 1
                return hit
            metrics.cache_misses += 1
        fence: Optional[Node] = None
        if loc.is_unique:
            fence = self._find_strong_fence(
                loc, node, width=width, inclusive=not before
            )
        result: set[LocationSet] = set()
        for key in self._overlapping_keys(loc, width):
            result |= self._search(key, node, inclusive=not before, fence=fence)
        # normalize like DenseState.lookup_overlapping does: values recorded
        # before their base parameter was subsumed must not leak through
        out = normalize_values(frozenset(result))
        if by_node is not None:
            by_node[node.uid] = out
        return out

    def summary(self, exit_node: Node) -> dict[LocationSet, frozenset]:
        out: dict[LocationSet, frozenset] = {}
        for key in sorted(
            self.assigned_keys, key=lambda l: (l.base.uid, l.offset, l.stride)
        ):
            key_n = normalize_loc(key)
            vals = self._search(key_n, exit_node, inclusive=True)
            if vals:
                out[key_n] = vals
        return out

    def footprint(self) -> dict[str, int]:
        out = super().footprint()
        out["defs"] = sum(len(d) for d in self._defs.values())
        out["phis"] = sum(len(p) for p in self.phis.values())
        out["cache_entries"] = (
            sum(
                len(by_node)
                for part in self._search_cache.values()
                for by_node in part.values()
            )
            + sum(
                len(by_node)
                for part in self._fence_cache.values()
                for by_node in part.values()
            )
            + sum(
                len(by_node)
                for part in self._overlap_cache.values()
                for by_node in part.values()
            )
            + len(self._overlap_keys)
        )
        return out
