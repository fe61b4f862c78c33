"""Static call-graph extraction, before any analysis runs.

Three views of a lowered program's calls, all over-approximations of
what the analysis can resolve:

* :func:`address_taken_procs` — the procedures an indirect call site
  may reach (the store records them, and invalidation widens through
  them);
* :func:`indirect_call_procs` — the procedures containing an indirect
  call site (the consumers a retargeted function pointer can affect);
* :func:`static_call_graph` — direct call edges, with indirect call
  sites widened to every address-taken procedure (the same
  over-approximation ``guards.conservative_region`` uses, and a
  superset of every edge the analysis can resolve).  The demand tier's
  reachability check (:func:`repro.analysis.demand.demand_call_graph`)
  starts from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.program import Program

__all__ = [
    "static_call_graph",
    "address_taken_procs",
    "indirect_call_procs",
]


# ---------------------------------------------------------------------------
# static call-graph extraction (pre-analysis approximation)
# ---------------------------------------------------------------------------


def _proc_refs(value, out: set) -> None:
    """Collect every procedure symbol referenced by a value expression."""
    from ..ir.expr import AddressTerm, AdjustTerm, ContentsTerm

    for term in value.terms:
        if isinstance(term, (AddressTerm, ContentsTerm)):
            _loc_proc_refs(term.loc, out)
        elif isinstance(term, AdjustTerm):
            _proc_refs(term.value, out)


def _loc_proc_refs(loc, out: set) -> None:
    from ..ir.expr import DerefLoc, ProcSymbol, SymbolLoc

    if isinstance(loc, SymbolLoc):
        if isinstance(loc.symbol, ProcSymbol):
            out.add(loc.symbol.name)
    elif isinstance(loc, DerefLoc):
        _proc_refs(loc.pointer, out)


def address_taken_procs(program: "Program") -> set[str]:
    """Internal procedures whose address escapes into data.

    A procedure is address-taken when a reference to it appears anywhere
    *other than* as the direct target of a call: assignment sources, call
    arguments, call destinations, indirect call target expressions, and
    static global initializers.  These are exactly the procedures an
    indirect call site may reach.
    """
    from ..ir.nodes import AssignNode, CallNode
    from .guards import _direct_targets

    taken: set[str] = set()
    for proc in program.procedures.values():
        for node in proc.nodes():
            if isinstance(node, AssignNode):
                _proc_refs(node.src, taken)
            elif isinstance(node, CallNode):
                if not _direct_targets(node):
                    _proc_refs(node.target, taken)
                for arg in node.args:
                    _proc_refs(arg, taken)
    for init in program.global_inits:
        _proc_refs(init.src, taken)
    return taken & set(program.procedures)


def indirect_call_procs(program: "Program") -> set[str]:
    """Procedures containing at least one indirect (function-pointer)
    call site — the consumers a retargeted function pointer can affect."""
    from .guards import _direct_targets

    out: set[str] = set()
    for name, proc in program.procedures.items():
        for node in proc.call_nodes():
            if not _direct_targets(node):
                out.add(name)
                break
    return out


def static_call_graph(program: "Program") -> dict[str, set[str]]:
    """The static over-approximation of the call graph.

    Direct call edges, plus — at every indirect call site — edges to all
    address-taken procedures (any of them could run; the analysis can
    only ever resolve a subset of these edges).  Only internal
    procedures appear; externals and libc cannot carry PTF dependencies.
    """
    from .guards import _direct_targets

    taken = address_taken_procs(program)
    internal = set(program.procedures)
    graph: dict[str, set[str]] = {}
    for name, proc in program.procedures.items():
        callees: set[str] = set()
        for node in proc.call_nodes():
            direct = _direct_targets(node)
            if direct:
                callees |= direct & internal
            else:
                callees |= taken
        graph[name] = callees
    return graph
