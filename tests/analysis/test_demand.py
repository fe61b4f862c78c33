"""Unit tests for the demand-driven analysis layer (repro.analysis.demand).

Covers the reachable set, the unreachable fast path (no fixpoint ever
runs), the one-fixpoint-per-generation memoization, trace instants, and
the budget/deadline guard on an engine over a demand analysis.
"""

import pytest

from repro import AnalyzerOptions, load_program
from repro.analysis.demand import (
    DemandAnalysis,
    fresh_analysis_state,
    options_from_store,
)
from repro.analysis.guards import AnalysisBudget, GuardTripped
from repro.diagnostics.trace import Tracer
from repro.query import QueryEngine

CHAIN = """
int g1, g2;
int *identity(int *p) { return p; }
int *wrap(int *p) { return identity(p); }
void sink(int *p) { *p = 1; }
int main(void) {
    int *a = wrap(&g1);
    sink(a);
    return 0;
}
int *orphan(int *q) { return q; }
"""


def chain_program():
    fresh_analysis_state()
    return load_program(CHAIN, "chain.c", "chain")


def engine_over(analysis, tracer=None):
    return QueryEngine.over(analysis, program="chain", tracer=tracer)


# -- the reachable set ------------------------------------------------------


class TestReachable:
    def test_reachable_is_main_forward_closure(self):
        analysis = DemandAnalysis(chain_program(), options=AnalyzerOptions())
        assert analysis.reachable() == {"main", "wrap", "identity", "sink"}
        assert analysis.reachable() is analysis.reachable()


# -- laziness and memoization ----------------------------------------------


class TestLaziness:
    def test_unreachable_query_never_runs_fixpoint(self):
        analysis = DemandAnalysis(chain_program(), options=AnalyzerOptions())
        engine = engine_over(analysis)
        ans = engine.query({"op": "points_to", "var": "q", "proc": "orphan"})
        assert ans["targets"] == []
        assert analysis.analyses == 0

    def test_one_fixpoint_across_many_queries(self):
        analysis = DemandAnalysis(chain_program(), options=AnalyzerOptions())
        engine = engine_over(analysis)
        engine.query({"op": "points_to", "var": "a", "proc": "main"})
        engine.query({"op": "points_to", "var": "p", "proc": "identity"})
        engine.query({"op": "modref", "proc": "sink"})
        engine.query({"op": "pointed_by", "name": "g1"})
        assert analysis.analyses == 1

    def test_reachable_answer_has_real_facts(self):
        analysis = DemandAnalysis(chain_program(), options=AnalyzerOptions())
        engine = engine_over(analysis)
        ans = engine.query({"op": "points_to", "var": "a", "proc": "main"})
        assert ans["targets"] == ["g1"]

    def test_unrun_analysis_is_not_degraded(self):
        analysis = DemandAnalysis(chain_program(), options=AnalyzerOptions())
        engine = engine_over(analysis)
        assert engine.degraded is False


# -- tracing ----------------------------------------------------------------


class TestTracing:
    def test_slice_and_analyze_instants(self):
        tracer = Tracer()
        analysis = DemandAnalysis(
            chain_program(), options=AnalyzerOptions(), tracer=tracer
        )
        engine = engine_over(analysis, tracer=tracer)
        engine.query({"op": "points_to", "var": "a", "proc": "main"})
        names = [e["name"] for e in tracer.events]
        assert "demand.slice" in names
        assert "demand.analyze" in names
        slice_event = next(
            e for e in tracer.events if e["name"] == "demand.slice"
        )
        assert slice_event["args"]["target"] == "main"
        assert slice_event["args"]["reachable"] is True

    def test_unreachable_slice_instant(self):
        tracer = Tracer()
        analysis = DemandAnalysis(
            chain_program(), options=AnalyzerOptions(), tracer=tracer
        )
        analysis.record("orphan")
        event = next(e for e in tracer.events if e["name"] == "demand.slice")
        assert event["args"]["reachable"] is False
        assert event["args"]["procs"] == 0
        assert analysis.analyses == 0


# -- budget -----------------------------------------------------------------


class TestBudget:
    def test_expired_deadline_trips_guard(self):
        analysis = DemandAnalysis(chain_program(), options=AnalyzerOptions())
        engine = engine_over(analysis)
        budget = AnalysisBudget(deadline_seconds=0.0)
        budget.start()
        with pytest.raises(GuardTripped) as exc:
            engine.query(
                {"op": "points_to", "var": "a", "proc": "main"}, budget=budget
            )
        assert exc.value.reason == "deadline"
        assert analysis.analyses == 0  # refused before any fixpoint


# -- options reconstruction -------------------------------------------------


class TestOptionsFromStore:
    def test_recorded_fields_round_trip(self):
        store = {"options": {"strong_updates": False, "heap_context_depth": 2}}
        opts = options_from_store(store)
        assert opts.strong_updates is False
        assert opts.heap_context_depth == 2

    def test_unknown_fields_ignored(self):
        opts = options_from_store({"options": {"not_a_field": 1}})
        assert opts == AnalyzerOptions()

    def test_missing_options_block(self):
        assert options_from_store({}) == AnalyzerOptions()
