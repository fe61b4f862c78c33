"""Change-driven procedure evaluation (``analysis/intra.py``).

A round skips every node none of whose inputs changed since its last
evaluation.  These tests pin three things:

* skipping is exact: forcing every node to re-evaluate (the whole-body
  passes the rounds replace) yields the same sequence of state-changing
  evaluations and the same snapshot digest, in no fewer rounds;
* two dependencies whose absence silently loses facts stay recorded
  (small C programs, one per trap);
* the work bound on the two largest fixpoints, as node-evaluation counts
  (deterministic, unlike timings).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import AnalyzerOptions, analyze_source
from repro.analysis.demand import fresh_analysis_state
from repro.analysis.intra import ProcEvaluator
from repro.bench.harness import analyze_benchmark
from repro.diagnostics.snapshot import build_snapshot
from repro.memory.blocks import ExtendedParameter, HeapBlock

from .test_property import programs


def _run(analyze, monkeypatch, never_skip: bool):
    """Analyze, returning (digest, passes, the state-changing node
    evaluations in order as (procedure, RPO position) pairs)."""
    changing: list[tuple[str, int]] = []
    evaluate = ProcEvaluator._evaluate

    def logged(self, node, preds):
        changed = evaluate(self, node, preds)
        if changed:
            changing.append((self.proc.name, self.proc.rpo.index(node)))
        return changed

    with monkeypatch.context() as m:
        m.setattr(ProcEvaluator, "_evaluate", logged)
        if never_skip:
            m.setattr(ProcEvaluator, "_stale", lambda self, node, rec, preds: True)
        fresh_analysis_state()
        result = analyze()
    digest = build_snapshot(result, program_name="t")["digest"]["program"]
    return digest, result.analyzer.metrics.eval_passes, changing


def _assert_skipping_exact(analyze, monkeypatch):
    digest, passes, changing = _run(analyze, monkeypatch, never_skip=False)
    full_digest, full_passes, full_changing = _run(
        analyze, monkeypatch, never_skip=True
    )
    assert (digest, changing) == (full_digest, full_changing)
    # a whole-body pass may raise frame.changed without changing any
    # state, forcing one more round; a skipped node cannot
    assert passes <= full_passes


# generated programs, minimized.  Skipping diverges from whole-body
# passes on PHI_INSERTED without the φ-insertion dependency; on
# HOME_RESET (dense state) a callee PTF created at a call no longer
# matches it once its parameters are subsumed, which the candidate
# versions and the subsumption epoch both catch; on CANDIDATE_CHANGED
# without the candidate PTF versions; on DEFERRED_REVISIT (no strong
# updates) unless a deferred node re-runs when its PTF is revisited
PHI_INSERTED = """
#include <stdlib.h>
struct node { struct node *next; int *val; struct node *other; };
int x, cond;
int *q, *lp;
int **pp;
struct node *n1, *n2;
struct node *mk(int *v) { struct node *n = malloc(sizeof(struct node)); n->val = v; n->next = 0; return n; }
void link(struct node **head, struct node *n) { if (n) { n->next = *head; *head = n; } }
void swap_in(int **slot, int *value) { int *t = *slot; *slot = value; q = t; }
void apply(void (*f)(int **, int *), int **s, int *v) { f(s, v); }
int main(void) {
    while (cond) {
        pp = &lp;
        apply(swap_in, &q, q);
        if (cond) { q = n1->val; n2 = mk(q); }
        cond--;
    }
    if (cond) link(&n1, n2);
    return 0;
}
"""

HOME_RESET = """
struct node { struct node *next; int *val; struct node *other; };
int x, y, cond;
int *q, *lp;
struct node *n1, *n2;
void set_ptr(int **slot, int *value) { *slot = value; }
int *get_addr(void) { return &x; }
void link(struct node **head, struct node *n) { if (n) { n->next = *head; *head = n; } }
void apply(void (*f)(int **, int *), int **s, int *v) { f(s, v); }
int main(void) {
    lp = get_addr();
    while (cond) {
        link(&n1, n2);
        q = 0;
        while (cond) { apply(set_ptr, &lp, &y); cond--; }
        cond--;
    }
    set_ptr(&lp, &y);
    return 0;
}
"""


CANDIDATE_CHANGED = """
struct node { struct node *next; int *val; struct node *other; };
int x, y, cond;
int *p, *q, *r;
int **pp;
struct node *n1, *n2;
int *get_addr(void) { return &x; }
void swap_in(int **slot, int *value) { int *t = *slot; *slot = value; q = t; }
void apply(void (*f)(int **, int *), int **s, int *v) { f(s, v); }
void odd(int **slot, int *value, int d);
void even(int **slot, int *value, int d) { if (d) odd(slot, value, d - 1); else *slot = value; }
void odd(int **slot, int *value, int d)
{
    n2->next = n1;
    if (cond) { p = n2->val; p = *pp; }
    apply(swap_in, &p, q);
    p = get_addr();
    if (d) even(slot, value, d - 1);
}
int main(void)
{
    int *lp = 0;
    if (cond) {
        if (cond) { apply(swap_in, &q, lp); pp = &r; } else { lp = n1->val; }
        n2->next = n2;
    } else if (cond) {
        even(&lp, &y, 4);
        even(&r, &x, 4);
    }
    return 0;
}
"""


DEFERRED_REVISIT = """
struct node { struct node *next; int *val; struct node *other; };
int x, y, cond;
int *p, *q, *r;
int **qq;
struct node *n1, *n2;
void set_ptr(int **slot, int *value) { *slot = value; }
void rec_store(int **slot, int *value, int depth)
{
    if (depth <= 0) { *slot = value; return; }
    rec_store(slot, value, depth - 1);
}
void odd(int **slot, int *value, int d);
void even(int **slot, int *value, int d) { if (d) odd(slot, value, d - 1); else *slot = value; }
void odd(int **slot, int *value, int d)
{
    rec_store(&p, &y, 3);
    q = *qq;
    if (cond) { n1->next = n1; *qq = p; }
    set_ptr(&p, q);
    if (d) even(slot, value, d - 1);
}
int main(void)
{
    q = &x;
    while (cond) {
        even(&r, &y, 4);
        n1->next = n2;
    }
    return 0;
}
"""


class TestSkippingIsExact:
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("name", ["compiler", "loader"])
    def test_benchmark(self, name, kind, monkeypatch):
        opts = AnalyzerOptions(state_kind=kind)
        _assert_skipping_exact(lambda: analyze_benchmark(name, opts), monkeypatch)

    @pytest.mark.parametrize(
        "source,options",
        [
            (PHI_INSERTED, {}),
            (HOME_RESET, {"state_kind": "dense"}),
            (CANDIDATE_CHANGED, {}),
            (DEFERRED_REVISIT, {"strong_updates": False}),
        ],
        ids=["phi-inserted", "home-reset", "candidate-changed", "deferred-revisit"],
    )
    def test_minimized_programs(self, source, options, monkeypatch):
        opts = AnalyzerOptions(**options)
        _assert_skipping_exact(lambda: analyze_source(source, options=opts), monkeypatch)

    @given(programs())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_generated_programs(self, monkeypatch, source):
        _assert_skipping_exact(lambda: analyze_source(source), monkeypatch)

    def test_rounds_skip_work(self):
        fresh_analysis_state()
        m = analyze_benchmark("compiler").analyzer.metrics
        assert m.node_skips > 0
        assert 0 < m.node_evals_changed < m.node_evals


# (a) the recursive head's state moves while the call node that applied
# its summary is still being evaluated (odd's call to even fetches an
# initial value into even's state); the head version must be the one
# read before the call, or odd never re-applies the grown summary (when
# even's summary was still empty, re-running the deferred call on the
# next visit of odd catches it too)
HEAD_MOVES_DURING_CALL = """
int x, y, z, cond;
int *p, *q, *r, *lp;
int **pp, **qq;
void swap_in(int **slot, int *value) { int *t = *slot; *slot = value; q = t; }
void odd(int **slot, int *value, int d);
void even(int **slot, int *value, int d) { if (d) odd(slot, value, d - 1); else *slot = value; }
void odd(int **slot, int *value, int d) { p = *pp; swap_in(&r, p); *qq = q; if (d) even(slot, value, d - 1); }
int main(void) {
    if (cond) {
        q = &z;
        lp = &x;
    }
    while (cond) {
        swap_in(&r, lp);
        r = &y;
    }
    even(&r, &z, 4);
    return 0;
}
"""

# (b) parse_stmt reaches itself again through parse_while, a
# non-recursive intermediate: when parse_stmt's recursive summary grows,
# its call node for parse_while must revisit parse_while's PTF
REVISIT_THROUGH_INTERMEDIATE = """
#include <stdlib.h>
struct node { int op; struct node *left; struct node *right; };
int tok;
struct node *new_node(int op)
{
    struct node *n = malloc(sizeof(struct node));
    n->op = op;
    n->left = 0;
    n->right = 0;
    return n;
}
struct node *parse_stmt(void);
struct node *parse_block(void)
{
    struct node *head = 0;
    struct node **tail = &head;
    while (tok) {
        struct node *seq = new_node(1);
        seq->left = parse_stmt();
        *tail = seq;
        tail = &seq->right;
    }
    return head;
}
struct node *parse_while(void)
{
    struct node *n = new_node(2);
    n->right = parse_stmt();
    return n;
}
struct node *parse_stmt(void)
{
    if (tok == 1)
        return parse_block();
    if (tok == 2)
        return parse_while();
    return new_node(3);
}
int main(void)
{
    struct node *prog = parse_block();
    return prog != 0;
}
"""


def _summary(result, proc):
    out: dict = {}
    for ptf in result.ptfs_of(proc):
        for loc, vals in ptf.summary().items():
            out.setdefault(loc, set()).update(vals)
    return out


class TestRecordedDependencies:
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_head_summary_version_read_before_the_call(self, kind):
        fresh_analysis_state()
        result = analyze_source(
            HEAD_MOVES_DURING_CALL, options=AnalyzerOptions(state_kind=kind)
        )
        # odd stores the value through slot (= &r) via even's summary
        stored = {
            v
            for loc, vals in _summary(result, "odd").items()
            if isinstance(loc.base, ExtendedParameter)
            and loc.base.representative().global_block is not None
            and loc.base.representative().global_block.name == "r"
            for v in vals
        }
        assert stored

    def test_caller_revisits_through_nonrecursive_intermediate(self):
        fresh_analysis_state()
        result = analyze_source(REVISIT_THROUGH_INTERMEDIATE)
        summary = _summary(result, "parse_stmt")
        linked = {
            loc.offset
            for loc, vals in summary.items()
            if isinstance(loc.base, HeapBlock)
            and any(isinstance(v.base, HeapBlock) for v in vals)
        }
        # seq->left (parse_block) and n->right (parse_block, parse_while)
        assert {4, 8} <= linked


class TestWorkBound:
    # whole-body passes evaluated 9,297 (compiler) and 23,422 (interp) nodes
    @pytest.mark.parametrize("name,bound", [("compiler", 2_000), ("interp", 14_000)])
    def test_node_evals_bound(self, name, bound):
        fresh_analysis_state()
        metrics = analyze_benchmark(name).analyzer.metrics
        assert metrics.node_evals <= bound
