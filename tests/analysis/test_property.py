"""Property-based tests over generated pointer programs.

Hypothesis builds small-but-gnarly C programs from a pool of globals,
pointers and pointer-pointers with conditional control flow and calls, and
checks cross-cutting invariants:

* the sparse (§4.2) and dense state representations compute identical
  points-to sets;
* Wilson-Lam results are a subset of Andersen's on every variable
  (context sensitivity only ever removes spurious values);
* Andersen's are a subset of Steensgaard's pointee classes;
* analysis is deterministic;
* every procedure the analysis gives a PTF lies in the demand tier's
  reachable set (the soundness condition of its unreachable fast path).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AnalyzerOptions, analyze_source, load_program
from repro.analysis.demand import DemandAnalysis
from repro.baselines import andersen_analyze, steensgaard_analyze

INTS = ["x", "y", "z"]
PTRS = ["p", "q", "r"]
PPTRS = ["pp", "qq"]


@st.composite
def statements(draw, depth=0):
    kind = draw(
        st.sampled_from(
            ["addr", "copy", "load", "store", "ppaddr", "null", "if", "while", "call"]
            if depth < 2
            else ["addr", "copy", "load", "store", "ppaddr", "null", "call"]
        )
    )
    if kind == "addr":
        p = draw(st.sampled_from(PTRS))
        x = draw(st.sampled_from(INTS))
        return f"{p} = &{x};"
    if kind == "copy":
        a, b = draw(st.sampled_from(PTRS)), draw(st.sampled_from(PTRS))
        return f"{a} = {b};"
    if kind == "load":
        p = draw(st.sampled_from(PTRS))
        pp = draw(st.sampled_from(PPTRS))
        return f"{p} = *{pp};"
    if kind == "store":
        pp = draw(st.sampled_from(PPTRS))
        p = draw(st.sampled_from(PTRS))
        return f"*{pp} = {p};"
    if kind == "ppaddr":
        pp = draw(st.sampled_from(PPTRS))
        p = draw(st.sampled_from(PTRS))
        return f"{pp} = &{p};"
    if kind == "null":
        p = draw(st.sampled_from(PTRS))
        return f"{p} = 0;"
    if kind == "call":
        p = draw(st.sampled_from(PTRS))
        x = draw(st.sampled_from(INTS))
        which = draw(st.sampled_from(["set_ptr", "get_addr", "rec", "fnptr"]))
        if which == "set_ptr":
            return f"set_ptr(&{p}, &{x});"
        if which == "rec":
            return f"rec_store(&{p}, &{x}, 3);"
        if which == "fnptr":
            return f"{p} = table[0]();"
        return f"{p} = get_addr();"
    body = draw(st.lists(statements(depth=depth + 1), min_size=1, max_size=3))
    inner = "\n".join(body)
    if kind == "if":
        has_else = draw(st.booleans())
        if has_else:
            other = draw(st.lists(statements(depth=depth + 1), min_size=1, max_size=2))
            return f"if (cond) {{ {inner} }} else {{ {' '.join(other)} }}"
        return f"if (cond) {{ {inner} }}"
    return f"while (cond) {{ {inner} cond--; }}"


@st.composite
def programs(draw):
    body = draw(st.lists(statements(), min_size=1, max_size=10))
    stmts = "\n    ".join(body)
    return f"""
int {', '.join(INTS)};
int cond;
int *{', *'.join(PTRS)};
int **{', **'.join(PPTRS)};

void set_ptr(int **slot, int *value) {{ *slot = value; }}
int *get_addr(void) {{ return &{INTS[0]}; }}

/* recursion + an indirect call keep the interprocedural machinery honest */
void rec_store(int **slot, int *value, int depth) {{
    if (depth <= 0) {{ *slot = value; return; }}
    rec_store(slot, value, depth - 1);
}}
typedef int *(*getter)(void);
static getter table[1] = {{ get_addr }};

int main(void) {{
    {stmts}
    return 0;
}}
"""


ALL_VARS = PTRS + PPTRS


@given(programs())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sparse_equals_dense(source):
    sparse = analyze_source(source, options=AnalyzerOptions(state_kind="sparse"))
    dense = analyze_source(source, options=AnalyzerOptions(state_kind="dense"))
    for var in ALL_VARS:
        s = sparse.points_to_names("main", var)
        d = dense.points_to_names("main", var)
        assert s == d, f"{var}: sparse {s} != dense {d}\n{source}"


@given(programs())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_wilson_lam_subset_of_andersen(source):
    wl = analyze_source(source)
    ai = andersen_analyze(load_program(source, "gen.c"))
    for var in ALL_VARS:
        w = wl.points_to_names("main", var)
        a = ai.points_to_names("main", var)
        assert w <= a, f"{var}: WL {w} not within Andersen {a}\n{source}"


@given(programs())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_andersen_subset_of_steensgaard(source):
    ai = andersen_analyze(load_program(source, "gen.c"))
    st_res = steensgaard_analyze(load_program(source, "gen.c"))
    for var in ALL_VARS:
        a = ai.points_to_names("main", var)
        s = st_res.points_to_names("main", var)
        assert a <= s, f"{var}: Andersen {a} not within Steensgaard {s}\n{source}"


@given(programs())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_analysis_deterministic(source):
    r1 = analyze_source(source)
    r2 = analyze_source(source)
    for var in ALL_VARS:
        assert r1.points_to_names("main", var) == r2.points_to_names("main", var)
    assert r1.stats().total_ptfs == r2.stats().total_ptfs


@given(programs())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_strong_updates_only_remove(source):
    """Turning strong updates off can only grow points-to sets."""
    with_su = analyze_source(source, options=AnalyzerOptions(strong_updates=True))
    without = analyze_source(source, options=AnalyzerOptions(strong_updates=False))
    for var in ALL_VARS:
        a = with_su.points_to_names("main", var)
        b = without.points_to_names("main", var)
        assert a <= b, f"{var}: {a} vs {b}\n{source}"


@given(programs())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_analyzed_procedures_are_reachable(source):
    """A procedure outside the reachable set is answered with empty facts
    and no fixpoint; that is sound only if the exhaustive run never gives
    it a PTF."""
    result = analyze_source(source)
    analyzed = {name for name, ptfs in result.analyzer.ptfs.items() if ptfs}
    reachable = DemandAnalysis(result.program).reachable()
    assert analyzed <= reachable, f"{sorted(analyzed - reachable)}\n{source}"
