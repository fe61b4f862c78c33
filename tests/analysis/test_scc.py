"""Static call-graph extraction: address-taken procedures, indirect
call sites, and the widened static call graph the store, invalidation
and the demand tier's reachability check build on.
"""

from repro.analysis.scc import (
    address_taken_procs,
    indirect_call_procs,
    static_call_graph,
)
from repro.frontend.parser import load_program

# -- static call-graph extraction -------------------------------------------

FNPTR_SOURCE = """
int g;
void f(int *p) { g = *p; }
void h(int *p) { g = *p + 1; }
void dispatch(void (*fp)(int *), int *p) { fp(p); }
int main(void) {
  int x;
  dispatch(f, &x);
  h(&x);
  return 0;
}
"""


def _program():
    return load_program(FNPTR_SOURCE, "fnptr.c", "fnptr")


def test_address_taken_excludes_direct_call_targets():
    taken = address_taken_procs(_program())
    # f escapes as a call argument; h and dispatch only ever appear as
    # direct call targets
    assert taken == {"f"}


def test_indirect_call_procs():
    assert indirect_call_procs(_program()) == {"dispatch"}


def test_static_call_graph_widens_indirect_sites():
    graph = static_call_graph(_program())
    assert graph["main"] == {"dispatch", "h"}
    # dispatch's indirect site widens to every address-taken procedure
    assert graph["dispatch"] == {"f"}
    assert graph["f"] == set()


def test_global_initializer_takes_address():
    src = """
    void cb(void) { }
    void (*table[1])(void) = { cb };
    int main(void) { table[0](); return 0; }
    """
    program = load_program(src, "tbl.c", "tbl")
    assert "cb" in address_taken_procs(program)
