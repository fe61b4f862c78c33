"""Seeded, fact-preserving source edits for the edit-loop workload.

An edit adds one dead ``int`` local at the top of one procedure body.  It
is inserted on the line of the body's opening brace, so no other line or
column of the file moves: heap names carry ``file:line:col`` and must not
shift.  Only bodies whose ``{`` ends its line are eligible, for the same
reason.  The edit changes that procedure's IR digest, so the procedure and
its transitive callers go stale, while every points-to fact stays the same.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

_IDENT = re.compile(r"[A-Za-z_]\w*$")


class Edit(NamedTuple):
    proc: str          # the procedure whose body gets the dead local
    query_proc: str    # the queried procedure: proc or a transitive caller
    var: str           # the queried variable of query_proc
    offset: int        # insert position: just after the body's '{'
    text: str          # the inserted declaration

    def apply(self, source: str) -> str:
        return source[: self.offset] + self.text + source[self.offset:]

    def spec(self) -> str:
        return f"points-to {self.var}@{self.query_proc}"


def _code_mask(text: str) -> list[bool]:
    """True for characters that are code: not in a comment, a string or
    char literal, or a preprocessor line."""
    mask = [True] * len(text)
    i, n = 0, len(text)
    line_start = True
    while i < n:
        c = text[i]
        if line_start and c == "#":
            j = i
            while j < n and not (text[j] == "\n" and text[j - 1] != "\\"):
                j += 1
            mask[i:j] = [False] * (j - i)
            i = j
            continue
        if c == "\n":
            line_start = True
            i += 1
            continue
        if not c.isspace():
            line_start = False
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j += 1
        else:
            i += 1
            continue
        mask[i:j] = [False] * (j - i)
        i = j
    return mask


def procedure_bodies(text: str) -> list[tuple[str, int, int]]:
    """``(name, open, close)`` for every function definition: the indices
    of its body's ``{`` and matching ``}``.  A top-level ``{`` is a body
    when the code before it ends with ``NAME(...)``."""
    mask = _code_mask(text)
    code = [i for i in range(len(text)) if mask[i] and not text[i].isspace()]
    out = []
    depth = 0
    for k, i in enumerate(code):
        c = text[i]
        if c == "{":
            if depth == 0 and k > 0 and text[code[k - 1]] == ")":
                name = _name_before_parens(text, code, k - 1)
                if name:
                    out.append([name, i, None])
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0 and out and out[-1][2] is None:
                out[-1][2] = i
    return [tuple(b) for b in out if b[2] is not None]


def _name_before_parens(text: str, code: list[int], k: int) -> str:
    depth = 0
    while k >= 0:
        c = text[code[k]]
        if c == ")":
            depth += 1
        elif c == "(":
            depth -= 1
            if depth == 0:
                break
        k -= 1
    end = code[k - 1] + 1 if k > 0 else 0
    start = end
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] == "_"):
        start -= 1
    name = text[start:end]
    return name if _IDENT.match(name) else ""


def editable_bodies(text: str) -> dict[str, int]:
    """Procedure name -> insert offset, for bodies whose ``{`` ends its line."""
    out = {}
    for name, open_, _close in procedure_bodies(text):
        eol = text.find("\n", open_)
        if eol >= 0 and not text[open_ + 1: eol].strip():
            out[name] = open_ + 1
    return out


def _callers(call_graph: dict) -> dict[str, set]:
    rev: dict[str, set] = {}
    for caller, callees in call_graph.items():
        for callee in callees:
            rev.setdefault(callee, set()).add(caller)
    return rev


def dependents(call_graph: dict, proc: str) -> set:
    """``proc`` and its transitive callers: what an edit to ``proc`` stales."""
    rev = _callers(call_graph)
    seen = {proc}
    todo = [proc]
    while todo:
        for caller in rev.get(todo.pop(), ()):
            if caller not in seen:
                seen.add(caller)
                todo.append(caller)
    return seen


def plan_edits(source: str, store: dict, seed: int, count: int) -> list[Edit]:
    """``count`` seeded edits of ``source``, each paired with a points-to
    query on a procedure the edit makes stale.  The same seed gives the
    same edits."""
    procs = store["index"]["procedures"]
    bodies = editable_bodies(source)
    queryable = {
        proc: sorted(
            p for p in dependents(store["call_graph"], proc)
            if procs.get(p, {}).get("vars")
        )
        for proc in bodies if proc in procs
    }
    candidates = sorted(p for p, q in queryable.items() if q)
    rng = random.Random(f"edit:{seed}")
    edits = []
    for _ in range(count):
        proc = rng.choice(candidates)
        query_proc = rng.choice(queryable[proc])
        var = rng.choice(sorted(procs[query_proc]["vars"]))
        k = rng.randrange(10**6)
        while f"perfbench_dead_{k}" in source:
            k += 1
        text = f" int perfbench_dead_{k} = {k};"
        edits.append(Edit(proc, query_proc, var, bodies[proc], text))
    return edits
