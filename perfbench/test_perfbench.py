"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import edits  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import NullRecorder, SpanRecorder, self_times  # noqa: E402

from repro.frontend.parser import load_project_files  # noqa: E402
from repro.query import compute_stale, load_store  # noqa: E402

INTERP = os.path.join(ROOT, "benchmarks", "programs", "interp.c")


@pytest.fixture(scope="module")
def interp(tmp_path_factory):
    """(source text, store, source path) of an indexed copy of interp."""
    tmp = tmp_path_factory.mktemp("interp")
    source_path = str(tmp / "interp.c")
    with open(INTERP, encoding="utf-8") as fh:
        source = fh.read()
    with open(source_path, "w", encoding="utf-8") as fh:
        fh.write(source)
    store_path = str(tmp / "interp.store.json")
    layers.index_program(source_path, store_path, NullRecorder())
    return source, load_store(store_path), source_path


# -- the seeded edit generator ---------------------------------------------


def test_edit_plan_is_deterministic_per_seed(interp):
    source, store, _ = interp
    first = edits.plan_edits(source, store, seed=7, count=30)
    again = edits.plan_edits(source, store, seed=7, count=30)
    other = edits.plan_edits(source, store, seed=8, count=30)
    assert first == again
    assert first != other


def test_every_edit_stays_inside_one_procedure_body(interp, tmp_path):
    source, store, _ = interp
    bodies = {name: (o, c) for name, o, c in edits.procedure_bodies(source)}
    path = str(tmp_path / "interp.c")
    for seed in range(3):
        for edit in edits.plan_edits(source, store, seed=seed, count=4):
            open_, close = bodies[edit.proc]
            assert open_ < edit.offset <= close
            edited = edit.apply(source)
            # one line changes and none moves, so no heap name shifts
            old_lines, new_lines = source.splitlines(), edited.splitlines()
            assert len(new_lines) == len(old_lines)
            assert sum(a != b for a, b in zip(old_lines, new_lines)) == 1
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(edited)
            program = load_project_files([path], tolerant=True)
            local = edit.text.split()[1]
            owners = [p for p, proc in program.procedures.items()
                      if local in proc.locals]
            assert owners == [edit.proc]
            report = compute_stale(store, program)
            assert report.changed == [edit.proc]
            assert edit.query_proc in report.stale


def test_procedure_bodies_skip_comments_strings_and_initializers():
    text = (
        "/* int fake(void) { } */\n"
        "struct s { int a; };\n"
        "int table[2] = { 1, 2 };\n"
        'char *msg = "f(x) {";\n'
        "int f(int (*g)(int))\n{\n    return g('}');\n}\n"
    )
    bodies = edits.procedure_bodies(text)
    assert [b[0] for b in bodies] == ["f"]
    assert text[bodies[0][1]] == "{" and text[bodies[0][2]] == "}"
    assert edits.editable_bodies(text) == {"f": bodies[0][1] + 1}


# -- self time ---------------------------------------------------------------


def _span(name, start, end, parent, rid="op"):
    return [name, start, end, parent, rid]


def test_self_time_subtracts_children():
    spans = [
        _span("root", 0, 100, None),
        _span("a", 10, 40, 0),
        _span("b", 50, 70, 0),
        _span("a", 15, 25, 1),
    ]
    assert self_times(spans) == {"op": {"root": 50, "a": 30, "b": 20}}


def test_self_time_is_overlap_safe():
    spans = [
        _span("root", 0, 100, None),
        _span("x", 10, 40, 0),
        _span("y", 30, 60, 0),      # overlaps x: the union is counted once
        _span("z", 90, 120, 0),     # runs past its parent: clipped
    ]
    assert self_times(spans)["op"]["root"] == 100 - 50 - 10


def test_self_time_groups_by_operation():
    rec = SpanRecorder()
    for rid in ("one", "two"):
        rec.rid = rid
        with rec.span("outer"):
            with rec.span("inner"):
                pass
    per_op = self_times(rec.spans)
    assert sorted(per_op) == ["one", "two"]
    assert all(set(v) == {"outer", "inner"} for v in per_op.values())
    assert all(ns >= 0 for v in per_op.values() for ns in v.values())


# -- the digest check -----------------------------------------------------


def test_digest_check_accepts_reference_and_rejects_tampering(tmp_path):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    prog = layers.index_program(
        os.path.join(run.PROGRAMS, "allroots.c"),
        str(tmp_path / "allroots.store.json"), NullRecorder(),
    )
    prog["name"] = "allroots"
    assert run.program_verdict(prog, reference) is None

    tampered = dict(reference, allroots="0" * 64)
    assert "digest" in run.program_verdict(prog, tampered)
    assert run.program_verdict(dict(prog, ok=False), reference)


def test_frontend_spans_time_the_programs_own_calls_and_come_off(tmp_path):
    path = os.path.join(run.PROGRAMS, "grep.c")
    plain = layers.index_program(path, str(tmp_path / "a.json"), NullRecorder())
    rec = SpanRecorder()
    traced = layers.index_program(path, str(tmp_path / "b.json"), rec)
    assert traced["digest"] == plain["digest"]
    names = [s[0] for s in rec.spans]
    assert all(names.count(n) == 1 for n in ("cpp", "parse", "lower"))
    assert traced["counts"]["cpp.lines_out"] > 0
    for cls, attr, _ in layers._FRONTEND:
        assert not hasattr(getattr(cls, attr), "__wrapped__")
