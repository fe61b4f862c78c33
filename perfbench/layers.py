"""The calls the benchmark makes into the program's layers.

Every function takes a span recorder (``spans.SpanRecorder`` when traced,
``spans.NullRecorder`` when not) and wraps each layer call in a span named
after the layer.  Only public functions of ``repro`` are called.  The
importer must have put the checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from contextlib import contextmanager

import pycparser

from repro.analysis.engine import AnalyzerOptions
from repro.analysis.results import run_analysis
from repro.frontend.cpp import Preprocessor
from repro.frontend.lower import Lowerer
from repro.frontend.parser import load_project_files
from repro.query import QueryEngine, build_store, compute_stale, load_store, write_store

#: ``repro index``'s analysis options when no flag is given
OPTIONS = AnalyzerOptions()

#: (class, method, span name) of the frontend layers' public entry points
_FRONTEND = (
    (Preprocessor, "preprocess", "cpp"),
    (pycparser.CParser, "parse", "parse"),
    (Lowerer, "lower", "lower"),
)

_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import repro.cli\n"
    "sys.stdout.write(repr(time.perf_counter() - t))\n"
)


@contextmanager
def frontend_spans(rec, counts: dict):
    """While active, and only when ``rec`` records, every call of the three
    frontend layers -- ``Preprocessor.preprocess``, pycparser's
    ``CParser.parse`` and ``Lowerer.lower`` -- is a span of ``rec``, and the
    preprocessed lines are added to ``counts["cpp.lines_out"]``.  The
    program's own ``load_project_files`` makes the calls; the wrappers are
    removed on exit, so untraced rounds run the program unmodified."""
    if not rec.enabled:
        yield
        return

    def spanned(fn, name):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with rec.span(name):
                out = fn(*args, **kwargs)
            if name == "cpp":
                counts["cpp.lines_out"] = counts.get("cpp.lines_out", 0) + out.count("\n")
            return out
        return call

    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in _FRONTEND]
    for cls, attr, name in _FRONTEND:
        setattr(cls, attr, spanned(cls.__dict__[attr], name))
    try:
        yield
    finally:
        for cls, attr, fn in originals:
            setattr(cls, attr, fn)


def analysis_counts(result) -> dict:
    """Fixpoint counters read from the finished ``AnalysisResult``."""
    m = result.analyzer.metrics
    probes = m.cache_hits + m.cache_misses
    return {
        "analyze.eval_passes": m.eval_passes,
        "analyze.lookups": m.lookups,
        "analyze.dom_walk_steps": m.dom_walk_steps,
        "analyze.lookup_hit_rate": m.cache_hits / probes if probes else 0.0,
        "analyze.ptfs_per_proc": result.stats().avg_ptfs,
    }


def index_program(path: str, out: str, rec) -> dict:
    """One ``repro index`` of one file: source -> sealed store on disk."""
    counts = {}
    with rec.span("index"):
        with frontend_spans(rec, counts):
            program = load_project_files([path], tolerant=True)
        with rec.span("analyze"):
            result = run_analysis(program, OPTIONS)
        with rec.span("store.build"):
            store = build_store(result, options=OPTIONS, sources=[path])
        with rec.span("store.write"):
            write_store(store, out)
    snapshot = store["snapshot"]
    counts.update(analysis_counts(result))
    counts["lower.ir_nodes"] = program.stats()["nodes"]
    counts["store.bytes"] = os.path.getsize(out)
    return {
        "digest": snapshot["digest"]["program"],
        "ok": bool(snapshot["degradation"]["ok"]),
        "counts": counts,
    }


def import_probe(env: dict, cwd: str, rec) -> float:
    """Seconds a fresh interpreter spends in ``import repro.cli``."""
    with rec.span("cli.import"):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
            check=True,
        )
    return float(out.stdout)


def replay_query(store_path: str, request: dict, env: dict, cwd: str, rec) -> tuple:
    """An up-to-date one-shot query, step by step: interpreter start and
    import, store load, one engine query."""
    counts = {"cli.import_s": import_probe(env, cwd, rec)}
    with rec.span("store.load"):
        store = load_store(store_path)
    engine = QueryEngine(store)
    with rec.span("engine.query"):
        answer = engine.query(dict(request))
    return answer, counts


def replay_edited_query(store_path: str, source: str, env: dict, cwd: str, rec) -> tuple:
    """A post-edit one-shot query, step by step as the CLI's demand tier
    takes them: import, store load, ``load_project_files`` on the edited
    source, the staleness check and the whole-program fixpoint.  Returns
    ``(result, stale report, counts)``; :func:`answer_of` gives the answer."""
    counts = {"cli.import_s": import_probe(env, cwd, rec)}
    with rec.span("store.load"):
        store = load_store(store_path)
    with rec.span("invalidate"), frontend_spans(rec, counts):
        program = load_project_files([source], name=store.get("program", "<project>"))
        report = compute_stale(store, program)
    with rec.span("analyze"):
        result = run_analysis(program, OPTIONS)
    counts.update(analysis_counts(result))
    counts["lower.ir_nodes"] = program.stats()["nodes"]
    counts["invalidate.stale_procs"] = len(report.stale)
    return result, report, counts


def answer_of(result, source: str, request: dict) -> dict:
    """The answer to ``request`` from a store built over ``result``: checks
    a replayed post-edit query, outside its timing and spans."""
    fresh = build_store(result, options=OPTIONS, sources=[source])
    return QueryEngine(fresh).query(dict(request))
