"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It indexes, queries and serves the
programs in ``benchmarks/programs/`` with the checkout's own ``src``,
checks every answer, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a separate
traced run.  The exit code is 0 when every output was correct, 1 when one
was wrong, 2 when the checkout lacks the program.  Why each workload
exists, and which layer metric should move which end-to-end metric, is in
``perfbench/RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROGRAMS = os.path.join(ROOT, "benchmarks", "programs")
REFERENCE = os.path.join(HERE, "reference_digests.json")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACES = os.path.join(ROOT, ".perfbench_traces")

#: set-up is repeated this many times per run and its median reported;
#: cheap set-ups (a process start) repeat more, an index of interp fewer
SETUP_REPEATS = 5
INDEX_REPEATS = 3
#: every child process is killed after this long
CHILD_TIMEOUT = 120.0

END_TO_END = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
}

#: per-layer metric -> unit; a layer the workload does not go through
#: reports 0
PER_LAYER = {
    "cpp.s": "s",
    "cpp.lines_out": "count",
    "parse.s": "s",
    "parse.lines_per_s": "1/s",
    "lower.s": "s",
    "lower.ir_nodes": "count",
    "analyze.s": "s",
    "analyze.eval_passes": "count",
    "analyze.lookups": "count",
    "analyze.dom_walk_steps": "count",
    "analyze.lookup_hit_rate": "ratio",
    "analyze.ptfs_per_proc": "ratio",
    "store.build_s": "s",
    "store.write_s": "s",
    "store.bytes": "bytes",
    "store.load_s": "s",
    "cli.import_s": "s",
    "invalidate.stale_s": "s",
    "invalidate.stale_procs": "count",
    "engine.query_us": "us",
    "engine.cache_hit_rate": "ratio",
    "server.handle_p50_ms": "ms",
    "server.errors": "count",
    "server.sheds": "count",
    "transport.share": "ratio",
    "client.p99_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: span name -> per-layer time metric (seconds of self time per round)
SPAN_METRICS = {
    "cpp": "cpp.s",
    "parse": "parse.s",
    "lower": "lower.s",
    "analyze": "analyze.s",
    "store.build": "store.build_s",
    "store.write": "store.write_s",
    "store.load": "store.load_s",
    "invalidate": "invalidate.stale_s",
}


def reap(proc: subprocess.Popen) -> int:
    """Wait for ``proc`` (killing it after :data:`CHILD_TIMEOUT`), set its
    return code, and return its peak RSS in kB."""
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


class Run:
    """One benchmark invocation: its scratch directory, children and
    correctness tally."""

    def __init__(self, args) -> None:
        self.args = args
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.children: list[subprocess.Popen] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self.ops: list[float] = []
        self.rss_kb = 0
        #: operations per second when not derived from ``ops`` (serving)
        self.throughput = None
        self.layers: dict = {}

    # -- correctness -------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    # -- child processes ---------------------------------------------------

    def spawn(self, argv, **kw) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=kw.pop("cwd", self.work),
                                env=self.env, **kw)
        self.children.append(proc)
        return proc

    def child(self, argv, name: str) -> tuple:
        """Run ``argv`` to completion in the work directory.  Returns
        ``(wall seconds, exit code, peak RSS kB, stdout, stderr)``."""
        out_path = os.path.join(self.work, name + ".out")
        err_path = os.path.join(self.work, name + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = self.spawn(argv, stdout=out, stderr=err)
            rss_kb = reap(proc)
            wall = time.perf_counter() - t0
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return wall, proc.returncode, rss_kb, stdout, stderr

    def repro(self, *argv: str) -> list[str]:
        return [sys.executable, "-m", "repro", *argv]

    def stop_children(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=10)
            except (subprocess.TimeoutExpired, ChildProcessError):
                pass

    def dump_spans(self, recorder) -> str:
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(
            TRACES, f"{self.args.workload}-seed{self.seed}.spans.json"
        )
        recorder.dump(path)
        return path


# -- shared set-up --------------------------------------------------------


def index_interp(run: Run, repeats: int) -> None:
    """Copy ``interp.c`` into the work directory and ``repro index`` it;
    ``repeats`` > 1 re-indexes with ``--force`` and records each wall time
    as a set-up sample."""
    shutil.copy(os.path.join(PROGRAMS, "interp.c"), run.work)
    for k in range(repeats):
        argv = run.repro("index", "interp.c", "-o", "interp.store.json")
        if k:
            argv.append("--force")
        wall, rc, _, _, err = run.child(argv, f"index{k}")
        if rc != 0:
            raise RuntimeError(f"repro index failed ({rc}): {err.decode()[-500:]}")
        if repeats > 1:
            run.setup.append(wall)


def reference_answers(store: dict) -> tuple:
    """The request pool of ``store`` and each request's answer from an
    uncached engine, as canonical JSON."""
    import mix
    from repro.query import QueryEngine, parse_query_spec

    pool = mix.request_pool(store)
    engine = QueryEngine(store, cache_size=0)
    refs = []
    for req in pool:
        if parse_query_spec(mix.spec(req)) != req:
            raise RuntimeError(f"query spec does not round-trip: {req}")
        refs.append(mix.canonical(engine.query(dict(req))))
    return pool, refs


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def attach_self_times(rounds: list[dict], recorder) -> None:
    """Give each round the per-layer self times of its operation's spans."""
    from spans import self_times

    per_op = self_times(recorder.spans)
    for r in rounds:
        r["self_ns"] = per_op[r["rid"]]


def layer_rounds(rounds: list[dict]) -> dict:
    """Per-layer metrics from traced rounds: each round's self time per
    layer and its counts, then the median over rounds."""
    out = {}
    for span, metric in SPAN_METRICS.items():
        if any(span in r["self_ns"] for r in rounds):
            out[metric] = _median([r["self_ns"].get(span, 0) / 1e9 for r in rounds])
    keys = sorted({k for r in rounds for k in r.get("counts", {})})
    for key in keys:
        out[key] = _median([r["counts"].get(key, 0) for r in rounds])
    if "engine.query" in rounds[0]["self_ns"]:
        out["engine.query_us"] = _median(
            [r["self_ns"]["engine.query"] / 1e3 / r.get("queries", 1) for r in rounds]
        )
    if "parse" in rounds[0]["self_ns"]:
        out["parse.lines_per_s"] = _median(
            [r["counts"]["cpp.lines_out"] / (r["self_ns"]["parse"] / 1e9)
             for r in rounds]
        )
    return out


def overhead_ms(plain: list[float], traced: list[float]) -> float:
    return (_median(traced) - _median(plain)) * 1000


def breakdown(title: str, rounds: list[dict]) -> None:
    """Print the median self time per layer of ``rounds`` to stderr."""
    names = sorted({k for r in rounds for k in r["self_ns"]})
    rows = [(n, _median([r["self_ns"].get(n, 0) for r in rounds]) / 1e6)
            for n in names]
    total = sum(ms for _, ms in rows) or 1.0
    print(f"perfbench: {title}: self time per round, median of {len(rounds)}",
          file=sys.stderr)
    for name, ms in sorted(rows, key=lambda r: -r[1]):
        print(f"  {name:<14} {ms:10.2f} ms  {100 * ms / total:5.1f}%",
              file=sys.stderr)


# -- index-suite ----------------------------------------------------------


def program_verdict(prog: dict, reference: dict):
    """None when an indexed program is right: not degraded, and its
    snapshot digest equals the reference; else what is wrong."""
    name = prog["name"]
    if not prog["ok"]:
        return f"{name}: degraded analysis"
    if prog["digest"] != reference.get(name):
        return f"{name}: digest {prog['digest'][:12]} differs from the reference"
    return None


def index_suite(run: Run) -> None:
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    names = sorted(reference)
    random.Random(f"order:{run.seed}").shuffle(names)
    indir = os.path.join(run.work, "in")
    outdir = os.path.join(run.work, "out")
    os.makedirs(indir)
    os.makedirs(outdir)
    inputs = []
    for name in names:
        shutil.copy(os.path.join(PROGRAMS, name + ".c"), indir)
        inputs.append(os.path.join(indir, name + ".c"))
    inputs_json = os.path.join(run.work, "inputs.json")
    with open(inputs_json, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    spans_path = os.path.join(run.work, "spans.json")
    argv = [sys.executable, os.path.join(HERE, "index_worker.py"),
            "--src", SRC, "--inputs", inputs_json, "--out", outdir,
            "--seconds", str(run.seconds), "--trace", str(int(run.traced)),
            "--spans", spans_path]
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        worker = run.spawn(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                           text=True)
        if worker.stdout.readline().strip() != "ready":
            raise RuntimeError("index worker failed to start")
        run.setup.append(time.perf_counter() - t0)
        if k < SETUP_REPEATS - 1:
            worker.communicate("quit\n", timeout=CHILD_TIMEOUT)
    out, _ = worker.communicate("go\n", timeout=CHILD_TIMEOUT)
    if worker.returncode != 0:
        raise RuntimeError(f"index worker exited {worker.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    run.rss_kb = report["rss_kb"]
    plain, traced = [], []
    for record in report["passes"]:
        for prog in record["programs"]:
            verdict = program_verdict(prog, reference)
            run.check(verdict is None, verdict)
        if not record["traced"]:
            run.ops.append(record["seconds"])
        (traced if record["traced"] else plain).append(record)
    if run.traced:
        rounds = []
        for record in traced:
            counts: dict = {}
            for prog in record["programs"]:
                for key, value in prog["counts"].items():
                    counts[key] = counts.get(key, 0) + value
            n = len(record["programs"])
            for key in ("analyze.lookup_hit_rate", "analyze.ptfs_per_proc"):
                counts[key] /= n
            rounds.append({"self_ns": record["self_ns"], "counts": counts})
        run.layers = layer_rounds(rounds)
        run.layers["trace.overhead_ms"] = overhead_ms(
            [r["seconds"] for r in plain], [r["seconds"] for r in traced])
        breakdown("index-suite pass", rounds)
        os.makedirs(TRACES, exist_ok=True)
        shutil.copy(spans_path, os.path.join(
            TRACES, f"index-suite-seed{run.seed}.spans.json"))


# -- query-interp and edit-interp --------------------------------------------


def one_shot(run: Run, spec: str, name: str) -> tuple:
    """One ``repro query --json`` process: (wall, answer or None, rss kB)."""
    wall, rc, rss, out, err = run.child(
        run.repro("query", "--json", "interp.store.json", spec), name)
    answer = None
    if rc == 0:
        answers = json.loads(out)
        if len(answers) == 1:
            answer = answers[0]
    else:
        print(f"perfbench: {spec!r} exited {rc}: {err.decode()[-300:]}",
              file=sys.stderr)
    return wall, answer, rss


def _unannotated(answer) -> bool:
    return answer is not None and "mode" not in answer and "stale" not in answer


def query_interp(run: Run) -> None:
    import mix
    from repro.query import load_store

    index_interp(run, INDEX_REPEATS)
    store = load_store(os.path.join(run.work, "interp.store.json"))
    pool, refs = reference_answers(store)
    stream = mix.Stream(pool, run.seed)
    if run.traced:
        return _trace_queries(run, pool, refs, stream)
    deadline = time.perf_counter() + run.seconds
    while not run.attempted or time.perf_counter() < deadline:
        i = stream.next()
        wall, answer, rss = one_shot(run, mix.spec(pool[i]), "query")
        run.rss_kb = max(run.rss_kb, rss)
        if run.check(_unannotated(answer) and mix.canonical(answer) == refs[i],
                     f"query {mix.spec(pool[i])!r}: wrong or annotated answer"):
            run.ops.append(wall)


def _trace_queries(run: Run, pool, refs, stream) -> None:
    import layers
    import mix
    from spans import NullRecorder, SpanRecorder

    recorder = SpanRecorder()
    plain, traced, rounds = [], [], []
    store_path = os.path.join(run.work, "interp.store.json")
    deadline = time.perf_counter() + run.seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        i = stream.next()
        for rec in (NullRecorder(), recorder):
            rec.rid = f"query{len(traced)}"
            t0 = time.perf_counter()
            with rec.span("query"):
                answer, counts = layers.replay_query(
                    store_path, pool[i], run.env, run.work, rec)
            wall = time.perf_counter() - t0
            run.check(mix.canonical(answer) == refs[i],
                      f"replayed query {mix.spec(pool[i])!r}: wrong answer")
            if rec is recorder:
                traced.append(wall)
                rounds.append({"rid": rec.rid, "counts": counts})
            else:
                plain.append(wall)
    attach_self_times(rounds, recorder)
    run.layers = layer_rounds(rounds)
    run.layers["trace.overhead_ms"] = overhead_ms(plain, traced)
    breakdown("up-to-date query", rounds)
    run.dump_spans(recorder)


def edit_interp(run: Run) -> None:
    import edits
    import mix
    from repro.query import load_store

    index_interp(run, INDEX_REPEATS)
    store = load_store(os.path.join(run.work, "interp.store.json"))
    source_path = os.path.join(run.work, "interp.c")
    with open(source_path, encoding="utf-8") as fh:
        original = fh.read()
    pool, refs = reference_answers(store)
    ref_of = {mix.spec(req): ref for req, ref in zip(pool, refs)}
    plan = edits.plan_edits(original, store, run.seed, 500)
    if run.traced:
        return _trace_edits(run, plan, original, ref_of)
    deadline = time.perf_counter() + run.seconds
    for edit in plan:
        if run.attempted and time.perf_counter() >= deadline:
            break
        ref = ref_of[edit.spec()]
        _write(source_path, edit.apply(original))
        wall, answer, rss = one_shot(run, edit.spec(), "edited")
        run.rss_kb = max(run.rss_kb, rss)
        demand = answer is not None and answer.get("mode") == "demand"
        if demand:
            answer = {k: v for k, v in answer.items() if k != "mode"}
        if run.check(demand and mix.canonical(answer) == ref,
                     f"edit of {edit.proc}, {edit.spec()!r}: answer not "
                     "recomputed in demand mode, or not equal to the store's"):
            run.ops.append(wall)
        _write(source_path, original)
        _, answer, rss = one_shot(run, edit.spec(), "current")
        run.rss_kb = max(run.rss_kb, rss)
        run.check(_unannotated(answer) and mix.canonical(answer) == ref,
                  f"{edit.spec()!r} after undo: wrong or annotated answer")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _trace_edits(run: Run, plan, original: str, ref_of: dict) -> None:
    import layers
    import mix
    from spans import NullRecorder, SpanRecorder

    recorder = SpanRecorder()
    plain, traced, edited_rounds, current_rounds = [], [], [], []
    store_path = os.path.join(run.work, "interp.store.json")
    source_path = os.path.join(run.work, "interp.c")
    deadline = time.perf_counter() + run.seconds
    for n, edit in enumerate(plan):
        if len(traced) >= 2 and time.perf_counter() >= deadline:
            break
        ref = ref_of[edit.spec()]
        request = {"op": "points_to", "var": edit.var, "proc": edit.query_proc}
        for rec in (NullRecorder(), recorder):
            _write(source_path, edit.apply(original))
            rec.rid = f"edited{n}"
            t0 = time.perf_counter()
            with rec.span("query"):
                result, report, counts = layers.replay_edited_query(
                    store_path, "interp.c", run.env, run.work, rec)
            wall = time.perf_counter() - t0
            answer = layers.answer_of(result, "interp.c", request)
            run.check(
                mix.canonical(answer) == ref and report.changed == [edit.proc]
                and edit.query_proc in report.stale,
                f"replayed edit of {edit.proc}: wrong answer or stale set")
            _write(source_path, original)
            if rec is recorder:
                traced.append(wall)
                edited_rounds.append({"rid": rec.rid, "counts": counts})
            else:
                plain.append(wall)
        recorder.rid = f"current{n}"
        with recorder.span("query"):
            answer, counts = layers.replay_query(
                store_path, request, run.env, run.work, recorder)
        run.check(mix.canonical(answer) == ref,
                  f"replayed {edit.spec()!r} after undo: wrong answer")
        current_rounds.append({"rid": recorder.rid, "counts": counts})
    attach_self_times(edited_rounds + current_rounds, recorder)
    run.layers = layer_rounds(edited_rounds)
    run.layers["trace.overhead_ms"] = overhead_ms(plain, traced)
    breakdown("post-edit query", edited_rounds)
    breakdown("up-to-date query after undo", current_rounds)
    run.dump_spans(recorder)


# -- serve-interp -------------------------------------------------------------

_ANNOUNCE = re.compile(r"serving .* on (\S+):(\d+)")


def _request(addr, payload: dict) -> dict:
    with socket.create_connection(addr, timeout=30) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        with sock.makefile("rb") as fh:
            return json.loads(fh.readline())


def start_daemon(run: Run, k: int) -> tuple:
    """Start ``repro serve`` on an ephemeral port; return (process,
    address) once it has answered ``health``."""
    err_path = os.path.join(run.work, f"daemon{k}.err")
    with open(err_path, "wb") as err:
        proc = run.spawn(run.repro("serve", "interp.store.json",
                                   "--tcp", "127.0.0.1:0"),
                         stdout=subprocess.DEVNULL, stderr=err)
    give_up = time.perf_counter() + CHILD_TIMEOUT
    while True:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            found = _ANNOUNCE.search(fh.read())
        if found:
            break
        if proc.poll() is not None or time.perf_counter() > give_up:
            raise RuntimeError(f"repro serve did not start (exit {proc.poll()})")
        time.sleep(0.002)
    addr = (found.group(1), int(found.group(2)))
    health = _request(addr, {"op": "health", "id": 0})
    if not health.get("ok") or not health["result"].get("healthy"):
        raise RuntimeError(f"daemon unhealthy: {health}")
    return proc, addr


def stop_daemon(proc: subprocess.Popen, addr) -> int:
    """Shut the daemon down in-band; return its peak RSS in kB."""
    _request(addr, {"op": "shutdown", "id": 0})
    return reap(proc)


class Connection(threading.Thread):
    """One closed-loop client connection: send a request, wait for its
    answer, send the next, until the deadline."""

    def __init__(self, addr, lines, stream, seconds, barrier) -> None:
        super().__init__(daemon=True)
        self.addr, self.lines, self.stream = addr, lines, stream
        self.seconds, self.barrier = seconds, barrier
        #: (write ns, read ns) per request
        self.times: list[tuple] = []
        #: (pool index, raw answer line) -> how often it was received
        self.answers: dict = {}
        self.finished = 0.0
        self.error = None

    def run(self) -> None:
        try:
            with socket.create_connection(self.addr, timeout=30) as sock:
                fh = sock.makefile("rb")
                self.barrier.wait()
                deadline = time.perf_counter() + self.seconds
                clock, lines, answers = time.perf_counter_ns, self.lines, self.answers
                times = self.times
                while time.perf_counter() < deadline:
                    i = self.stream.next()
                    t0 = clock()
                    sock.sendall(lines[i])
                    raw = fh.readline()
                    t1 = clock()
                    if not raw:
                        raise ConnectionError("daemon closed the connection")
                    times.append((t0, t1))
                    key = (i, raw)
                    answers[key] = answers.get(key, 0) + 1
                self.finished = time.perf_counter()
        except (OSError, ConnectionError) as exc:
            self.error = exc


def _percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def serve_interp(run: Run) -> None:
    import mix
    from repro.query import load_store

    index_interp(run, 1)
    store = load_store(os.path.join(run.work, "interp.store.json"))
    pool, refs = reference_answers(store)
    lines = [json.dumps(dict(req, id=i)).encode() + b"\n"
             for i, req in enumerate(pool)]
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        daemon, addr = start_daemon(run, k)
        run.setup.append(time.perf_counter() - t0)
        if k < SETUP_REPEATS - 1:
            stop_daemon(daemon, addr)
    barrier = threading.Barrier(3)
    conns = [Connection(addr, lines, mix.Stream(pool, f"{run.seed}:{c}"),
                        run.seconds, barrier) for c in range(2)]
    for conn in conns:
        conn.start()
    barrier.wait()
    start = time.perf_counter()
    for conn in conns:
        conn.join(CHILD_TIMEOUT)
        if conn.is_alive() or conn.error is not None:
            raise RuntimeError(f"load connection failed: {conn.error}")
    elapsed = max(conn.finished for conn in conns) - start
    stats = _request(addr, {"op": "stats", "id": 0})["result"]
    run.rss_kb = stop_daemon(daemon, addr)

    for conn in conns:
        for (i, raw), count in conn.answers.items():
            env = json.loads(raw)
            good = (env.get("id") == i and env.get("ok") is True
                    and env.get("status") == 0 and _unannotated(env)
                    and mix.canonical(env.get("result")) == refs[i])
            run.attempted += count
            if not good:
                run.failures += [f"request {mix.spec(pool[i])!r}: {raw[:200]!r}"] * count
    latency = sorted(t1 - t0 for conn in conns for t0, t1 in conn.times)
    run.ops = [ns / 1e9 for ns in latency]
    run.throughput = len(latency) / elapsed
    print(f"perfbench: serve-interp: {len(latency)} requests over 2 "
          f"connections in {elapsed:.2f} s", file=sys.stderr)
    if run.traced:
        _trace_serve(run, stats, latency, conns, pool, refs)


def _trace_serve(run: Run, stats, latency, conns, pool, refs) -> None:
    import layers
    import mix
    from repro.query import QueryEngine, load_store
    from spans import NullRecorder, SpanRecorder

    recorder = SpanRecorder()
    for c, conn in enumerate(conns):
        for n, (t0, t1) in enumerate(conn.times):
            recorder.add("transport", t0, t1, f"c{c}.{n}")
    telemetry = stats["server"]["telemetry"]
    server_p50 = telemetry["histograms"]["latency"]["p50"]
    client_p50 = _median(latency) / 1e6
    run.layers = {
        "server.handle_p50_ms": server_p50,
        "server.errors": telemetry["counters"].get("errors", 0),
        "server.sheds": stats["server"]["sheds"],
        "transport.share": 1 - server_p50 / client_p50,
        "client.p99_ms": _percentile(latency, 0.99) / 1e6,
    }
    store_path = os.path.join(run.work, "interp.store.json")
    run.layers["cli.import_s"] = _median(
        [layers.import_probe(run.env, run.work, recorder) for _ in range(3)])
    streams = [mix.Stream(pool, f"{run.seed}:{c}") for c in range(2)]
    engines = {}
    plain, traced, rounds = [], [], []
    deadline = time.perf_counter() + run.seconds / 2
    chunk = 2000
    while len(traced) < 2 or time.perf_counter() < deadline:
        batch = [streams[n % 2].next() for n in range(chunk)]
        for rec in (NullRecorder(), recorder):
            kind = type(rec).__name__
            rec.rid = f"replay{len(traced)}"
            with rec.span("store.load"):
                store = load_store(store_path)
            engine = engines.setdefault(kind, QueryEngine(store))
            hits = 0
            answers = []
            t0 = time.perf_counter()
            with rec.span("replay"):
                for i in batch:
                    info: dict = {}
                    with rec.span("engine.query"):
                        answers.append(engine.query(dict(pool[i]), info=info))
                    hits += info.get("cache") == "hit"
            wall = time.perf_counter() - t0
            run.check(all(mix.canonical(a) == refs[i] for a, i in zip(answers, batch)),
                      "replayed request stream: wrong answer")
            if rec is recorder:
                traced.append(wall)
                rounds.append({
                    "rid": rec.rid,
                    "counts": {"engine.cache_hit_rate": hits / chunk},
                    "queries": chunk,
                })
            else:
                plain.append(wall)
    attach_self_times(rounds, recorder)
    run.layers.update(layer_rounds(rounds))
    run.layers["trace.overhead_ms"] = overhead_ms(plain, traced)
    breakdown(f"engine replay of {chunk} requests", rounds)
    run.dump_spans(recorder)


# -- entry point ----------------------------------------------------------

WORKLOADS = {
    "index-suite": index_suite,
    "query-interp": query_interp,
    "edit-interp": edit_interp,
    "serve-interp": serve_interp,
}


def result(run: Run) -> dict:
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    if run.traced:
        metrics = {name: float(run.layers.get(name, 0)) for name in PER_LAYER}
        units = PER_LAYER
    else:
        ops = run.ops
        throughput = run.throughput
        if throughput is None:
            throughput = len(ops) / sum(ops) if ops else 0.0
        metrics = {
            "setup_s": _median(run.setup),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": run.rss_kb / 1024,
            "op_p50_ms": _median(ops) * 1000,
            "ops_per_s": throughput,
        }
        units = END_TO_END
    return {
        "correct": failed == 0 and run.attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "repro", "__init__.py"), PROGRAMS)
               if not os.path.exists(p)]
    if missing:
        print(f"perfbench: not a checkout of the program: missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = Run(args)
    os.makedirs(run.work)
    cwd = os.getcwd()
    os.chdir(run.work)
    try:
        WORKLOADS[args.workload](run)
    finally:
        run.stop_children()
        os.chdir(cwd)
        shutil.rmtree(run.work, ignore_errors=True)
    out = result(run)
    if run.ops:
        print(f"perfbench: {len(run.ops)} operations: min "
              f"{min(run.ops) * 1000:.3f} ms, median {_median(run.ops) * 1000:.3f} ms, "
              f"max {max(run.ops) * 1000:.3f} ms", file=sys.stderr)
    for what in run.failures[:10]:
        print(f"perfbench: FAILED: {what}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
