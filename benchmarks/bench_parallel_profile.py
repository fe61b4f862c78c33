"""Parallel-observatory overhead check for the batch driver.

The ``--profile-parallel`` instrumentation (ISSUE 9) must follow the
same pay-for-what-you-use discipline as the tracer and the serve
telemetry, held to the same bar:

* **disabled-path check (gated, ≤2%)** — with profiling off, the
  instrumented ``run_batch`` must cost nothing measurable: two
  *independent* median-of-N measurements of the off configuration must
  agree within 2%.  Every observatory hook sits behind one
  ``if task.profile`` / ``if tracer is not None`` /
  ``if telemetry is not None`` guard, so the off path adds only those
  identity compares;
* **enabled overhead (reported)** — a profiled pass (worker tracer,
  per-phase histograms, pickle accounting) is measured against the off
  arm and reported for information.  The enabled cost is dominated by
  shipping the worker's event list, which is exactly the data the
  observatory exists to collect.

Measurement runs at **jobs=1** — the in-process path, single-threaded
and deterministic.  Pool passes at jobs>1 pay fork/IPC costs that
jitter by far more than a 2% budget between *identical* configurations,
which would drown the gate; jobs=1 runs the very same ``_worker_run``
body (the instrumented code this check gates) with zero pool noise.
(The jobs>1 path gets its own CI coverage via the parallel-profile
job's merged-trace and worker-telemetry assertions.)  The protocol is the
``bench_serve_telemetry`` one: the two disabled-path buckets are
alternating passes whose order flips every round (position effects
cancel), each bucket is scored by its **median** pass (a lucky
turbo-window pass poisons a min forever), and the check adaptively adds
interleaved rounds until the buckets agree, up to a hard cap — a real
disabled-path cost shifts a bucket's center, not its jitter.  A
consistency check rides along: every profiled pass must produce digests
bit-identical to the unprofiled ones (the acceptance invariant).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_profile.py           # report
    PYTHONPATH=src python benchmarks/bench_parallel_profile.py --check   # gate <=2%
    PYTHONPATH=src python benchmarks/bench_parallel_profile.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

# allow running straight from a checkout without installing
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.analysis.parallel import AnalysisTask, run_batch  # noqa: E402
from repro.bench.programs import load_source  # noqa: E402

#: the trace-overhead bar: the disabled path must be free to this bound
DISABLED_BUDGET = 0.02  # 2%


def make_tasks(names: list[str]) -> list[AnalysisTask]:
    return [
        AnalysisTask(name=n, source=load_source(n), filename=f"{n}.c")
        for n in names
    ]


def measure(tasks: list[AnalysisTask], profile: bool) -> tuple[float, list]:
    """One jobs=1 batch pass; returns (elapsed seconds, digests)."""
    t0 = time.perf_counter()
    batch = run_batch(tasks, jobs=1, profile=profile)
    seconds = time.perf_counter() - t0
    if batch.errors:
        raise RuntimeError(f"bad pass: {batch.errors}")
    return seconds, [r["digest"] for r in batch.results]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--programs", default="allroots,diff",
                    help="comma-separated benchmark names per pass — "
                         "passes are kept SHORT so adjacent alternating "
                         "passes see the same machine speed")
    ap.add_argument("--rounds", type=int, default=5,
                    help="interleaved rounds per adaptive batch")
    ap.add_argument("--max-rounds", type=int, default=120,
                    help="adaptive cap: stop adding rounds here even if "
                         "the off buckets still disagree")
    ap.add_argument("--quick", action="store_true",
                    help="reduced load for CI smoke")
    ap.add_argument("--check", action="store_true",
                    help=f"exit 1 when the two disabled-path timings "
                         f"disagree by more than {DISABLED_BUDGET:.0%}")
    args = ap.parse_args(argv)
    if args.quick:
        args.max_rounds = 60
    rounds = max(args.rounds, 5)
    cap = max(args.max_rounds, rounds)

    names = [n.strip() for n in args.programs.split(",") if n.strip()]
    tasks = make_tasks(names)
    print(f"parallel-profile overhead: {', '.join(names)} per pass, "
          f"jobs=1, adaptive median-of (batches of {rounds}, cap {cap})")

    # warm both arms once (imports, parser tables, intern caches) and
    # pin the acceptance invariant: profiled digests == unprofiled ones
    _, baseline_digests = measure(tasks, profile=False)
    _, profiled_digests = measure(tasks, profile=True)
    if profiled_digests != baseline_digests:
        raise RuntimeError("profiling perturbed the digests: "
                           f"{profiled_digests} != {baseline_digests}")

    bucket_a: list[float] = []
    bucket_b: list[float] = []
    bucket_on: list[float] = []
    taken = 0
    gc.collect()
    gc.disable()  # cyclic-GC pauses land on whichever pass is unlucky
    try:
        while True:
            for _ in range(rounds):
                # flip which bucket samples the post-profiled slot each
                # round (position effects cancel)
                first, second = (
                    (bucket_a, bucket_b) if taken % 2 == 0
                    else (bucket_b, bucket_a)
                )
                taken += 1
                seconds, _ = measure(tasks, profile=False)
                first.append(seconds)
                seconds, digests = measure(tasks, profile=True)
                bucket_on.append(seconds)
                if digests != baseline_digests:
                    raise RuntimeError("profiled digests drifted mid-run")
                seconds, _ = measure(tasks, profile=False)
                second.append(seconds)
            off_a = statistics.median(bucket_a)
            off_b = statistics.median(bucket_b)
            on = statistics.median(bucket_on)
            gap = abs(off_a - off_b) / min(off_a, off_b)
            done = gap <= DISABLED_BUDGET or taken >= cap
            if done or taken % 25 == 0:
                print(f"  after {taken:3d} round(s): off medians "
                      f"{off_a * 1e3:7.2f} / {off_b * 1e3:7.2f} ms/pass "
                      f"(gap {gap:.2%}), on median {on * 1e3:7.2f} ms/pass")
            if done:
                break
    finally:
        gc.enable()

    disabled_gap = abs(off_a - off_b) / min(off_a, off_b)
    base = min(off_a, off_b)
    enabled_overhead = (on - base) / base
    print(f"off median (bucket A)   : {off_a * 1e3:8.2f} ms/pass")
    print(f"off median (bucket B)   : {off_b * 1e3:8.2f} ms/pass")
    print(f"profiled median         : {on * 1e3:8.2f} ms/pass")
    print(f"disabled-path gap       : {disabled_gap:.2%} "
          f"(budget {DISABLED_BUDGET:.0%} — the trace-overhead bar)")
    print(f"enabled overhead        : {enabled_overhead:+.2%} "
          f"(informational — the worker tracer and phase histograms "
          f"are the product)")
    if args.check and disabled_gap > DISABLED_BUDGET:
        print("FAIL: disabled profiling is not free (off-path timings "
              "disagree beyond budget)", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
