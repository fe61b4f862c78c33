"""The parallel observatory (ISSUE 9): cross-process trace merge,
worker telemetry transport, and digest invariance under profiling.

The acceptance properties:

* profiling is pure instrumentation — digests stay bit-identical with
  ``profile=True`` at jobs ∈ {1, 4};
* the merged trace is deterministic (lane assignment is a function of
  payload content, not arrival order), globally monotone after clock
  calibration, and span-balanced per worker lane;
* worker telemetry is folded into the parent registry with the exact
  bucket merge (task counts, phase histograms, pool gauges).
"""

import json
import random

import pytest

from repro.analysis.parallel import AnalysisTask, run_batch
from repro.bench.programs import load_source
from repro.diagnostics.trace import (
    EVENT_VOCABULARY,
    Tracer,
    merge_worker_events,
)

NAMES = ["assembler", "loader", "simulator"]


def _tasks():
    return [
        AnalysisTask(
            name=n, source=load_source(n), filename=f"{n}.c"
        )
        for n in NAMES
    ]


@pytest.fixture(scope="module")
def profiled_batch():
    """One profiled jobs=2 batch with a parent tracer, computed once."""
    tracer = Tracer()
    batch = run_batch(_tasks(), jobs=2, tracer=tracer, profile=True)
    return tracer, batch


@pytest.mark.parametrize("jobs", [1, 4])
def test_digests_bit_identical_with_profiling(jobs):
    """ISSUE 9 acceptance: the observatory never perturbs the analysis —
    per-program digests with profiling on equal the unprofiled ones."""
    plain = run_batch(_tasks(), jobs=jobs)
    profiled = run_batch(_tasks(), jobs=jobs, profile=True)
    assert [b["digest"] for b in plain.results] == [
        b["digest"] for b in profiled.results
    ]


def test_profile_block_shape(profiled_batch):
    _tracer, batch = profiled_batch
    assert not batch.errors
    for i, bundle in enumerate(batch.results):
        prof = bundle["profile"]
        assert prof["index"] == i
        assert prof["calibration"]["pid"] == bundle["pid"]
        assert prof["calibration"]["wall_anchor_ns"] > 0
        assert prof["queue_wait_ms"] is not None
        assert prof["payload_bytes"] > 0
        # the worker's own event stream is complete and self-contained
        names = [e["name"] for e in prof["events"]]
        assert "clock.calibrate" in names
        assert "worker.start" in names
        assert names.count("worker.task") == 2  # one B + one E


def test_lane_assignment_is_deterministic(profiled_batch):
    """Merging the same payloads in any order yields the same lanes and
    the same event stream — the merge is a pure function of content."""
    _tracer, batch = profiled_batch
    payloads = [b["profile"] for b in batch.results]
    reference = Tracer()
    lanes_ref = merge_worker_events(reference, payloads)
    assert lanes_ref == batch.lanes
    assert sorted(lanes_ref.values()) == list(
        range(2, 2 + len(lanes_ref))
    )
    rng = random.Random(9)
    for _ in range(3):
        shuffled = list(payloads)
        rng.shuffle(shuffled)
        other = Tracer()
        other.pid = reference.pid
        other.tid = reference.tid
        other.wall_anchor_ns = reference.wall_anchor_ns
        assert merge_worker_events(other, shuffled) == lanes_ref
        assert other.events == reference.events


def test_merged_timestamps_globally_monotone(profiled_batch):
    """After offset calibration the merged Chrome export sorts into one
    globally monotone timeline (the Perfetto-loadability invariant)."""
    tracer, batch = profiled_batch
    doc = tracer.chrome_dict()
    ts = [e["ts"] for e in doc["traceEvents"]]
    assert ts == sorted(ts)
    # worker events really were rebased: every lane's first timed event
    # sits inside the parent's batch span, not at its own t=0
    lanes = set(batch.lanes.values())
    assert lanes and 1 not in lanes
    for lane in lanes:
        lane_ts = [
            e["ts"] for e in doc["traceEvents"]
            if e["tid"] == lane and e["ph"] != "M"
        ]
        assert lane_ts and min(lane_ts) > 0


def test_one_labeled_lane_per_worker(profiled_batch):
    tracer, batch = profiled_batch
    doc = tracer.chrome_dict()
    thread_meta = {
        e["tid"]: e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert thread_meta[tracer.tid] == "driver"
    for pid, tid in batch.lanes.items():
        assert thread_meta[tid] == f"worker pid={pid}"


def test_spans_balance_per_lane(profiled_batch):
    tracer, _batch = profiled_batch
    depth: dict[int, int] = {}
    low: dict[int, int] = {}
    for e in sorted(
        tracer.events, key=lambda e: (e["ts"], e["args"]["eid"])
    ):
        if e["ph"] == "B":
            depth[e["tid"]] = depth.get(e["tid"], 0) + 1
        elif e["ph"] == "E":
            depth[e["tid"]] = depth.get(e["tid"], 0) - 1
        low[e["tid"]] = min(
            low.get(e["tid"], 0), depth.get(e["tid"], 0)
        )
    assert all(v == 0 for v in depth.values()), depth
    assert all(v >= 0 for v in low.values()), low


def test_merged_events_stay_in_vocabulary(profiled_batch):
    tracer, _batch = profiled_batch
    for e in tracer.events:
        name = e["name"]
        if name.startswith("eval "):
            name = "eval"
        assert name in EVENT_VOCABULARY, name


def test_worker_telemetry_folds_into_parent(profiled_batch):
    _tracer, batch = profiled_batch
    snap = batch.telemetry.as_dict()
    assert snap["counters"]["parallel.tasks"] == len(NAMES)
    assert "parallel.errors" not in snap["counters"]
    for hist in ("parallel.queue_wait_ms", "parallel.load_ms",
                 "parallel.analyze_ms", "parallel.snapshot_ms",
                 "parallel.run_ms", "parallel.pickle_ms",
                 "parallel.merge_ms"):
        assert snap["histograms"][hist]["count"] == len(NAMES), hist
    assert snap["gauges"]["parallel.jobs"] == 2
    assert snap["gauges"]["parallel.programs"] == len(NAMES)
    util = snap["gauges"]["parallel.utilization"]
    assert 0 < util <= 1.0
    lane_gauges = [
        k for k in snap["gauges"]
        if k.startswith("parallel.worker_utilization.lane")
    ]
    assert len(lane_gauges) == len(batch.lanes)


def test_batch_stats_carry_observatory_columns(profiled_batch):
    _tracer, batch = profiled_batch
    stats = batch.stats()
    assert 0 < stats["utilization"] <= 1.0
    slowest = max(b["seconds"] for b in batch.results)
    assert stats["critical_path_seconds"] == round(slowest, 6)


def test_worker_trace_dir_writes_jsonl(tmp_path):
    out = tmp_path / "traces"
    batch = run_batch(
        [AnalysisTask(name="m", source="int main(void){return 0;}",
                      filename="m.c")],
        jobs=1,
        profile=True,
        worker_trace_dir=str(out),
    )
    assert not batch.errors
    path = out / "m.worker.jsonl"
    events = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert events
    names = [e["name"] for e in events]
    assert "clock.calibrate" in names
    cal = next(e for e in events if e["name"] == "clock.calibrate")
    assert cal["args"]["wall_anchor_ns"] > 0


def test_error_bundles_still_profile():
    """A broken program's worker still ships calibration + telemetry —
    fault isolation includes the observatory."""
    tracer = Tracer()
    batch = run_batch(
        [AnalysisTask(name="broken", source="int main(void { nope",
                      filename="b.c")],
        jobs=1,
        tracer=tracer,
        profile=True,
    )
    bundle = batch.results[0]
    assert bundle["error"]
    prof = bundle["profile"]
    assert prof["calibration"]["pid"] == bundle["pid"]
    assert prof["telemetry"]["counters"]["parallel.errors"] == 1
    assert batch.telemetry.as_dict()["counters"]["parallel.errors"] == 1
