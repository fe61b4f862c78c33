"""The committed baseline snapshots must match a fresh analysis.

CI's ``regression-gate`` job diffs fresh snapshots of seven benchmarks
against ``tests/baselines/snapshots/*.json``; this test runs the same
comparison in-process, so a change that moves a gated digest fails the
ordinary test suite *before* it reaches the CI gate — with the semantic
differ's attribution in the failure message.

If the change is an intended precision improvement, regenerate the
baselines (and review the diff!)::

    for n in allroots grep diff compiler dbase football interp; do
      python -m repro snapshot benchmarks/programs/$n.c \\
        --name $n -o tests/baselines/snapshots/$n.json
    done
"""

import json
import os

import pytest

from repro.bench.harness import analyze_benchmark
from repro.diagnostics.diff import diff_snapshots
from repro.diagnostics.snapshot import SNAPSHOT_FORMAT, build_snapshot
from repro.memory.pointsto import reset_interning

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "snapshots")
#: the three small programs plus the four with the deepest fixpoints
#: (recursive PTF revisits, subsumption, the largest node counts)
GATED = ("allroots", "grep", "diff", "compiler", "dbase", "football", "interp")


def load_baseline(name):
    with open(os.path.join(BASELINE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", GATED)
def test_fresh_snapshot_matches_committed_baseline(name):
    baseline = load_baseline(name)
    assert baseline["format"] == SNAPSHOT_FORMAT
    reset_interning()
    fresh = build_snapshot(analyze_benchmark(name), program_name=name)
    report = diff_snapshots(baseline, fresh)
    # precision must not move; perf/mem records are host noise here
    drift = report.classes() & {"precision-loss", "precision-gain", "shape-change"}
    assert not drift, (
        f"{name}: gated digest moved — intended? regenerate the baseline "
        f"(see module docstring).\n" + "\n".join(report.summary_lines())
    )
    assert fresh["digest"]["program"] == baseline["digest"]["program"]


@pytest.mark.parametrize("name", GATED)
def test_baselines_carry_the_solution(name):
    # fact-level attribution in CI diffs requires the solution section
    baseline = load_baseline(name)
    assert "solution" in baseline
    assert baseline["precision"]["totals"]["total_ptfs"] > 0
