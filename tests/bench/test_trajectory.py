"""Benchmark-trajectory recorder tests (BENCH_table2.json)."""

import json

from repro.bench.harness import Table2Row, table2_rows
from repro.bench.programs import by_name
from repro.bench.trajectory import (
    DEMAND_TRAJECTORY_FORMAT,
    TRAJECTORY_FORMAT,
    build_entry,
    compare_entries,
    load_trajectory,
    record_demand_trajectory,
    record_trajectory,
)


def fake_row(name="allroots", **kwargs):
    defaults = dict(
        name=name, lines=100, procedures=5, seconds=0.5,
        avg_ptfs=1.0, paper=by_name(name),
        cache_hit_rate=0.5, dom_walk_steps=1000,
    )
    defaults.update(kwargs)
    return Table2Row(**defaults)


class TestBuildEntry:
    def test_totals(self):
        rows = [fake_row(seconds=0.5), fake_row("grep", seconds=1.5, avg_ptfs=2.0)]
        entry = build_entry(rows, peak_kb=512.0, revision="abc1234")
        assert entry["revision"] == "abc1234"
        assert entry["totals"]["seconds"] == 2.0
        assert entry["totals"]["avg_ptfs"] == 1.5
        assert entry["totals"]["errors"] == 0
        assert entry["totals"]["peak_kb"] == 512.0
        assert len(entry["rows"]) == 2

    def test_error_rows_excluded_from_perf_totals(self):
        rows = [fake_row(), fake_row("grep", seconds=0.0, error="boom")]
        entry = build_entry(rows, revision="x")
        assert entry["totals"]["errors"] == 1
        assert entry["totals"]["seconds"] == 0.5

    def test_real_rows_serialize(self):
        rows = table2_rows(names=["allroots"])
        entry = build_entry(rows, revision="x")
        json.dumps(entry)  # must be serializable
        assert entry["rows"][0]["status"] == "ok"

    def test_observatory_columns_are_optional(self):
        rows = [fake_row()]
        plain = build_entry(rows, revision="a")
        assert "utilization" not in plain["totals"]
        assert "critical_path_seconds" not in plain["totals"]
        profiled = build_entry(rows, revision="a", utilization=0.88971,
                               critical_path_seconds=1.2345678)
        assert profiled["totals"]["utilization"] == 0.8897
        assert profiled["totals"]["critical_path_seconds"] == 1.234568


class TestCompare:
    def test_steady_state_is_empty(self):
        rows = [fake_row()]
        a = build_entry(rows, revision="a")
        b = build_entry(rows, revision="b")
        assert compare_entries(a, b) == []

    def test_suite_slowdown_reported(self):
        a = build_entry([fake_row(seconds=1.0)], revision="a")
        b = build_entry([fake_row(seconds=2.0)], revision="b")
        lines = compare_entries(a, b)
        assert any("slower" in l for l in lines)

    def test_precision_drift_reported(self):
        a = build_entry([fake_row(avg_ptfs=1.0)], revision="a")
        b = build_entry([fake_row(avg_ptfs=2.0)], revision="b")
        lines = compare_entries(a, b)
        assert any("avg PTFs" in l for l in lines)

    def test_status_flip_reported(self):
        a = build_entry([fake_row()], revision="a")
        b = build_entry([fake_row(seconds=0.0, error="boom")], revision="b")
        lines = compare_entries(a, b)
        assert any("status ok -> error" in l for l in lines)

    def test_heap_peak_growth_reported(self):
        a = build_entry([fake_row()], peak_kb=1000.0, revision="a")
        b = build_entry([fake_row()], peak_kb=2000.0, revision="b")
        lines = compare_entries(a, b)
        assert any("heap peak" in l for l in lines)

    def test_suite_membership_changes_reported(self):
        a = build_entry([fake_row("allroots")], revision="a")
        b = build_entry([fake_row("grep")], revision="b")
        lines = compare_entries(a, b)
        assert any("dropped" in l for l in lines)
        assert any("added" in l for l in lines)


class TestRecord:
    def test_appends_and_reports_drift(self, tmp_path):
        path = str(tmp_path / "BENCH_table2.json")
        _, drift = record_trajectory([fake_row(seconds=1.0)], path=path,
                                     revision="a")
        assert drift == []  # first entry: no history to drift from
        _, drift = record_trajectory([fake_row(seconds=3.0)], path=path,
                                     revision="b")
        assert any("slower" in l for l in drift)
        data = json.loads((tmp_path / "BENCH_table2.json").read_text())
        assert data["format"] == TRAJECTORY_FORMAT
        assert len(data["entries"]) == 2
        assert [e["revision"] for e in data["entries"]] == ["a", "b"]

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "BENCH_table2.json")
        record_trajectory([fake_row()], path=path, revision="a")
        assert not (tmp_path / "BENCH_table2.json.tmp").exists()

    def test_corrupt_history_is_replaced_not_fatal(self, tmp_path):
        path = tmp_path / "BENCH_table2.json"
        path.write_text("{ not json")
        entry, drift = record_trajectory([fake_row()], path=str(path),
                                         revision="a")
        assert drift == []
        data = json.loads(path.read_text())
        assert len(data["entries"]) == 1

    def test_load_missing_file(self, tmp_path):
        data = load_trajectory(str(tmp_path / "nope.json"))
        assert data == {"format": TRAJECTORY_FORMAT, "entries": []}


class TestRowStatus:
    def test_status_property(self):
        assert fake_row().status == "ok"
        assert fake_row(error="boom").status == "error"
        assert fake_row(degraded=2).status == "degraded"

    def test_as_dict_includes_status_and_degradation(self):
        row = fake_row(degraded=1,
                       degradation={"quarantined": ["f"], "reasons": {"x": 1}})
        d = row.as_dict()
        assert d["status"] == "degraded"
        assert d["degraded"] == 1
        assert d["degradation"]["quarantined"] == ["f"]
        clean = fake_row().as_dict()
        assert clean["status"] == "ok"
        assert "error" not in clean and "degradation" not in clean


class TestDemandTrajectory:
    def test_older_entries_with_retired_columns_keep_loading(self, tmp_path):
        """Entries recorded with a column the recorder has since dropped
        still load, and compare against new entries without it."""
        path = tmp_path / "BENCH_demand.json"
        old_row = {"name": "compiler(ci-gate)", "retired_procs": 19,
                   "demand_seconds": 0.8, "equal": True, "error": None}
        path.write_text(json.dumps({
            "format": DEMAND_TRAJECTORY_FORMAT,
            "entries": [{"revision": "old", "rows": [old_row], "totals": {
                "demand_seconds": 0.8, "retired_procs": 19,
                "errors": 0, "mismatches": 0}}],
        }))
        row = {"name": "compiler(ci-gate)", "demand_seconds": 0.8,
               "equal": True, "error": None}
        entry, drift = record_demand_trajectory([row], path=str(path),
                                                revision="new")
        assert set(entry["totals"]) == {"demand_seconds", "errors",
                                        "mismatches"}
        assert drift == []
        entries = json.loads(path.read_text())["entries"]
        assert [e["revision"] for e in entries] == ["old", "new"]
