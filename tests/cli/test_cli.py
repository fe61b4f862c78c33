"""Command-line interface tests."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(
        """
        int g;
        int *q;
        void set(int **slot, int *v) { *slot = v; }
        int main(void) { set(&q, &g); return 0; }
        """
    )
    return str(path)


class TestAnalyze:
    def test_basic(self, prog_file, capsys):
        assert main(["analyze", prog_file]) == 0
        out = capsys.readouterr().out
        assert "procedures" in out and "avg PTFs" in out

    def test_points_to_flag(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--points-to", "q"]) == 0
        out = capsys.readouterr().out
        assert "'g'" in out

    def test_points_to_with_proc(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--points-to", "main:q"]) == 0
        assert "'g'" in capsys.readouterr().out

    def test_ptfs_flag(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--ptfs", "set"]) == 0
        out = capsys.readouterr().out
        assert "PTF#" in out and "initial" in out

    def test_dense_state_flag(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--state", "dense"]) == 0

    def test_heap_context_flag(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--heap-context", "2"]) == 0

    def test_missing_file(self, capsys):
        assert main(["analyze", "/no/such/file.c"]) == 2


class TestStatsJson:
    def test_bare_flag_dumps_to_stdout(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--stats-json"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        stats = json.loads(out[start : out.rindex("}") + 1])
        assert stats["lookup_cache"] is True
        assert stats["state_kind"] == "sparse"
        assert stats["counters"]["lookups"] > 0
        assert stats["counters"]["eval_passes"] > 0
        assert stats["counters"]["node_evals"] > 0
        assert "node_skips" in stats["counters"]
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        assert "analysis" in stats["timers"]["phases"]
        assert "main" in stats["timers"]["procedures"]
        # the exclusive (self) buckets and the derived block are part of
        # the --stats-json schema
        assert "main" in stats["timers"]["procedures_self"]
        assert (
            stats["timers"]["procedures_self"]["main"]
            <= stats["timers"]["procedures"]["main"] + 1e-9
        )
        assert stats["derived"]["dom_steps_per_lookup"] >= 0.0
        assert 0.0 <= stats["derived"]["cache_hit_rate"] <= 1.0

    def test_path_writes_file(self, prog_file, tmp_path, capsys):
        dest = tmp_path / "stats.json"
        assert main(["analyze", prog_file, "--stats-json", str(dest)]) == 0
        stats = json.loads(dest.read_text())
        assert stats["counters"]["dom_walk_steps"] >= 0
        assert stats["elapsed_seconds"] >= 0
        # the human-readable report still goes to stdout
        assert "procedures" in capsys.readouterr().out

    def test_no_lookup_cache_flag(self, prog_file, tmp_path, capsys):
        dest = tmp_path / "stats.json"
        assert (
            main(
                [
                    "analyze",
                    prog_file,
                    "--no-lookup-cache",
                    "--stats-json",
                    str(dest),
                ]
            )
            == 0
        )
        stats = json.loads(dest.read_text())
        assert stats["lookup_cache"] is False
        assert stats["counters"]["cache_hits"] == 0
        assert stats["counters"]["cache_misses"] == 0
        assert stats["counters"]["dom_walk_steps"] > 0

    def test_cache_modes_agree_on_points_to(self, prog_file, capsys):
        def lines(out):
            # everything but the wall-clock line must agree exactly
            return [l for l in out.splitlines() if "analysis time" not in l]

        assert main(["analyze", prog_file, "--points-to", "q"]) == 0
        with_cache = capsys.readouterr().out
        assert (
            main(["analyze", prog_file, "--no-lookup-cache", "--points-to", "q"])
            == 0
        )
        without = capsys.readouterr().out
        assert lines(with_cache) == lines(without)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main(void { return 0; }")
        assert main(["analyze", str(bad)]) == 2


class TestRobustness:
    """Budget flags, fault injection, and the exit-code convention
    (0 clean / 2 hard error / 4 partial; see docs/ROBUSTNESS.md)."""

    def test_deadline_zero_exits_partial(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--deadline", "0"]) == 4
        err = capsys.readouterr().err
        assert "deadline" in err and "repro:" in err

    def test_strict_deadline_is_hard_error(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--deadline", "0", "--strict"]) == 2
        assert "strict" in capsys.readouterr().err

    def test_injected_exhaustion_exits_partial_and_stays_sound(
        self, prog_file, capsys
    ):
        assert (
            main(
                [
                    "analyze",
                    prog_file,
                    "--inject-faults",
                    "exhaust=set",
                    "--points-to",
                    "q",
                ]
            )
            == 4
        )
        captured = capsys.readouterr()
        # the precise answer {g} must survive inside the havoced superset
        assert "'g'" in captured.out
        assert "injected" in captured.err

    def test_max_call_depth_flag(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--max-call-depth", "1"]) == 4
        assert "call_depth" in capsys.readouterr().err

    def test_bad_unit_in_project_degrades_to_partial(
        self, prog_file, tmp_path, capsys
    ):
        bad = tmp_path / "broken.c"
        bad.write_text("int broken( {{{")
        assert main(["analyze", prog_file, str(bad)]) == 4
        err = capsys.readouterr().err
        assert "frontend" in err and "broken.c" in err

    def test_bad_unit_strict_is_hard_error(self, prog_file, tmp_path, capsys):
        bad = tmp_path / "broken.c"
        bad.write_text("int broken( {{{")
        assert main(["analyze", prog_file, str(bad), "--strict"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_default_guards_do_not_change_output(self, prog_file, capsys):
        def lines(out):
            return [l for l in out.splitlines() if "analysis time" not in l]

        assert main(["analyze", prog_file, "--points-to", "q"]) == 0
        default = capsys.readouterr().out
        assert (
            main(
                [
                    "analyze",
                    prog_file,
                    "--points-to",
                    "q",
                    "--max-passes",
                    "200",
                    "--max-call-depth",
                    "200",
                    "--deadline",
                    "3600",
                ]
            )
            == 0
        )
        generous = capsys.readouterr().out
        assert lines(default) == lines(generous)

    def test_degradation_lands_in_stats_json(self, prog_file, tmp_path, capsys):
        dest = tmp_path / "stats.json"
        assert (
            main(
                [
                    "analyze",
                    prog_file,
                    "--max-call-depth",
                    "1",
                    "--stats-json",
                    str(dest),
                ]
            )
            == 4
        )
        stats = json.loads(dest.read_text())
        assert stats["degradation"]["reasons"]["call_depth"] >= 1
        assert stats["counters"]["guard_trips"] >= 1
        assert stats["counters"]["degraded_calls"] >= 1

    def test_degrade_events_reach_the_trace(self, prog_file, tmp_path, capsys):
        dest = tmp_path / "trace.json"
        assert (
            main(
                [
                    "analyze",
                    prog_file,
                    "--max-call-depth",
                    "1",
                    "--trace-json",
                    str(dest),
                ]
            )
            == 4
        )
        names = {e["name"] for e in json.loads(dest.read_text())["traceEvents"]}
        assert "degrade.call" in names

    def test_bad_fault_spec_rejected(self, prog_file, capsys):
        with pytest.raises(ValueError):
            main(["analyze", prog_file, "--inject-faults", "bogus=0.5"])


class TestTraceJson:
    def test_path_writes_chrome_trace(self, prog_file, tmp_path, capsys):
        dest = tmp_path / "trace.json"
        assert main(["analyze", prog_file, "--trace-json", str(dest)]) == 0
        doc = json.loads(dest.read_text())
        events = doc["traceEvents"]
        assert events
        assert all(e["ph"] in {"B", "E", "X", "i"} for e in events)
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        names = {e["name"] for e in events}
        assert "analyze" in names and "ptf.create" in names

    def test_bare_flag_dumps_to_stdout(self, prog_file, capsys):
        assert main(["analyze", prog_file, "--trace-json"]) == 0
        out = capsys.readouterr().out
        start = out.index('{"traceEvents"')
        doc = json.loads(out[start:].strip())
        assert doc["traceEvents"]

    def test_jsonl_variant(self, prog_file, tmp_path, capsys):
        dest = tmp_path / "trace.jsonl"
        assert main(["analyze", prog_file, "--trace-jsonl", str(dest)]) == 0
        lines = dest.read_text().splitlines()
        assert lines
        assert all(json.loads(l)["ph"] in {"B", "E", "X", "i"} for l in lines)

    def test_no_trace_flag_no_tracer(self, prog_file, tmp_path, capsys):
        # without the flag nothing trace-related reaches stdout or disk
        assert main(["analyze", prog_file]) == 0
        out = capsys.readouterr().out
        assert "traceEvents" not in out


class TestProfileParallel:
    @pytest.fixture
    def two_files(self, tmp_path):
        a = tmp_path / "a.c"
        a.write_text("int g; int *id(int *p) { return p; }\n"
                     "int main(void) { int x; g = *id(&x); return 0; }\n")
        b = tmp_path / "b.c"
        b.write_text("int h(int v) { return v + 1; }\n"
                     "int main(void) { return h(2); }\n")
        return [str(a), str(b)]

    def test_profile_run_writes_profile_trace_and_stats(
        self, two_files, tmp_path, capsys
    ):
        trace = tmp_path / "merged.json"
        stats = tmp_path / "stats.json"
        wdir = tmp_path / "wt"
        assert main(
            ["analyze", *two_files, "--jobs", "2",
             "--profile-parallel",
             "--trace-json", str(trace),
             "--worker-trace-dir", str(wdir),
             "--stats-json", str(stats)]
        ) == 0
        # merged trace: one labeled lane per worker plus the driver
        chrome = json.loads(trace.read_text())
        meta = {
            e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "driver" in meta
        assert any(name.startswith("worker pid=") for name in meta)
        ts = [e["ts"] for e in chrome["traceEvents"]]
        assert ts == sorted(ts)
        # each worker also wrote its own JSONL trace
        assert sorted(p.name for p in wdir.iterdir()) == [
            "a.worker.jsonl", "b.worker.jsonl",
        ]
        # batch stats carry the observatory columns + merged telemetry
        payload = json.loads(stats.read_text())
        assert payload["batch"]["utilization"] is not None
        assert payload["batch"]["critical_path_seconds"] > 0
        assert payload["telemetry"]["counters"]["parallel.tasks"] == 2
        assert "parallel.errors" not in payload["telemetry"]["counters"]

    def test_profiled_digests_match_unprofiled(
        self, two_files, tmp_path, capsys
    ):
        plain = tmp_path / "plain.json"
        prof = tmp_path / "prof.json"
        assert main(["analyze", *two_files, "--jobs", "2",
                     "--stats-json", str(plain)]) == 0
        assert main(["analyze", *two_files, "--jobs", "2",
                     "--profile-parallel",
                     "--stats-json", str(prof)]) == 0
        digests = lambda p: {  # noqa: E731
            name: row["digest"]
            for name, row in json.loads(p.read_text())["programs"].items()
        }
        assert digests(plain) == digests(prof)


class TestExplain:
    def test_explains_pointer(self, prog_file, capsys):
        assert main(["explain", prog_file, "--query", "q"]) == 0
        out = capsys.readouterr().out
        assert "main:q -> g" in out
        assert "summary" in out or "assign" in out

    def test_json_output(self, prog_file, capsys):
        assert main(["explain", prog_file, "--query", "q", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["query"] == "q"
        exps = payload[0]["explanations"]
        assert exps and exps[0]["display"] == "g"
        assert exps[0]["chain"], "derivation chain must be present"

    def test_query_with_proc(self, prog_file, capsys):
        assert main(["explain", prog_file, "--query", "q@main"]) == 0
        assert "main:q -> g" in capsys.readouterr().out

    def test_unknown_proc_exits_nonzero(self, prog_file, capsys):
        assert main(["explain", prog_file, "--query", "q@nope"]) == 2

    def test_unknown_var_reports_no_values(self, prog_file, capsys):
        assert main(["explain", prog_file, "--query", "zzz"]) == 0
        assert "no pointer values" in capsys.readouterr().out


class TestCallgraph:
    def test_edges_printed(self, prog_file, capsys):
        assert main(["callgraph", prog_file]) == 0
        out = capsys.readouterr().out
        assert "main -> set" in out


class TestCompare:
    def test_three_analyses(self, prog_file, capsys):
        assert main(["compare", prog_file, "--var", "q"]) == 0
        out = capsys.readouterr().out
        assert "wilson-lam" in out and "andersen" in out and "steensgaard" in out


class TestParallelize:
    def test_loop_report(self, tmp_path, capsys):
        path = tmp_path / "loops.c"
        path.write_text(
            """
            double a[64], b[64];
            int main(void) {
                int i;
                for (i = 0; i < 64; i++)
                    b[i] = a[i] * 2.0;
                return 0;
            }
            """
        )
        assert main(["parallelize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PARALLEL" in out and "speedups" in out


class TestTables:
    def test_table2_subset(self, capsys):
        assert main(["table2", "--names", "allroots"]) == 0
        out = capsys.readouterr().out
        assert "allroots" in out

    def test_table2_json(self, capsys):
        assert main(["table2", "--names", "allroots", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["name"] == "allroots"
        assert rows[0]["dom_walk_steps"] >= 0
        assert "paper" in rows[0]


class TestReport:
    def test_report_runs(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out
        assert "reproduction report" in out
        assert "per-context" in out


class TestTable2Status:
    def test_json_rows_carry_status(self, capsys):
        assert main(["table2", "--names", "allroots", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["status"] == "ok"

    def test_record_appends_trajectory(self, tmp_path, capsys, monkeypatch):
        dest = tmp_path / "BENCH_table2.json"
        assert main(["table2", "--names", "allroots", "--record", str(dest)]) == 0
        capsys.readouterr()
        assert main(["table2", "--names", "allroots", "--record", str(dest)]) == 0
        err = capsys.readouterr().err
        assert "recorded entry" in err
        data = json.loads(dest.read_text())
        assert len(data["entries"]) == 2
        assert data["entries"][-1]["rows"][0]["name"] == "allroots"


class TestSnapshot:
    def test_snapshot_to_file(self, prog_file, tmp_path, capsys):
        dest = tmp_path / "snap.json"
        assert main(["snapshot", prog_file, "-o", str(dest)]) == 0
        err = capsys.readouterr().err
        assert "digest" in err
        snap = json.loads(dest.read_text())
        assert snap["format"] == "repro-snapshot/1"
        assert snap["digest"]["program"]
        assert "solution" in snap

    def test_snapshot_to_stdout(self, prog_file, capsys):
        assert main(["snapshot", prog_file]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["format"] == "repro-snapshot/1"

    def test_no_solution_flag(self, prog_file, capsys):
        assert main(["snapshot", prog_file, "--no-solution"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "solution" not in snap
        assert snap["digest"]["program"]

    def test_memory_flag_samples_peak(self, prog_file, capsys):
        assert main(["snapshot", prog_file, "--memory"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["volatile"]["memory"]["tracemalloc_peak_kb"] > 0

    def test_repeat_runs_share_a_digest(self, prog_file, tmp_path, capsys):
        # same-process reruns need fresh interning for bit-identity
        # (block uids seed iteration order; a fresh process — the real
        # CLI usage — gets this for free, see the snapshot docstring)
        from repro.memory.pointsto import reset_interning

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        reset_interning()
        assert main(["snapshot", prog_file, "-o", str(a)]) == 0
        reset_interning()
        assert main(["snapshot", prog_file, "-o", str(b)]) == 0
        sa = json.loads(a.read_text())
        sb = json.loads(b.read_text())
        assert sa["digest"]["program"] == sb["digest"]["program"]

    def test_degraded_run_exits_partial(self, prog_file, tmp_path, capsys):
        dest = tmp_path / "snap.json"
        code = main(["snapshot", prog_file, "--max-ptfs", "1",
                     "-o", str(dest)])
        assert code == 4
        snap = json.loads(dest.read_text())
        assert snap["degradation"]["partial"] or snap["degradation"]["records"]

    def test_missing_file(self, capsys):
        assert main(["snapshot", "/no/such/file.c"]) == 2


class TestDiff:
    def make_snaps(self, prog_file, tmp_path):
        from repro.memory.pointsto import reset_interning

        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        reset_interning()
        assert main(["snapshot", prog_file, "-o", str(a)]) == 0
        reset_interning()
        assert main(["snapshot", prog_file, "-o", str(b)]) == 0
        reset_interning()
        assert main(["snapshot", prog_file, "--max-ptfs", "1",
                     "-o", str(c)]) == 4
        return str(a), str(b), str(c)

    def test_identical_snapshots(self, prog_file, tmp_path, capsys):
        a, b, _ = self.make_snaps(prog_file, tmp_path)
        capsys.readouterr()
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out

    def test_drifted_snapshots_report_loss(self, prog_file, tmp_path, capsys):
        a, _, c = self.make_snaps(prog_file, tmp_path)
        capsys.readouterr()
        assert main(["diff", a, c]) == 0  # no --fail-on: report only
        out = capsys.readouterr().out
        assert "precision-loss" in out

    def test_fail_on_gates_exit_code(self, prog_file, tmp_path, capsys):
        a, b, c = self.make_snaps(prog_file, tmp_path)
        capsys.readouterr()
        assert main(["diff", a, c, "--fail-on", "precision-loss"]) == 1
        err = capsys.readouterr().err
        assert "drift gate failed" in err
        assert main(["diff", a, b, "--fail-on", "precision-loss"]) == 0

    def test_json_report(self, prog_file, tmp_path, capsys):
        a, _, c = self.make_snaps(prog_file, tmp_path)
        capsys.readouterr()
        assert main(["diff", a, c, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "precision-loss" in payload["classes"]
        assert payload["records"]

    def test_bad_fail_on_spec(self, prog_file, tmp_path, capsys):
        a, b, _ = self.make_snaps(prog_file, tmp_path)
        capsys.readouterr()
        assert main(["diff", a, b, "--fail-on", "nonsense"]) == 2
        assert "unknown --fail-on" in capsys.readouterr().err

    def test_not_a_snapshot(self, prog_file, tmp_path, capsys):
        a, _, _ = self.make_snaps(prog_file, tmp_path)
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        capsys.readouterr()
        assert main(["diff", a, str(bogus)]) == 2
