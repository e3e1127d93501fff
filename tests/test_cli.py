"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mysql" in out
        assert "table1" in out

    def test_record_replay_transform_roundtrip(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        assert main(["record", "transmissionBT", "-o", trace_file]) == 0
        assert main(["replay", trace_file, "--runs", "2"]) == 0
        out_file = str(tmp_path / "free.jsonl")
        assert main(["transform", trace_file, "-o", out_file]) == 0
        out = capsys.readouterr().out
        assert "ULCP pairs" in out
        assert "ULCP-free trace" in out

    @pytest.mark.parametrize("name", ["t.jsonl", "t.seg.jsonl.gz"])
    def test_transform_output_bytes_match_loaded_trace(self, tmp_path, capsys,
                                                       name):
        # `transform TRACE` hands the path to the facade (segmented files
        # take the columnar route); the -o bytes must equal transforming
        # the fully loaded trace
        from repro import api
        from repro.trace import serialize

        mono = str(tmp_path / "t.jsonl")
        assert main(["record", "mixed-bag", "-o", mono, "--seed", "2"]) == 0
        source = str(tmp_path / name)
        if source != mono:
            assert main(["convert", mono, source,
                         "--segment-events", "64"]) == 0
        capsys.readouterr()
        out_file = tmp_path / "free.jsonl"
        assert main(["transform", source, "-o", str(out_file)]) == 0
        summary = capsys.readouterr().out
        ref_file = tmp_path / "ref.jsonl"
        serialize.dump(api.transform(serialize.load(source)), ref_file)
        assert out_file.read_bytes() == ref_file.read_bytes()
        assert main(["transform", mono]) == 0
        assert capsys.readouterr().out == summary.replace(
            f"ULCP-free trace -> {out_file}\n", "")

    def test_debug_workload(self, capsys):
        assert main(["debug", "transmissionBT"]) == 0
        assert "PERFPLAY report" in capsys.readouterr().out

    def test_debug_trace_file(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        assert main(["debug", "--trace", trace_file]) == 0
        assert "PERFPLAY report" in capsys.readouterr().out

    def test_debug_without_target_fails(self):
        assert main(["debug"]) == 2

    def test_profile_workload(self, capsys):
        assert main(["profile", "transmissionBT"]) == 0
        out = capsys.readouterr().out
        assert "pipeline profile" in out
        for stage in ("record", "intern", "scan", "classify", "benign",
                      "transform", "replay", "total"):
            assert stage in out
        assert "events=" in out

    def test_profile_trace_file(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        assert main(["profile", "--trace", trace_file, "--no-replay"]) == 0
        out = capsys.readouterr().out
        assert "intern" in out
        stage_names = [line.split()[0] for line in out.splitlines()[1:]]
        assert "replay" not in stage_names  # stage skipped
        assert "record" not in stage_names  # loaded, not recorded

    def test_profile_without_target_fails(self):
        assert main(["profile"]) == 2

    def test_timeline(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        assert main(["timeline", trace_file, "--width", "40"]) == 0
        assert "timeline" in capsys.readouterr().out

    def test_timeline_chrome_format(self, tmp_path, capsys):
        import json

        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        capsys.readouterr()
        assert main(["timeline", trace_file, "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]
        assert {"M", "X"} <= {e["ph"] for e in doc["traceEvents"]}

    def test_timeline_chrome_to_file(self, tmp_path, capsys):
        import json

        trace_file = str(tmp_path / "t.jsonl")
        out_file = tmp_path / "timeline.chrome.json"
        main(["record", "transmissionBT", "-o", trace_file])
        capsys.readouterr()
        assert main([
            "timeline", trace_file, "--format", "chrome",
            "-o", str(out_file),
        ]) == 0
        assert capsys.readouterr().out == ""  # written to the file instead
        doc = json.loads(out_file.read_text())
        assert doc["metadata"]["unit"] == "1 simulated ns = 1 trace us"

    def test_timeline_columnar_format(self, tmp_path, capsys):
        import json

        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        capsys.readouterr()
        assert main(["timeline", trace_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["threads"]

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_experiment_runs(self, capsys):
        assert main(["experiment", "table1", "--no-cache"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_experiment_jobs_matches_serial(self, tmp_path, capsys):
        assert main(["experiment", "figure2", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiment", "figure2", "--no-cache", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_experiment_populates_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "experiment", "table1", "--cache-dir", cache_dir, "--jobs", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        info = capsys.readouterr().out
        assert "traces     : 16" in info
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "traces     : 0" in capsys.readouterr().out

    def test_replay_jobs_flag(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl.gz")
        assert main(["record", "pbzip2", "-o", trace_file]) == 0
        capsys.readouterr()
        assert main(["replay", trace_file, "--runs", "2", "--jobs", "2"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["replay", trace_file, "--runs", "2", "--jobs", "1"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_sensitivity(self, capsys):
        assert main([
            "sensitivity", "bodytrack",
            "--threads-list", "2", "--sizes", "simlarge",
        ]) == 0
        assert "configurations" in capsys.readouterr().out

    def test_record_with_options(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        assert main([
            "record", "canneal", "--threads", "4", "--input-size", "simsmall",
            "--scale", "0.5", "--seed", "3", "-o", trace_file,
        ]) == 0
        from repro.trace import load

        trace = load(trace_file)
        assert trace.meta.params["threads"] == 4
        assert trace.meta.params["input_size"] == "simsmall"


class TestNewCommands:
    def test_advise_workload(self, capsys):
        assert main(["advise", "transmissionBT"]) == 0
        assert "Fix advisor" in capsys.readouterr().out

    def test_advise_needs_target(self):
        assert main(["advise"]) == 2

    def test_locks_profile(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        capsys.readouterr()
        assert main(["locks", trace_file]) == 0
        assert "rate" in capsys.readouterr().out

    def test_fix_command(self, capsys):
        assert main([
            "fix", "transmissionBT", "--lock", "rr_lock", "--fix", "rwlock",
        ]) == 0
        assert "rwlock fix" in capsys.readouterr().out

    def test_fix_unknown_fix(self, capsys):
        assert main([
            "fix", "transmissionBT", "--lock", "rr_lock", "--fix", "nope",
        ]) == 2

    def test_selfcheck_command(self, capsys):
        assert main(["selfcheck", "transmissionBT"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_selfcheck_trace(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "canneal", "-o", trace_file])
        capsys.readouterr()
        assert main(["selfcheck", "--trace", trace_file]) == 0

    def test_stats_command(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "canneal", "-o", trace_file])
        capsys.readouterr()
        assert main(["stats", trace_file]) == 0
        assert "events=" in capsys.readouterr().out

    def test_compare_command(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        main(["record", "transmissionBT", "-o", a])
        main(["record", "transmissionBT", "--seed", "5", "-o", b])
        capsys.readouterr()
        assert main(["compare", a, b]) == 0
        assert "Before/after comparison" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_analyze_text(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        capsys.readouterr()
        assert main(["analyze", trace_file]) == 0
        out = capsys.readouterr().out
        assert "pairs" in out

    def test_analyze_json(self, tmp_path, capsys):
        import json

        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        capsys.readouterr()
        assert main(["analyze", trace_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["v"] == 1 and data["ok"] is True
        assert "pairs" in data["result"]


class TestTelemetryFlag:
    def test_record_writes_telemetry_json(self, tmp_path, capsys):
        import json

        trace_file = str(tmp_path / "t.jsonl")
        artifact = str(tmp_path / "TELEMETRY.json")
        assert main([
            "record", "transmissionBT", "-o", trace_file,
            "--telemetry", artifact,
        ]) == 0
        data = json.loads((tmp_path / "TELEMETRY.json").read_text())
        assert data["counters"]["record.traces"] == 1
        assert data["counters"]["sim.runs"] == 1
        # default export strips wall times for byte-determinism
        assert all("ns" not in s for s in data["spans"])

    def test_prom_format(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        artifact = str(tmp_path / "t.prom")
        main(["record", "transmissionBT", "-o", trace_file])
        assert main([
            "replay", trace_file, "--runs", "2",
            "--telemetry", artifact, "--telemetry-format", "prom",
        ]) == 0
        text = (tmp_path / "t.prom").read_text()
        assert "# TYPE repro_replay_runs counter" in text
        assert "repro_replay_runs 2" in text

    def test_jobs_telemetry_byte_identical(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl.gz")
        main(["record", "pbzip2", "-o", trace_file])
        serial = str(tmp_path / "serial.json")
        parallel = str(tmp_path / "parallel.json")
        assert main([
            "replay", trace_file, "--runs", "4", "--jobs", "1",
            "--telemetry", serial,
        ]) == 0
        assert main([
            "replay", trace_file, "--runs", "4", "--jobs", "4",
            "--telemetry", parallel,
        ]) == 0
        assert (tmp_path / "serial.json").read_bytes() == \
            (tmp_path / "parallel.json").read_bytes()

    def test_telemetry_subcommand_renders_summary(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        artifact = str(tmp_path / "TELEMETRY.json")
        main(["record", "transmissionBT", "-o", trace_file,
              "--telemetry", artifact])
        capsys.readouterr()
        assert main(["telemetry", artifact]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "record.traces" in out

    def test_telemetry_subcommand_converts_to_prom(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        artifact = str(tmp_path / "TELEMETRY.json")
        main(["record", "transmissionBT", "-o", trace_file,
              "--telemetry", artifact])
        capsys.readouterr()
        assert main(["telemetry", artifact, "--format", "prom"]) == 0
        assert "# TYPE repro_record_traces counter" in capsys.readouterr().out

    def test_debug_with_telemetry(self, tmp_path, capsys):
        import json

        artifact = str(tmp_path / "d.json")
        assert main([
            "debug", "transmissionBT", "--telemetry", artifact,
        ]) == 0
        data = json.loads((tmp_path / "d.json").read_text())
        assert data["counters"]["analyze.pairs"] > 0
        assert data["counters"]["transform.runs"] >= 1


class TestFaultsCommand:
    def test_faults_list(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "pool.worker_crash" in out
        assert "trace.truncate" in out
        assert "sim.thread_kill" in out

    def test_faults_demo(self, capsys):
        assert main(["faults", "demo", "--jobs", "2", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "n/a" in out
        assert "salvage" in out.lower()

    def test_faults_demo_no_faults_is_clean(self, capsys):
        assert main([
            "faults", "demo", "--no-faults", "--jobs", "2", "--scale", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "n/a" not in out
        assert "quarantined" not in out


class TestRobustExperimentFlags:
    def test_partial_mode_renders_na_for_quarantined_cell(self, capsys):
        # a run that finished but degraded cells to n/a exits 3, not 0,
        # so scripts can tell "clean table" from "table with holes"
        assert main([
            "experiment", "table1", "--no-cache", "--jobs", "2",
            "--retries", "0", "--partial",
            "--fault", "pool.worker_crash@1:times=99",
        ]) == 3
        out = capsys.readouterr().out
        assert "n/a" in out
        assert "crash after 1 attempt" in out

    def test_policy_flags_without_faults_match_plain_run(self, capsys):
        assert main(["experiment", "table1", "--no-cache"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "experiment", "table1", "--no-cache", "--jobs", "2",
            "--retries", "2", "--task-timeout", "120", "--partial",
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_bad_fault_spec_is_one_line_error(self, capsys):
        assert main([
            "experiment", "table1", "--no-cache",
            "--fault", "pool.nonsense",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestSalvageFlag:
    def _truncated_trace(self, tmp_path):
        trace_file = tmp_path / "t.jsonl"
        main(["record", "transmissionBT", "-o", str(trace_file)])
        text = trace_file.read_text()
        trace_file.write_text(text[: int(len(text) * 0.7)])
        return str(trace_file)

    def test_strict_load_fails_with_one_line_error(self, tmp_path, capsys):
        trace_file = self._truncated_trace(tmp_path)
        capsys.readouterr()
        assert main(["stats", trace_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_salvage_recovers_prefix(self, tmp_path, capsys):
        trace_file = self._truncated_trace(tmp_path)
        capsys.readouterr()
        assert main(["stats", trace_file, "--salvage"]) == 0
        captured = capsys.readouterr()
        assert "salvage:" in captured.err
        assert "kept" in captured.err

    def test_salvage_and_strict_conflict(self, tmp_path, capsys):
        trace_file = self._truncated_trace(tmp_path)
        with pytest.raises(SystemExit):
            main(["stats", trace_file, "--salvage", "--strict"])


class TestReportCommand:
    def _trace(self, tmp_path):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        return trace_file

    def test_report_from_trace_file(self, tmp_path, capsys):
        trace_file = self._trace(tmp_path)
        out = tmp_path / "REPORT.html"
        capsys.readouterr()
        assert main(["report", trace_file, "-o", str(out)]) == 0
        html = out.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "Execution waterfalls" in html
        assert "report ->" in capsys.readouterr().err

    def test_report_is_byte_deterministic(self, tmp_path):
        trace_file = self._trace(tmp_path)
        first, second = tmp_path / "a.html", tmp_path / "b.html"
        assert main(["report", trace_file, "-o", str(first)]) == 0
        assert main(["report", trace_file, "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_report_with_transformed_positional(self, tmp_path):
        trace_file = self._trace(tmp_path)
        free_file = str(tmp_path / "free.jsonl")
        assert main(["transform", trace_file, "-o", free_file]) == 0
        out = tmp_path / "REPORT.html"
        assert main(["report", trace_file, free_file, "-o", str(out)]) == 0
        assert "<!DOCTYPE html>" in out.read_text(encoding="utf-8")

    def test_report_from_workload_name(self, tmp_path):
        out = tmp_path / "REPORT.html"
        assert main(["report", "transmissionBT", "-o", str(out)]) == 0
        assert out.exists()

    def test_report_on_salvaged_trace(self, tmp_path, capsys):
        trace_file = self._trace(tmp_path)
        text = open(trace_file).read()
        open(trace_file, "w").write(text[: int(len(text) * 0.7)])
        out = tmp_path / "REPORT.html"
        capsys.readouterr()
        assert main(["report", trace_file, "--salvage", "-o", str(out)]) == 0
        assert "salvage:" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_report_zero_ulcps_renders_empty_state(self, tmp_path):
        # blackscholes partitions its data: no lock contention at all
        out = tmp_path / "REPORT.html"
        assert main([
            "report", "blackscholes", "--scale", "0.5", "-o", str(out),
        ]) == 0
        assert "No unnecessary lock contentions" in out.read_text(
            encoding="utf-8"
        )


class TestLogFlags:
    def test_log_json_emits_parseable_lines(self, tmp_path, capsys):
        import json

        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        text = open(trace_file).read()
        open(trace_file, "w").write(text[: int(len(text) * 0.7)])
        capsys.readouterr()
        assert main([
            "--log-json", "--log-level", "info",
            "stats", trace_file, "--salvage",
        ]) == 0
        lines = capsys.readouterr().err.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert any(r.get("event") == "trace.salvage" for r in records)
        assert any(r.get("event") == "cli.salvage" for r in records)

    def test_log_level_silences_info(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        text = open(trace_file).read()
        open(trace_file, "w").write(text[: int(len(text) * 0.7)])
        capsys.readouterr()
        assert main([
            "--log-level", "error", "stats", trace_file, "--salvage",
        ]) == 0
        assert capsys.readouterr().err == ""  # warning-level salvage muted


class TestStreamingCli:
    def _record(self, tmp_path, *extra):
        trace_file = str(tmp_path / "t.jsonl.gz")
        assert main(["record", "mysql", "--threads", "3",
                     "--input-size", "simsmall", "--scale", "0.4",
                     "--seed", "1", "-o", trace_file, *extra]) == 0
        return trace_file

    def _convert(self, tmp_path, trace_file, segment_events="37"):
        seg_file = str(tmp_path / "t.seg.jsonl.gz")
        assert main(["convert", trace_file, seg_file,
                     "--segment-events", segment_events]) == 0
        return seg_file

    def test_convert_reports_segment_count(self, tmp_path, capsys):
        trace_file = self._record(tmp_path)
        capsys.readouterr()
        self._convert(tmp_path, trace_file)
        out = capsys.readouterr().out
        assert "segments" in out

    def test_convert_back_to_monolithic_round_trips_bytes(self, tmp_path, capsys):
        trace_file = self._record(tmp_path)
        seg_file = self._convert(tmp_path, trace_file)
        back = str(tmp_path / "back.jsonl.gz")
        assert main(["convert", seg_file, back, "--monolithic"]) == 0
        assert open(back, "rb").read() == open(trace_file, "rb").read()

    def test_record_segment_events_matches_convert(self, tmp_path, capsys):
        trace_file = self._record(tmp_path)
        seg_file = self._convert(tmp_path, trace_file)
        direct = str(tmp_path / "direct.seg.jsonl.gz")
        assert main(["record", "mysql", "--threads", "3",
                     "--input-size", "simsmall", "--scale", "0.4",
                     "--seed", "1", "-o", direct,
                     "--segment-events", "37"]) == 0
        assert open(direct, "rb").read() == open(seg_file, "rb").read()

    @pytest.mark.parametrize("argv", [
        ["stats"],
        ["stats", "--format", "json"],
        ["analyze"],
        ["analyze", "--format", "json"],
        ["timeline", "--format", "chrome"],
        ["timeline", "--format", "json"],
    ])
    def test_streamed_output_identical(self, tmp_path, capsys, argv):
        trace_file = self._record(tmp_path)
        seg_file = self._convert(tmp_path, trace_file)
        capsys.readouterr()
        assert main([*argv, seg_file]) == 0  # auto-streams
        streamed = capsys.readouterr().out
        assert main([*argv, seg_file, "--no-stream"]) == 0
        full_seg = capsys.readouterr().out
        assert main([*argv, trace_file]) == 0
        full_mono = capsys.readouterr().out
        assert streamed == full_seg == full_mono

    def test_timeline_of_segmented_file_raises_no_deprecation(
        self, tmp_path, capsys
    ):
        # `repro timeline` hands the facade an options object, not the
        # deprecated bare keywords, and its bytes equal the full load's
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        seg_file = self._convert(tmp_path, self._record(tmp_path))
        capsys.readouterr()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-m", "repro",
             "timeline", seg_file, "--format", "json"],
            capture_output=True, env=env, timeout=240,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert main(["timeline", seg_file, "--format", "json",
                     "--no-stream"]) == 0
        assert proc.stdout.decode() == capsys.readouterr().out

    def test_stream_flag_rejects_monolithic(self, tmp_path, capsys):
        trace_file = self._record(tmp_path)
        capsys.readouterr()
        assert main(["analyze", trace_file, "--stream"]) == 1
        assert "requires a segmented trace" in capsys.readouterr().err

    def test_stream_and_salvage_incompatible(self, tmp_path, capsys):
        trace_file = self._record(tmp_path)
        seg_file = self._convert(tmp_path, trace_file)
        capsys.readouterr()
        assert main(["analyze", seg_file, "--stream", "--salvage"]) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_salvage_on_truncated_segmented_file(self, tmp_path, capsys):
        trace_file = self._record(tmp_path)
        seg_file = self._convert(tmp_path, trace_file)
        data = open(seg_file, "rb").read()
        open(seg_file, "wb").write(data[: len(data) // 2])
        capsys.readouterr()
        assert main(["stats", seg_file, "--salvage"]) == 0
        assert "events=" in capsys.readouterr().out

    def test_timeline_ascii_on_segmented_file(self, tmp_path, capsys):
        trace_file = self._record(tmp_path)
        seg_file = self._convert(tmp_path, trace_file)
        capsys.readouterr()
        assert main(["timeline", seg_file, "--width", "40"]) == 0
        ascii_seg = capsys.readouterr().out
        assert main(["timeline", trace_file, "--width", "40"]) == 0
        assert ascii_seg == capsys.readouterr().out


class TestResumeAndExitCodes:
    def test_run_id_then_resume_is_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "experiment", "table1", "--cache-dir", cache_dir,
            "--run-id", "r1",
        ]) == 0
        first = capsys.readouterr().out
        assert main(["resume", "r1", "--cache-dir", cache_dir]) == 0
        resumed = capsys.readouterr().out
        # the resume banner aside, the rendered table must be identical
        assert resumed.splitlines()[0].startswith("resuming run r1")
        assert resumed.split("\n", 1)[1] == first

    def test_resume_skips_journaled_tasks(self, tmp_path, capsys):
        from repro.runner.pool import RUN_STATS

        cache_dir = str(tmp_path / "cache")
        assert main([
            "experiment", "table1", "--cache-dir", cache_dir,
            "--run-id", "r2", "--jobs", "2",
        ]) == 0
        assert main(["resume", "r2", "--cache-dir", cache_dir]) == 0
        assert RUN_STATS.skipped > 0

    def test_resume_unknown_run_is_usage_error(self, tmp_path, capsys):
        assert main([
            "resume", "nope", "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        assert "no journal for run" in capsys.readouterr().err

    def test_run_id_without_cache_is_usage_error(self, capsys):
        assert main([
            "experiment", "table1", "--no-cache", "--run-id", "r3",
        ]) == 2
        assert "--run-id needs" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        from repro import cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli.COMMANDS, "list", boom)
        assert main(["list"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_budget_deadline_partial_exits_3(self, capsys):
        # an already-expired deadline quarantines every cell under
        # --partial: the run completes degraded and reports it via rc 3
        assert main([
            "experiment", "table1", "--no-cache", "--partial",
            "--deadline", "0.000001",
        ]) == 3
        assert "n/a" in capsys.readouterr().out

    def test_analyze_resume_needs_streaming(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        capsys.readouterr()
        assert main([
            "analyze", trace_file, "--no-stream", "--resume", "r4",
        ]) == 2
        assert "--resume needs a segmented" in capsys.readouterr().err

    def test_analyze_resume_on_segmented_file(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        seg_file = str(tmp_path / "t.seg.jsonl")
        main(["record", "transmissionBT", "-o", trace_file])
        main(["convert", trace_file, seg_file, "--segment-events", "64"])
        capsys.readouterr()
        assert main(["analyze", seg_file, "--format", "json"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "analyze", seg_file, "--resume", "r5", "--checkpoint-every", "2",
            "--format", "json",
        ]) == 0
        assert capsys.readouterr().out == plain


class TestChaosCommand:
    def test_chaos_smoke(self, tmp_path, capsys):
        report_file = tmp_path / "chaos.json"
        assert main([
            "chaos", "--cycles", "3", "--seed", "7",
            "--report", str(report_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos soak: 3 cycles" in out
        assert "invariant violations: none" in out
        import json

        data = json.loads(report_file.read_text())
        assert data["violations"] == []
        assert len(data["results"]) == 3

    def test_chaos_unknown_op_is_error(self, capsys):
        assert main(["chaos", "--cycles", "1", "--ops", "nope"]) == 2
        assert "unknown chaos ops" in capsys.readouterr().err
