"""``repro watch`` end to end: formats, exit codes, run-to-run identity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.observe.fold import fold_snapshots, snapshot_dumps
from repro.trace.segments import write_segmented

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def seg_trace(tmp_path_factory):
    trace = api.record("mixed-bag", threads=2, scale=1.0, seed=3)
    path = tmp_path_factory.mktemp("watchcli") / "t.seg.jsonl.gz"
    write_segmented(trace, path, segment_events=64)
    return path


class TestWatchCommand:
    def test_json_stream_matches_batch_fold(self, seg_trace, capsys):
        assert main(["watch", str(seg_trace), "--format", "json"]) == 0
        out = capsys.readouterr().out
        expected = "".join(snapshot_dumps(s) for s in fold_snapshots(seg_trace))
        assert out == expected

    def test_text_format_renders(self, seg_trace, capsys):
        assert main(["watch", str(seg_trace)]) == 0
        out = capsys.readouterr().out
        assert "repro watch" in out
        assert "final snapshot" in out

    def test_final_output_matches_analyze_json(self, seg_trace, tmp_path,
                                               capsys):
        final = tmp_path / "final.json"
        assert main([
            "watch", str(seg_trace), "--format", "json",
            "--final-output", str(final),
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", str(seg_trace), "--format", "json"]) == 0
        batch = capsys.readouterr().out
        assert final.read_text(encoding="utf-8") == batch

    def test_until_stable_early_stop_is_partial(self, seg_trace, capsys):
        code = main([
            "watch", str(seg_trace), "--format", "json", "--until-stable", "1",
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert "stopping early" in captured.err
        last = json.loads(captured.out.strip().splitlines()[-1])
        assert last["stable_for"] >= 1 and not last["complete"]

    def test_bad_interval_is_usage_error(self, seg_trace):
        assert main(["watch", str(seg_trace), "--interval", "0"]) == 2

    def test_negative_until_stable_is_usage_error(self, seg_trace):
        assert main(["watch", str(seg_trace), "--until-stable", "-1"]) == 2

    def test_non_segmented_file_is_usage_error(self, tmp_path, capsys):
        from repro.trace import serialize

        trace_file = tmp_path / "t.jsonl"
        trace = api.record("blackscholes", threads=2, scale=0.2, seed=1)
        with open(trace_file, "w", encoding="utf-8") as handle:
            serialize.write_trace(trace, handle)
        assert main(["watch", str(trace_file)]) == 2
        assert "segmented" in capsys.readouterr().err


class TestStreamDeterminism:
    def _run_watch(self, path):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "watch", str(path),
             "--format", "json"],
            capture_output=True, env=env, timeout=240,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_stream_is_byte_identical_across_runs(self, seg_trace):
        """The snapshot stream depends only on the trace, not the run."""
        first = self._run_watch(seg_trace)
        second = self._run_watch(seg_trace)
        assert first == second
        assert first.count(b"\n") >= 2
