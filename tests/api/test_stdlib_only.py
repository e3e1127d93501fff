"""The pipeline runs on the standard library alone.

A fresh interpreter runs the facade's heavy entry points on a small
segmented trace; none of them may import numpy (or anything that pulls
it in), whether or not it is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
from repro import api
from repro.timeline.build import build_timeline_segments
from repro.trace.segments import open_segmented, write_segmented

path = sys.argv[1]
write_segmented(api.record("mixed-bag", threads=2, scale=0.5, seed=1), path,
                segment_events=64)
analysis = api.analyze(path)
with open_segmented(path) as reader:
    build_timeline_segments(reader, analysis=analysis)
assert len(api.transform(path)) > 0
assert api.report(path).startswith("<!DOCTYPE html>")
assert "numpy" not in sys.modules, "numpy was imported"
print("ok")
"""


def test_pipeline_never_imports_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "t.seg.jsonl.gz")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
