"""Bench gate: streaming analysis of a huge trace in bounded memory.

Drives ``_segbench.py`` in a subprocess (its own address space, so
``ru_maxrss`` is an honest high-water mark), asserts the memory bound
the segmented format exists for — peak RSS stays O(segment)+O(answer)
while the trace is tens of millions of events — and records throughput
in ``BENCH_segments.json`` next to the other benchmark artifacts.

``REPRO_SEGBENCH_EVENTS`` overrides the trace size (default 10M; a full
load of 10M slotted event objects would need gigabytes).

A second gate holds ``api.analyze``'s default route to the same ceiling
at its size limit: a file of ``api.DECODE_ONCE_MAX_EVENTS`` events is
decoded once into a whole-trace core instead of streamed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_EVENTS = 10_000_000
#: peak-RSS ceiling: one segment's chunks + the answer (sections/pairs),
#: with generous headroom for the interpreter itself
RSS_LIMIT_MB = 512
#: throughput floor, conservative for slow CI runners
MIN_EVENTS_PER_SEC = 100_000

BENCH_SCRIPT = Path(__file__).with_name("_segbench.py")
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
RESULT_FILE = Path("BENCH_segments.json")


def _events() -> int:
    try:
        return int(os.environ.get("REPRO_SEGBENCH_EVENTS", DEFAULT_EVENTS))
    except ValueError:
        return DEFAULT_EVENTS


def _run_bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_SCRIPT), *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        timeout=1800,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_streaming_analysis_bounded_memory(tmp_path):
    events = _events()
    result = _run_bench(events, tmp_path)

    assert result["events"] == events
    assert result["segments"] >= events // 65536
    # every candidate pair in the synthetic workload is a ULCP, and the
    # analysis must have seen all of them
    assert result["pairs"] == result["ulcps"] > 0
    assert result["peak_rss_mb"] < RSS_LIMIT_MB, (
        f"streaming analysis peaked at {result['peak_rss_mb']} MB for "
        f"{events} events — memory is scaling with the trace, not the segment"
    )
    assert result["analyze_events_per_sec"] > MIN_EVENTS_PER_SEC

    RESULT_FILE.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"\n{json.dumps(result, sort_keys=True)}")


def test_decode_once_route_at_its_limit(tmp_path):
    from repro.api import DECODE_ONCE_MAX_EVENTS

    result = _run_bench(DECODE_ONCE_MAX_EVENTS, tmp_path, "auto")
    assert result["decoded_once"], "the limit is inclusive"
    assert result["events"] == DECODE_ONCE_MAX_EVENTS
    assert result["pairs"] == result["ulcps"] > 0
    assert result["peak_rss_mb"] < RSS_LIMIT_MB, (
        f"decode-once analysis peaked at {result['peak_rss_mb']} MB for "
        f"{DECODE_ONCE_MAX_EVENTS} events — lower DECODE_ONCE_MAX_EVENTS"
    )
    print(f"\n{json.dumps(result, sort_keys=True)}")
