"""The affinity-sharded single-trace scan and ``runner.affinity``.

``jobs N == jobs 1`` determinism, error surfacing, graceful unpinned
degradation and the ``runner.affinity`` telemetry gauge.
"""

import os

import pytest

from repro.analysis.streaming import analyze_segments
from repro.errors import TraceError
from repro.telemetry import Telemetry, use_telemetry
from repro.trace.segments import SegmentedTraceWriter, write_segmented
from repro.trace.trace import TraceMeta
from repro.workloads import get_workload

from tests.analysis.test_engine_equivalence import breakdown_tuple, pair_kinds


# --------------------------------------------------- sharded fan-out scan


def _segmented_workload(tmp_path, name="shard.seg.jsonl.gz"):
    trace = get_workload("mixed-bag", threads=4, seed=2).record().trace
    path = tmp_path / name
    write_segmented(trace, path, segment_events=256)
    return path


def _analysis_state(analysis):
    """Comparable state for streaming analyses.

    Unlike :func:`section_state` this never touches ``cs.body`` — a
    streamed section's body deliberately stays in the file (only its
    span is known) — so it compares everything a scan produces:
    identity, anchors, order and the four access masks.
    """
    sections = {
        cs.uid: (
            cs.tid,
            cs.lock,
            cs.lock_index,
            cs.pre_anchor,
            cs.post_anchor,
            frozenset(cs.reads),
            frozenset(cs.writes),
            frozenset(cs.srd),
            frozenset(cs.swr),
        )
        for cs in analysis.sections
    }
    return (
        pair_kinds(analysis),
        breakdown_tuple(analysis),
        [cs.uid for cs in analysis.sections],
        sections,
        analysis.events,
    )


def test_sharded_scan_matches_serial(tmp_path):
    path = _segmented_workload(tmp_path)
    serial = analyze_segments(path, jobs=1)
    sharded = analyze_segments(path, jobs=2)
    assert _analysis_state(sharded) == _analysis_state(serial)


def test_sharded_scan_more_jobs_than_threads(tmp_path):
    path = _segmented_workload(tmp_path)
    serial = analyze_segments(path, jobs=1)
    sharded = analyze_segments(path, jobs=64)  # clamps to thread count
    assert _analysis_state(sharded) == _analysis_state(serial)


def test_sharded_scan_rejects_checkpoint(tmp_path):
    path = _segmented_workload(tmp_path)
    with pytest.raises(ValueError, match="serial scan"):
        analyze_segments(path, jobs=2, checkpoint=object())


def test_sharded_scan_surfaces_trace_errors(tmp_path):
    path = tmp_path / "bad.seg.jsonl.gz"
    writer = SegmentedTraceWriter(
        path,
        meta=TraceMeta(name="bad", lock_cost=0, mem_cost=0),
        threads=["t0", "t1"],
        lock_schedule={"L": ["a0"]},
    )
    writer.add_block("t0", uids=["a0"], kinds="acquire", t=[0],
                     lock="L", t_request=[0])
    writer.add_block("t1", uids=["c0"], kinds="compute", t=[5], duration=1)
    writer.close()
    with pytest.raises(TraceError, match="unclosed"):
        analyze_segments(path, jobs=2)


def test_sharded_scan_unpinned_fallback(tmp_path, monkeypatch):
    """No pinnable CPUs: the fan-out still runs, gauge records 0."""
    from repro.runner import affinity

    monkeypatch.setattr(affinity, "slots", lambda: [])
    path = _segmented_workload(tmp_path)
    sink = Telemetry()
    with use_telemetry(sink):
        sharded = analyze_segments(path, jobs=2)
    serial = analyze_segments(path, jobs=1)
    assert _analysis_state(sharded) == _analysis_state(serial)
    assert sink.snapshot()["gauges"]["runner.affinity"] == 0


def test_sharded_scan_records_affinity_gauge(tmp_path):
    from repro.runner import affinity

    path = _segmented_workload(tmp_path)
    sink = Telemetry()
    with use_telemetry(sink):
        analyze_segments(path, jobs=2)
    assert (
        sink.snapshot()["gauges"]["runner.affinity"]
        == len(affinity.slots())
    )


def test_sharded_scan_of_threadless_trace(tmp_path):
    """No threads means no shards: ``jobs=2`` still returns the empty
    analysis, byte for byte what the serial streaming scan renders."""
    from repro import api
    from repro.options import AnalyzeOptions
    from repro.serve import protocol
    from repro.trace.trace import Trace

    path = tmp_path / "empty.seg.jsonl.gz"
    write_segmented(Trace(meta=TraceMeta(name="empty")), path)

    def envelope(options):
        analysis = api.analyze(path, options)
        return protocol.wire_dumps(
            protocol.ok_envelope(protocol.analyze_result(analysis))
        )

    assert envelope(AnalyzeOptions(jobs=2)) == envelope(
        AnalyzeOptions(stream=True)
    )


def test_analyze_facade_jobs_needs_segmented_file():
    from repro import api

    trace = get_workload("tunable-contention", threads=2, seed=0)
    trace = trace.record().trace
    with pytest.raises(TraceError, match="jobs"):
        api.analyze(trace, jobs=2)


# ------------------------------------------------------------- affinity


def test_affinity_degrades_silently(monkeypatch):
    from repro.runner import affinity

    monkeypatch.setattr(affinity, "supported", lambda: False)
    assert affinity.slots() == []
    assert affinity.pin(0) is None
    assert affinity.pin(3, []) is None


def test_affinity_pin_compact_placement():
    from repro.runner import affinity

    if not affinity.supported():
        pytest.skip("platform cannot pin")
    original = os.sched_getaffinity(0)
    cpus = sorted(original)
    try:
        for index in (0, 1, len(cpus) + 1):
            cpu = affinity.pin(index, cpus)
            assert cpu == cpus[index % len(cpus)]
            assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, original)
