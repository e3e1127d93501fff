"""Backend parity: numpy kernels == pure Python == reference, byte for byte.

The vectorized kernels (:mod:`repro.kernels`) must be invisible in the
output: for any trace, analysis and transformation under the numpy
backend equal the pure-Python walk, which in turn equals the retained
:mod:`repro.analysis.reference` oracle — identical pair kinds,
breakdowns, section state and serialized transformed traces.

Also covered here: the ``REPRO_NO_NUMPY`` forced-fallback knob, the
affinity-sharded single-trace scan (``jobs N == jobs 1`` determinism,
error surfacing, graceful unpinned degradation) and the
``runner.affinity`` telemetry gauge.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import kernels
from repro.analysis import analyze_pairs, transform
from repro.analysis.reference import analyze_pairs_reference
from repro.analysis.streaming import analyze_segments
from repro.errors import TraceError
from repro.record import record
from repro.telemetry import Telemetry, use_telemetry
from repro.trace import dumps, loads
from repro.trace.segments import SegmentedTraceWriter, write_segmented
from repro.trace.trace import TraceMeta
from repro.workloads import get_workload

from tests.analysis.test_engine_equivalence import (
    breakdown_tuple,
    build_program,
    pair_kinds,
    program_set_strategy,
    section_state,
)

requires_numpy = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="numpy not installed"
)

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


@contextmanager
def forced_backend(name):
    previous = kernels.backend()
    kernels.set_backend(name)
    try:
        yield
    finally:
        kernels.set_backend(previous)


def _full_output(payload, backend):
    """Analysis + transformed bytes under one backend, on a fresh trace.

    A fresh ``loads`` per backend matters: the scan and columnar-view
    memos live on the trace object, and a shared instance would let the
    second backend coast on the first one's cached work.
    """
    with forced_backend(backend):
        trace = loads(payload)
        analysis = analyze_pairs(trace)
        result = transform(trace, analysis=analysis)
        return (
            pair_kinds(analysis),
            breakdown_tuple(analysis),
            section_state(analysis.sections),
            dumps(result.trace),
        )


def _reference_output(payload):
    with forced_backend("python"):
        trace = loads(payload)
        analysis = analyze_pairs_reference(trace)
        result = transform(trace, analysis=analysis)
        return (
            pair_kinds(analysis),
            breakdown_tuple(analysis),
            section_state(analysis.sections),
            dumps(result.trace),
        )


# ------------------------------------------------------- backend parity


@requires_numpy
@settings(max_examples=40, deadline=None)
@given(program_set_strategy)
def test_random_programs_backend_parity(program_specs):
    programs = [build_program(sections) for sections in program_specs]
    payload = dumps(record([p() for p in programs]).trace)
    vectorized = _full_output(payload, "numpy")
    pure = _full_output(payload, "python")
    reference = _reference_output(payload)
    assert vectorized == pure
    assert pure == reference


@requires_numpy
@pytest.mark.parametrize("workload", ("tunable-contention", "mixed-bag"))
def test_workload_backend_parity(workload):
    trace = get_workload(workload, threads=4, seed=5).record().trace
    payload = dumps(trace)
    assert _full_output(payload, "numpy") == _full_output(payload, "python")


def test_forced_fallback_env_knob():
    """REPRO_NO_NUMPY forces the python backend even with numpy installed."""
    code = (
        "import repro.kernels as k; "
        "assert not k.HAVE_NUMPY; "
        "assert k.backend() == 'python'; "
        "assert not k.use_numpy(); "
        "print('ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "REPRO_NO_NUMPY": "1",
             "PYTHONPATH": str(SRC_DIR)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@requires_numpy
def test_numpy_backend_refused_when_disabled(monkeypatch):
    monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
    with pytest.raises(RuntimeError, match="unavailable"):
        kernels.set_backend("numpy")
    assert kernels.set_backend("auto") == "python"
    kernels.set_backend("auto")  # restore under the real HAVE_NUMPY later


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
