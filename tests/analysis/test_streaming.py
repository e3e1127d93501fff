"""Streaming (segmented) analysis paths against their whole-trace twins.

Every streaming entry point — ``analyze_segments``, ``stats_segments``,
``build_timeline_segments`` — must produce output identical to the
monolithic path, including a workload whose FALSE pairs exercise the
second (benign-evidence) pass.
"""

import gc
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import api
from repro.analysis.pairs import analyze_pairs
from repro.analysis.streaming import analyze_segments
from repro.errors import TraceError
from repro.options import AnalyzeOptions
from repro.record import record
from repro.runner.budget import RunBudget, peak_rss_mb
from repro.runner.checkpoint import Checkpointer
from repro.serve import protocol
from repro.timeline import (
    build_timeline,
    build_timeline_segments,
    to_chrome_json,
    to_columnar_json,
)
from repro.trace import dumps
from repro.trace.segments import (
    index_path,
    load_index,
    open_segmented,
    write_segmented,
)
from repro.trace.stats import stats_segments, trace_stats
from tests.analysis.test_engine_equivalence import (
    build_program,
    program_set_strategy,
)


@pytest.fixture(scope="module")
def workload_trace():
    # mysql at this size classifies pairs into every category, including
    # benign (so the streaming second pass actually runs)
    return api.record("mysql", threads=3, input_size="simsmall", scale=0.4, seed=1)


@pytest.fixture(scope="module")
def segmented_path(workload_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("seg") / "t.seg.jsonl.gz"
    write_segmented(workload_trace, path, segment_events=37)
    return path


def _analysis_fingerprint(analysis):
    return {
        "events": analysis.events,
        "sections": [
            (cs.uid, cs.tid, cs.lock, cs.t_start, cs.t_end, cs.lock_index)
            for cs in analysis.sections
        ],
        "pairs": [
            (p.c1.uid, p.c2.uid, p.kind, p.lock) for p in analysis.pairs
        ],
        "breakdown": {
            k: getattr(analysis.breakdown, k)
            for k in ("null_lock", "read_read", "disjoint_write", "benign", "tlcp")
        },
        "benign_cache": dict(analysis.benign_cache),
        "envelope": protocol.wire_dumps(
            protocol.ok_envelope(protocol.analyze_result(analysis))
        ),
    }


class TestAnalyzeParity:
    def test_full_parity_including_benign_pass(self, workload_trace, segmented_path):
        whole = analyze_pairs(workload_trace)
        streamed = analyze_segments(segmented_path)
        assert whole.breakdown.benign > 0  # the second pass was exercised
        assert _analysis_fingerprint(streamed) == _analysis_fingerprint(whole)

    def test_parity_without_benign_detection(self, workload_trace, segmented_path):
        whole = analyze_pairs(workload_trace, benign_detection=False)
        streamed = analyze_segments(segmented_path, benign_detection=False)
        assert _analysis_fingerprint(streamed) == _analysis_fingerprint(whole)

    def test_parity_at_segment_size_one(self, workload_trace, tmp_path):
        # every event is its own segment: all cross-segment state carries
        path = tmp_path / "t1.seg.jsonl.gz"
        write_segmented(workload_trace, path, segment_events=1)
        whole = analyze_pairs(workload_trace)
        streamed = analyze_segments(path)
        assert _analysis_fingerprint(streamed) == _analysis_fingerprint(whole)

    def test_streamed_sections_expose_memory_ops_for_false_pairs(
        self, segmented_path
    ):
        streamed = analyze_segments(segmented_path)
        for (uid1, uid2) in streamed.benign_cache:
            by_uid = {cs.uid: cs for cs in streamed.sections}
            for uid in (uid1, uid2):
                ops = by_uid[uid].memory_ops()
                assert all(op.kind in ("read", "write") for op in ops)


class TestApiStream:
    def test_auto_streams_segmented_path(self, workload_trace, segmented_path):
        whole = api.analyze(workload_trace)
        auto = api.analyze(segmented_path)
        explicit = api.analyze(segmented_path, stream=True)
        assert _analysis_fingerprint(auto) == _analysis_fingerprint(whole)
        assert _analysis_fingerprint(explicit) == _analysis_fingerprint(whole)

    def test_stream_false_loads_fully(self, workload_trace, segmented_path):
        whole = api.analyze(workload_trace)
        loaded = api.analyze(segmented_path, stream=False)
        assert _analysis_fingerprint(loaded) == _analysis_fingerprint(whole)

    def test_stream_true_rejects_monolithic(self, workload_trace, tmp_path):
        from repro.trace import dump

        path = tmp_path / "t.jsonl.gz"
        dump(workload_trace, path)
        with pytest.raises(TraceError, match="segmented"):
            api.analyze(path, stream=True)

    def test_stream_true_rejects_trace_object(self, workload_trace):
        with pytest.raises(TraceError, match="segmented"):
            api.analyze(workload_trace, stream=True)


class TestStatsParity:
    def test_render_and_fields_identical(self, workload_trace, segmented_path):
        whole = trace_stats(workload_trace)
        with open_segmented(segmented_path) as reader:
            streamed = stats_segments(reader)
        assert streamed.render() == whole.render()
        assert streamed.total_events == whole.total_events
        assert streamed.end_time == whole.end_time
        assert streamed.locks == whole.locks
        assert streamed.shared_addresses == whole.shared_addresses
        assert dict(streamed.kinds) == dict(whole.kinds)
        assert set(streamed.threads) == set(whole.threads)
        for tid, expected in whole.threads.items():
            got = streamed.threads[tid]
            for attr in ("events", "compute_ns", "acquisitions", "contended",
                         "wait_ns", "reads", "writes"):
                assert getattr(got, attr) == getattr(expected, attr), (tid, attr)


class TestTimelineParity:
    def test_chrome_and_columnar_json_identical(
        self, workload_trace, segmented_path
    ):
        analysis = analyze_pairs(workload_trace)
        whole = build_timeline(workload_trace, analysis=analysis)
        streamed_analysis = analyze_segments(segmented_path)
        with open_segmented(segmented_path) as reader:
            streamed = build_timeline_segments(reader, analysis=streamed_analysis)
        assert to_chrome_json(streamed) == to_chrome_json(whole)
        assert to_columnar_json(streamed) == to_columnar_json(whole)
        # sanity: the chrome export is non-trivial
        doc = json.loads(to_chrome_json(streamed))
        assert doc["traceEvents"]

    def test_unmerged_parity(self, workload_trace, segmented_path):
        whole = build_timeline(workload_trace, merge=False)
        with open_segmented(segmented_path) as reader:
            streamed = build_timeline_segments(reader, merge=False)
        assert to_columnar_json(streamed) == to_columnar_json(whole)


class TestAutoRoute:
    """``stream="auto"`` decodes a small indexed file once, and equals
    the two-pass streaming analysis it replaces."""

    @pytest.mark.parametrize("name,seed", [
        ("mysql", 2), ("mixed-bag", 3), ("tunable-contention", 0),
        ("fluidanimate", 1),
    ])
    def test_seeded_traces_equal_streaming(self, tmp_path, name, seed):
        trace = api.record(name, threads=3, scale=0.3, seed=seed)
        path = tmp_path / "t.seg.jsonl.gz"
        write_segmented(trace, path, segment_events=53)
        auto = api.analyze(path)
        assert auto.core is not None  # the decode-once route ran
        streamed = analyze_segments(path)
        assert _analysis_fingerprint(auto) == _analysis_fingerprint(streamed)

    def test_without_benign_detection(self, segmented_path):
        options = AnalyzeOptions(benign_detection=False)
        auto = api.analyze(segmented_path, options)
        assert auto.core is not None
        assert _analysis_fingerprint(auto) == _analysis_fingerprint(
            analyze_segments(segmented_path, benign_detection=False))

    @settings(max_examples=30, deadline=None)
    @given(program_set_strategy)
    def test_random_programs_equal_streaming(self, program_specs):
        trace = record([build_program(s)() for s in program_specs]).trace
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.seg.jsonl.gz"
            write_segmented(trace, path, segment_events=5)
            auto = api.analyze(path)
            assert auto.core is not None
            assert _analysis_fingerprint(auto) == _analysis_fingerprint(
                analyze_segments(path))

    @pytest.mark.parametrize("trigger", [
        "stream_true", "resume", "jobs", "budget", "budget_under_watermark",
        "over_limit", "no_index",
    ])
    def test_streaming_triggers_still_stream(self, segmented_path, tmp_path,
                                             monkeypatch, trigger):
        path = tmp_path / "t.seg.jsonl.gz"
        path.write_bytes(segmented_path.read_bytes())
        index_path(path).write_bytes(index_path(segmented_path).read_bytes())
        options, kwargs = AnalyzeOptions(), {}
        if trigger == "stream_true":
            options = AnalyzeOptions(stream=True)
        elif trigger == "resume":
            options = AnalyzeOptions(resume="route")
        elif trigger == "jobs":
            options = AnalyzeOptions(jobs=2)
        elif trigger == "budget":
            kwargs["budget"] = RunBudget(max_rss_mb=1)
        elif trigger == "budget_under_watermark":
            # room left under the watermark, but a decoded core is the
            # whole trace: any memory budget keeps the streaming path
            budget = RunBudget(max_rss_mb=(peak_rss_mb() or 0) + 64)
            assert not budget.over_memory()
            kwargs["budget"] = budget
        elif trigger == "over_limit":
            events = load_index(path).events
            monkeypatch.setattr(api, "DECODE_ONCE_MAX_EVENTS", events - 1)
        else:
            index_path(path).unlink()
        analysis = api.analyze(path, options, **kwargs)
        assert analysis.core is None
        assert _analysis_fingerprint(analysis) == _analysis_fingerprint(
            analyze_segments(segmented_path))

    def test_deadline_only_budget_decodes_once(self, segmented_path):
        analysis = api.analyze(segmented_path, budget=RunBudget(deadline=600))
        assert analysis.core is not None

    def test_limit_is_inclusive(self, segmented_path, monkeypatch):
        events = load_index(segmented_path).events
        monkeypatch.setattr(api, "DECODE_ONCE_MAX_EVENTS", events)
        assert api.analyze(segmented_path).core is not None

    @pytest.mark.parametrize("limit", [None, 0])
    def test_progress_streams_one_snapshot_per_segment(self, segmented_path,
                                                       monkeypatch, limit):
        if limit is not None:
            monkeypatch.setattr(api, "DECODE_ONCE_MAX_EVENTS", limit)
        seen = []
        analysis = api.analyze(segmented_path, on_progress=seen.append)
        assert analysis.core is None
        # one snapshot per folded segment, plus the terminal one
        assert len(seen) == len(load_index(segmented_path).segments) + 1
        explicit = []
        api.analyze(segmented_path, AnalyzeOptions(stream=True),
                    on_progress=explicit.append)
        assert seen == explicit

    def test_analysis_unchanged_by_later_calls_on_the_shared_core(
        self, segmented_path
    ):
        analysis = api.analyze(segmented_path)
        assert analysis.core is not None
        before = _analysis_fingerprint(analysis)
        mem_ops = {cs.uid: [e.uid for e in cs.memory_ops()]
                   for cs in analysis.sections}
        with open_segmented(segmented_path) as reader:
            build_timeline_segments(reader, analysis=analysis)
        full = api.transform(segmented_path, full=True)
        assert full.analysis.sections is analysis.sections  # shared scan
        api.transform(segmented_path)
        assert _analysis_fingerprint(analysis) == before
        assert {cs.uid: [e.uid for e in cs.memory_ops()]
                for cs in analysis.sections} == mem_ops

    def test_flow_decodes_once(self, segmented_path, decodes):
        # analyze -> timeline -> transform: one decode while the analysis
        # lives, a fresh one once it is dropped
        analysis = api.analyze(segmented_path)
        with open_segmented(segmented_path) as reader:
            build_timeline_segments(reader, analysis=analysis)
        shared = api.transform(segmented_path)
        assert len(decodes) == 1
        del analysis
        gc.collect()
        fresh = api.transform(segmented_path)
        assert len(decodes) == 2
        assert dumps(shared) == dumps(fresh)


class TestSharedCoreTimeline:
    """With a live core, ``build_timeline_segments`` builds from it; the
    timeline must equal the streaming walk in every field and byte."""

    @pytest.mark.parametrize("merge", [True, False])
    def test_equals_streaming_walk(self, segmented_path, decodes, merge):
        streamed_analysis = analyze_segments(segmented_path)
        with open_segmented(segmented_path) as reader:
            streamed = build_timeline_segments(
                reader, analysis=streamed_analysis, merge=merge)
        analysis = api.analyze(segmented_path)
        assert analysis.core is not None
        decodes.clear()
        with open_segmented(segmented_path) as reader:
            shared = build_timeline_segments(reader, analysis=analysis,
                                             merge=merge)
        assert reader._handle.closed
        assert decodes == []  # built from the core, reader left unread
        assert shared == streamed
        assert shared.lanes == streamed.lanes
        assert shared.thread_start == streamed.thread_start
        assert shared.thread_end == streamed.thread_end
        assert shared.end_time == streamed.end_time
        assert to_columnar_json(shared) == to_columnar_json(streamed)
        assert to_chrome_json(shared) == to_chrome_json(streamed)

    def test_checkpoint_still_streams(self, segmented_path, tmp_path,
                                      decodes):
        analysis = api.analyze(segmented_path)
        assert analysis.core is not None
        with open_segmented(segmented_path) as reader:
            shared = build_timeline_segments(reader, analysis=analysis)
        decodes.clear()
        checkpoint = Checkpointer(tmp_path / "tl.ckpt.pkl.gz", tag="t",
                                  every=2)
        with open_segmented(segmented_path) as reader:
            streamed = build_timeline_segments(reader, analysis=analysis,
                                               checkpoint=checkpoint)
        assert len(decodes) == 1
        assert to_columnar_json(streamed) == to_columnar_json(shared)
