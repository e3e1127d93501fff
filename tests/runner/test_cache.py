"""Content-addressed cache: keys, storage, and the cached pipeline steps."""

import pickle

from repro.runner import cache as cache_mod
from repro.runner import (
    TraceCache,
    cache_key,
    code_version,
    record_cached,
    trace_digest,
    transform_cached,
    use_cache,
)
from repro.runner.cache import memoized


class TestKeys:
    def test_cache_key_stable(self):
        a = cache_key("record", name="pbzip2", threads=2, seed=0)
        b = cache_key("record", name="pbzip2", threads=2, seed=0)
        assert a == b
        assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)

    def test_cache_key_order_insensitive(self):
        assert cache_key("k", x=1, y=2) == cache_key("k", y=2, x=1)

    def test_cache_key_differs_by_params(self):
        assert cache_key("record", seed=0) != cache_key("record", seed=1)
        assert cache_key("record", seed=0) != cache_key("replay", seed=0)

    def test_code_version_short_and_cached(self):
        v = code_version()
        assert len(v) == 12
        assert code_version() is v or code_version() == v

    def test_trace_digest_stable_and_content_sensitive(self):
        from repro.workloads import get_workload

        t1 = get_workload("pbzip2", threads=2, seed=0).record().trace
        t2 = get_workload("pbzip2", threads=2, seed=0).record().trace
        t3 = get_workload("pbzip2", threads=2, seed=1).record().trace
        assert trace_digest(t1) == trace_digest(t2)
        assert trace_digest(t1) != trace_digest(t3)


class TestTraceCache:
    def test_trace_put_get_round_trip(self, tmp_path):
        from repro.workloads import get_workload

        store = TraceCache(tmp_path)
        trace = get_workload("pbzip2", threads=2, seed=0).record().trace
        key = cache_key("t", seed=0)
        assert store.get_trace(key) is None
        path = store.put_trace(key, trace)
        assert path.name.endswith(".jsonl.gz")
        clone = store.get_trace(key)
        assert trace_digest(clone) == trace_digest(trace)

    def test_blob_put_get_round_trip(self, tmp_path):
        store = TraceCache(tmp_path)
        key = cache_key("b", x=1)
        assert store.get_blob(key) is None
        store.put_blob(key, {"rows": [1, 2, 3]})
        assert store.get_blob(key) == {"rows": [1, 2, 3]}

    def test_info_and_clear(self, tmp_path):
        from repro.workloads import get_workload

        store = TraceCache(tmp_path)
        trace = get_workload("pbzip2", threads=2, seed=0).record().trace
        store.put_trace(cache_key("t", i=0), trace)
        store.put_blob(cache_key("b", i=0), [1])
        store.put_blob(cache_key("b", i=1), [2])
        info = store.info()
        assert info.traces == 1 and info.blobs == 2
        assert info.total_bytes > 0
        assert "traces" in info.render()
        assert store.clear() == 3
        assert store.info().total_bytes == 0

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = TraceCache(tmp_path)
        store.put_blob(cache_key("b", i=0), "payload")
        leftovers = [p for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []


class TestActiveCache:
    def test_disabled_by_default(self):
        assert cache_mod.active() is None or isinstance(
            cache_mod.active(), TraceCache
        )

    def test_use_cache_scopes_activation(self, tmp_path):
        before = cache_mod.active()
        with use_cache(tmp_path) as store:
            assert cache_mod.active() is store
            assert store.root == tmp_path
        assert cache_mod.active() is before

    def test_memoized_without_cache_just_computes(self):
        with use_cache(None):
            calls = []
            assert memoized("k", {"x": 1}, lambda: calls.append(1) or 42) == 42
            assert memoized("k", {"x": 1}, lambda: calls.append(1) or 42) == 42
            assert len(calls) == 2

    def test_memoized_hits_cache(self, tmp_path):
        with use_cache(tmp_path):
            calls = []
            assert memoized("k", {"x": 1}, lambda: calls.append(1) or 42) == 42
            assert memoized("k", {"x": 1}, lambda: calls.append(1) or 42) == 42
            assert len(calls) == 1


class TestCachedPipeline:
    def test_record_cached_hit_is_equivalent(self, tmp_path):
        with use_cache(tmp_path):
            cold = record_cached("pbzip2", threads=2, seed=0)
            warm = record_cached("pbzip2", threads=2, seed=0)
        assert trace_digest(warm.trace) == trace_digest(cold.trace)
        assert warm.recorded_time == cold.recorded_time
        assert pickle.dumps(warm.machine_result) == pickle.dumps(
            cold.machine_result
        )

    def test_record_cached_distinguishes_workload_kwargs(self, tmp_path):
        with use_cache(tmp_path):
            original = record_cached("bug1-openldap-spinwait", threads=2, seed=0)
            fixed = record_cached(
                "bug1-openldap-spinwait", threads=2, seed=0,
                workload_kwargs={"fixed": True},
            )
        assert trace_digest(original.trace) != trace_digest(fixed.trace)

    def test_transform_cached_hit_is_equivalent(self, tmp_path):
        with use_cache(tmp_path):
            recorded = record_cached("pbzip2", threads=2, seed=0)
            cold = transform_cached(recorded.trace)
            warm = transform_cached(recorded.trace)
        assert trace_digest(warm.trace) == trace_digest(cold.trace)
        assert warm.removed_sections == cold.removed_sections

    def test_stale_code_version_misses(self, tmp_path, monkeypatch):
        with use_cache(tmp_path):
            calls = []
            memoized("k", {"x": 1}, lambda: calls.append(1) or "v1")
            monkeypatch.setattr(
                "repro.runner.keys.code_version", lambda: "000000000000"
            )
            assert memoized("k", {"x": 1}, lambda: calls.append(1) or "v2") == "v2"
            assert len(calls) == 2


class TestSegmentedDigest:
    def _segmented(self, tmp_path, seed=0, segment_events=20):
        from repro.trace.segments import write_segmented
        from repro.workloads import get_workload

        trace = get_workload("pbzip2", threads=2, seed=seed).record().trace
        path = tmp_path / f"t{seed}-{segment_events}.seg.jsonl.gz"
        write_segmented(trace, path, segment_events=segment_events)
        return path

    def test_stable_and_content_sensitive(self, tmp_path):
        from repro.runner import segmented_digest

        other = tmp_path.joinpath("b")
        other.mkdir()
        a = self._segmented(tmp_path, seed=0)
        b = self._segmented(other, seed=0)
        c = self._segmented(tmp_path, seed=1)
        assert segmented_digest(a) == segmented_digest(b)
        assert segmented_digest(a) != segmented_digest(c)
        assert len(segmented_digest(a)) == 32

    def test_index_and_stream_paths_agree(self, tmp_path):
        from repro.runner import segmented_digest
        from repro.trace.segments import index_path

        path = self._segmented(tmp_path)
        fast = segmented_digest(path)
        index_path(path).unlink()
        assert segmented_digest(path) == fast

    def test_segmentation_changes_the_digest(self, tmp_path):
        from repro.runner import segmented_digest

        a = self._segmented(tmp_path, segment_events=20)
        b = self._segmented(tmp_path, segment_events=7)
        assert segmented_digest(a) != segmented_digest(b)

    def test_header_changes_the_digest(self, tmp_path):
        import dataclasses

        from repro.runner import segmented_digest
        from repro.trace.segments import segment_digests, write_segmented
        from repro.workloads import get_workload

        trace = get_workload("pbzip2", threads=2, seed=0).record().trace
        a = tmp_path / "a.seg.jsonl.gz"
        write_segmented(trace, a, segment_events=20)
        trace.meta = dataclasses.replace(trace.meta, name="renamed")
        b = tmp_path / "b.seg.jsonl.gz"
        write_segmented(trace, b, segment_events=20)
        # equal events, so equal segments; only the header block differs
        assert segment_digests(a) == segment_digests(b)
        assert segmented_digest(a) != segmented_digest(b)

    def test_analyze_segments_cached_hit_is_equivalent(self, tmp_path):
        from repro.runner import analyze_segments_cached

        path = self._segmented(tmp_path)
        with use_cache(tmp_path / "cache"):
            cold = analyze_segments_cached(path)
            warm = analyze_segments_cached(path)
        assert [(p.c1.uid, p.c2.uid, p.kind) for p in warm.pairs] == [
            (p.c1.uid, p.c2.uid, p.kind) for p in cold.pairs
        ]
        assert warm.events == cold.events
        assert warm.breakdown.tlcp == cold.breakdown.tlcp
