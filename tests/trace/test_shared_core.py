"""The process-wide registry of decoded segmented cores.

``load_segmented_columnar`` shares one decoded core per file while some
result still references it: the registry is weak, keyed from a fresh
sidecar index only, and never vouches for a file that changed.
"""

import gc
import os
import sys
import threading

import pytest

from repro.record import record
from repro.sim import Acquire, Compute, Release, Store, Write
from repro.trace.segments import (
    _decode_columnar,
    index_path,
    load_segmented_columnar,
    shared_core,
    write_segmented,
)

DENSE = ("kind", "t", "duration", "t_request", "value", "lock_id", "addr_id",
         "flags", "uids", "sites")
SPARSE = ("ops", "tokens", "reasons", "woken")


def locked_trace(rounds=6, base=0):
    def prog(k):
        for i in range(rounds):
            yield Compute(40 + k)
            yield Acquire(lock="L")
            yield Write("x", op=Store(base + i), site=None)
            yield Release(lock="L")

    return record([(prog(0), "a"), (prog(1), "b")], lock_cost=0,
                  mem_cost=0).trace


def core_state(core):
    """Everything a decoded core carries, as comparable plain data."""
    return {
        "meta": core.meta.encode(),
        "lock_schedule": core.lock_schedule,
        "columns": {
            tid: {**{name: list(getattr(col, name)) for name in DENSE},
                  **{name: dict(getattr(col, name)) for name in SPARSE}}
            for tid, col in core.columns.items()
        },
    }


@pytest.fixture
def seg_path(tmp_path):
    path = tmp_path / "t.seg.jsonl.gz"
    write_segmented(locked_trace(), path, segment_events=7)
    return path


class TestSharing:
    def test_same_object_while_a_holder_lives(self, seg_path, decodes):
        first = load_segmented_columnar(seg_path)
        assert load_segmented_columnar(seg_path) is first
        assert shared_core(seg_path) is first
        assert len(decodes) == 1

    def test_dropped_core_decodes_afresh(self, seg_path, decodes):
        first = load_segmented_columnar(seg_path)
        state = core_state(first)
        del first
        gc.collect()
        assert shared_core(seg_path) is None
        again = load_segmented_columnar(seg_path)
        assert len(decodes) == 2
        assert core_state(again) == state

    def test_rewritten_file_never_gets_the_stale_core(self, seg_path, decodes):
        old = load_segmented_columnar(seg_path)
        write_segmented(locked_trace(base=100), seg_path, segment_events=7)
        fresh = load_segmented_columnar(seg_path)
        assert fresh is not old
        assert len(decodes) == 2
        values = [v for col in fresh.columns.values() for v in col.value]
        assert max(values) >= 100
        assert core_state(old) != core_state(fresh)

    def test_same_content_under_a_new_header_is_not_shared(self, tmp_path):
        # segment digests do not cover the header block; the header
        # digest and the file identity in the key do
        path = tmp_path / "t.seg.jsonl.gz"
        trace = locked_trace()
        write_segmented(trace, path, segment_events=7)
        old = load_segmented_columnar(path)
        trace.meta.name = "renamed"
        write_segmented(trace, path, segment_events=7)
        assert load_segmented_columnar(path).meta.name == "renamed"
        assert old.meta.name != "renamed"

    def test_new_header_under_the_same_identity_is_not_shared(self, tmp_path):
        # an in-place rewrite that keeps the inode and the mtime, as two
        # quick rewrites can when the inode is reused within one clock
        # tick: only the header digest in the key tells the files apart
        path = tmp_path / "t.seg.jsonl.gz"
        trace = locked_trace()
        write_segmented(trace, path, segment_events=7)
        old = load_segmented_columnar(path)
        before = path.stat()
        trace.meta.name = "renamed"
        other = tmp_path / "u.seg.jsonl.gz"
        write_segmented(trace, other, segment_events=7)
        with open(path, "r+b") as handle:
            handle.write(other.read_bytes())
            handle.truncate()
        index_path(path).write_bytes(index_path(other).read_bytes())
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                     before.st_mtime_ns)
        assert load_segmented_columnar(path).meta.name == "renamed"
        assert old.meta.name != "renamed"

    def test_missing_index_is_not_shared_and_not_rebuilt(self, seg_path,
                                                         decodes):
        index_path(seg_path).unlink()
        first = load_segmented_columnar(seg_path)
        second = load_segmented_columnar(seg_path)
        assert second is not first
        assert core_state(second) == core_state(first)
        assert shared_core(seg_path) is None
        assert len(decodes) == 2
        assert not index_path(seg_path).exists()

    def test_stale_index_is_not_shared_and_left_untouched(self, seg_path,
                                                          decodes):
        idx = index_path(seg_path)
        stale = idx.read_text().replace('"file_size":', '"file_size":1')
        idx.write_text(stale)
        mtime = idx.stat().st_mtime_ns
        first = load_segmented_columnar(seg_path)
        assert load_segmented_columnar(seg_path) is not first
        assert shared_core(seg_path) is None
        assert len(decodes) == 2
        assert idx.read_text() == stale
        assert idx.stat().st_mtime_ns == mtime


class TestConcurrentLoads:
    def test_four_threads_get_equal_cores(self, seg_path):
        results = [None] * 4
        errors = []
        start = threading.Barrier(4)

        def load(slot):
            try:
                start.wait(timeout=10)
                results[slot] = load_segmented_columnar(seg_path)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(core is results[0] for core in results)
        assert core_state(results[0]) == core_state(
            _decode_columnar(seg_path))
