"""The core-backed :class:`Trace` that ``ColumnarTrace.to_trace`` returns.

``api.transform`` and ``serialize.load`` of a segmented file hand out a
trace that holds its columnar core and builds its events on the first
read of ``threads``.  Nothing before that read may materialize; copies
and pickles must carry the events either way; and every result owns its
thread lists.
"""

import copy
import pickle

import pytest

from repro import api
from repro.trace import dumps, loads, serialize
from repro.trace import interning
from repro.trace.events import ACQUIRE
from repro.trace.segments import load_segmented_columnar, write_segmented
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def seg_path(tmp_path_factory):
    trace = get_workload("mixed-bag", threads=3, seed=2).record().trace
    path = tmp_path_factory.mktemp("lazy") / "t.seg.jsonl.gz"
    write_segmented(trace, path, segment_events=64)
    return path


@pytest.fixture()
def materialize_calls(monkeypatch):
    """The tids of every :func:`interning.materialize` call, in order."""
    calls = []
    real = interning.materialize

    def counting(column):
        calls.append(column.tid)
        return real(column)

    monkeypatch.setattr(interning, "materialize", counting)
    return calls


class TestNothingMaterializes:
    def test_transform_builds_no_events(self, seg_path, materialize_calls):
        transformed = api.transform(seg_path)
        full = api.transform(seg_path, full=True)
        assert materialize_calls == []
        assert len(transformed) == len(full.trace) > 0
        assert len(full.original) > len(full.trace)
        assert materialize_calls == []

    def test_queries_answer_from_core(self, seg_path, materialize_calls):
        expected = loads(dumps(api.transform(seg_path)))
        kinds = sorted({e.kind for e in expected.iter_events()}) + ["nope"]
        materialize_calls.clear()

        lazy = api.transform(seg_path)
        assert len(lazy) == len(expected)
        assert lazy.end_time == expected.end_time
        assert lazy.thread_ids == expected.thread_ids
        assert [lazy.count(k) for k in kinds] \
            == [expected.count(k) for k in kinds]
        assert lazy.locks() == expected.locks()
        assert lazy.meta.encode() == expected.meta.encode()
        pickle.dumps(lazy)
        assert materialize_calls == []

        lazy.threads
        assert sorted(materialize_calls) == sorted(expected.thread_ids)
        lazy.threads
        assert len(materialize_calls) == len(expected.thread_ids)
        assert dumps(lazy) == dumps(expected)

    def test_each_result_owns_its_threads(self, seg_path):
        core = load_segmented_columnar(seg_path)  # held: both loads share it
        first = api.transform(seg_path, full=True)
        second = api.transform(seg_path, full=True)
        tid = core.thread_ids[0]
        before = len(core.threads[tid])
        schedule = {lock: list(uids) for lock, uids in core.lock_schedule.items()}

        appended = first.trace.threads[tid]
        appended.append(appended[0])
        acquire = next(e for e in first.original.threads[tid]
                       if e.kind == ACQUIRE)
        first.original.append(acquire)

        assert len(first.trace.threads[tid]) == len(second.trace.threads[tid]) + 1
        assert len(second.original.threads[tid]) == before
        assert len(core.threads[tid]) == before
        assert core.lock_schedule == schedule
        assert second.original.lock_schedule == schedule
        assert first.original.lock_schedule[acquire.lock][-1] == acquire.uid


@pytest.mark.parametrize("load", ["transform", "load"])
@pytest.mark.parametrize("filled", [False, True], ids=["lazy", "filled"])
def test_copies_keep_every_event(seg_path, numpy_env, load, filled):
    trace = (api.transform(seg_path) if load == "transform"
             else serialize.load(seg_path))
    if filled:
        trace.threads
    clones = [pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)]
    want = dumps(trace)
    assert want == dumps(loads(want))
    for clone in clones:
        assert type(clone) is type(trace)
        assert dumps(clone) == want


def test_loads_never_share_events(seg_path):
    first = serialize.load(seg_path)  # unfilled: holds its core
    second = serialize.load(seg_path)
    tid = first.thread_ids[0]
    assert first.threads[tid][0] is not second.threads[tid][0]
    assert dumps(first) == dumps(second)
