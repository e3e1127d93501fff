"""The interned columnar trace core: symbol tables, lazy views, round-trips."""

import gc
import pickle

import pytest

from repro import api
from repro.errors import TraceError
from repro.trace import dumps, loads, serialize
from repro.trace import interning
from repro.trace.codesite import CodeSite
from repro.trace.events import TraceEvent
from repro.trace.interning import (
    FLAG_SHARED,
    FLAG_SPIN,
    ColumnarThread,
    ColumnarTrace,
    InternTables,
    LazyEvents,
    SymbolTable,
    canonical_tables,
    materialize,
)
from repro.trace.segments import write_segmented
from repro.workloads import get_workload

from tests.analysis.helpers import cs_reader, cs_writer, record_programs


@pytest.fixture(scope="module")
def trace():
    return get_workload("mixed-bag", threads=3, seed=2).record().trace


class TestSymbolTable:
    def test_intern_is_idempotent(self):
        table = SymbolTable()
        assert table.intern("t0") == 0
        assert table.intern("t1") == 1
        assert table.intern("t0") == 0
        assert len(table) == 2

    def test_round_trip(self):
        table = SymbolTable()
        for name in ("A", "B", "C"):
            table.intern(name)
        clone = SymbolTable.decode(table.encode())
        assert clone.names == ["A", "B", "C"]
        assert clone.id("B") == 1
        assert clone.name(2) == "C"

    def test_decode_rejects_non_lists(self):
        with pytest.raises(TypeError):
            SymbolTable.decode("not-a-list")
        with pytest.raises(TypeError):
            SymbolTable.decode([1, 2, 3])


class TestColumnarTrace:
    def test_events_round_trip_exactly(self, trace):
        core = ColumnarTrace.from_trace(trace)
        for tid, events in trace.threads.items():
            assert list(core.threads[tid]) == events

    def test_read_api_matches_trace(self, trace):
        core = ColumnarTrace.from_trace(trace)
        assert core.thread_ids == trace.thread_ids
        assert len(core) == len(trace)
        assert core.end_time == trace.end_time
        assert core.locks() == trace.locks()
        for kind in ("acquire", "read", "write"):
            assert core.count(kind) == trace.count(kind)
        assert [e.uid for e in core.iter_time_order()] == [
            e.uid for e in trace.iter_time_order()
        ]

    def test_lazy_events_cache_and_slice(self, trace):
        core = ColumnarTrace.from_trace(trace)
        tid = trace.thread_ids[0]
        view = core.threads[tid]
        assert isinstance(view, LazyEvents)
        assert view[0] is view[0]  # materialized once, cached
        assert view[-1] == trace.threads[tid][-1]
        assert view[1:3] == trace.threads[tid][1:3]

    def test_trace_columnar_is_memoized_and_invalidated(self):
        trace = record_programs(cs_reader("L", "x"), cs_writer("L", "x"))
        core = trace.columnar()
        assert trace.columnar() is core
        trace.append(trace.threads[trace.thread_ids[0]][0])
        assert trace.columnar() is not core

    def test_pickle_drops_columnar_cache(self, trace):
        trace.columnar()
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._columnar is None
        assert len(clone) == len(trace)


class TestSymbolsSerialization:
    def test_symbols_survive_round_trip(self, trace):
        clone = loads(dumps(trace))
        assert isinstance(clone.symbols, InternTables)
        assert clone.symbols.tids.names == canonical_tables(trace).tids.names

    def test_round_trip_is_byte_stable(self, trace):
        text = dumps(trace)
        assert dumps(loads(text)) == text

    def test_old_files_without_symbols_still_load(self, trace):
        lines = [
            line
            for line in dumps(trace).splitlines()
            if not line.startswith('{"symbols"')
        ]
        clone = loads("\n".join(lines))
        assert clone.symbols is None
        assert len(clone) == len(trace)

    def test_malformed_symbols_rejected(self, trace):
        lines = dumps(trace).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith('{"symbols"'))
        lines[idx] = '{"symbols": {"tids": 42}}'
        with pytest.raises(TraceError, match="malformed symbol table"):
            loads("\n".join(lines))

    def test_loaded_symbols_seed_interning(self, trace):
        clone = loads(dumps(trace))
        core = clone.columnar()
        assert core.tables is clone.symbols


def _payload_column() -> ColumnarThread:
    """One thread whose events together move every TraceEvent field off
    its default, so a field read from the wrong column shows."""
    site = CodeSite("m.c", 7, "f")
    events = [
        TraceEvent("e1", "t0", "thread_start", 1),
        TraceEvent("e2", "t0", "acquire", 5, site, lock="L", t_request=3,
                   spin=True),
        TraceEvent("e3", "t0", "write", 8, site, addr="x", value=13,
                   op=("add", 2)),
        TraceEvent("e4", "t0", "compute", 20, duration=7),
        TraceEvent("e5", "t0", "release", 21, site, lock="L"),
        TraceEvent("e6", "t0", "acquire", 30, lock="R", t_request=29,
                   shared=True),
        TraceEvent("e7", "t0", "release", 31, lock="R"),
        TraceEvent("e8", "t0", "wait", 40, duration=9, token="cv:1",
                   reason="cond"),
        TraceEvent("e9", "t0", "post", 41, token="cv:2", reason="signal",
                   woken=["t1", "t2"]),
        TraceEvent("e10", "t0", "cs_enter", 50, site, lock="L", token="e2",
                   spin=True),
        TraceEvent("e11", "t0", "read", 51, addr="y"),
        TraceEvent("e12", "t0", "cs_exit", 52, lock="L", token="e2"),
        TraceEvent("e13", "t0", "thread_end", 60),
    ]
    tables = InternTables()
    column = ColumnarThread("t0", tables.tids.intern("t0"), tables)
    for event in events:
        column.push(event)
    assert [column.event(i) for i in range(len(column))] == events
    assert column.ops and column.tokens and column.reasons and column.woken
    assert set(column.flags) == {0, FLAG_SPIN, FLAG_SHARED}
    return column


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_enabled(request):
    """Run with the cyclic GC on, then off; restore the caller's state."""
    was = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was:
        gc.enable()
    else:
        gc.disable()


class TestMaterialize:
    def test_equals_per_slot_events_on_every_slot(self, trace):
        columns = [_payload_column()]
        columns += trace.columnar().columns.values()
        transformed = api.transform(trace)
        columns += ColumnarTrace.from_trace(transformed).columns.values()
        for column in columns:
            bulk = materialize(column)
            assert len(bulk) == len(column)
            for i, event in enumerate(bulk):
                want = column.event(i)
                # field by field, so a reordered field names itself
                for name in TraceEvent.__dataclass_fields__:
                    assert getattr(event, name) == getattr(want, name), (
                        column.tid, i, name)

    def test_events_are_independent(self):
        column = _payload_column()
        first = materialize(column)
        second = materialize(column)
        slot = next(iter(column.woken))
        first[slot].woken.append("t9")
        assert column.woken[slot] == ["t1", "t2"]
        assert second == [column.event(i) for i in range(len(column))]
        assert second[slot].woken == ["t1", "t2"]

    def test_lazy_slot_read_before_iteration_keeps_identity(self):
        column = _payload_column()
        view = LazyEvents(column)
        early = view[3]
        last = view[-1]
        events = list(view)
        assert events[3] is early
        assert events[-1] is last
        assert events == [column.event(i) for i in range(len(column))]
        assert list(view) == events
        assert all(a is b for a, b in zip(view, events))

    def test_gc_state_restored(self, gc_enabled):
        materialize(_payload_column())
        assert gc.isenabled() is gc_enabled

    def test_gc_state_restored_when_the_loop_raises(self, monkeypatch,
                                                    gc_enabled):
        column = _payload_column()
        seen = []

        def broken(*args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(interning, "TraceEvent", broken)
        with pytest.raises(RuntimeError, match="boom"):
            materialize(column)
        assert gc.isenabled() is gc_enabled
        assert seen == [False]  # paused inside the loop


class TestTransformColumnarRoute:
    """``api.transform(path)`` on a segmented file never builds the
    input's events; its output must match the fully loaded route."""

    @pytest.fixture(scope="class")
    def seg_path(self, tmp_path_factory, trace):
        path = tmp_path_factory.mktemp("seg") / "t.seg.jsonl.gz"
        write_segmented(trace, path, segment_events=64)
        return path

    @pytest.mark.usefixtures("numpy_env")
    def test_same_bytes_and_results_as_loaded_trace(self, seg_path):
        by_path = api.transform(seg_path)
        loaded = api.transform(serialize.load(seg_path))
        assert dumps(by_path) == dumps(loaded)
        full_path = api.transform(seg_path, full=True)
        full_loaded = api.transform(serialize.load(seg_path), full=True)
        assert type(by_path) is type(loaded)
        assert type(full_path.trace) is type(full_loaded.trace)
        assert type(full_path.original) is type(full_loaded.original)
        assert dumps(full_path.trace) == dumps(full_loaded.trace)
        assert dumps(full_path.original) == dumps(full_loaded.original)
        assert full_path.analysis.breakdown == full_loaded.analysis.breakdown
        assert full_path.removed_sections == full_loaded.removed_sections
        assert full_path.removed_sections > 0
