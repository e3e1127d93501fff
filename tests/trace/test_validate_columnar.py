"""The columnar validation path against the event walk.

``problems`` proves a columnar thread clean from its columns and falls
back to the event walk only for a thread that trips a check.  On small
traces that break exactly one rule each, the columnar path must report
what the event walk over the same events reports, message for message
and in order; on a clean transform output it must never fall back.
"""

from array import array
import importlib

import pytest

from repro.analysis import transform
from repro.trace.events import (
    ACQUIRE,
    COMPUTE,
    POST,
    READ,
    RELEASE,
    THREAD_END,
    THREAD_START,
    WAIT,
    WRITE,
    TraceEvent,
)
from repro.trace.interning import (
    ACQUIRE_CODE,
    COMPUTE_CODE,
    READ_CODE,
    RELEASE_CODE,
    ColumnarThread,
    ColumnarTrace,
    InternTables,
)
from repro.trace.trace import Trace, TraceMeta

# the module, not the ``repro.trace.validate`` function it exports
validate_module = importlib.import_module("repro.trace.validate")


def _event(tid, n, kind, t, **fields):
    return TraceEvent(uid=f"{tid}.{n}", tid=tid, kind=kind, t=t, **fields)


def _clean_threads():
    """Two threads: a post/wait pair and one lock, all well formed."""
    return {
        "t0": [
            (THREAD_START, 0, {}),
            (ACQUIRE, 1, {"lock": "L"}),
            (READ, 2, {"addr": "x"}),
            (WRITE, 3, {"addr": "x", "value": 1, "op": ("store", 1)}),
            (RELEASE, 4, {"lock": "L"}),
            (POST, 5, {"token": "p1"}),
            (THREAD_END, 6, {}),
        ],
        "t1": [
            (THREAD_START, 0, {}),
            (WAIT, 6, {"token": "p1", "reason": "posted"}),
            (ACQUIRE, 7, {"lock": "L"}),
            (COMPUTE, 8, {"duration": 1}),
            (RELEASE, 9, {"lock": "L"}),
            (THREAD_END, 10, {}),
        ],
    }


def _build(threads, schedule=None) -> Trace:
    trace = Trace(TraceMeta(name="v"))
    for tid, rows in threads.items():
        trace.add_thread(tid)
        for n, (kind, t, fields) in enumerate(rows):
            trace.append(_event(tid, n, kind, t, **fields))
    if schedule is not None:
        trace.lock_schedule = schedule
    return trace


def _time_regression(threads):
    kind, _, fields = threads["t0"][3]
    threads["t0"][3] = (kind, 1, fields)


def _start_not_first(threads):
    threads["t1"].insert(3, (THREAD_START, 7, {}))


def _end_not_last(threads):
    threads["t0"].insert(5, (THREAD_END, 4, {}))


def _reacquire(threads):
    threads["t1"].insert(3, (ACQUIRE, 7, {"lock": "L"}))


def _release_unheld(threads):
    threads["t0"].insert(5, (RELEASE, 4, {"lock": "M"}))


def _never_released(threads):
    threads["t1"].insert(4, (ACQUIRE, 8, {"lock": "M"}))


def _missing_post(threads):
    threads["t1"][1] = (WAIT, 6, {"token": "nope", "reason": "posted"})


BROKEN = {
    "time_regression": (_time_regression, None),
    "thread_start_not_first": (_start_not_first, None),
    "thread_end_not_last": (_end_not_last, None),
    "reacquire_held_lock": (_reacquire, None),
    "release_unheld_lock": (_release_unheld, None),
    "lock_never_released": (_never_released, None),
    "wait_on_missing_post": (_missing_post, None),
    "schedule_uid_mismatch": (None, {"L": ["t0.1", "t1.99"]}),
    "schedule_count_mismatch": (None, {"L": ["t0.1"]}),
}


def test_clean_trace_has_no_problems():
    core = ColumnarTrace.from_trace(_build(_clean_threads()))
    assert validate_module.problems(core) == []
    assert validate_module.problems(core.to_trace()) == []


@pytest.mark.parametrize("rule", sorted(BROKEN))
def test_columnar_path_matches_event_walk(rule):
    mutate, schedule = BROKEN[rule]
    threads = _clean_threads()
    if mutate is not None:
        mutate(threads)
    core = ColumnarTrace.from_trace(_build(threads, schedule))
    by_events = validate_module.problems(core.to_trace())
    assert len(by_events) == 1, by_events
    assert validate_module.problems(core) == by_events


def _bigcore(n_threads=4, sections=2_500, period=100) -> ColumnarTrace:
    """A columnar trace of ``n_threads * sections * period`` events.

    Each period is one critical section on ``L`` reading the shared
    ``x``, then computation; the threads take turns, so every section is
    a read-read ULCP with its neighbours and the transform removes it.
    """
    tables = InternTables()
    lock = tables.locks.intern("L")
    addr = tables.addrs.intern("x")
    body = period - 3
    kinds = array("b", [ACQUIRE_CODE, READ_CODE, RELEASE_CODE]
                  + [COMPUTE_CODE] * body)
    locks = array("i", [lock, -1, lock] + [-1] * body)
    addrs = array("i", [-1, addr, -1] + [-1] * body)
    durations = array("q", [0, 0, 0] + [1] * body)
    core = ColumnarTrace(TraceMeta(name="big"), {}, {}, tables)
    for j in range(n_threads):
        tid = f"t{j}"
        column = ColumnarThread(tid, tables.tids.intern(tid), tables)
        n = sections * period
        column.kind = kinds * sections
        column.lock_id = locks * sections
        column.addr_id = addrs * sections
        column.duration = durations * sections
        column.t = array("q", [
            (s * n_threads + j) * period + k
            for s in range(sections) for k in range(period)
        ])
        column.t_request = array("q", column.t)
        column.value = array("q", bytes(8 * n))
        column.flags = array("B", bytes(n))
        column.uids = [f"{tid}.{i}" for i in range(n)]
        column.sites = [None] * n
        core.columns[tid] = column
    return core


def test_clean_transform_output_never_walks_events(monkeypatch):
    def walk(*args):
        raise AssertionError("a clean thread fell back to the event walk")

    core = _bigcore()
    assert len(core) == 1_000_000
    monkeypatch.setattr(validate_module, "_thread_problems", walk)
    result = transform(core)  # validates its output
    assert result.removed_sections > 0
    assert len(result.trace) == len(core) - 2 * result.removed_sections
    assert validate_module.problems(result.trace) == []
