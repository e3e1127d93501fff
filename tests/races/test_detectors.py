"""Tests for the happens-before race detector."""

from repro.analysis import transform
from repro.races import happens_before_races, transformed_trace_races
from repro.races.happens_before import VectorClock
from repro.record import record
from repro.sim import Acquire, Compute, Read, Release, SetFlag, AwaitFlag, Store, Write
from repro.trace import CodeSite


def site(line):
    return CodeSite("races.c", line)


def rec(*programs):
    return record(list(programs), lock_cost=0, mem_cost=0).trace


class TestVectorClock:
    def test_tick_and_join(self):
        a = VectorClock()
        a.tick("t0")
        b = VectorClock()
        b.tick("t1")
        b.join(a)
        assert b.clocks == {"t0": 1, "t1": 1}

    def test_happens_before(self):
        a = VectorClock({"t0": 1})
        b = VectorClock({"t0": 2, "t1": 1})
        assert a.happens_before(b)
        assert not b.happens_before(a)

    def test_concurrent_clocks(self):
        a = VectorClock({"t0": 1})
        b = VectorClock({"t1": 1})
        assert not a.happens_before(b) or not b.happens_before(a)


class TestHappensBefore:
    def test_lock_ordered_accesses_are_clean(self):
        def prog(val, delay):
            yield Compute(delay)
            yield Acquire(lock="L")
            yield Write("x", op=Store(val))
            yield Release(lock="L")

        assert happens_before_races(rec(prog(1, 0), prog(2, 50))) == []

    def test_unordered_conflicting_accesses_race(self):
        def prog(val, delay):
            yield Compute(delay)
            yield Write("x", op=Store(val))

        races = happens_before_races(rec(prog(1, 0), prog(2, 50)))
        assert races
        assert races[0].addr == "x"

    def test_flag_edge_orders_accesses(self):
        def producer():
            yield Write("x", op=Store(1))
            yield SetFlag(flag="ready")

        def consumer():
            yield AwaitFlag(flag="ready")
            yield Read("x")

        assert happens_before_races(rec(producer(), consumer())) == []

    def test_transformed_trace_tlcps_stay_ordered(self):
        def writer(val, delay):
            yield Compute(delay)
            yield Acquire(lock="L", site=site(1))
            yield Write("x", op=Store(val), site=site(2))
            yield Release(lock="L", site=site(3))

        trace = rec(writer(1, 0), writer(2, 50))
        result = transform(trace)
        # the TLCP became a causal edge; the transformed trace is race-free
        assert transformed_trace_races(result) == []

    def test_transformed_trace_reports_removed_conflicts(self):
        """If a real conflict were (wrongly) declassified, HB must flag it."""

        def writer(val, delay):
            yield Compute(delay)
            yield Acquire(lock="L", site=site(1))
            yield Write("x", op=Store(val), site=site(2))
            yield Release(lock="L", site=site(3))

        trace = rec(writer(1, 0), writer(2, 50))
        result = transform(trace)
        # forcibly break the causal edges to simulate a bad transformation
        result.plan.preds = {uid: [] for uid in result.plan.preds}
        races = transformed_trace_races(result)
        assert races
