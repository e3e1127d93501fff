"""Benign-vs-TLCP separation via reversed replay.

Algorithm 1 cannot distinguish a benign false conflict (redundant writes,
commutative updates) from a true conflict: both intersect.  The paper
replays the trace with the two critical sections in reversed order and
compares results.  Here the reversed replay is a micro-interpretation of
the two CS bodies' memory operations: because trace writes carry their
micro-op (``store v`` / ``add k``), both orders can be re-executed from
the memory state the pair originally saw, and the outcomes compared —
final memory state *and* the values every read observes.

The initial state is reconstructed from the recorded write timeline, so
each pair is judged against the state it actually executed under.
"""

from __future__ import annotations

import bisect
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import kernels
from repro.analysis.sections import CriticalSection
from repro.sim.requests import decode_op
from repro.trace.events import READ, WRITE, TraceEvent
from repro.trace.interning import WRITE_CODE, positions
from repro.trace.trace import _uid_order


class WriteTimeline:
    """Per-address sorted write history, for point-in-time state lookups.

    Construction is lazy end to end: handing a trace over costs nothing,
    the per-address histories are collected on the first ``value_at``
    call (one pass over the trace — via the columnar core's arrays when
    one is attached), and each address's history is sorted only when
    that address is first queried.  An analysis in which no pair ever
    reaches the benign test therefore never pays for the timeline.

    History entries are ``(t, order_key, value)`` with ``order_key`` the
    record-order tie break, so equal-timestamp writes resolve exactly as
    in a full time-ordered walk of the trace.
    """

    def __init__(self, trace):
        self._trace = trace
        # addr -> [(t, order_key, value)]; None until first use
        self._writes: Optional[Dict[str, List[Tuple]]] = None
        self._sorted: set = set()

    @classmethod
    def from_writes(cls, writes: Dict[str, List[Tuple]]) -> "WriteTimeline":
        """A timeline over pre-collected per-address write histories.

        The streaming analysis path gathers ``(t, order_key, value)``
        entries for the addresses it needs during its segment walk and
        hands them over here — no trace object exists to collect from.
        Entries may arrive unsorted; sorting stays per-address lazy.
        """
        timeline = cls.__new__(cls)
        timeline._trace = None
        timeline._writes = writes
        timeline._sorted = set()
        return timeline

    def _collect(self) -> Dict[str, List[Tuple]]:
        if self._writes is not None:
            return self._writes
        writes: Dict[str, List[Tuple]] = {}
        trace = self._trace
        core = getattr(trace, "_columnar", None)
        if core is None and hasattr(trace, "columns"):
            core = trace  # already a ColumnarTrace
        if core is not None:
            start = perf_counter()
            addr_name = core.tables.addrs.name
            for column in core.columns.values():
                addr_ids = column.addr_id
                ts = column.t
                values = column.value
                uids = column.uids
                for i in positions(column.kind, WRITE_CODE):
                    writes.setdefault(addr_name(addr_ids[i]), []).append(
                        (ts[i], _uid_order(uids[i]), values[i])
                    )
            kernels.record("timeline_collect", perf_counter() - start)
        else:
            for event in trace.iter_events():
                if event.kind == WRITE:
                    writes.setdefault(event.addr, []).append(
                        (event.t, _uid_order(event.uid), event.value)
                    )
        self._writes = writes
        return writes

    def value_at(self, addr: str, t: int) -> int:
        """The value of ``addr`` just *before* simulated time ``t``."""
        history = self._collect().get(addr)
        if not history:
            return 0
        if addr not in self._sorted:
            history.sort()
            self._sorted.add(addr)
        # (t,) sorts before every (t, order, value) entry at time t, so
        # idx-1 is the last write strictly before t
        idx = bisect.bisect_left(history, (t,)) - 1
        if idx < 0:
            return 0
        return history[idx][2]


def _memory_ops(cs: CriticalSection) -> List[TraceEvent]:
    return cs.memory_ops()


def _reads_and_state(ops: List[TraceEvent], state: Dict[str, int]):
    """Run one op sequence over a copy of ``state``; collect read values."""
    state = dict(state)
    values: List[int] = []
    for event in ops:
        if event.kind == READ:
            values.append(state.get(event.addr, 0))
        else:
            state[event.addr] = decode_op(event.op).apply(state.get(event.addr, 0))
    return values, state


def is_benign(
    c1: CriticalSection, c2: CriticalSection, timeline: WriteTimeline
) -> bool:
    """Reversed replay: does swapping the pair leave the outcome unchanged?

    Read values are compared *per section* (each section's reads must see
    the same values in both orders), and the final memory state must match.
    Four single-section interpretations cover both orders: running c2
    from c1's end state *is* the forward replay, and symmetrically for
    the reversed order.
    """
    ops1 = _memory_ops(c1)
    ops2 = _memory_ops(c2)
    touched = {e.addr for e in ops1} | {e.addr for e in ops2}
    start = {addr: timeline.value_at(addr, c1.t_start) for addr in touched}

    c1_first_reads, state_after_c1 = _reads_and_state(ops1, start)
    c2_second_reads, forward_state = _reads_and_state(ops2, state_after_c1)
    c2_first_reads, state_after_c2 = _reads_and_state(ops2, start)
    c1_second_reads, reversed_state = _reads_and_state(ops1, state_after_c2)

    if forward_state != reversed_state:
        return False
    return c1_first_reads == c1_second_reads and c2_first_reads == c2_second_reads
