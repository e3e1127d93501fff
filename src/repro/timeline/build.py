"""Deterministic timeline construction from traces and replays.

:func:`build_timeline` converts any :class:`~repro.trace.trace.Trace`
into per-thread interval lanes in one pass over the interned columnar
core (O(events), no :class:`TraceEvent` materialization on the hot
path).  Passing a :class:`~repro.replay.results.ReplayResult` whose
replay collected intervals (``api.replay(..., timeline=True)`` or
:class:`repro.replay.collector.IntervalCollector`) reuses the live
lanes instead and only annotates them.

ULCP classification reuses a :class:`~repro.analysis.pairs.PairAnalysis`
— no second trace walk: each critical section's acquire uid is looked up
in the pair table (the classification of the pair the section *closes*
wins over the one it opens).

Salvage tolerance: lanes are built from whatever events exist.  An
unmatched release is ignored; a critical section left open by a
truncated trace closes at the thread's last event and is flagged
``detail="unclosed"`` — so ``repro timeline``/``repro report`` work on
``load_trace(..., salvage=True)`` output.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from repro import kernels, telemetry
from repro.errors import TraceError
from repro.timeline.model import (
    BLOCKED,
    COMPUTE,
    CS,
    INTERVAL_KINDS,
    LOCK_WAIT,
    OVERHEAD,
    Interval,
    Timeline,
    merge_adjacent,
    sort_lane,
)

#: interval-kind -> stable code, shared with the columnar export
_KIND_CODE = {kind: code for code, kind in enumerate(INTERVAL_KINDS)}
_C_COMPUTE = _KIND_CODE[COMPUTE]
_C_CS = _KIND_CODE[CS]
_C_LOCK_WAIT = _KIND_CODE[LOCK_WAIT]
_C_BLOCKED = _KIND_CODE[BLOCKED]
_C_OVERHEAD = _KIND_CODE[OVERHEAD]
#: codes merge_adjacent is allowed to coalesce
_MERGEABLE = frozenset({_C_COMPUTE, _C_BLOCKED, _C_OVERHEAD})
from repro.trace.interning import (
    ACQUIRE_CODE,
    COMPUTE_CODE,
    CS_ENTER_CODE,
    CS_EXIT_CODE,
    READ_CODE,
    RELEASE_CODE,
    SLEEP_CODE,
    THREAD_END_CODE,
    THREAD_START_CODE,
    WAIT_CODE,
    WRITE_CODE,
    positions,
)
from repro.trace.segments import shared_core


def classification_map(analysis) -> Dict[str, str]:
    """Acquire-uid -> ULCP kind, from an existing pair analysis.

    A section can appear in up to two consecutive pairs (as the second
    section of one and the first of the next); the pair it *closes* — in
    which its own acquire contended against the predecessor — is the
    natural annotation for the section, so it takes precedence.
    """
    if analysis is None:
        return {}
    kinds: Dict[str, str] = {}
    for pair in analysis.pairs:
        kinds.setdefault(pair.c1.uid, pair.kind)
    for pair in analysis.pairs:
        kinds[pair.c2.uid] = pair.kind
    return kinds


def _holder_maps(trace) -> Dict[str, str]:
    """Acquire-uid -> tid of the *previous* grant of the same lock.

    ``trace.lock_schedule`` lists grants per lock in recorded order; the
    holder that a waiting acquire was blocked behind is the grant just
    before it in that order.
    """
    uid_tid: Dict[str, str] = {}
    core = trace.columnar()
    for tid, column in core.columns.items():
        uids = column.uids
        for i in positions(column.kind, ACQUIRE_CODE):
            uid_tid[uids[i]] = tid
    holder: Dict[str, str] = {}
    for uids in trace.lock_schedule.values():
        for j in range(1, len(uids)):
            previous = uid_tid.get(uids[j - 1], "")
            if previous:
                holder[uids[j]] = previous
    return holder


def build_timeline(
    trace,
    *,
    analysis=None,
    replay=None,
    merge: bool = True,
) -> Timeline:
    """Build the interval lanes of ``trace`` (or of its ``replay``).

    ``analysis`` (a :class:`~repro.analysis.pairs.PairAnalysis` of the
    *original* trace) annotates critical sections and lock waits with
    their ULCP classification.  ``replay`` (a
    :class:`~repro.replay.results.ReplayResult` that carried
    ``intervals``) switches the source to the replayed schedule —
    including ELSC/gate stall intervals the trace itself cannot show.
    """
    kinds = classification_map(analysis)
    if replay is not None:
        if getattr(replay, "intervals", None) is None:
            raise ValueError(
                "replay carries no intervals; re-run the replay with "
                "timeline collection enabled (api.replay(..., timeline=True))"
            )
        return _from_replay(trace, replay, kinds, merge=merge)
    return _from_trace(trace, kinds, merge=merge)


def _from_replay(trace, replay, kinds: Dict[str, str], *, merge: bool) -> Timeline:
    holders = _holder_maps(trace)
    timeline = Timeline(
        name=trace.meta.name,
        source="replay",
        scheme=replay.scheme,
        thread_start=dict(replay.thread_start),
        thread_end=dict(replay.thread_end),
    )
    for tid in trace.thread_ids:
        intervals = [
            Interval(
                tid=tid,
                kind=iv.kind,
                t_start=iv.t_start,
                t_end=iv.t_end,
                lock=iv.lock,
                uid=iv.uid,
                ulcp=kinds.get(iv.uid, "") if iv.kind in (CS, LOCK_WAIT) else "",
                holder=iv.holder or holders.get(iv.uid, ""),
                spin=iv.spin,
                detail=iv.detail,
            )
            for iv in replay.intervals.get(tid, ())
        ]
        intervals = sort_lane(intervals)
        timeline.lanes[tid] = merge_adjacent(intervals) if merge else intervals
    return timeline


class _LaneState:
    """One thread's in-flight lane build, persistable across segments."""

    __slots__ = ("raw", "open_cs", "last_t")

    def __init__(self):
        # raw span tuples: (t_start, t_end, code, lock, uid, ulcp,
        #                   holder, spin, detail)
        self.raw: List[tuple] = []
        # open critical sections per lock id (a list tolerates damaged
        # traces where the same lock appears re-acquired before release)
        self.open_cs: Dict[int, List[tuple]] = {}
        self.last_t = 0


def _walk_column(
    tid: str,
    column,
    st: _LaneState,
    timeline: Timeline,
    kinds_get,
    lock_cost: int,
    mem_cost: int,
) -> None:
    """Accumulate one columnar block's raw spans into ``st``.

    The block may be a whole thread (monolithic path) or one segment
    chunk (streaming path; call once per chunk, in order, with the same
    state).  Lock-wait holders are intentionally left blank here —
    :func:`_finish_lane` patches them in before the sort, because in a
    segment stream the holder's own acquire may not have been walked yet.
    """
    start = perf_counter()
    kind = column.kind
    t = column.t
    duration = column.duration
    t_request = column.t_request
    lock_id = column.lock_id
    flags = column.flags
    uids = column.uids
    tokens = column.tokens
    lock_name = column.tables.locks.name
    raw = st.raw
    if len(t):
        st.last_t = max(st.last_t, max(t))
    # the dense span kinds in bulk: _finish_lane sorts the raw spans, and
    # tuples are totally ordered, so their append order is free
    raw.extend([
        (ti - d, ti, _C_COMPUTE, "", "", "", "", False, "")
        for code, ti, d in zip(kind, t, duration)
        if code == COMPUTE_CODE and d > 0
    ])
    if mem_cost:
        raw.extend([
            (t[i], t[i] + mem_cost, _C_OVERHEAD, "", "", "", "", False, "")
            for i in positions(kind, READ_CODE, WRITE_CODE)
        ])
    # the stateful kinds, in event order
    add = raw.append
    open_cs = st.open_cs
    for i in positions(kind, ACQUIRE_CODE, RELEASE_CODE, WAIT_CODE,
                       SLEEP_CODE, CS_ENTER_CODE, CS_EXIT_CODE,
                       THREAD_START_CODE, THREAD_END_CODE):
        code = kind[i]
        ti = t[i]
        if code == ACQUIRE_CODE:
            uid = uids[i]
            name = lock_name(lock_id[i]) if lock_id[i] >= 0 else ""
            if ti > t_request[i]:
                add((t_request[i], ti, _C_LOCK_WAIT,
                     name, uid, kinds_get(uid, ""),
                     "", bool(flags[i] & 1), ""))
            if lock_cost:
                add((ti, ti + lock_cost, _C_OVERHEAD,
                     name, "", "", "", False, ""))
            open_cs.setdefault(lock_id[i], []).append((ti, uid, name))
        elif code == RELEASE_CODE:
            stack = open_cs.get(lock_id[i])
            if stack:
                t_open, uid, name = stack.pop()
                add((t_open, ti, _C_CS,
                     name, uid, kinds_get(uid, ""), "", False, ""))
            # unmatched release (salvaged prefix): nothing to close
            if lock_cost:
                name = lock_name(lock_id[i]) if lock_id[i] >= 0 else ""
                add((ti, ti + lock_cost, _C_OVERHEAD,
                     name, "", "", "", False, ""))
        elif code == WAIT_CODE or code == SLEEP_CODE:
            if duration[i] > 0:
                add((ti - duration[i], ti, _C_BLOCKED,
                     "", "", "", "", False, column.reasons.get(i, "")))
        elif code == CS_ENTER_CODE:
            uid = tokens.get(i, uids[i])
            name = lock_name(lock_id[i]) if lock_id[i] >= 0 else ""
            open_cs.setdefault(lock_id[i], []).append((ti, uid, name))
        elif code == CS_EXIT_CODE:
            stack = open_cs.get(lock_id[i])
            if stack:
                t_open, uid, name = stack.pop()
                add((t_open, ti, _C_CS,
                     name, uid, kinds_get(uid, ""),
                     "", False, "transformed"))
        elif code == THREAD_START_CODE:
            timeline.thread_start[tid] = ti
        else:
            timeline.thread_end[tid] = ti
    kernels.record("timeline_walk", perf_counter() - start)


def _finish_lane(
    tid: str,
    st: _LaneState,
    timeline: Timeline,
    kinds_get,
    holders_get,
    *,
    merge: bool,
) -> None:
    """Close unfinished sections, patch holders, sort, materialize."""
    raw = st.raw
    # salvage tolerance: close sections a truncated trace left open
    for stack in st.open_cs.values():
        for t_open, uid, name in stack:
            raw.append((t_open, max(st.last_t, t_open), _C_CS,
                        name, uid, kinds_get(uid, ""), "", False, "unclosed"))
    # holder patch: LOCK_WAIT spans were built holder-blank; resolving
    # here (before the sort, after every acquire has been seen) produces
    # the same lanes as inline resolution did, on both build paths
    for j, span in enumerate(raw):
        if span[2] == _C_LOCK_WAIT and span[4]:
            holder = holders_get(span[4], "")
            if holder:
                raw[j] = span[:6] + (holder,) + span[7:]
    raw.sort()
    timeline.lanes[tid] = lane = _materialize(tid, raw, merge=merge)
    timeline.thread_start.setdefault(tid, lane[0].t_start if lane else 0)
    timeline.thread_end.setdefault(tid, st.last_t)


def _from_trace(trace, kinds: Dict[str, str], *, merge: bool) -> Timeline:
    # Hot path: O(events) with no Interval construction inside the event
    # walk.  Spans accumulate as plain tuples in sort_lane's key order
    # (t_start, t_end, kind code, payload), sort natively (no Python key
    # function), and only the post-merge survivors materialize as
    # Interval objects — the dataclass __init__ dominates otherwise.
    core = trace.columnar()
    holders = _holder_maps(trace)
    kinds_get = kinds.get
    holders_get = holders.get
    lock_cost = trace.meta.lock_cost
    mem_cost = trace.meta.mem_cost
    timeline = Timeline(name=trace.meta.name, source="trace")
    for tid, column in core.columns.items():
        st = _LaneState()
        _walk_column(tid, column, st, timeline, kinds_get, lock_cost, mem_cost)
        _finish_lane(tid, st, timeline, kinds_get, holders_get, merge=merge)
    return timeline


def _restore_lanes(reader, checkpoint):
    """Adopt a checkpointed mid-build state, or ``None`` for a cold start."""
    loaded = checkpoint.load()
    if loaded is None:
        return None
    payload, segments_done = loaded
    try:
        reader.resume(payload["reader"])
        return payload["timeline"], payload["states"], \
            payload["acquire_tid"], segments_done
    except (TraceError, KeyError, TypeError):
        checkpoint.clear()
        return None


def build_timeline_segments(reader, *, analysis=None, merge: bool = True,
                            checkpoint=None) -> Timeline:
    """Build the interval lanes of a segmented trace file, streaming.

    ``reader`` is a fresh :class:`repro.trace.segments.SegmentedReader`.
    The event walk is the same :func:`_walk_column` the monolithic path
    runs — applied per chunk with per-thread state persisted across
    segments — so the resulting timeline is identical to
    :func:`build_timeline` over the fully-loaded trace.  Peak memory is
    one segment plus the lanes being built (the output itself).

    ``analysis`` annotates sections/waits with ULCP classifications,
    exactly as in :func:`build_timeline`; pass the result of
    :func:`repro.analysis.streaming.analyze_segments` to keep the whole
    pipeline bounded.

    ``checkpoint`` (a :class:`repro.runner.checkpoint.Checkpointer`)
    persists the in-flight lane state every N segments and resumes from
    the last saved boundary, exactly like the analysis scan.

    When a result still holds the file's decoded core (e.g. the analysis
    of :func:`repro.api.analyze` on the same path, see
    :func:`repro.trace.segments.shared_core`) and no checkpoint is
    requested, the lanes are built from that core and the reader is left
    unread — the same timeline, without decoding the file again.
    """
    kinds = classification_map(analysis)
    if checkpoint is None:
        core = shared_core(reader.path)
        if core is not None:
            return _from_trace(core, kinds, merge=merge)
    kinds_get = kinds.get
    lock_cost = reader.meta.lock_cost
    mem_cost = reader.meta.mem_cost
    timeline = Timeline(name=reader.meta.name, source="trace")
    states = {tid: _LaneState() for tid in reader.threads}
    acquire_tid: Dict[str, str] = {}
    segments_done = 0
    if checkpoint is not None:
        restored = _restore_lanes(reader, checkpoint)
        if restored is not None:
            timeline, states, acquire_tid, segments_done = restored
            telemetry.count("timeline.segments_resumed", segments_done)
    for segment in reader.segments():
        for chunk in segment.chunks:
            column = chunk.column
            uids = column.uids
            for i in positions(column.kind, ACQUIRE_CODE):
                acquire_tid[uids[i]] = chunk.tid
            _walk_column(chunk.tid, column, states[chunk.tid], timeline,
                         kinds_get, lock_cost, mem_cost)
        segments_done += 1
        if checkpoint is not None and checkpoint.due(segments_done):
            checkpoint.save({
                "timeline": timeline,
                "states": states,
                "acquire_tid": acquire_tid,
                "reader": reader.suspend(),
            }, segments_done)
    if checkpoint is not None:
        checkpoint.clear()
    # schedule-predecessor holder map, exactly as _holder_maps derives it
    holders: Dict[str, str] = {}
    for uids in reader.lock_schedule.values():
        for j in range(1, len(uids)):
            previous = acquire_tid.get(uids[j - 1], "")
            if previous:
                holders[uids[j]] = previous
    for tid in reader.threads:
        _finish_lane(tid, states[tid], timeline, kinds_get, holders.get,
                     merge=merge)
    return timeline


def _materialize(tid: str, raw: List[tuple], *, merge: bool) -> List[Interval]:
    """Turn sorted span tuples into a lane, fusing merge_adjacent's
    coalescing rule into the same pass so no throwaway Intervals exist."""
    lane: List[Interval] = []
    append = lane.append
    last = None
    for ts, te, code, lock, uid, ulcp, holder, spin, detail in raw:
        if (
            merge
            and last is not None
            and code in _MERGEABLE
            and last.kind == INTERVAL_KINDS[code]
            and last.t_end == ts
            and last.lock == lock
            and last.ulcp == ulcp
            and last.holder == holder
            and last.spin == spin
            and last.detail == detail
        ):
            last.t_end = te
            if uid and not last.uid:
                last.uid = uid
            continue
        last = Interval(tid, INTERVAL_KINDS[code], ts, te,
                        lock, uid, ulcp, holder, spin, detail)
        append(last)
    return lane


def timelines_of_report(report, *, merge: bool = True):
    """The (original, ULCP-free) timeline pair of a debug report.

    Prefers the replays' live interval lanes (exact, including stalls);
    falls back to recorded-trace lanes when the replays did not collect
    intervals.
    """
    analysis = report.transform_result.analysis
    if getattr(report.original_replay, "intervals", None) is not None:
        original = build_timeline(
            report.trace, analysis=analysis,
            replay=report.original_replay, merge=merge,
        )
    else:
        original = build_timeline(report.trace, analysis=analysis, merge=merge)
    free_replay = report.free_replay
    if getattr(free_replay, "intervals", None) is not None:
        free = build_timeline(
            report.transform_result.trace, analysis=analysis,
            replay=free_replay, merge=merge,
        )
    else:
        free = build_timeline(
            report.transform_result.trace, analysis=analysis, merge=merge
        )
    free.scheme = free.scheme or (free_replay.scheme if free_replay else "")
    return original, free


def reconcile(timeline: Timeline, machine_result) -> List[str]:
    """Check the accounting identity against a machine's ThreadStats.

    Returns a list of human-readable mismatches (empty = exact).  Lane
    keys are thread *names* (trace tids); machine stats key by machine
    tid but carry the name.
    """
    problems: List[str] = []
    by_name = {}
    for stats in machine_result.threads.values():
        by_name[stats.name or stats.tid] = stats
    for tid in timeline.thread_ids:
        stats = by_name.get(tid)
        if stats is None:
            problems.append(f"{tid}: no machine stats")
            continue
        acct = timeline.accounting(tid)
        for field_name in ("cpu_ns", "spin_ns", "block_ns"):
            want = getattr(stats, field_name)
            got = getattr(acct, field_name)
            if want != got:
                problems.append(
                    f"{tid}: {field_name} timeline={got} machine={want}"
                )
    return problems
