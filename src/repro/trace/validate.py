"""Trace well-formedness checks.

``validate(trace)`` raises :class:`TraceError` on the first violation;
``problems(trace)`` returns every violation as a string, for diagnostics.
The transformation pipeline validates its output trace before replaying
it, so a buggy transformation fails loudly instead of producing nonsense
performance numbers.

For a :class:`~repro.trace.interning.ColumnarTrace` the checks read the
id columns: per thread, a few column checks prove the thread clean (the
common case — ``transform`` validates every trace it produces), and
only a thread that trips one falls back to the event walk below, for
the exact message list in the exact order.
"""

from __future__ import annotations

from itertools import islice
from operator import le
from time import perf_counter
from typing import Dict, List, Set

from repro import kernels
from repro.errors import TraceError
from repro.trace.events import (
    ACQUIRE,
    POST,
    RELEASE,
    THREAD_END,
    THREAD_START,
    WAIT,
)
from repro.trace.interning import (
    ACQUIRE_CODE,
    POST_CODE,
    RELEASE_CODE,
    THREAD_END_CODE,
    THREAD_START_CODE,
    WAIT_CODE,
    positions,
)
from repro.trace.trace import Trace


def _thread_problems(tid, events, post_tokens) -> List[str]:
    """One thread's violations, in event order (the reference walk)."""
    issues: List[str] = []
    # A declared-but-empty thread is legal (serialization preserves the
    # declaration), but every event filed under a thread must carry
    # that thread's tid — a mismatch means the container was built by
    # bypassing add_thread/append bookkeeping.
    held = set()
    last_t = -1
    for i, event in enumerate(events):
        if event.tid != tid:
            issues.append(
                f"{tid}: event {event.uid} filed under wrong thread "
                f"(tid={event.tid!r})"
            )
        if event.t < last_t:
            issues.append(
                f"{tid}: event {event.uid} at t={event.t} before t={last_t}"
            )
        last_t = event.t
        if event.kind == THREAD_START and i != 0:
            issues.append(f"{tid}: thread_start not first ({event.uid})")
        if event.kind == THREAD_END and i != len(events) - 1:
            issues.append(f"{tid}: thread_end not last ({event.uid})")
        if event.kind == ACQUIRE:
            if event.lock in held:
                issues.append(f"{tid}: re-acquired {event.lock} ({event.uid})")
            held.add(event.lock)
        elif event.kind == RELEASE:
            if event.lock not in held:
                issues.append(
                    f"{tid}: released unheld {event.lock} ({event.uid})"
                )
            held.discard(event.lock)
        elif event.kind == WAIT:
            if event.reason == "posted" and event.token not in post_tokens:
                issues.append(
                    f"{tid}: wait {event.uid} references missing post "
                    f"{event.token!r}"
                )
    if held:
        issues.append(f"{tid}: locks never released: {sorted(held)}")
    return issues


def _schedule_problems(lock_schedule, acquires_by_lock) -> List[str]:
    """Lock-schedule violations; ``acquires_by_lock`` maps lock -> uid set."""
    issues: List[str] = []
    for lock, uids in lock_schedule.items():
        seen_uids = acquires_by_lock.get(lock, set())
        for uid in uids:
            if uid not in seen_uids:
                issues.append(f"schedule[{lock}]: unknown acquire uid {uid}")
        if len(uids) != len(seen_uids):
            issues.append(
                f"schedule[{lock}]: {len(uids)} scheduled vs "
                f"{len(seen_uids)} recorded acquires"
            )
    return issues


def problems(trace: Trace) -> List[str]:
    """Return a list of well-formedness violations (empty when clean)."""
    start = perf_counter()
    if hasattr(trace, "columns"):
        issues = _columnar_problems(trace)
        kernels.record("validate", perf_counter() - start)
        return issues

    post_tokens = set()
    for event in trace.iter_events():
        if event.kind == POST:
            post_tokens.add(event.token)

    issues: List[str] = []
    for tid, events in trace.threads.items():
        issues.extend(_thread_problems(tid, events, post_tokens))

    acquires_by_lock = {}
    for lock in trace.lock_schedule:
        acquires_by_lock[lock] = {
            e.uid for e in trace.iter_events()
            if e.kind == ACQUIRE and e.lock == lock
        }
    issues.extend(_schedule_problems(trace.lock_schedule, acquires_by_lock))
    kernels.record("validate", perf_counter() - start)
    return issues


def _column_clean(column, post_tokens) -> bool:
    """True when :func:`_thread_problems` would report nothing for
    ``column`` (a columnar event carries its column's tid, so the
    wrong-thread check cannot fire)."""
    kind = column.kind
    n = len(kind)
    t = column.t
    if not all(map(le, t, islice(t, 1, None))):
        return False
    lock_id = column.lock_id
    held = set()
    for i in positions(kind, THREAD_START_CODE, THREAD_END_CODE,
                       ACQUIRE_CODE, RELEASE_CODE, WAIT_CODE):
        code = kind[i]
        if code == ACQUIRE_CODE:
            if lock_id[i] in held:
                return False
            held.add(lock_id[i])
        elif code == RELEASE_CODE:
            if lock_id[i] not in held:
                return False
            held.discard(lock_id[i])
        elif code == WAIT_CODE:
            if column.reasons.get(i, "") == "posted" \
                    and column.tokens.get(i) not in post_tokens:
                return False
        elif i != (0 if code == THREAD_START_CODE else n - 1):
            return False
    return not held


def _columnar_problems(trace) -> List[str]:
    columns = trace.columns
    post_tokens = {
        column.tokens.get(i)
        for column in columns.values()
        for i in positions(column.kind, POST_CODE)
    }
    issues: List[str] = []
    for tid, column in columns.items():
        if not _column_clean(column, post_tokens):
            issues.extend(
                _thread_problems(tid, trace.threads[tid], post_tokens)
            )
    if trace.lock_schedule:
        lock_name = trace.tables.locks.name
        acquires_by_lock: Dict[str, Set[str]] = {}
        for column in columns.values():
            lock_id = column.lock_id
            uids = column.uids
            for i in positions(column.kind, ACQUIRE_CODE):
                lid = lock_id[i]
                acquires_by_lock.setdefault(
                    lock_name(lid) if lid >= 0 else "", set()
                ).add(uids[i])
        issues.extend(_schedule_problems(trace.lock_schedule, acquires_by_lock))
    return issues


def validate(trace: Trace) -> None:
    """Raise :class:`TraceError` if the trace is malformed."""
    issues = problems(trace)
    if issues:
        raise TraceError("; ".join(issues[:10]))
