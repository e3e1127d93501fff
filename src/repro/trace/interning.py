"""Interned columnar trace core.

The analysis engine spends its time walking events and intersecting
access sets.  Both are slow over lists of :class:`TraceEvent` objects:
every step pays attribute lookups and string hashing.  This module keeps
the hot data compact instead:

* :class:`SymbolTable` — strings (tids, locks, addresses) interned to
  dense integer ids, in deterministic first-appearance order,
* :class:`ColumnarThread` — one thread's event stream as parallel arrays
  (kind code, timestamp, lock id, address id, ...), with rarely-present
  payloads (memory ops, wait tokens) in sparse per-index maps,
* :class:`ColumnarTrace` — the per-trace bundle: intern tables plus one
  :class:`ColumnarThread` per thread, presenting the same read API as
  :class:`repro.trace.trace.Trace`.

The :class:`TraceEvent` dataclass stays the public unit of exchange:
``ColumnarTrace.threads`` yields :class:`LazyEvents` sequences that
materialize (and cache) an equal ``TraceEvent`` per slot only when a
caller actually touches it, so ``trace.threads``-shaped consumers keep
working unmodified.  Whole-thread materialization — iterating a view,
the first ``threads`` read of the :class:`Trace` that
:meth:`ColumnarTrace.to_trace` returns — goes through the one bulk
:func:`materialize`.

A plain :class:`Trace` builds (and memoizes) its columnar core via
``trace.columnar()``; the intern tables round-trip through the
``.jsonl.gz`` format as a ``{"symbols": ...}`` header line (see
:mod:`repro.trace.serialize`), so ids are stable across save/load.
"""

from __future__ import annotations

import gc
import re
from array import array
from collections.abc import Sequence
from functools import lru_cache
from typing import Dict, Iterator, List, Optional

from repro.trace.events import (
    ACQUIRE,
    COMPUTE,
    CS_ENTER,
    CS_EXIT,
    POST,
    READ,
    RELEASE,
    SLEEP,
    THREAD_END,
    THREAD_START,
    TraceEvent,
    WAIT,
    WRITE,
)
from repro.trace.trace import Trace

#: Canonical kind order; the index is the columnar kind code.  New kinds
#: appearing at runtime extend the per-trace table past these.
KINDS = (
    THREAD_START,
    THREAD_END,
    COMPUTE,
    ACQUIRE,
    RELEASE,
    READ,
    WRITE,
    WAIT,
    POST,
    SLEEP,
    CS_ENTER,
    CS_EXIT,
)

THREAD_START_CODE = 0
THREAD_END_CODE = 1
COMPUTE_CODE = 2
ACQUIRE_CODE = 3
RELEASE_CODE = 4
READ_CODE = 5
WRITE_CODE = 6
WAIT_CODE = 7
POST_CODE = 8
SLEEP_CODE = 9
CS_ENTER_CODE = 10
CS_EXIT_CODE = 11

#: Spin/shared flag bits in the per-event flags byte.
FLAG_SPIN = 1
FLAG_SHARED = 2

#: flags byte -> the event's ``spin`` / ``shared`` field
_SPIN = tuple(bool(f & FLAG_SPIN) for f in range(256))
_SHARED = tuple(bool(f & FLAG_SHARED) for f in range(256))


class SymbolTable:
    """Bidirectional string <-> dense-int interning, insertion ordered."""

    __slots__ = ("_names", "_ids")

    def __init__(self, names: Optional[Sequence[str]] = None):
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        if names:
            for name in names:
                self.intern(name)

    def intern(self, name: str) -> int:
        """Id of ``name``, assigning the next dense id on first sight."""
        sid = self._ids.get(name)
        if sid is None:
            sid = len(self._names)
            self._ids[name] = sid
            self._names.append(name)
        return sid

    def id(self, name: str) -> int:
        """Id of an already-interned ``name`` (KeyError otherwise)."""
        return self._ids[name]

    def name(self, sid: int) -> str:
        return self._names[sid]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    @property
    def names(self) -> List[str]:
        return list(self._names)

    def encode(self) -> List[str]:
        return list(self._names)

    @staticmethod
    def decode(names) -> "SymbolTable":
        if not isinstance(names, (list, tuple)) or not all(
            isinstance(n, str) for n in names
        ):
            raise TypeError(f"symbol table must be a list of strings: {names!r}")
        return SymbolTable(names)


class InternTables:
    """The three per-trace symbol tables (plus the kind vocabulary)."""

    __slots__ = ("tids", "locks", "addrs", "kinds")

    def __init__(
        self,
        tids: Optional[SymbolTable] = None,
        locks: Optional[SymbolTable] = None,
        addrs: Optional[SymbolTable] = None,
        kinds: Optional[SymbolTable] = None,
    ):
        self.tids = tids if tids is not None else SymbolTable()
        self.locks = locks if locks is not None else SymbolTable()
        self.addrs = addrs if addrs is not None else SymbolTable()
        self.kinds = kinds if kinds is not None else SymbolTable(KINDS)

    def encode(self) -> dict:
        data = {
            "tids": self.tids.encode(),
            "locks": self.locks.encode(),
            "addrs": self.addrs.encode(),
        }
        extra = self.kinds.encode()[len(KINDS):]
        if extra:
            data["kinds"] = extra
        return data

    @staticmethod
    def decode(data: dict) -> "InternTables":
        if not isinstance(data, dict):
            raise TypeError(f"symbols must be an object: {data!r}")
        kinds = SymbolTable(KINDS)
        for name in data.get("kinds", []):
            if not isinstance(name, str):
                raise TypeError(f"kind names must be strings: {name!r}")
            kinds.intern(name)
        return InternTables(
            tids=SymbolTable.decode(data.get("tids", [])),
            locks=SymbolTable.decode(data.get("locks", [])),
            addrs=SymbolTable.decode(data.get("addrs", [])),
            kinds=kinds,
        )


class ColumnarThread:
    """One thread's events as parallel arrays plus sparse payload maps."""

    __slots__ = (
        "tid",
        "tid_id",
        "tables",
        "kind",
        "t",
        "duration",
        "t_request",
        "value",
        "lock_id",
        "addr_id",
        "flags",
        "uids",
        "sites",
        "ops",
        "tokens",
        "reasons",
        "woken",
    )

    def __init__(self, tid: str, tid_id: int, tables: InternTables):
        self.tid = tid
        self.tid_id = tid_id
        self.tables = tables
        self.kind = array("b")
        self.t = array("q")
        self.duration = array("q")
        self.t_request = array("q")
        self.value = array("q")
        self.lock_id = array("i")  # -1 = no lock payload
        self.addr_id = array("i")  # -1 = no address payload
        self.flags = array("B")
        self.uids: List[str] = []
        self.sites: List[object] = []
        # sparse: most events carry none of these
        self.ops: Dict[int, tuple] = {}
        self.tokens: Dict[int, str] = {}
        self.reasons: Dict[int, str] = {}
        self.woken: Dict[int, List[str]] = {}

    def __len__(self) -> int:
        return len(self.kind)

    def push(self, event: TraceEvent) -> None:
        """Append one event, interning its strings."""
        tables = self.tables
        i = len(self.kind)
        self.kind.append(tables.kinds.intern(event.kind))
        self.t.append(event.t)
        self.duration.append(event.duration)
        self.t_request.append(event.t_request)
        self.value.append(event.value)
        self.lock_id.append(tables.locks.intern(event.lock) if event.lock else -1)
        self.addr_id.append(tables.addrs.intern(event.addr) if event.addr else -1)
        flags = 0
        if event.spin:
            flags |= FLAG_SPIN
        if event.shared:
            flags |= FLAG_SHARED
        self.flags.append(flags)
        self.uids.append(event.uid)
        self.sites.append(event.site)
        if event.op is not None:
            self.ops[i] = event.op
        if event.token is not None:
            self.tokens[i] = event.token
        if event.reason:
            self.reasons[i] = event.reason
        if event.woken:
            self.woken[i] = event.woken

    def event(self, i: int) -> TraceEvent:
        """Materialize slot ``i`` back into an equal :class:`TraceEvent`."""
        tables = self.tables
        lid = self.lock_id[i]
        aid = self.addr_id[i]
        flags = self.flags[i]
        return TraceEvent(
            uid=self.uids[i],
            tid=self.tid,
            kind=tables.kinds.name(self.kind[i]),
            t=self.t[i],
            site=self.sites[i],
            duration=self.duration[i],
            lock=tables.locks.name(lid) if lid >= 0 else "",
            t_request=self.t_request[i],
            spin=bool(flags & FLAG_SPIN),
            shared=bool(flags & FLAG_SHARED),
            addr=tables.addrs.name(aid) if aid >= 0 else "",
            value=self.value[i],
            op=self.ops.get(i),
            token=self.tokens.get(i),
            reason=self.reasons.get(i, ""),
            woken=list(self.woken.get(i, ())),
        )


def materialize(column: ColumnarThread) -> List[TraceEvent]:
    """Every slot of ``column`` as a fresh :class:`TraceEvent`, in order.

    One ``zip`` pass over the columns with positional construction, then
    the sparse payloads patched onto their slots — each event equals
    ``column.event(i)`` and owns its ``woken`` list.  The cyclic GC is
    paused for the loop only: a million fresh container objects would
    otherwise trigger repeated full collections that find nothing.
    """
    tables = column.tables
    tid = column.tid
    kind_names = tables.kinds.names
    # id -1 (no payload) indexes the trailing ""
    lock_names = tables.locks.names + [""]
    addr_names = tables.addrs.names + [""]
    rows = zip(
        column.uids, column.kind, column.t, column.sites, column.duration,
        column.lock_id, column.t_request, column.flags, column.addr_id,
        column.value,
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        events = [
            TraceEvent(
                uid, tid, kind_names[k], t, site, duration, lock_names[lid],
                t_request, _SPIN[flags], _SHARED[flags], addr_names[aid],
                value,
            )
            for (uid, k, t, site, duration, lid, t_request, flags, aid,
                 value) in rows
        ]
    finally:
        if enabled:
            gc.enable()
    for i, op in column.ops.items():
        events[i].op = op
    for i, token in column.tokens.items():
        events[i].token = token
    for i, reason in column.reasons.items():
        events[i].reason = reason
    for i, woken in column.woken.items():
        events[i].woken = list(woken)
    return events


@lru_cache(maxsize=None)
def _codes_pattern(codes: tuple) -> "re.Pattern":
    return re.compile(b"[" + b"".join(re.escape(bytes([c])) for c in codes)
                      + b"]")


def positions(kind: array, *codes: int) -> List[int]:
    """Ascending positions of a kind column whose code is one of ``codes``.

    One ``re.finditer`` over the column's bytes (each code is one byte),
    so the scan itself runs in C: the walks that touch a few sparse
    kinds (lock events, waits, writes) find them without a Python loop
    over every slot.
    """
    return [m.start() for m in _codes_pattern(codes).finditer(kind.tobytes())]


class LazyEvents(Sequence):
    """Sequence view over a :class:`ColumnarThread`.

    Materializes each :class:`TraceEvent` once, on first access, so
    identity is stable across repeated reads of the same slot.  Iteration
    materializes every still-empty slot in one :func:`materialize` pass.
    """

    __slots__ = ("_column", "_cache", "_missing")

    def __init__(self, column: ColumnarThread, cache: Optional[List[TraceEvent]] = None):
        self._column = column
        if cache is not None:
            # pre-materialized view: share the source trace's own events
            self._cache = cache
            self._missing = 0
        else:
            self._cache = [None] * len(column)
            self._missing = len(column)

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._cache)))]
        event = self._cache[index]
        if event is None:
            # normalize negative indices so the cache slot matches
            if index < 0:
                index += len(self._cache)
            event = self._cache[index] = self._column.event(index)
            self._missing -= 1
        return event

    def __iter__(self) -> Iterator[TraceEvent]:
        if self._missing:
            fresh = materialize(self._column)
            if self._missing < len(fresh):
                # slots read before keep their identity
                fresh = [old if old is not None else new
                         for old, new in zip(self._cache, fresh)]
            self._cache = fresh
            self._missing = 0
        return iter(self._cache)

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyEvents):
            other = list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self):
        return f"<LazyEvents {self._column.tid} n={len(self._cache)}>"


class ColumnarTrace:
    """A recorded execution in interned columnar form.

    Read-compatible with :class:`repro.trace.trace.Trace`: ``threads``,
    ``events_of``, ``iter_events``, ``iter_time_order``, ``lock_schedule``,
    ``meta``, ``side``, ``end_time``, ``count`` and ``locks`` all behave
    identically (events materialize lazily).  The columnar core itself is
    immutable — mutate the source :class:`Trace` and rebuild.
    """

    def __init__(self, meta, side, lock_schedule, tables: InternTables):
        self.meta = meta
        self.side = side
        self.lock_schedule = lock_schedule
        self.tables = tables
        self.columns: Dict[str, ColumnarThread] = {}
        self._views: Optional[Dict[str, LazyEvents]] = None
        #: memoized :func:`repro.analysis.engine.scan_trace` result — the
        #: core is an immutable snapshot, so its scan is too
        self._scan = None

    @classmethod
    def from_trace(cls, trace, tables: Optional[InternTables] = None) -> "ColumnarTrace":
        """Build the columnar core of ``trace`` in one streaming pass.

        ``tables`` seeds the intern tables (e.g. the symbol table read
        back from a trace file) so ids survive a serialization round
        trip; unseen strings extend it.

        The lazy views come pre-seeded with the source trace's own event
        objects — the core is a derived snapshot of ``trace``, so sharing
        is free and ``view[i]`` never re-materializes.
        """
        tables = tables if tables is not None else InternTables()
        core = cls(trace.meta, trace.side, trace.lock_schedule, tables)
        kind_intern = tables.kinds.intern
        lock_intern = tables.locks.intern
        addr_intern = tables.addrs.intern
        views: Dict[str, LazyEvents] = {}
        for tid, events in trace.threads.items():
            column = ColumnarThread(tid, tables.tids.intern(tid), tables)
            # bulk-build: :meth:`ColumnarThread.push` unrolled — staged
            # through plain lists (C-speed array conversion at the end)
            # since this path interns every event of every trace
            kinds: List[int] = []
            ts: List[int] = []
            durations: List[int] = []
            t_requests: List[int] = []
            values: List[int] = []
            lock_ids: List[int] = []
            addr_ids: List[int] = []
            flags: List[int] = []
            for i, event in enumerate(events):
                kinds.append(kind_intern(event.kind))
                ts.append(event.t)
                durations.append(event.duration)
                t_requests.append(event.t_request)
                values.append(event.value)
                lock_ids.append(lock_intern(event.lock) if event.lock else -1)
                addr_ids.append(addr_intern(event.addr) if event.addr else -1)
                flags.append(
                    (FLAG_SPIN if event.spin else 0)
                    | (FLAG_SHARED if event.shared else 0)
                )
                if event.op is not None:
                    column.ops[i] = event.op
                if event.token is not None:
                    column.tokens[i] = event.token
                if event.reason:
                    column.reasons[i] = event.reason
                if event.woken:
                    column.woken[i] = event.woken
            column.kind = array("b", kinds)
            column.t = array("q", ts)
            column.duration = array("q", durations)
            column.t_request = array("q", t_requests)
            column.value = array("q", values)
            column.lock_id = array("i", lock_ids)
            column.addr_id = array("i", addr_ids)
            column.flags = array("B", flags)
            column.uids = [event.uid for event in events]
            column.sites = [event.site for event in events]
            core.columns[tid] = column
            views[tid] = LazyEvents(column, cache=list(events))
        core._views = views
        return core

    def columnar(self) -> "ColumnarTrace":
        """This core *is* the columnar form (Trace API compatibility)."""
        return self

    # -------------------------------------------------- Trace read API

    @property
    def threads(self) -> Dict[str, LazyEvents]:
        if self._views is None:
            self._views = {tid: LazyEvents(col) for tid, col in self.columns.items()}
        return self._views

    @property
    def thread_ids(self) -> List[str]:
        return list(self.columns)

    def events_of(self, tid: str) -> LazyEvents:
        return self.threads[tid]

    def iter_events(self) -> Iterator[TraceEvent]:
        for view in self.threads.values():
            yield from view

    def iter_time_order(self) -> List[TraceEvent]:
        from repro.trace.trace import _uid_order

        return sorted(self.iter_events(), key=lambda e: (e.t, _uid_order(e.uid)))

    def __len__(self) -> int:
        return sum(len(col) for col in self.columns.values())

    @property
    def end_time(self) -> int:
        latest = 0
        for col in self.columns.values():
            if len(col):
                latest = max(latest, col.t[-1])
        return latest

    def count(self, kind: str) -> int:
        if kind not in self.tables.kinds:
            return 0
        code = self.tables.kinds.id(kind)
        return sum(col.kind.count(code) for col in self.columns.values())

    def locks(self) -> List[str]:
        return list(self.lock_schedule)

    def to_trace(self):
        """A :class:`Trace` over this core that builds its events on first read.

        O(threads): ``len()``, ``end_time``, ``thread_ids`` and ``count``
        answer from the columns.  The first read of ``threads`` fills the
        trace with one bulk :func:`materialize` per view, so events
        already handed out (e.g. the analysis' section boundaries) keep
        their identity, and the lists are the trace's own to mutate.
        """
        return _CoreTrace(self)

    def __getstate__(self):
        # views and the memoized scan are derived; rebuilt on demand
        state = self.__dict__.copy()
        state["_views"] = None
        state["_scan"] = None
        return state


class _CoreTrace(Trace):
    """The lazy :class:`Trace` of :meth:`ColumnarTrace.to_trace`.

    Holds ``_core`` until ``threads`` is first read, then drops it and
    is a plain :class:`Trace`.  ``columnar()`` still derives from
    ``threads``: the core's lazy views would materialize section bodies
    slot by slot.
    """

    def __init__(self, core: "ColumnarTrace"):
        super().__init__(core.meta)
        self.lock_schedule = {k: list(v) for k, v in core.lock_schedule.items()}
        self.side = core.side
        self.symbols = core.tables
        self._core = core

    @property
    def threads(self):
        core = self._core
        if core is not None:
            self._threads = {tid: list(view) for tid, view in core.threads.items()}
            self._core = None
        return self._threads

    @threads.setter
    def threads(self, value):
        self._threads = value
        self._core = None

    @property
    def thread_ids(self) -> List[str]:
        if self._core is not None:
            return self._core.thread_ids
        return super().thread_ids

    def __len__(self) -> int:
        if self._core is not None:
            return len(self._core)
        return super().__len__()

    @property
    def end_time(self) -> int:
        if self._core is not None:
            return self._core.end_time
        return super().end_time

    def count(self, kind: str) -> int:
        if self._core is not None:
            return self._core.count(kind)
        return super().count(kind)


def canonical_tables(trace) -> InternTables:
    """Derive intern tables in canonical (record-order) enumeration.

    Thread ids follow declaration order; locks and addresses follow first
    appearance in per-thread record order — exactly the order
    :meth:`ColumnarTrace.from_trace` assigns, so a cached core and a
    fresh derivation agree.
    """
    tables = InternTables()
    for tid, events in trace.threads.items():
        tables.tids.intern(tid)
        for event in events:
            if event.lock:
                tables.locks.intern(event.lock)
            if event.addr:
                tables.addrs.intern(event.addr)
            tables.kinds.intern(event.kind)
    return tables
