"""Single-pass columnar analysis engine.

The reference pipeline walks the trace three-plus times (section
extraction, shared-address discovery, write-timeline construction) over
``TraceEvent`` objects.  This engine fuses all of it into **one**
walk over the interned columnar core (:mod:`repro.trace.interning`):

* critical sections are opened/closed exactly like
  :func:`repro.analysis.sections.extract_sections`, but their access
  sets accumulate as integer bitmasks over interned address ids,
* address sharedness (touched by two or more threads) is discovered in
  the same walk via a first-toucher map, and
* Eq. 1 anchors fall out of the walk indices for free.

The walk advances one thread by one columnar chunk
(:func:`_walk_chunk`), and :class:`ScanFold`
carries everything it needs between chunks.  Every scan is that one
fold: an in-memory core is folded as one whole-column chunk per thread
(:func:`scan_trace`), a segment file segment by segment
(:func:`scan_segments`), and the sharded, watch and progress scans
fold through the same class.

Afterwards the paper's shared sets are one mask-and each
(``srd_mask = read_mask & shared_mask``), and Algorithm 1's three
intersections become three ``&`` on Python ints
(:func:`repro.analysis.classify.classify_pair`).

The write timeline the benign test needs is *not* built here — see
:class:`repro.analysis.benign.WriteTimeline`, which collects and sorts
per-address write history only on first use.

Equivalence bar: for any trace, the sections produced here are
observably identical (uids, anchors, lock indexes, bodies, access sets)
to the reference path's; ``tests/analysis/test_engine_equivalence.py``
holds both paths to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro import kernels, telemetry
from repro.analysis.sections import CriticalSection
from repro.errors import TraceError
from repro.trace.interning import (
    ACQUIRE_CODE,
    READ_CODE,
    RELEASE_CODE,
    WRITE_CODE,
    ColumnarTrace,
    InternTables,
    LazyEvents,
    positions,
)
from repro.trace.segments import SegmentChunk


@dataclass
class TraceScan:
    """Everything one engine walk learned about a trace."""

    tables: InternTables
    sections: List[CriticalSection] = field(default_factory=list)
    #: interned ids of addresses touched by two or more threads
    shared_ids: Set[int] = field(default_factory=set)
    #: bitmask with one bit per shared address id
    shared_mask: int = 0
    #: total events walked
    events: int = 0
    #: streaming path only: CS uid -> (tid, start, end) — the body as a
    #: thread-global event-index span, since the sections of a segment
    #: stream carry no whole-thread view to slice lazily
    body_spans: Dict[str, Tuple[str, int, int]] = field(default_factory=dict)

    def shared_addresses(self) -> Set[str]:
        """The shared addresses as strings (decoded on demand)."""
        name = self.tables.addrs.name
        return {name(aid) for aid in self.shared_ids}


def scan_trace(core: ColumnarTrace) -> TraceScan:
    """One walk over an in-memory core: sections + sharedness + masks.

    Each thread's whole column is one chunk of a :class:`ScanFold`.
    Sections keep the core's own events (``cs.acquire is
    core.threads[tid][i]``) and slice their bodies lazily from the same
    views, so the scan materializes two events per section and no body.

    Raises the same :class:`TraceError` shapes as the reference
    extractor (nested same-lock acquire, release of unheld lock,
    unclosed sections at thread end), in its order.

    The result is memoized on ``core``: a columnar core is an immutable
    snapshot of its trace, so its scan — and the sections in it, which
    every downstream stage treats read-only — never changes.
    """
    if core._scan is not None:
        return core._scan
    with telemetry.span("analyze.scan_trace"):
        fold = ScanFold(core.tables, core.columns, views=core.threads)
        for tid, column in core.columns.items():
            fold.add((SegmentChunk(tid, column, 0),))
            # the reference reports a thread's unclosed sections before
            # it walks the next thread
            fold.check_closed()
        scan = fold.finish()
    core._scan = scan
    return scan


class _ThreadScanState:
    """One thread's in-flight scan state, persisted across chunks."""

    __slots__ = ("open_by_lock", "stack", "read_masks", "write_masks",
                 "last_uid", "pending_post")

    def __init__(self):
        self.open_by_lock: Dict[int, CriticalSection] = {}
        self.stack: List[CriticalSection] = []
        self.read_masks: List[int] = []
        self.write_masks: List[int] = []
        #: uid of the thread's previous event (the next acquire's pre anchor)
        self.last_uid: Optional[str] = None
        #: sections released at a chunk's last event, waiting for the
        #: thread's next event (possibly segments away) as post anchor
        self.pending_post: List[CriticalSection] = []


class ScanFold:
    """The carried state of one scan: the growing :class:`TraceScan`, the
    first-toucher sharedness map, one :class:`_ThreadScanState` per
    thread in ``threads`` and ``segments``, the :meth:`add` calls so far
    (resumed ones included).

    ``views`` maps each thread to its whole-thread
    :class:`~repro.trace.interning.LazyEvents` on an in-memory core:
    sections then keep the views' events and lazy body slices.  Without
    views (a segment stream) they get decoded acquire/release events
    and a ``scan.body_spans`` entry.  A sharded worker's fold holds, and
    is fed, only its own threads.
    """

    def __init__(self, tables: InternTables, threads: Iterable[str], *,
                 views: Optional[Mapping[str, LazyEvents]] = None):
        self.scan = TraceScan(tables=tables)
        self.first_toucher: Dict[int, int] = {}
        self.states: Dict[str, _ThreadScanState] = {
            tid: _ThreadScanState() for tid in threads
        }
        self.views = views
        self.segments = 0

    def add(self, chunks: Iterable[SegmentChunk]) -> None:
        """Fold one segment: walk each chunk on top of its thread's state."""
        scan = self.scan
        lock_name = scan.tables.locks.name
        views = self.views
        for chunk in chunks:
            tid = chunk.tid
            scan.events += len(chunk.column.kind)
            start = perf_counter()
            _walk_chunk(tid, chunk.column, chunk.start, self.states[tid],
                       scan, self.first_toucher, lock_name,
                       None if views is None else views[tid])
            kernels.record("scan", perf_counter() - start)
        self.segments += 1

    def check_closed(self) -> None:
        """Raise on the first thread (in declaration order) that still
        holds an open section."""
        for tid, st in self.states.items():
            if st.open_by_lock:
                raise TraceError(f"{tid}: unclosed critical sections")

    def finish(self) -> TraceScan:
        """End of stream: the unclosed check, then the shared mask, lazy
        shared-set annotation, global sort and lock indexes."""
        self.check_closed()
        scan = self.scan
        sections = scan.sections
        shared_mask = 0
        for aid in scan.shared_ids:
            shared_mask |= 1 << aid
        scan.shared_mask = shared_mask
        # annotate_shared_sets, as a mask-and; string sets stay lazy
        for cs in sections:
            cs._tables = scan.tables
            cs._reads = None
            cs._writes = None
            cs._srd = None
            cs._swr = None
            cs.srd_mask = cs.read_mask & shared_mask
            cs.swr_mask = cs.write_mask & shared_mask
        sections.sort(key=lambda cs: (cs.t_start, cs.uid))
        by_lock: Dict[str, int] = {}
        for cs in sections:
            cs.lock_index = by_lock.get(cs.lock, 0)
            by_lock[cs.lock] = cs.lock_index + 1
        telemetry.count("analyze.scans")
        telemetry.count("analyze.events_scanned", scan.events)
        telemetry.count("analyze.sections", len(scan.sections))
        return scan

    def payload(self, reader_state: dict) -> dict:
        """The checkpoint payload: this fold plus a suspended reader
        position (``SegmentedReader.suspend`` or ``SegmentTail.suspend_at``)
        taken at the same segment boundary."""
        return {
            "scan": self.scan,
            "first_toucher": self.first_toucher,
            "states": self.states,
            "reader": reader_state,
        }

    def resume(self, reader, checkpoint) -> None:
        """Adopt a checkpointed mid-scan state, if there is a usable one.

        ``reader`` must be fresh; it is fast-forwarded past those
        segments.  Any unusable checkpoint — missing, torn, taken
        against different trace bytes, or a file that can no longer back
        the claimed position — is cleared and ignored: resuming can only
        save work, never change the result.
        """
        loaded = checkpoint.load()
        if loaded is None:
            return
        payload, segments_done = loaded
        try:
            state = payload["scan"], payload["first_toucher"], payload["states"]
            # installs the pickled tables on the reader; scan.tables is
            # that same object (pickled together)
            reader.resume(payload["reader"])
        except (TraceError, KeyError, TypeError):
            checkpoint.clear()
            return
        self.scan, self.first_toucher, self.states = state
        self.segments = segments_done
        telemetry.count("analyze.segments_resumed", segments_done)


def _walk_chunk(tid, column, base, st, scan, first_toucher, lock_name,
                view) -> None:
    """Advance one thread's scan by one columnar chunk: event ``i`` of
    ``column`` is event ``base + i`` of the thread, ``st`` its carried
    state and ``view`` its whole-thread view or ``None``.  Only memory
    and lock events move the scan, so the walk visits just their
    positions."""
    kinds = column.kind
    n = len(kinds)
    if not n:
        return
    uids = column.uids
    if st.pending_post:
        for cs in st.pending_post:
            cs.post_anchor = uids[0]
        st.pending_post.clear()
    lock_ids = column.lock_id
    addr_ids = column.addr_id
    tid_id = column.tid_id
    sections = scan.sections
    body_spans = scan.body_spans
    shared_ids = scan.shared_ids
    open_by_lock = st.open_by_lock
    stack = st.stack
    read_masks = st.read_masks
    write_masks = st.write_masks

    for i in positions(kinds, READ_CODE, WRITE_CODE, ACQUIRE_CODE,
                       RELEASE_CODE):
        kind = kinds[i]
        if kind == READ_CODE or kind == WRITE_CODE:
            aid = addr_ids[i]
            if first_toucher.setdefault(aid, tid_id) != tid_id:
                shared_ids.add(aid)
            if stack:
                bit = 1 << aid
                masks = read_masks if kind == READ_CODE else write_masks
                for depth in range(len(masks)):
                    masks[depth] |= bit
        elif kind == ACQUIRE_CODE:
            lid = lock_ids[i]
            if lid in open_by_lock:
                raise TraceError(
                    f"{tid}: nested acquire of same lock {lock_name(lid)}"
                )
            pre = uids[i - 1] if i else st.last_uid
            if view is None:
                cs = CriticalSection._open(
                    uids[i], tid, lock_name(lid), column.event(i), pre,
                )
                body_spans[cs.uid] = (tid, base + i + 1, base + i + 1)
            else:
                cs = CriticalSection._open(
                    uids[i], tid, lock_name(lid), view[base + i], pre,
                )
                cs._body_source = (view, base + i + 1, base + i + 1)
            open_by_lock[lid] = cs
            stack.append(cs)
            read_masks.append(0)
            write_masks.append(0)
            sections.append(cs)
        elif kind == RELEASE_CODE:
            lid = lock_ids[i]
            cs = open_by_lock.pop(lid, None)
            if cs is None:
                raise TraceError(f"{tid}: release of unheld {lock_name(lid)}")
            depth = stack.index(cs)
            stack.pop(depth)
            cs.read_mask = read_masks.pop(depth)
            cs.write_mask = write_masks.pop(depth)
            if view is None:
                cs.release = column.event(i)
                body_spans[cs.uid] = (tid, body_spans[cs.uid][1], base + i)
            else:
                cs.release = view[base + i]
                cs._body_source = (view, cs._body_source[1], base + i)
            if i + 1 < n:
                cs.post_anchor = uids[i + 1]
            else:
                st.pending_post.append(cs)
    st.last_uid = uids[n - 1]


def scan_segments(reader, *, checkpoint=None, fold: Optional[ScanFold] = None,
                  on_segment=None) -> TraceScan:
    """The engine scan of :func:`scan_trace`, over a segment stream.

    ``reader`` is a fresh :class:`repro.trace.segments.SegmentedReader`;
    its segments are consumed strictly, one at a time, so peak memory is
    one segment's chunks plus the (output-sized) section list.  Produces
    sections observably identical to :func:`scan_trace` on the same
    trace — same uids, anchors, lock indexes and decoded access sets —
    except for bodies: streamed sections carry a ``body_spans`` entry on
    the returned scan instead of a sliceable whole-thread view.

    Each segment's chunks go into one :class:`ScanFold` (``fold``, or a
    fresh one over the reader's threads), so a critical section may open
    in one segment and close many segments later.  ``on_segment``, when
    given, is called after each folded segment.

    With a :class:`repro.runner.checkpoint.Checkpointer` the fold is
    persisted every N segments (the fold *is* the checkpoint, next to
    the suspended reader position), and an existing checkpoint for the
    same trace bytes fast-forwards the reader so only the unscanned tail
    is redone.
    """
    with telemetry.span("analyze.scan_segments"):
        if fold is None:
            fold = ScanFold(reader.tables, reader.threads)
        if checkpoint is not None:
            fold.resume(reader, checkpoint)
        for segment in reader.segments():
            fold.add(segment.chunks)
            if on_segment is not None:
                on_segment()
            if checkpoint is not None and checkpoint.due(fold.segments):
                checkpoint.save(fold.payload(reader.suspend()), fold.segments)
        return fold.finish()
