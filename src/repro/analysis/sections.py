"""Critical-section extraction from a recorded trace.

A critical section (CS) is the span of one thread's events between a lock
acquisition and its matching release.  Nested locks produce nested
sections; a CS's *body* contains every event strictly between its acquire
and release (including nested lock events).

A CS's uid is the uid of its acquire event; the transformation and the
performance metrics reference sections by this uid throughout.

Two construction paths exist:

* :func:`extract_sections` — the retained reference walk over
  ``TraceEvent`` lists, filling eager ``reads``/``writes`` string sets
  (the shared sets then come from
  :func:`repro.analysis.shadow.annotate_shared_sets`), and
* :func:`repro.analysis.engine.scan_trace` — the single-pass columnar
  engine, which fills the *bitmask* representation (``read_mask`` /
  ``srd_mask`` / ... over interned address ids) and leaves the string
  sets to be decoded lazily on first access.

Both paths produce :class:`CriticalSection` objects with identical
observable state; Algorithm 1 (:mod:`repro.analysis.classify`) prefers
the masks when present.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.errors import TraceError
from repro.trace.codesite import CodeRegion, CodeSite
from repro.trace.events import ACQUIRE, READ, RELEASE, TraceEvent, WRITE
from repro.trace.trace import Trace


def iter_mask_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CriticalSection:
    """One dynamic critical section.

    Access sets live in two equivalent representations: plain string
    sets (``reads``/``writes``/``srd``/``swr``, the public API) and —
    when built by the columnar engine — integer bitmasks over interned
    address ids (``read_mask``/``write_mask``/``srd_mask``/``swr_mask``).
    The string views decode lazily from the masks, so a section that is
    only ever intersected never materializes a set.
    """

    __slots__ = (
        "uid",
        "tid",
        "lock",
        "acquire",
        "release",
        #: Anchors for the Eq. 1 performance labels: the uid of the last
        #: event before the CS in this thread (Time1 anchor) and of the
        #: first event after it (Time2/Time3 anchor).  None at thread edges.
        "pre_anchor",
        "post_anchor",
        #: Position of this CS in its lock's acquisition order.
        "lock_index",
        #: Bitmasks over interned address ids (None outside the engine path).
        "read_mask",
        "write_mask",
        "srd_mask",
        "swr_mask",
        "_tables",
        "_body",
        "_body_source",
        "_reads",
        "_writes",
        "_srd",
        "_swr",
        "_mem_ops",
    )

    def __init__(
        self,
        uid: str,
        tid: str,
        lock: str,
        acquire: TraceEvent,
        release: TraceEvent,
        body: Optional[List[TraceEvent]] = None,
        reads: Optional[Set[str]] = None,
        writes: Optional[Set[str]] = None,
        srd: Optional[Set[str]] = None,
        swr: Optional[Set[str]] = None,
        pre_anchor: Optional[str] = None,
        post_anchor: Optional[str] = None,
        lock_index: int = -1,
    ):
        self.uid = uid
        self.tid = tid
        self.lock = lock
        self.acquire = acquire
        self.release = release
        self.pre_anchor = pre_anchor
        self.post_anchor = post_anchor
        self.lock_index = lock_index
        self.read_mask = None
        self.write_mask = None
        self.srd_mask = None
        self.swr_mask = None
        self._tables = None
        self._body = body if body is not None else []
        self._body_source = None
        self._reads = reads if reads is not None else set()
        self._writes = writes if writes is not None else set()
        self._srd = srd if srd is not None else set()
        self._swr = swr if swr is not None else set()
        self._mem_ops = None

    @classmethod
    def _open(cls, uid, tid, lock, acquire, pre_anchor):
        """Fast constructor for the engine walks.

        The engine opens one section per ACQUIRE — on lock-heavy traces
        this constructor is a measurable slice of the whole scan, so it
        skips ``__init__``'s kwargs and eager-set defaults: masks start
        at ``None`` (the walk assigns them at RELEASE) and the string
        sets start at ``None`` (``ScanFold.finish`` re-Nones them anyway
        to decode lazily from the masks).  ``release`` starts as the
        acquire event and is patched at RELEASE, exactly like the
        reference walk does.
        """
        cs = object.__new__(cls)
        cs.uid = uid
        cs.tid = tid
        cs.lock = lock
        cs.acquire = acquire
        cs.release = acquire
        cs.pre_anchor = pre_anchor
        cs.post_anchor = None
        cs.lock_index = -1
        cs.read_mask = None
        cs.write_mask = None
        cs.srd_mask = None
        cs.swr_mask = None
        cs._tables = None
        cs._body = None
        cs._body_source = None
        cs._reads = None
        cs._writes = None
        cs._srd = None
        cs._swr = None
        cs._mem_ops = None
        return cs

    # ------------------------------------------------- lazy body / sets

    @property
    def body(self) -> List[TraceEvent]:
        if self._body is None:
            view, start, end = self._body_source
            self._body = view[start:end]
        return self._body

    @body.setter
    def body(self, events: List[TraceEvent]) -> None:
        self._body = events

    def _decode_mask(self, mask: int) -> Set[str]:
        name = self._tables.addrs.name
        return {name(bit) for bit in iter_mask_bits(mask)}

    @property
    def reads(self) -> Set[str]:
        """Addresses read anywhere in the body."""
        if self._reads is None:
            self._reads = self._decode_mask(self.read_mask)
        return self._reads

    @reads.setter
    def reads(self, value: Set[str]) -> None:
        self._reads = value

    @property
    def writes(self) -> Set[str]:
        """Addresses written anywhere in the body."""
        if self._writes is None:
            self._writes = self._decode_mask(self.write_mask)
        return self._writes

    @writes.setter
    def writes(self, value: Set[str]) -> None:
        self._writes = value

    @property
    def srd(self) -> Set[str]:
        """The paper's C.Srd: *shared* addresses read in the body."""
        if self._srd is None:
            self._srd = self._decode_mask(self.srd_mask)
        return self._srd

    @srd.setter
    def srd(self, value: Set[str]) -> None:
        self._srd = value
        self.srd_mask = None  # sets now authoritative; drop the stale mask

    @property
    def swr(self) -> Set[str]:
        """The paper's C.Swr: *shared* addresses written in the body."""
        if self._swr is None:
            self._swr = self._decode_mask(self.swr_mask)
        return self._swr

    @swr.setter
    def swr(self, value: Set[str]) -> None:
        self._swr = value
        self.swr_mask = None

    # ------------------------------------------------------- key views

    def srd_keys(self):
        """C.Srd as hashable keys (interned bits when available)."""
        if self.srd_mask is not None:
            return iter_mask_bits(self.srd_mask)
        return self._srd

    def swr_keys(self):
        """C.Swr as hashable keys (interned bits when available)."""
        if self.swr_mask is not None:
            return iter_mask_bits(self.swr_mask)
        return self._swr

    def srd_only_keys(self):
        """C.Srd minus C.Swr, as hashable keys."""
        if self.srd_mask is not None and self.swr_mask is not None:
            return iter_mask_bits(self.srd_mask & ~self.swr_mask)
        return self._srd - self._swr

    # ------------------------------------------------------ properties

    @property
    def t_start(self) -> int:
        return self.acquire.t

    @property
    def t_end(self) -> int:
        return self.release.t

    @property
    def duration(self) -> int:
        return self.t_end - self.t_start

    @property
    def region(self) -> CodeRegion:
        """The code region between the lock and unlock sites."""
        acquire_site = self.acquire.site or CodeSite("<unknown>", 0)
        release_site = self.release.site or acquire_site
        return CodeRegion.from_sites(acquire_site, release_site)

    @property
    def is_empty(self) -> bool:
        """No shared accesses at all (the null-lock shape)."""
        if self.srd_mask is not None and self.swr_mask is not None:
            return not self.srd_mask and not self.swr_mask
        return not self._srd and not self._swr

    def conflicts_with(self, other: "CriticalSection") -> bool:
        """True when the shared access sets truly collide (Algorithm 1 l.5)."""
        if (
            self.srd_mask is not None
            and self.swr_mask is not None
            and other.srd_mask is not None
            and other.swr_mask is not None
        ):
            return bool(
                (self.srd_mask & other.swr_mask)
                or (self.swr_mask & other.srd_mask)
                or (self.swr_mask & other.swr_mask)
            )
        return bool(
            (self.srd & other.swr)
            or (self.swr & other.srd)
            or (self.swr & other.swr)
        )

    def memory_ops(self) -> List[TraceEvent]:
        """The body's READ/WRITE events, computed once and cached."""
        if self._mem_ops is None:
            self._mem_ops = [e for e in self.body if e.kind in (READ, WRITE)]
        return self._mem_ops

    def __repr__(self):
        return (
            f"<CS {self.uid} {self.tid} lock={self.lock} "
            f"[{self.t_start},{self.t_end}]>"
        )


def extract_sections(trace: Trace) -> List[CriticalSection]:
    """Extract every critical section, in global acquisition-time order."""
    sections: List[CriticalSection] = []
    for tid, events in trace.threads.items():
        open_by_lock: Dict[str, CriticalSection] = {}
        # sections currently open, for body attribution (innermost last)
        stack: List[CriticalSection] = []
        for event in events:
            if event.kind == ACQUIRE:
                if event.lock in open_by_lock:
                    raise TraceError(
                        f"{tid}: nested acquire of same lock {event.lock}"
                    )
                for open_cs in stack:
                    open_cs.body.append(event)
                cs = CriticalSection(
                    uid=event.uid,
                    tid=tid,
                    lock=event.lock,
                    acquire=event,
                    release=event,  # patched at RELEASE
                )
                open_by_lock[event.lock] = cs
                stack.append(cs)
                sections.append(cs)
            elif event.kind == RELEASE:
                cs = open_by_lock.pop(event.lock, None)
                if cs is None:
                    raise TraceError(f"{tid}: release of unheld {event.lock}")
                cs.release = event
                stack.remove(cs)
                for open_cs in stack:
                    open_cs.body.append(event)
            else:
                for open_cs in stack:
                    open_cs.body.append(event)
                    if event.kind == READ:
                        open_cs.reads.add(event.addr)
                    elif event.kind == WRITE:
                        open_cs.writes.add(event.addr)
        if open_by_lock:
            raise TraceError(f"{tid}: unclosed critical sections")

    _attach_anchors(trace, sections)
    sections.sort(key=lambda cs: (cs.t_start, cs.uid))
    by_lock: Dict[str, int] = {}
    for cs in sections:
        cs.lock_index = by_lock.get(cs.lock, 0)
        by_lock[cs.lock] = cs.lock_index + 1
    return sections


def _attach_anchors(trace: Trace, sections: List[CriticalSection]) -> None:
    """Set each CS's pre/post anchor uids (for the Eq. 1 time labels)."""
    index_maps = {
        tid: {e.uid: i for i, e in enumerate(events)}
        for tid, events in trace.threads.items()
    }
    for cs in sections:
        events = trace.threads[cs.tid]
        indices = index_maps[cs.tid]
        acquire_idx = indices[cs.acquire.uid]
        release_idx = indices[cs.release.uid]
        if acquire_idx > 0:
            cs.pre_anchor = events[acquire_idx - 1].uid
        if release_idx + 1 < len(events):
            cs.post_anchor = events[release_idx + 1].uid


def sections_by_lock(sections: Iterable[CriticalSection]) -> Dict[str, List[CriticalSection]]:
    """Group sections per lock, each group in acquisition order."""
    grouped: Dict[str, List[CriticalSection]] = {}
    for cs in sections:
        grouped.setdefault(cs.lock, []).append(cs)
    for group in grouped.values():
        group.sort(key=lambda cs: cs.lock_index)
    return grouped
