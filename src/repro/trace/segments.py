"""Segmented streaming trace format: bounded-memory record-once/analyze-many.

The monolithic ``.jsonl.gz`` format of :mod:`repro.trace.serialize` keeps
one event per line and must be materialized as a full :class:`Trace` to
be analyzed — fine up to RAM, a wall past it.  This module adds the
**segmented** format (version 1): the same recording split into
fixed-size immutable segments that the analysis engine, the stats
summary and the timeline builder can consume one segment at a time,
never holding more than ``segment_events`` events in memory.

On-disk layout — still one file, still JSONL, still ``zcat``-able::

    header block     {"repro_segments": 1, "segment_events": N}
                     {"meta": ...}
                     {"lock_schedule": ...}
                     {"threads": [...]}
                     {"side": ...}                      (optional)
    segment block*   {"segment": k, "events": n, "symbols": {deltas}}
                     {"chunk": tid, "n": n, "uid": [...], "kind": [...],
                      "t": [...], ...}                  (one per thread)
                     {"segment_end": k, "digest": "sha256..."}
    footer block     {"footer": {"segments": K, "events": N,
                                 "digest": "sha256..."}}

Events are split into segments in **global time order** (exactly the
order :func:`repro.trace.serialize.write_trace` emits), then grouped
per thread inside each segment as columnar chunks — parallel arrays of
interned ids, decoded straight into
:class:`repro.trace.interning.ColumnarThread` objects on read.  Symbol
tables are written as per-segment *deltas* (the strings first interned
in that segment), so the reader's :class:`InternTables` grow
monotonically and chunk ids stay valid across the whole file.

For a ``.gz`` path every block is its own gzip member; concatenated
members are a single valid gzip stream (``zcat`` and ``gzip.open`` read
straight through), while the sidecar index (``<path>.idx``) records each
member's byte offset so segment ``k`` is random-accessible with one
``seek`` + one member decompression.  The index also carries each
segment's content digest — the basis for content-addressed cache keys
(:func:`repro.runner.keys.segmented_digest`) that never decompress the
file.  The index is advisory: the data file alone is fully
self-describing.

Durability: both the data file and the index are written to a temp file
and atomically renamed into place, and every segment is digest-protected
— a torn write, a truncated tail or a flipped bit is detected at the
segment granularity.  Salvage mode (:func:`salvage_segmented`) degrades
to the longest well-formed **segment prefix**, then applies the same
replayability trim as monolithic salvage.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import threading
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro import telemetry
from repro.chaos.points import crash_point
from repro.errors import TraceError
from repro.trace.codesite import CodeSite
from repro.trace.events import TraceEvent
from repro.trace.interning import (
    FLAG_SHARED,
    FLAG_SPIN,
    KINDS,
    ColumnarThread,
    ColumnarTrace,
    InternTables,
    materialize,
)
from repro.trace.selective import SideTable
from repro.trace.trace import Trace, TraceMeta

#: first-line marker + schema version of the segmented container
FORMAT_KEY = "repro_segments"
FORMAT_VERSION = 1
#: default events per segment — the memory granule of streaming analysis
DEFAULT_SEGMENT_EVENTS = 65536
#: sidecar index filename suffix (appended to the trace path)
INDEX_SUFFIX = ".idx"

_GZIP_MAGIC = b"\x1f\x8b"


def _is_gz_path(path: Path) -> bool:
    return path.suffix == ".gz"


def is_segmented_file(path: Union[str, Path]) -> bool:
    """Sniff whether ``path`` holds the segmented format (by first line)."""
    path = Path(path)
    try:
        with _open_text(path) as handle:
            first = handle.readline()
        data = json.loads(first)
    except (OSError, EOFError, zlib.error, UnicodeDecodeError,
            json.JSONDecodeError, ValueError):
        return False
    return isinstance(data, dict) and FORMAT_KEY in data


def _open_text(path: Path):
    """Text handle over the container, chosen by content (gzip magic)."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == _GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


# ------------------------------------------------------------------ writer


class _ChunkBuilder:
    """Per-thread columnar accumulation for the segment being built."""

    __slots__ = ("tid", "uid", "kind", "t", "duration", "t_request", "value",
                 "lock", "addr", "flags", "site", "op", "token", "reason",
                 "woken")

    def __init__(self, tid: str):
        self.tid = tid
        self.uid: List[str] = []
        self.kind: List[int] = []
        self.t: List[int] = []
        self.duration: List[int] = []
        self.t_request: List[int] = []
        self.value: List[int] = []
        self.lock: List[int] = []
        self.addr: List[int] = []
        self.flags: List[int] = []
        self.site: List[Optional[list]] = []
        self.op: Dict[int, list] = {}
        self.token: Dict[int, str] = {}
        self.reason: Dict[int, str] = {}
        self.woken: Dict[int, List[str]] = {}

    def push(self, event: TraceEvent, tables: InternTables) -> None:
        i = len(self.uid)
        self.uid.append(event.uid)
        self.kind.append(tables.kinds.intern(event.kind))
        self.t.append(event.t)
        self.duration.append(event.duration)
        self.t_request.append(event.t_request)
        self.value.append(event.value)
        self.lock.append(tables.locks.intern(event.lock) if event.lock else -1)
        self.addr.append(tables.addrs.intern(event.addr) if event.addr else -1)
        self.flags.append(
            (FLAG_SPIN if event.spin else 0)
            | (FLAG_SHARED if event.shared else 0)
        )
        self.site.append(event.site.encode() if event.site is not None else None)
        if event.op is not None:
            self.op[i] = list(event.op)
        if event.token is not None:
            self.token[i] = event.token
        if event.reason:
            self.reason[i] = event.reason
        if event.woken:
            self.woken[i] = list(event.woken)

    def encode(self) -> dict:
        """Compact chunk object: all-default columns are omitted."""
        data = {"chunk": self.tid, "n": len(self.uid), "uid": self.uid,
                "kind": self.kind, "t": self.t}
        if any(self.duration):
            data["duration"] = self.duration
        if any(self.t_request):
            data["t_request"] = self.t_request
        if any(self.value):
            data["value"] = self.value
        if any(x >= 0 for x in self.lock):
            data["lock"] = self.lock
        if any(x >= 0 for x in self.addr):
            data["addr"] = self.addr
        if any(self.flags):
            data["flags"] = self.flags
        if any(s is not None for s in self.site):
            data["site"] = self.site
        for name in ("op", "token", "reason", "woken"):
            sparse = getattr(self, name)
            if sparse:
                data[name] = {str(k): v for k, v in sparse.items()}
        return data


_MISS = object()


def _block_col(value, start: int, stop: int) -> list:
    """Slice a vector column, or broadcast a scalar over the slice."""
    if isinstance(value, (list, tuple)):
        return list(value[start:stop])
    return [value] * (stop - start)


def _block_ids(table, value, start: int, stop: int, required: bool) -> list:
    """Interned-id column for one slice, preserving first-occurrence order.

    Interning happens here — inside the flush-slice loop — rather than
    over the whole block up front, so a symbol whose first occurrence
    falls after a segment boundary is interned after that segment's
    delta is cut, exactly as a sequence of :meth:`add` calls would do.
    """
    if isinstance(value, (list, tuple)):
        out = []
        memo: Dict[object, int] = {}
        for v in value[start:stop]:
            i = memo.get(v, _MISS)
            if i is _MISS:
                i = table.intern(v) if (required or v) else -1
                memo[v] = i
            out.append(i)
        return out
    i = table.intern(value) if (required or value) else -1
    return [i] * (stop - start)


@dataclass
class SegmentInfo:
    """One segment's entry in the sidecar index."""

    offset: int
    events: int
    digest: str


@dataclass
class SegmentedIndex:
    """The sidecar index: per-segment offsets + digests, written atomically."""

    segment_events: int
    events: int
    file_size: int
    digest: str  #: sha256 over the concatenated segment digests
    segments: List[SegmentInfo] = field(default_factory=list)
    #: byte offset of the footer block (``None`` in pre-checkpoint indexes);
    #: lets a resume at the final segment boundary seek straight to the
    #: footer for validation instead of re-reading the last segment
    footer_offset: Optional[int] = None

    def encode(self) -> dict:
        data = {
            "format": "repro-segments-index",
            "version": FORMAT_VERSION,
            "segment_events": self.segment_events,
            "events": self.events,
            "file_size": self.file_size,
            "digest": self.digest,
            "segments": [
                {"offset": s.offset, "events": s.events, "digest": s.digest}
                for s in self.segments
            ],
        }
        if self.footer_offset is not None:
            data["footer_offset"] = self.footer_offset
        return data

    @staticmethod
    def decode(data: dict) -> "SegmentedIndex":
        index = SegmentedIndex(
            segment_events=data["segment_events"],
            events=data["events"],
            file_size=data["file_size"],
            digest=data["digest"],
            footer_offset=data.get("footer_offset"),
        )
        for entry in data["segments"]:
            index.segments.append(SegmentInfo(
                offset=entry["offset"], events=entry["events"],
                digest=entry["digest"],
            ))
        return index


def index_path(path: Union[str, Path]) -> Path:
    return Path(str(path) + INDEX_SUFFIX)


def load_index(path: Union[str, Path]) -> Optional[SegmentedIndex]:
    """The sidecar index of ``path``, or ``None`` when absent/unreadable."""
    target = index_path(path)
    try:
        data = json.loads(target.read_text(encoding="utf-8"))
        if data.get("format") != "repro-segments-index":
            return None
        return SegmentedIndex.decode(data)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _write_index(data_path: Path, index: SegmentedIndex) -> None:
    """Atomically (re)write the sidecar index for ``data_path``."""
    target = index_path(data_path)
    tmp = target.with_name(f".tmp-{os.getpid()}-{target.name}")
    try:
        tmp.write_text(
            json.dumps(index.encode(), sort_keys=True,
                       separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


class SegmentedTraceWriter:
    """Streaming writer: feed events in global time order, bounded memory.

    The destination is written as ``<dir>/.tmp-<pid>-<name>`` and
    atomically renamed on :meth:`close` (then the sidecar index, also
    atomically) — a crash mid-write leaves the old file intact, never a
    torn one.  Events must arrive in the global time order of
    :meth:`Trace.iter_time_order`; the writer cuts a segment every
    ``segment_events`` events.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        meta: TraceMeta,
        threads,
        lock_schedule: Dict[str, List[str]],
        side: Optional[SideTable] = None,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
        on_segment=None,
    ):
        if segment_events < 1:
            raise ValueError(f"segment_events must be >= 1: {segment_events}")
        self.path = Path(path)
        self.segment_events = segment_events
        #: called as ``on_segment(index, SegmentInfo)`` after each segment
        #: reaches the file — the recorder-side hook live observers attach to
        self.on_segment = on_segment
        self.threads = list(threads)
        self.tables = InternTables()
        for tid in self.threads:
            self.tables.tids.intern(tid)
        self._symbol_marks = (0, 0, len(KINDS))  # (locks, addrs, kinds) flushed
        self._chunks: Dict[str, _ChunkBuilder] = {}
        self._pending = 0
        self._segments: List[SegmentInfo] = []
        self._events_total = 0
        self._closed = False
        self._gz = _is_gz_path(self.path)
        self._tmp = self.path.with_name(f".tmp-{os.getpid()}-{self.path.name}")
        self._raw = open(self._tmp, "wb")
        header = [json.dumps({FORMAT_KEY: FORMAT_VERSION,
                              "segment_events": segment_events}),
                  json.dumps({"meta": meta.encode()}),
                  json.dumps({"lock_schedule": lock_schedule}),
                  json.dumps({"threads": self.threads})]
        if side is not None and side.deltas:
            header.append(json.dumps({"side": side.encode()}))
        self._write_block(header)

    def _write_block(self, lines: List[str]) -> int:
        """One block (= one gzip member on .gz paths); returns its offset."""
        offset = self._raw.tell()
        text = "".join(line + "\n" for line in lines)
        if self._gz:
            # per-block members: mtime=0 + empty name keep bytes
            # deterministic, and each member is independently seekable;
            # level 6 compresses JSON lines ~2x faster than the level-9
            # default for ~1% larger files — write time is the
            # generator's bottleneck, not disk
            with gzip.GzipFile(filename="", fileobj=self._raw, mode="wb",
                               compresslevel=6, mtime=0) as member:
                member.write(text.encode("utf-8"))
        else:
            self._raw.write(text.encode("utf-8"))
        # push the block to the OS now: a live tail reader (SegmentTail)
        # must see whole blocks, not whatever the userspace buffer held
        self._raw.flush()
        return offset

    def add(self, event: TraceEvent) -> None:
        builder = self._chunks.get(event.tid)
        if builder is None:
            if event.tid not in self.tables.tids:
                raise TraceError(
                    f"event {event.uid} references undeclared thread "
                    f"{event.tid!r}"
                )
            builder = self._chunks[event.tid] = _ChunkBuilder(event.tid)
        builder.push(event, self.tables)
        self._pending += 1
        if self._pending >= self.segment_events:
            self._flush_segment()

    def add_block(
        self,
        tid: str,
        *,
        uids,
        kinds,
        t,
        duration=0,
        t_request=0,
        value=0,
        lock="",
        addr="",
        spin=False,
        shared=False,
        sites=None,
        op=None,
        token=None,
        reason=None,
        woken=None,
    ) -> None:
        """Append ``len(uids)`` consecutive events of one thread in bulk.

        Columnar twin of :meth:`add`: the call is byte-for-byte
        equivalent to adding the same events one at a time — same
        segment boundaries, same per-segment symbol deltas, same chunk
        encoding — but skips per-event :class:`TraceEvent` construction
        and ``push`` dispatch, which dominates synthetic-trace
        generation at the 10M-event scale.

        ``uids`` fixes the block length; every other column is either a
        sequence of that length or a scalar broadcast over the block
        (strings count as scalars).  ``sites`` takes ``CodeSite``
        objects (or ``None``); ``op``/``token``/``reason``/``woken``
        are sparse mappings keyed by block-relative index with the same
        value filters :meth:`add` applies.  Events must still arrive in
        global time order across calls.
        """
        n = len(uids)
        if n == 0:
            return
        if tid not in self.tables.tids:
            raise TraceError(
                f"event {uids[0]} references undeclared thread {tid!r}"
            )
        for name, column in (("kinds", kinds), ("t", t),
                             ("duration", duration), ("t_request", t_request),
                             ("value", value), ("lock", lock), ("addr", addr),
                             ("spin", spin), ("shared", shared),
                             ("sites", sites)):
            if isinstance(column, (list, tuple)) and len(column) != n:
                raise TraceError(
                    f"add_block column {name!r}: {len(column)} values "
                    f"for {n} events"
                )
        flags_vec = isinstance(spin, (list, tuple)) or isinstance(
            shared, (list, tuple)
        )
        start = 0
        while start < n:
            take = min(n - start, self.segment_events - self._pending)
            stop = start + take
            builder = self._chunks.get(tid)
            if builder is None:
                builder = self._chunks[tid] = _ChunkBuilder(tid)
            base = len(builder.uid)
            builder.uid.extend(uids[start:stop])
            builder.kind.extend(_block_ids(
                self.tables.kinds, kinds, start, stop, required=True))
            builder.t.extend(_block_col(t, start, stop))
            builder.duration.extend(_block_col(duration, start, stop))
            builder.t_request.extend(_block_col(t_request, start, stop))
            builder.value.extend(_block_col(value, start, stop))
            builder.lock.extend(_block_ids(
                self.tables.locks, lock, start, stop, required=False))
            builder.addr.extend(_block_ids(
                self.tables.addrs, addr, start, stop, required=False))
            if flags_vec:
                builder.flags.extend(
                    (FLAG_SPIN if sp else 0) | (FLAG_SHARED if sh else 0)
                    for sp, sh in zip(_block_col(spin, start, stop),
                                      _block_col(shared, start, stop))
                )
            else:
                builder.flags.extend(_block_col(
                    (FLAG_SPIN if spin else 0)
                    | (FLAG_SHARED if shared else 0), start, stop))
            if sites is None:
                builder.site.extend([None] * take)
            else:
                builder.site.extend(
                    s.encode() if s is not None else None
                    for s in _block_col(sites, start, stop)
                )
            if op:
                for j, v in op.items():
                    if start <= j < stop and v is not None:
                        builder.op[base + j - start] = list(v)
            if token:
                for j, v in token.items():
                    if start <= j < stop and v is not None:
                        builder.token[base + j - start] = v
            if reason:
                for j, v in reason.items():
                    if start <= j < stop and v:
                        builder.reason[base + j - start] = v
            if woken:
                for j, v in woken.items():
                    if start <= j < stop and v:
                        builder.woken[base + j - start] = list(v)
            self._pending += take
            if self._pending >= self.segment_events:
                self._flush_segment()
            start = stop

    def _symbol_delta(self) -> dict:
        locks_mark, addrs_mark, kinds_mark = self._symbol_marks
        delta = {}
        locks = self.tables.locks.encode()[locks_mark:]
        addrs = self.tables.addrs.encode()[addrs_mark:]
        kinds = self.tables.kinds.encode()[kinds_mark:]
        if locks:
            delta["locks"] = locks
        if addrs:
            delta["addrs"] = addrs
        if kinds:
            delta["kinds"] = kinds
        self._symbol_marks = (
            len(self.tables.locks), len(self.tables.addrs),
            len(self.tables.kinds),
        )
        return delta

    def _flush_segment(self) -> None:
        if not self._pending:
            return
        k = len(self._segments)
        header = {"segment": k, "events": self._pending}
        delta = self._symbol_delta()
        if delta:
            header["symbols"] = delta
        lines = [json.dumps(header)]
        # chunks in thread declaration order, so reconstruction order is
        # independent of which thread happened to log first
        for tid in self.threads:
            builder = self._chunks.get(tid)
            if builder is not None and builder.uid:
                lines.append(json.dumps(builder.encode()))
        digest = hashlib.sha256()
        for line in lines:
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        digest = digest.hexdigest()
        lines.append(json.dumps({"segment_end": k, "digest": digest}))
        offset = self._write_block(lines)
        crash_point("segments.flush")
        info = SegmentInfo(
            offset=offset, events=self._pending, digest=digest,
        )
        self._segments.append(info)
        self._events_total += self._pending
        self._pending = 0
        self._chunks = {}
        if self.on_segment is not None:
            self.on_segment(k, info)

    def close(self) -> SegmentedIndex:
        if self._closed:
            raise TraceError(f"segmented writer for {self.path} already closed")
        self._flush_segment()
        combined = hashlib.sha256()
        for info in self._segments:
            combined.update(info.digest.encode("utf-8"))
        combined = combined.hexdigest()
        footer_offset = self._write_block([json.dumps({"footer": {
            "segments": len(self._segments),
            "events": self._events_total,
            "digest": combined,
        }})])
        self._raw.close()
        crash_point("segments.close")
        try:
            os.replace(self._tmp, self.path)
        except BaseException:
            self._tmp.unlink(missing_ok=True)
            raise
        self._closed = True
        crash_point("segments.index")
        index = SegmentedIndex(
            segment_events=self.segment_events,
            events=self._events_total,
            file_size=self.path.stat().st_size,
            digest=combined,
            segments=self._segments,
            footer_offset=footer_offset,
        )
        _write_index(self.path, index)
        return index

    def abort(self) -> None:
        """Discard the partially-written temp file (crash-path cleanup)."""
        if not self._closed:
            self._raw.close()
            self._tmp.unlink(missing_ok=True)
            self._closed = True


def write_segmented(
    trace: Trace,
    path: Union[str, Path],
    *,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
    on_segment=None,
) -> SegmentedIndex:
    """Write ``trace`` to ``path`` in the segmented format (atomically).

    ``on_segment(index, SegmentInfo)`` fires after every segment reaches
    the file — in-process pipelines hook a live fold onto it.
    """
    writer = SegmentedTraceWriter(
        path,
        meta=trace.meta,
        threads=trace.thread_ids,
        lock_schedule=trace.lock_schedule,
        side=trace.side,
        segment_events=segment_events,
        on_segment=on_segment,
    )
    try:
        for event in trace.iter_time_order():
            writer.add(event)
    except BaseException:
        writer.abort()
        raise
    return writer.close()


# ------------------------------------------------------------------ reader


@dataclass
class SegmentChunk:
    """One thread's events within one segment, in columnar form.

    ``start`` is the thread-global index of the chunk's first event —
    event ``i`` of ``column`` is event ``start + i`` of the thread.
    """

    tid: str
    column: ColumnarThread
    start: int


@dataclass
class Segment:
    """One decoded segment: immutable, self-contained, digest-checked."""

    index: int
    events: int
    digest: str
    chunks: List[SegmentChunk] = field(default_factory=list)


class SegmentedReader:
    """Streaming reader over a segmented trace file.

    After construction the header is parsed: ``meta``, ``threads``,
    ``lock_schedule``, ``side`` and ``segment_events`` are available and
    ``tables`` holds the (growing) intern tables.  :meth:`segments` then
    yields one :class:`Segment` at a time — strict mode raises
    :class:`TraceError` at the first structural damage or digest
    mismatch; the tolerant iterator underpinning salvage stops instead.
    """

    def __init__(self, path: Union[str, Path], *, _handle=None):
        self.path = Path(path)
        self.source = str(path)
        # _handle is the SegmentTail hook: an already-decoded line source
        # (fed only *complete* blocks) replaces the on-disk stream
        self._handle = _handle if _handle is not None else _open_text(self.path)
        self._lines = iter(self._handle)
        self.tables = InternTables()
        self.stop_reason = ""
        self.footer: Optional[dict] = None
        self.events_seen = 0
        self._thread_counts: Dict[str, int] = {}
        self._consumed = False
        self._resume_segments_read = 0
        try:
            self._read_header()
        except BaseException:
            self._handle.close()
            raise

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "SegmentedReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._handle.close()
        raw = getattr(self, "_raw_handle", None)
        if raw is not None:
            # gzip.open over a fileobj does not close that fileobj
            raw.close()
            self._raw_handle = None

    # -- header ----------------------------------------------------------

    def _next(self):
        """Next non-blank line as (raw, parsed) or None at end of stream.

        Stream damage (truncated gzip member, bad bytes, malformed JSON)
        surfaces as :class:`TraceError` so every caller — header parse,
        strict iteration, chunk reads inside a segment — fails uniformly;
        the tolerant iterator turns it into a stop reason.
        """
        try:
            for raw in self._lines:
                if not raw.strip():
                    continue
                data = json.loads(raw)
                if not isinstance(data, dict):
                    raise TraceError(
                        f"malformed segmented trace line: expected object, "
                        f"got {data!r}"
                    )
                return raw, data
            return None
        except (EOFError, OSError, zlib.error, UnicodeDecodeError) as exc:
            raise TraceError(
                f"unreadable segmented trace {self.path}: {exc}"
            ) from None
        except json.JSONDecodeError as exc:
            raise TraceError(
                f"malformed segmented trace line: {exc}"
            ) from None

    def _read_header(self) -> None:
        try:
            first = self._next()
        except (EOFError, OSError, zlib.error, UnicodeDecodeError,
                json.JSONDecodeError) as exc:
            raise TraceError(
                f"unreadable segmented trace {self.path}: {exc}"
            ) from None
        if first is None or FORMAT_KEY not in first[1]:
            raise TraceError(f"{self.path} is not a segmented trace")
        version = first[1][FORMAT_KEY]
        if version != FORMAT_VERSION:
            raise TraceError(
                f"unsupported segmented trace version {version!r} "
                f"(supported: {FORMAT_VERSION})"
            )
        self.segment_events = first[1].get("segment_events", 0)
        try:
            meta = self._next()
            schedule = self._next()
            threads = self._next()
        except (EOFError, OSError, zlib.error, UnicodeDecodeError,
                json.JSONDecodeError) as exc:
            raise TraceError(
                f"truncated segmented trace header: {exc}"
            ) from None
        if (meta is None or schedule is None or threads is None
                or "meta" not in meta[1] or "lock_schedule" not in schedule[1]
                or "threads" not in threads[1]):
            raise TraceError("malformed segmented trace header")
        self.meta = TraceMeta.decode(meta[1]["meta"])
        self.lock_schedule = {
            lock: list(uids)
            for lock, uids in schedule[1]["lock_schedule"].items()
        }
        self.threads = list(threads[1]["threads"])
        for tid in self.threads:
            self.tables.tids.intern(tid)
            self._thread_counts[tid] = 0
        self.side = SideTable()
        self._peeked = None
        nxt = self._next()
        if nxt is not None and set(nxt[1]) == {"side"}:
            self.side = SideTable.decode(nxt[1]["side"])
        else:
            self._peeked = nxt

    def _next_or_peeked(self):
        if self._peeked is not None:
            entry, self._peeked = self._peeked, None
            return entry
        return self._next()

    # -- segments --------------------------------------------------------

    def _apply_symbols(self, delta: dict) -> None:
        for name in delta.get("locks", ()):
            self.tables.locks.intern(name)
        for name in delta.get("addrs", ()):
            self.tables.addrs.intern(name)
        for name in delta.get("kinds", ()):
            self.tables.kinds.intern(name)

    def _decode_chunk(self, data: dict) -> SegmentChunk:
        tid = data["chunk"]
        if tid not in self._thread_counts:
            raise TraceError(f"chunk references undeclared thread {tid!r}")
        n = data["n"]
        from array import array

        column = ColumnarThread(tid, self.tables.tids.id(tid), self.tables)
        column.uids = list(data["uid"])
        column.kind = array("b", data["kind"])
        column.t = array("q", data["t"])
        column.duration = array("q", data.get("duration") or [0] * n)
        column.t_request = array("q", data.get("t_request") or [0] * n)
        column.value = array("q", data.get("value") or [0] * n)
        column.lock_id = array("i", data.get("lock") or [-1] * n)
        column.addr_id = array("i", data.get("addr") or [-1] * n)
        column.flags = array("B", data.get("flags") or [0] * n)
        sites = data.get("site")
        if sites is None:
            column.sites = [None] * n
        else:
            column.sites = [CodeSite.decode(s) for s in sites]
        if len(column.uids) != n or len(column.kind) != n or len(column.t) != n:
            raise TraceError(f"chunk for {tid!r} has inconsistent lengths")
        column.ops = {int(k): tuple(v) for k, v in data.get("op", {}).items()}
        column.tokens = {int(k): v for k, v in data.get("token", {}).items()}
        column.reasons = {int(k): v for k, v in data.get("reason", {}).items()}
        column.woken = {
            int(k): list(v) for k, v in data.get("woken", {}).items()
        }
        start = self._thread_counts[tid]
        self._thread_counts[tid] = start + n
        return SegmentChunk(tid=tid, column=column, start=start)

    def _read_segment(self, entry) -> Optional[Segment]:
        """Parse one segment (or the footer, returning None)."""
        raw, data = entry
        if "footer" in data:
            footer = data["footer"]
            if footer.get("segments") != self._segments_read:
                raise TraceError(
                    f"segmented trace footer declares "
                    f"{footer.get('segments')} segments, read "
                    f"{self._segments_read}"
                )
            if footer.get("events") != self.events_seen:
                raise TraceError(
                    f"segmented trace footer declares {footer.get('events')} "
                    f"events, read {self.events_seen}"
                )
            self.footer = footer
            return None
        if "segment" not in data:
            raise TraceError(
                f"malformed segmented trace: expected segment header, "
                f"got keys {sorted(data)}"
            )
        k = data["segment"]
        if k != self._segments_read:
            raise TraceError(
                f"segment {k} out of order (expected {self._segments_read})"
            )
        digest = hashlib.sha256()
        digest.update(raw.rstrip("\n").encode("utf-8"))
        digest.update(b"\n")
        self._apply_symbols(data.get("symbols", {}))
        segment = Segment(index=k, events=data["events"], digest="")
        seen = 0
        chunk_tids = set()
        while True:
            entry = self._next()
            if entry is None:
                raise TraceError(f"segment {k} truncated: missing segment_end")
            raw, chunk_data = entry
            if "segment_end" in chunk_data:
                if chunk_data["segment_end"] != k:
                    raise TraceError(
                        f"segment_end {chunk_data['segment_end']} inside "
                        f"segment {k}"
                    )
                want = chunk_data.get("digest")
                got = digest.hexdigest()
                if want != got:
                    raise TraceError(
                        f"segment {k} digest mismatch: file says {want}, "
                        f"content hashes to {got}"
                    )
                segment.digest = got
                break
            if "chunk" not in chunk_data:
                raise TraceError(
                    f"malformed line inside segment {k}: keys "
                    f"{sorted(chunk_data)}"
                )
            digest.update(raw.rstrip("\n").encode("utf-8"))
            digest.update(b"\n")
            chunk = self._decode_chunk(chunk_data)
            if chunk.tid in chunk_tids:
                raise TraceError(
                    f"segment {k} holds two chunks for thread {chunk.tid!r}"
                )
            chunk_tids.add(chunk.tid)
            segment.chunks.append(chunk)
            seen += len(chunk.column)
        if seen != segment.events:
            raise TraceError(
                f"segment {k} declares {segment.events} events, "
                f"chunks hold {seen}"
            )
        self.events_seen += seen
        self._segments_read += 1
        return segment

    def segments(self) -> Iterator[Segment]:
        """Strict streaming iteration: any damage raises ``TraceError``."""
        self._start_iteration()
        while True:
            try:
                entry = self._next_or_peeked()
            except (EOFError, OSError, zlib.error, UnicodeDecodeError) as exc:
                raise TraceError(
                    f"unreadable segmented trace tail: {exc}"
                ) from None
            except json.JSONDecodeError as exc:
                raise TraceError(
                    f"malformed segmented trace line: {exc}"
                ) from None
            if entry is None:
                raise TraceError(
                    "truncated segmented trace: missing footer "
                    f"(read {self._segments_read} segments)"
                )
            segment = self._read_segment(entry)
            if segment is None:
                return
            yield segment

    def segments_tolerant(self) -> Iterator[Segment]:
        """Salvage iteration: stops at the first damage, keeping the
        well-formed segment prefix; the reason lands in ``stop_reason``."""
        self._start_iteration()
        while True:
            try:
                entry = self._next_or_peeked()
                if entry is None:
                    self.stop_reason = "missing footer"
                    return
                segment = self._read_segment(entry)
            except TraceError as exc:
                self.stop_reason = str(exc)
                return
            except (EOFError, OSError, zlib.error, UnicodeDecodeError) as exc:
                self.stop_reason = f"unreadable tail: {exc}"
                return
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                self.stop_reason = f"malformed segment: {exc}"
                return
            if segment is None:
                return
            yield segment

    def _start_iteration(self) -> None:
        if self._consumed:
            raise TraceError(
                f"segmented reader for {self.path} already consumed; "
                "open a new reader to re-stream"
            )
        self._consumed = True
        self._segments_read = self._resume_segments_read

    # -- checkpoint support ----------------------------------------------

    def suspend(self) -> dict:
        """Picklable mid-stream state, captured at a segment boundary.

        Everything a fresh reader needs to continue where this one is:
        the (monotonically grown) intern tables, per-thread event counts
        (chunk ``start`` offsets), and the stream position in segments
        and events.  Valid only between segments — i.e. from a consumer
        that checkpoints after fully processing a yielded segment.
        """
        return {
            "tables": self.tables,
            "thread_counts": dict(self._thread_counts),
            "segments_read": getattr(self, "_segments_read",
                                     self._resume_segments_read),
            "events_seen": self.events_seen,
        }

    def resume(self, state: dict) -> int:
        """Fast-forward this *fresh* reader to a suspended position.

        Seeks straight to the next unread segment via the sidecar index
        (rebuilding it if needed) and adopts the suspended intern tables
        and counts; iteration then continues with segment ``k`` as if
        the first ``k`` had just been streamed.  Returns ``k``.  Raises
        :class:`TraceError` when the file cannot back the state (no
        index and not reconstructable, fewer segments than claimed) —
        callers fall back to a full restart.
        """
        if self._consumed:
            raise TraceError("cannot resume a consumed reader")
        k = state["segments_read"]
        if k < 0:
            raise TraceError(f"invalid resume state: segments_read={k}")
        if k > 0:
            index = ensure_index(self.path)
            if index is None or len(index.segments) < k:
                raise TraceError(
                    f"{self.path} cannot back a resume at segment {k}"
                )
            if k < len(index.segments):
                offset = index.segments[k].offset
            elif index.footer_offset is not None:
                offset = index.footer_offset
            else:
                raise TraceError(
                    f"index for {self.path} lacks a footer offset; "
                    f"cannot resume at the final boundary"
                )
            self._reopen_at(offset)
        self.tables = state["tables"]
        self._thread_counts = dict(state["thread_counts"])
        self.events_seen = state["events_seen"]
        self._resume_segments_read = k
        return k

    def _reopen_at(self, offset: int) -> None:
        """Point the line stream at an absolute byte offset.

        On ``.gz`` containers every block is its own gzip member, so any
        block offset is a valid decompression start; the container kind
        is re-probed from the magic bytes, as in :func:`_open_text`.
        """
        self.close()
        raw = open(self.path, "rb")
        try:
            magic = raw.read(2)
            raw.seek(offset)
            if magic == _GZIP_MAGIC:
                self._handle = gzip.open(raw, "rt", encoding="utf-8")
                self._raw_handle = raw
            else:
                self._handle = io.TextIOWrapper(raw, encoding="utf-8")
        except BaseException:
            raw.close()
            raise
        self._lines = iter(self._handle)
        self._peeked = None


def open_segmented(path: Union[str, Path]) -> SegmentedReader:
    """Open a segmented trace for streaming (header parsed eagerly)."""
    return SegmentedReader(path)


# ---------------------------------------------------------------- tailing


class _LineFeed:
    """Line source for a tail-driven :class:`SegmentedReader`.

    Holds only *complete* decoded lines; the tail driver guarantees the
    reader is never advanced past what has been fed, so running dry here
    is a driver bug, not an end-of-stream condition.
    """

    def __init__(self):
        self._lines: List[str] = []
        self._pos = 0

    def feed(self, lines: List[str]) -> None:
        self._lines.extend(lines)
        if self._pos > 4096:  # reclaim consumed prefix occasionally
            del self._lines[: self._pos]
            self._pos = 0

    def __len__(self) -> int:
        return len(self._lines) - self._pos

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if self._pos >= len(self._lines):
            raise TraceError(
                "segment tail driver advanced the parser past the fed "
                "lines (internal invariant violation)"
            )
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def close(self) -> None:
        self._lines = []
        self._pos = 0


class SegmentTail:
    """Incremental reader over a (possibly still growing) segmented trace.

    The writer appends whole blocks — on ``.gz`` paths one gzip member
    per block — and renames ``.tmp-<pid>-<name>`` to the final path only
    at close.  This reader follows either file, consuming bytes only up
    to the last *complete* block boundary, so a mid-write tail (a
    partial gzip member, a line without its newline) is treated as
    "not yet written" and retried on the next :meth:`poll` — never
    misdiagnosed as corruption.  Damage *inside* a complete block
    (digest mismatch, malformed JSON, out-of-order segments) still
    raises :class:`TraceError` exactly like the strict reader: the torn
    / corrupt verdict is reserved for bytes the writer claims finished.

    Typical loop::

        tail = SegmentTail(path)
        while not tail.complete:
            for segment in tail.poll():
                fold(segment)
            time.sleep(interval)
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        #: byte offset of the first unconsumed block in the active file
        self.offset = 0
        #: True once the footer block has been parsed
        self.complete = False
        self._carry = b""            # bytes past the last complete boundary
        self._gz: Optional[bool] = None  # sniffed from the first 2 bytes
        self._feed = _LineFeed()
        self._reader: Optional[SegmentedReader] = None
        self._gen = None
        #: segment_end/footer lines fed but not yet consumed by the parser
        self._terminators = 0
        #: opt-in per-segment boundary capture for :meth:`suspend_at`
        #: (off by default: only checkpointing consumers need it)
        self.keep_boundaries = False
        self._suspends: Dict[int, dict] = {}
        self._closed = False

    # -- file discovery ---------------------------------------------------

    def active_path(self) -> Optional[Path]:
        """The file currently backing the trace: the final path once the
        writer's atomic rename happened, else the in-progress temp file.

        Byte offsets are preserved across the rename (same content, new
        name), so switching files mid-tail is seamless."""
        if self.path.exists():
            return self.path
        pattern = f".tmp-*-{self.path.name}"
        candidates = sorted(self.path.parent.glob(pattern))
        if not candidates:
            return None
        if len(candidates) > 1:
            # several writers (or leftovers): newest mtime wins

            def _mtime(p: Path) -> float:
                try:
                    return p.stat().st_mtime
                except OSError:
                    return 0.0  # renamed away mid-sort: deprioritize

            candidates.sort(key=lambda p: (_mtime(p), p.name))
        return candidates[-1]

    # -- byte-level completeness ------------------------------------------

    def _pull_bytes(self) -> bool:
        """Read newly appended bytes into the carry buffer."""
        active = self.active_path()
        if active is None:
            return False
        read_from = self.offset + len(self._carry)
        try:
            with open(active, "rb") as raw:
                raw.seek(read_from)
                data = raw.read()
        except OSError:
            return False  # renamed between glob and open: retry next poll
        if not data:
            return False
        self._carry += data
        return True

    def _complete_text(self) -> str:
        """Split decoded text of all complete blocks off the carry buffer.

        gz containers: whole gzip members only — a trailing partial
        member stays in the carry (``incomplete tail, retry later``).
        Plain containers: whole lines only (terminated by a newline).
        """
        if self._gz is None:
            if len(self._carry) < 2:
                return ""
            self._gz = self._carry[:2] == _GZIP_MAGIC
        if not self._gz:
            cut = self._carry.rfind(b"\n")
            if cut < 0:
                return ""
            complete, self._carry = self._carry[: cut + 1], self._carry[cut + 1:]
            self.offset += len(complete)
            try:
                return complete.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceError(
                    f"unreadable segmented trace tail {self.path}: {exc}"
                ) from None
        pieces: List[str] = []
        while self._carry:
            decomp = zlib.decompressobj(wbits=31)
            try:
                out = decomp.decompress(self._carry)
            except zlib.error as exc:
                raise TraceError(
                    f"unreadable segmented trace tail {self.path}: {exc}"
                ) from None
            if not decomp.eof:
                break  # partial member still being written: retry later
            member_len = len(self._carry) - len(decomp.unused_data)
            self._carry = self._carry[member_len:]
            self.offset += member_len
            try:
                pieces.append(out.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise TraceError(
                    f"unreadable segmented trace tail {self.path}: {exc}"
                ) from None
        return "".join(pieces)

    # -- parsing ----------------------------------------------------------

    def _feed_lines(self, text: str) -> None:
        lines = text.splitlines(keepends=True)
        for line in lines:
            if line.startswith('{"segment_end"') or line.startswith('{"footer"'):
                self._terminators += 1
        self._feed.feed(lines)

    def _ensure_reader(self) -> bool:
        """Construct the inner strict reader once the header is parseable.

        Header parsing peeks one line past the header block, so it is
        deferred until the feed holds a block-start marker line — which
        also guarantees the optional ``side`` line has been settled."""
        if self._reader is not None:
            return True
        if self._terminators == 0:
            return False
        self._reader = SegmentedReader(self.path, _handle=self._feed)
        self._gen = self._reader.segments()
        return True

    def poll(self) -> List[Segment]:
        """All segments that have become complete since the last poll.

        Returns ``[]`` while the writer is mid-block (or idle); raises
        :class:`TraceError` on damage inside completed blocks.  After the
        footer is parsed :attr:`complete` turns True and further polls
        return ``[]``."""
        if self._closed:
            raise TraceError(f"segment tail for {self.path} is closed")
        if self.complete:
            return []
        if self._pull_bytes() or self._carry:
            text = self._complete_text()
            if text:
                self._feed_lines(text)
        if not self._ensure_reader():
            return []
        out: List[Segment] = []
        while self._terminators > 0:
            try:
                segment = next(self._gen)
            except StopIteration:
                self.complete = True
                self._terminators = 0
                break
            self._terminators -= 1
            if self.keep_boundaries:
                # a poll can parse ahead of the consumer's fold position,
                # and a checkpoint at fold position k needs the reader
                # state *as of k*, not the parse frontier (suspend_at)
                self._suspends[self._reader._segments_read] = (
                    self._reader.suspend()
                )
            out.append(segment)
        return out

    # -- reader facade ----------------------------------------------------

    @property
    def header_ready(self) -> bool:
        """True once meta/threads/lock_schedule are available."""
        return self._reader is not None

    def __getattr__(self, name):
        if name in ("meta", "threads", "lock_schedule", "side", "tables",
                    "segment_events", "footer", "events_seen"):
            if self._reader is None:
                raise TraceError(
                    f"segmented trace header not yet available for "
                    f"{self.path}; poll() until header_ready"
                )
            return getattr(self._reader, name)
        raise AttributeError(name)

    @property
    def segments_read(self) -> int:
        if self._reader is None:
            return 0
        return getattr(self._reader, "_segments_read", 0)

    def suspend(self) -> dict:
        """Checkpoint-shaped mid-stream state (see
        :meth:`SegmentedReader.suspend`); valid at segment boundaries."""
        if self._reader is None:
            raise TraceError(f"nothing read yet from {self.path}")
        return self._reader.suspend()

    def suspend_at(self, k: int) -> dict:
        """Checkpoint-shaped reader state as of ``k`` segments consumed.

        :meth:`poll` records the boundary state after each parsed
        segment precisely because parsing can run ahead of the caller's
        processing; states at or below ``k`` are dropped (a checkpoint at
        ``k`` supersedes them).  The intern tables in the state are the
        live (monotonically grown, possibly ahead) tables — interning is
        idempotent by name, so a superset is valid resume state; the
        positional fields (``thread_counts``, ``events_seen``,
        ``segments_read``) are exact for ``k``.
        """
        try:
            state = self._suspends[k]
        except KeyError:
            raise TraceError(
                f"no boundary state for segment position {k} of {self.path}"
            ) from None
        for done in [pos for pos in self._suspends if pos <= k]:
            del self._suspends[done]
        return state

    def __enter__(self) -> "SegmentTail":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._closed = True
        self._feed.close()
        self._reader = None
        self._gen = None


# ------------------------------------------------- whole-trace (compat)


def load_segmented(path: Union[str, Path]) -> Trace:
    """Load a segmented file as a full :class:`Trace` (strict).

    The compatibility path for callers that need event objects: one
    columnar decode, wrapped by
    :meth:`~repro.trace.interning.ColumnarTrace.to_trace` — the events
    are built in one bulk pass on the first read of ``threads``.  The
    core is decoded for this trace alone and never registered for
    sharing (:func:`load_segmented_columnar`), so two loads never hand
    out the same event objects.  Memory is O(trace) by definition — use
    the streaming readers for bounded-memory analysis.
    """
    return _decode_columnar(path).to_trace()


#: decoded cores that some result still references, by :func:`_core_key`;
#: the registry itself holds nothing alive
_CORES: "weakref.WeakValueDictionary[tuple, ColumnarTrace]" = (
    weakref.WeakValueDictionary()
)
_CORES_LOCK = threading.Lock()


def _core_key(path: Union[str, Path]) -> Optional[tuple]:
    """The shared-core registry key of ``path``, or ``None`` (unshareable).

    The content part is the fold of the segment digests
    (:func:`fold_digests`, as in
    :func:`repro.runner.keys.segmented_digest`), read from a *fresh*
    sidecar index only (:func:`fresh_index`) — the lookup never
    decompresses the file and never rebuilds the index, so a file
    without a fresh index is never shared.  Segment digests do not
    cover the header block (meta, lock schedule, thread list), so the
    key adds :func:`header_digest`.  It also pins the file's identity:
    an index left over from an older file of the same size vouches for
    the wrong segments, and a rewrite installs a new inode.
    """
    index = fresh_index(path)
    if index is None:
        return None
    try:
        stat = os.stat(path)
        header = header_digest(path, index)
    except OSError:
        return None
    return (fold_digests(s.digest for s in index.segments), header,
            stat.st_dev, stat.st_ino, stat.st_mtime_ns)


def shared_core(path: Union[str, Path]) -> Optional[ColumnarTrace]:
    """The live decoded core of ``path`` if a result still holds one.

    Never decodes: ``None`` means the caller streams or decodes itself.
    """
    key = _core_key(path)
    if key is None:
        return None
    with _CORES_LOCK:
        return _CORES.get(key)


def load_segmented_columnar(path: Union[str, Path]) -> ColumnarTrace:
    """Materialize a segmented file as a :class:`ColumnarTrace` (strict).

    The chunks of a segment stream already *are* interned columns over
    the (delta-merged) global tables, so assembly is per-thread array
    concatenation — no event object is ever built.  This is the input
    path for whole-trace analysis at streaming scale: the engine, the
    rewrite and validation consume the columns directly, and downstream
    events materialize lazily only where something touches them.

    Decoded cores are shared: while any result still references the
    core of this file (keyed by :func:`_core_key`), every call returns
    that same object — with its memoized scan — instead of decoding
    again.  The registry is weak, so a core lives exactly as long as its
    holders.  A shared core is read-only, like every columnar core.
    """
    key = _core_key(path)
    if key is not None:
        with _CORES_LOCK:
            core = _CORES.get(key)
        if core is not None:
            telemetry.count("segments.cores_shared")
            return core
    core = _decode_columnar(path)
    # register only if the file did not change under the decode
    if key is not None and _core_key(path) == key:
        with _CORES_LOCK:
            core = _CORES.setdefault(key, core)
    return core


def _decode_columnar(path: Union[str, Path]) -> ColumnarTrace:
    """One strict streaming pass assembling the whole columnar core."""
    with open_segmented(path) as reader:
        columns: Dict[str, ColumnarThread] = {}
        parts: Dict[str, List[ColumnarThread]] = {}
        for segment in reader.segments():
            for chunk in segment.chunks:
                parts.setdefault(chunk.tid, []).append(chunk.column)
        # tables are complete only after every segment's deltas applied
        tables = reader.tables
        trace = ColumnarTrace(
            reader.meta,
            reader.side,
            {lock: list(uids) for lock, uids in reader.lock_schedule.items()},
            tables=tables,
        )
        for tid in reader.threads:
            column = ColumnarThread(tid, tables.tids.id(tid), tables)
            columns[tid] = column
            trace.columns[tid] = column
        for tid, chunks in parts.items():
            column = columns[tid]
            base = 0
            for part in chunks:
                for name in ("kind", "t", "duration", "t_request", "value",
                             "lock_id", "addr_id", "flags"):
                    getattr(column, name).extend(getattr(part, name))
                column.uids.extend(part.uids)
                column.sites.extend(part.sites)
                for attr in ("ops", "tokens", "reasons", "woken"):
                    sparse = getattr(part, attr)
                    if sparse:
                        merged = getattr(column, attr)
                        for i, v in sparse.items():
                            merged[i + base] = v
                base += len(part.kind)
        return trace


def salvage_segmented(path: Union[str, Path]):
    """Best-effort load: the longest well-formed segment prefix.

    Damage inside segment ``k`` drops segments ``k..`` entirely (a
    partially-decoded segment is never trusted), then the standard
    salvage trim makes the surviving prefix replayable.  Raises
    :class:`TraceError` only when the header itself is unreadable.
    """
    from repro.trace import serialize

    with open_segmented(path) as reader:
        trace = Trace(reader.meta)
        for tid in reader.threads:
            trace.add_thread(tid)
        trace.side = reader.side
        seen = 0
        for segment in reader.segments_tolerant():
            for chunk in segment.chunks:
                trace.threads[chunk.tid].extend(materialize(chunk.column))
            seen += segment.events
        expected = None
        if reader.footer is not None:
            expected = reader.footer.get("events")
        else:
            index = load_index(path)
            if index is not None:
                expected = index.events
        return serialize.finish_salvage(
            trace,
            {lock: list(uids) for lock, uids in reader.lock_schedule.items()},
            expected_events=expected if isinstance(expected, int) else None,
            seen_events=seen,
            stop_reason=reader.stop_reason,
            source=path,
        )


# ------------------------------------------------- index reconstruction


def _gzip_member_offsets(path: Path) -> List[int]:
    """Byte offset of every gzip member (= every block) in ``path``.

    Streams the file through ``zlib`` tracking where each member's
    compressed bytes end (``unused_data`` marks the handoff), so the
    whole scan decompresses each byte once and holds one chunk in
    memory.
    """
    offsets: List[int] = []
    pos = 0  # absolute offset of the start of the unconsumed bytes
    decomp = None
    with open(path, "rb") as raw:
        while True:
            chunk = raw.read(1 << 16)
            if not chunk:
                break
            while chunk:
                if decomp is None:
                    offsets.append(pos)
                    decomp = zlib.decompressobj(wbits=31)
                decomp.decompress(chunk)
                if decomp.eof:
                    unused = decomp.unused_data
                    pos += len(chunk) - len(unused)
                    chunk = unused
                    decomp = None
                else:
                    pos += len(chunk)
                    chunk = b""
    if decomp is not None:
        raise TraceError(f"{path} ends inside a gzip member")
    return offsets


def _plain_block_offsets(path: Path) -> List[int]:
    """Block offsets of an uncompressed segmented file, by line scan.

    The canonical ``json.dumps`` encoding guarantees a segment header
    line starts with exactly ``{"segment":`` (the colon excludes
    ``{"segment_end":``) and the footer with ``{"footer":``; the header
    block is offset 0 by construction.
    """
    offsets = [0]
    pos = 0
    with open(path, "rb") as raw:
        for line in raw:
            if line.startswith(b'{"segment":') or line.startswith(b'{"footer":'):
                offsets.append(pos)
            pos += len(line)
    return offsets


def rebuild_index(path: Union[str, Path]) -> Optional[SegmentedIndex]:
    """Reconstruct the sidecar index from the data file alone.

    One strict streaming pass yields the digests and event counts; the
    block offsets come from the gzip member boundaries (or a line scan
    for plain files).  Returns ``None`` when the data file itself is
    damaged — an index must never vouch for bytes it cannot verify.
    """
    path = Path(path)
    try:
        with open(path, "rb") as probe:
            magic = probe.read(2)
        offsets = (_gzip_member_offsets(path) if magic == _GZIP_MAGIC
                   else _plain_block_offsets(path))
        infos: List[SegmentInfo] = []
        with open_segmented(path) as reader:
            for segment in reader.segments():
                infos.append(SegmentInfo(
                    offset=0, events=segment.events, digest=segment.digest,
                ))
            footer = reader.footer or {}
            segment_events = reader.segment_events
            events_total = reader.events_seen
        file_size = path.stat().st_size
    except (TraceError, OSError, EOFError, zlib.error, UnicodeDecodeError,
            ValueError, KeyError):
        return None
    # blocks are [header, segment 0..K-1, footer]
    if len(offsets) != len(infos) + 2:
        return None
    for info, offset in zip(infos, offsets[1:]):
        info.offset = offset
    return SegmentedIndex(
        segment_events=segment_events,
        events=events_total,
        file_size=file_size,
        digest=footer.get("digest", ""),
        segments=infos,
        footer_offset=offsets[-1],
    )


def fresh_index(path: Union[str, Path]) -> Optional[SegmentedIndex]:
    """The sidecar index of ``path`` if it matches the data file, else ``None``.

    Never rebuilds: the check is one ``stat`` and one small JSON read.
    """
    try:
        file_size = os.stat(path).st_size
    except OSError:
        return None
    index = load_index(path)
    if index is not None and index.file_size == file_size:
        return index
    return None


def ensure_index(path: Union[str, Path]) -> Optional[SegmentedIndex]:
    """A fresh sidecar index for ``path``, rebuilding it if needed.

    A missing or stale sidecar — e.g. a writer killed between installing
    the data file and writing the index, or a crashed rewrite leaving a
    size mismatch — is silently re-indexed from the data file and
    rewritten (atomically), not warned about: the data file is the
    authority and the index is derived state.  Returns ``None`` only
    when the data file itself is damaged.
    """
    path = Path(path)
    index = fresh_index(path)
    if index is not None:
        return index
    index = rebuild_index(path)
    if index is None:
        return None
    telemetry.count("segments.reindexed")
    try:
        _write_index(path, index)
    except OSError:
        pass  # read-only location: serve the in-memory index anyway
    return index


# ------------------------------------------------------------- digests


def fold_digests(digests) -> str:
    """One key-sized hash over per-segment content digests, in order."""
    digest = hashlib.sha256()
    for part in digests:
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:32]


def header_digest(path: Union[str, Path], index: SegmentedIndex) -> str:
    """Key-sized SHA-256 of the header block's raw bytes.

    Segment digests cover only the segments' own lines, not the header
    (meta, lock schedule, thread list).  The header ends where ``index``
    puts the first segment (the footer for a file without segments; an
    old index without a footer offset hashes the whole file).
    """
    header_end = (index.segments[0].offset if index.segments
                  else index.footer_offset)
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read(header_end)).hexdigest()[:32]


def segment_digests(path: Union[str, Path]) -> List[str]:
    """Per-segment content digests, from the sidecar index when valid.

    A missing or stale index is rebuilt in passing (one streaming pass);
    only when the data file itself is damaged does this fall back to the
    strict reader, whose error names the damage.
    """
    path = Path(path)
    index = ensure_index(path)
    if index is not None:
        return [s.digest for s in index.segments]
    with open_segmented(path) as reader:
        return [segment.digest for segment in reader.segments()]
