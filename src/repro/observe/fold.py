"""Incremental segment fold: live analysis state + deterministic snapshots.

One :class:`IncrementalFold` owns a
:class:`~repro.analysis.engine.ScanFold` — exactly the state
:func:`repro.analysis.engine.scan_segments` carries mid-stream — and is
fed segments by a caller (a :class:`repro.trace.segments.SegmentTail`
poll loop, a recorder-side ``on_segment`` hook, or
:func:`run_with_progress`'s ``scan_segments`` loop).  After every
folded segment it can emit a **snapshot**: a versioned,
JSON-serializable progress record whose bytes depend only on the trace
prefix folded so far — never on wall-clock time or poll batching.

Snapshot semantics
------------------

* Only *closed* critical sections participate (an open section has no
  access masks yet).  Pairs are consecutive different-thread closed
  sections per lock, classified by Algorithm 1 on ephemeral shared
  masks — the fold never mutates section state, so folding is
  side-effect-free with respect to the final
  :func:`~repro.analysis.streaming.analyze_segments`-equivalent result.
* Pairs Algorithm 1 answers FALSE for are *pending*: the reversed-replay
  benign test needs evidence pass 2 deliberately does not keep, so
  intermediate snapshots count them in the ``tlcp`` bucket (the
  benign-detection-off convention) and report them in ``pending``.  The
  terminal snapshot resolves them through the real benign pass.
* The ranking is a streaming Eq. 2 estimate: per lock, the contended
  wait attributable to ULCP-classified pairs, normalized by the total
  contended wait.  ``top`` is the ordered top-K lock list;
  ``stable_for`` counts consecutive snapshots with an identical
  non-empty ``top`` — the signal behind ``--until-stable``.

The terminal snapshot is produced from the finished
:class:`~repro.analysis.pairs.PairAnalysis` itself — built by the same
:func:`repro.analysis.streaming.assemble_analysis` code path as batch
analysis, so its ``result`` object (and any envelope rendered from it)
is byte-identical to ``repro analyze``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import telemetry
from repro.analysis.engine import ScanFold
from repro.analysis.streaming import assemble_analysis, count_analysis
from repro.analysis.ulcp import (
    DISJOINT_WRITE,
    NULL_LOCK,
    READ_READ,
    UlcpBreakdown,
)
from repro.errors import TraceError

#: snapshot schema version (bumped on breaking shape changes)
SNAPSHOT_VERSION = 1

#: default ranking depth (locks in the Eq. 2 estimate / stability check)
DEFAULT_TOP_K = 5

_KINDS = ("null_lock", "read_read", "disjoint_write", "benign", "tlcp")


def snapshot_dumps(snapshot: dict) -> str:
    """Canonical one-line encoding of a snapshot (sorted keys, compact).

    This is the byte form the determinism contract is stated over: for a
    fixed trace prefix, ``repro watch --format json`` emits exactly this
    line sequence on every run.
    """
    import json

    return json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n"


def _classify_masks(srd1: int, swr1: int, srd2: int, swr2: int) -> Optional[str]:
    """Algorithm 1 over ephemeral shared masks; ``None`` means FALSE
    (pending the terminal benign pass).  Mirrors the mask branch of
    :func:`repro.analysis.classify.classify_pair` exactly."""
    if not (srd1 | swr1) or not (srd2 | swr2):
        return NULL_LOCK
    if not swr1 and not swr2:
        return READ_READ
    if not (srd1 & swr2) and not (swr1 & srd2) and not (swr1 & swr2):
        return DISJOINT_WRITE
    return None


class IncrementalFold:
    """A :class:`~repro.analysis.engine.ScanFold` plus deterministic
    snapshots.

    ``reader`` is anything header-complete with ``threads`` and
    ``tables`` attributes (a :class:`~repro.trace.segments.SegmentedReader`
    or a header-ready :class:`~repro.trace.segments.SegmentTail`).
    ``scan_fold`` is the live scan state; its checkpoint payload is the
    one :func:`~repro.analysis.engine.scan_segments` saves, so a watch
    checkpoint resumes a later batch ``repro analyze --resume`` with zero
    redone segments.
    """

    def __init__(self, reader, *, top_k: int = DEFAULT_TOP_K):
        self.top_k = top_k
        self.scan_fold = ScanFold(reader.tables, reader.threads)
        self.seq = 0
        self.prev_top: Optional[List[str]] = None
        self.stable_for = 0
        self.finished = False

    # ------------------------------------------------------------- folding

    def add(self, segment) -> None:
        """Fold one decoded segment into the live scan state."""
        if self.finished:
            raise TraceError("fold already finished; open a new one")
        self.scan_fold.add(segment.chunks)
        telemetry.count("analyze.segments_folded")

    @property
    def segments_folded(self) -> int:
        """Segments the scan state covers (checkpoint-resumed included)."""
        return self.scan_fold.segments

    # ----------------------------------------------------------- snapshots

    def _advance_stability(self, top: List[str]) -> int:
        if not top:
            self.stable_for = 0
        elif top == self.prev_top:
            self.stable_for += 1
        else:
            self.stable_for = 1
        self.prev_top = list(top)
        return self.stable_for

    def snapshot(self) -> dict:
        """One intermediate snapshot of the state folded so far.

        Pure over the scan state (no section is mutated), but advances
        the fold's snapshot sequence number and stability counter — call
        exactly once per folded epoch."""
        scan = self.scan_fold.scan
        shared_mask = 0
        for aid in scan.shared_ids:
            shared_mask |= 1 << aid
        closed = [cs for cs in scan.sections if cs.read_mask is not None]
        closed.sort(key=lambda cs: (cs.t_start, cs.uid))
        by_lock: Dict[str, List] = {}
        for cs in closed:
            by_lock.setdefault(cs.lock, []).append(cs)

        breakdown = dict.fromkeys(_KINDS, 0)
        locks_out: List[dict] = []
        pairs = pending = 0
        for lock in sorted(by_lock):
            group = by_lock[lock]
            contended = wait_ns = ulcp_wait = 0
            for cs in group:
                wait = cs.acquire.wait_time
                if wait > 0:
                    contended += 1
                    wait_ns += wait
            for first, second in zip(group, group[1:]):
                if first.tid == second.tid:
                    continue
                pairs += 1
                kind = _classify_masks(
                    first.read_mask & shared_mask,
                    first.write_mask & shared_mask,
                    second.read_mask & shared_mask,
                    second.write_mask & shared_mask,
                )
                if kind is None:
                    pending += 1
                    breakdown["tlcp"] += 1  # provisional, see module doc
                    continue
                breakdown[kind] += 1
                if (second.acquire.wait_time > 0
                        and second.acquire.t_request < first.t_end):
                    ulcp_wait += second.acquire.wait_time
            locks_out.append({
                "lock": lock,
                "sections": len(group),
                "contended": contended,
                "wait_ns": wait_ns,
                "ulcp_wait_ns": ulcp_wait,
            })

        ulcps = (breakdown["null_lock"] + breakdown["read_read"]
                 + breakdown["disjoint_write"])
        self.seq += 1
        snap = {
            "v": SNAPSHOT_VERSION,
            "seq": self.seq,
            "complete": False,
            "segments": self.segments_folded,
            "events": scan.events,
            "sections": len(closed),
            "open_sections": len(scan.sections) - len(closed),
            "pairs": pairs,
            "ulcps": ulcps,
            "pending": pending,
            "breakdown": breakdown,
            "locks": locks_out,
        }
        _attach_ranking(snap, locks_out, self.top_k)
        snap["stable_for"] = self._advance_stability(snap["top"])
        return snap

    # ------------------------------------------------------------ terminal

    def finish(self, path, *, benign_detection: bool = True):
        """Complete the analysis: finalize the scan, run the shared
        classify + benign pass of :mod:`repro.analysis.streaming`, and
        emit the terminal snapshot.

        ``path`` must name the complete container (footer present) —
        the benign evidence pass re-streams it.  Returns
        ``(analysis, terminal_snapshot)`` where ``analysis`` is
        byte-equivalent to ``analyze_segments(path)``.
        """
        if self.finished:
            raise TraceError("fold already finished; open a new one")
        return self._complete(path, self.scan_fold.finish(),
                              benign_detection=benign_detection)

    def _complete(self, path, scan, *, benign_detection: bool):
        """The terminal step of :meth:`finish` over an already finished
        ``scan`` of this fold."""
        with telemetry.span("analyze.pairs"):
            analysis, benign_tests = assemble_analysis(
                path, scan, benign_detection=benign_detection
            )
        count_analysis(analysis, benign_tests)
        self.finished = True
        self.seq += 1
        snap = terminal_snapshot(
            analysis, seq=self.seq, segments=self.segments_folded,
            top_k=self.top_k,
        )
        snap["stable_for"] = self._advance_stability(snap["top"])
        return analysis, snap


def _attach_ranking(snap: dict, locks_out: List[dict], top_k: int) -> None:
    """Eq. 2-style estimate: contended ULCP wait over total contended
    wait, top-K by (wait desc, lock name)."""
    total_wait = sum(entry["wait_ns"] for entry in locks_out)
    ranked = sorted(
        (e for e in locks_out if e["ulcp_wait_ns"] > 0),
        key=lambda e: (-e["ulcp_wait_ns"], e["lock"]),
    )[:top_k]
    snap["ranking"] = [{
        "lock": e["lock"],
        "ulcp_wait_ns": e["ulcp_wait_ns"],
        "p": (e["ulcp_wait_ns"] / total_wait) if total_wait else 0.0,
    } for e in ranked]
    snap["top"] = [e["lock"] for e in ranked]


def terminal_snapshot(analysis, *, seq: int = 1, segments: int = 0,
                      top_k: int = DEFAULT_TOP_K) -> dict:
    """The final snapshot of a finished :class:`PairAnalysis`.

    Its ``result`` object is exactly
    :func:`repro.serve.protocol.analyze_result` — the same dict the v1
    envelope wraps — so the watch terminal output, the SSE terminal
    event and ``repro analyze --format json`` all agree byte-for-byte.
    ``stable_for`` is the caller's to fill (the fold tracks it); it
    defaults to 0 for standalone use (e.g. a non-streaming
    ``api.analyze(..., on_progress=...)`` call).
    """
    from repro.serve.protocol import analyze_result

    per_lock: Dict[str, dict] = {}
    for cs in analysis.sections:
        entry = per_lock.setdefault(cs.lock, {
            "lock": cs.lock, "sections": 0, "contended": 0,
            "wait_ns": 0, "ulcp_wait_ns": 0,
        })
        entry["sections"] += 1
        wait = cs.acquire.wait_time
        if wait > 0:
            entry["contended"] += 1
            entry["wait_ns"] += wait
    for pair in analysis.pairs:
        if pair.is_ulcp and pair.contended:
            per_lock[pair.lock]["ulcp_wait_ns"] += pair.c2.acquire.wait_time
    locks_out = [per_lock[lock] for lock in sorted(per_lock)]

    breakdown = analysis.breakdown
    snap = {
        "v": SNAPSHOT_VERSION,
        "seq": seq,
        "complete": True,
        "segments": segments,
        "events": analysis.events,
        "sections": len(analysis.sections),
        "open_sections": 0,
        "pairs": len(analysis.pairs),
        "ulcps": len(analysis.ulcps),
        "pending": 0,
        "breakdown": {kind: getattr(breakdown, kind) for kind in _KINDS},
        "locks": locks_out,
        "result": analyze_result(analysis),
    }
    _attach_ranking(snap, locks_out, top_k)
    snap["stable_for"] = 0
    return snap


def fold_snapshots(path, *, top_k: int = DEFAULT_TOP_K,
                   benign_detection: bool = True):
    """Yield the full snapshot sequence of a *complete* segmented trace.

    One intermediate snapshot per segment, then the terminal snapshot.
    This is the batch twin of the live watch loop: for any prefix of the
    trace, the first ``k`` snapshots here are byte-identical to what a
    tail-following watch emitted while that prefix was the whole file.
    """
    from repro.trace.segments import open_segmented

    with open_segmented(path) as reader:
        fold = IncrementalFold(reader, top_k=top_k)
        for segment in reader.segments():
            fold.add(segment)
            yield fold.snapshot()
    _, terminal = fold.finish(path, benign_detection=benign_detection)
    yield terminal


def run_with_progress(path, *, benign_detection: bool = True,
                      checkpoint=None, on_progress=None,
                      top_k: int = DEFAULT_TOP_K):
    """Batch analysis of a complete segmented trace with live snapshots.

    Equivalent to :func:`repro.analysis.streaming.analyze_segments`
    (same result object, same checkpoint payloads, checkpoint cleared on
    completion) but folds segment-by-segment and calls
    ``on_progress(snapshot)`` after each epoch plus once with the
    terminal snapshot.  With an existing checkpoint the scan
    fast-forwards exactly like batch analysis; snapshots then cover only
    the newly scanned tail.
    """
    from repro.analysis.engine import scan_segments
    from repro.trace.segments import open_segmented

    with telemetry.span("analyze.fold_segments"):
        with open_segmented(path) as reader:
            fold = IncrementalFold(reader, top_k=top_k)

            def on_segment() -> None:
                telemetry.count("analyze.segments_folded")
                if on_progress is not None:
                    on_progress(fold.snapshot())

            scan = scan_segments(reader, checkpoint=checkpoint,
                                 fold=fold.scan_fold, on_segment=on_segment)
        analysis, terminal = fold._complete(
            path, scan, benign_detection=benign_detection
        )
        if checkpoint is not None:
            checkpoint.clear()
    if on_progress is not None:
        on_progress(terminal)
    return analysis
