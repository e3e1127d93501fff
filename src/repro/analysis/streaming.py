"""Bounded-memory ULCP analysis over segmented trace files.

:func:`analyze_segments` reproduces :func:`repro.analysis.pairs.analyze_pairs`
— same pairs, same classifications, same breakdown — without ever
materializing the trace: the file is streamed segment by segment
(:mod:`repro.trace.segments`), so peak memory is one segment's columnar
chunks plus output-sized state (the section list and the pair verdicts).

Two passes over the file:

1. **Scan + classify.**  :func:`repro.analysis.engine.scan_segments`
   walks the stream once, producing mask-annotated critical sections;
   Algorithm 1 then classifies every candidate pair from the masks
   alone.  Pairs it answers ``FALSE`` for need the reversed-replay
   benign test — which needs data pass 1 deliberately did not keep.
2. **Benign evidence collection.**  A second stream visits only what
   the FALSE pairs need: the body memory operations of their sections
   (located via the scan's ``body_spans``) and the global write history
   of the addresses those bodies touch (known exactly from the pass-1
   masks).  :func:`repro.analysis.benign.is_benign` then runs unchanged
   against a :meth:`WriteTimeline.from_writes` over that subset.

A trace whose FALSE pairs touch every address degrades to holding every
write — but that is the size of the *answer's evidence*, not of the
trace; the usual case keeps pass-2 state tiny.  When Algorithm 1 settles
every pair (or ``benign_detection=False``), the second pass is skipped
entirely.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple, Union

from repro import kernels, telemetry
from repro.analysis.benign import WriteTimeline, is_benign
from repro.analysis.classify import FALSE, classify_pair
from repro.analysis.engine import scan_segments
from repro.analysis.pairs import PairAnalysis, iter_candidate_pairs
from repro.analysis.sections import CriticalSection
from repro.analysis.ulcp import BENIGN, TLCP, UlcpPair
from repro.trace.interning import READ_CODE, WRITE_CODE, positions
from repro.trace.segments import open_segmented
from repro.trace.trace import _uid_order


def analyze_segments(
    path: Union[str, Path], *, benign_detection: bool = True, checkpoint=None,
    jobs: int = 1,
) -> PairAnalysis:
    """Scan, enumerate and classify all same-lock pairs of a segmented file.

    Drop-in equivalent of :func:`repro.analysis.pairs.analyze_pairs` for
    a path to a segmented trace; see the module docstring for the
    memory contract.  The returned analysis carries ``events`` (the
    total event count) since no trace object exists to ``len()``.

    ``checkpoint`` (a :class:`repro.runner.checkpoint.Checkpointer`)
    makes the scan pass resumable at segment granularity; it is cleared
    once the analysis completes, so a later identical run starts clean.

    ``jobs > 1`` fans the scan pass out over affinity-pinned worker
    processes (:func:`repro.analysis.sharded.scan_segments_sharded`),
    one thread shard per worker, with results identical to a serial
    scan.  The fan-out is a fast path, not a resumable one, so it is
    mutually exclusive with ``checkpoint``.
    """
    if jobs > 1 and checkpoint is not None:
        raise ValueError("checkpointing requires a serial scan (jobs=1)")
    with telemetry.span("analyze.pairs"):
        if jobs > 1:
            from repro.analysis.sharded import scan_segments_sharded

            scan = scan_segments_sharded(path, jobs=jobs)
        else:
            with open_segmented(path) as reader:
                scan = scan_segments(reader, checkpoint=checkpoint)
            if checkpoint is not None:
                # the scan finished; a leftover checkpoint would only
                # tempt a future run into "resuming" finished work
                checkpoint.clear()
        analysis, benign_tests = assemble_analysis(
            path, scan, benign_detection=benign_detection
        )
    count_analysis(analysis, benign_tests)
    return analysis


def assemble_analysis(
    path: Union[str, Path], scan, *, benign_detection: bool = True,
) -> Tuple[PairAnalysis, int]:
    """Classification + benign pass + assembly over a *finished* scan.

    Everything :func:`analyze_segments` does after
    :func:`~repro.analysis.engine.scan_segments` returns, factored out so
    the incremental watch fold (:mod:`repro.observe`) finishes through
    the exact same code — the byte-identity of watch-vs-batch final
    results is this shared path, not a parallel implementation.  Returns
    ``(analysis, benign_tests_run)``; telemetry counters are the
    caller's job (:func:`count_analysis`).
    """
    sections = scan.sections

    classified: List[Tuple[CriticalSection, CriticalSection, str]] = []
    false_pairs: List[Tuple[CriticalSection, CriticalSection]] = []
    for first, second in iter_candidate_pairs(sections):
        kind = classify_pair(first, second)
        if kind == FALSE:
            false_pairs.append((first, second))
        classified.append((first, second, kind))

    timeline = None
    benign_cache: Dict[Tuple[str, str], bool] = {}
    benign_tests = 0
    if benign_detection and false_pairs:
        timeline = _collect_benign_evidence(path, scan, false_pairs)
        for first, second in false_pairs:
            benign_cache[(first.uid, second.uid)] = is_benign(
                first, second, timeline
            )
            benign_tests += 1
    elif benign_detection:
        # nothing reached the benign test; keep the (empty) timeline
        # shape downstream consumers expect from a benign-enabled run
        timeline = WriteTimeline.from_writes({})

    analysis = PairAnalysis(
        sections=sections,
        timeline=timeline,
        benign_cache=benign_cache,
        events=scan.events,
    )
    for first, second, kind in classified:
        if kind == FALSE:
            if benign_detection:
                kind = (
                    BENIGN if benign_cache[(first.uid, second.uid)] else TLCP
                )
            else:
                kind = TLCP
        analysis.pairs.append(UlcpPair(c1=first, c2=second, kind=kind))
        analysis.breakdown.add(kind)
    return analysis, benign_tests


def count_analysis(analysis: PairAnalysis, benign_tests: int) -> None:
    """The pair-pass telemetry counters, shared by batch and watch."""
    telemetry.count("analyze.pairs", len(analysis.pairs))
    if benign_tests:
        telemetry.count("analyze.benign_tests", benign_tests)
    breakdown = analysis.breakdown
    for kind in ("null_lock", "read_read", "disjoint_write", "benign", "tlcp"):
        n = getattr(breakdown, kind)
        if n:
            telemetry.count(f"ulcp.{kind}", n)


def _collect_benign_evidence(
    path: Union[str, Path],
    scan,
    false_pairs: List[Tuple[CriticalSection, CriticalSection]],
) -> WriteTimeline:
    """Pass 2: re-stream the file for exactly what the benign test needs.

    Fills each involved section's ``_mem_ops`` cache (its body READ/WRITE
    events, in body order) and returns a write timeline restricted to the
    addresses those bodies touch — both located from pass-1 metadata
    (``scan.body_spans`` spans and the access-set masks), so no event
    outside the needed spans/addresses is ever materialized.
    """
    wanted_sections: Dict[str, CriticalSection] = {}
    wanted_mask = 0
    for first, second in false_pairs:
        for cs in (first, second):
            wanted_sections[cs.uid] = cs
            wanted_mask |= cs.read_mask | cs.write_mask

    # per-thread body spans, sorted by start for the monotone chunk sweep
    spans_by_tid: Dict[str, List[Tuple[int, int, str]]] = {}
    for uid, cs in wanted_sections.items():
        tid, start, end = scan.body_spans[uid]
        spans_by_tid.setdefault(tid, []).append((start, end, uid))
        cs._mem_ops = []  # filled below; empty bodies legitimately stay so
    for spans in spans_by_tid.values():
        spans.sort()

    addr_name = scan.tables.addrs.name
    writes: Dict[str, List[Tuple]] = {}
    cursor: Dict[str, int] = {tid: 0 for tid in spans_by_tid}
    active: Dict[str, List[Tuple[int, int, str]]] = {
        tid: [] for tid in spans_by_tid
    }
    t0 = perf_counter()
    with open_segmented(path) as reader:
        for segment in reader.segments():
            for chunk in segment.chunks:
                tid = chunk.tid
                column = chunk.column
                kinds = column.kind
                addr_ids = column.addr_id
                n = len(kinds)
                base = chunk.start
                spans = spans_by_tid.get(tid, ())
                live = active.get(tid)
                if live is not None:
                    # slide this thread's span window over the chunk range
                    pos = cursor[tid]
                    while pos < len(spans) and spans[pos][0] < base + n:
                        live.append(spans[pos])
                        pos += 1
                    cursor[tid] = pos
                    live[:] = [s for s in live if s[1] > base]
                hits = [
                    i for i in positions(kinds, READ_CODE, WRITE_CODE)
                    if (wanted_mask >> addr_ids[i]) & 1
                ]
                for i in hits:
                    aid = addr_ids[i]
                    if kinds[i] == WRITE_CODE:
                        writes.setdefault(addr_name(aid), []).append((
                            column.t[i],
                            _uid_order(column.uids[i]),
                            column.value[i],
                        ))
                    if live:
                        g = base + i
                        event = None
                        for start, end, uid in live:
                            if start <= g < end:
                                if event is None:
                                    event = column.event(i)
                                wanted_sections[uid]._mem_ops.append(event)
    kernels.record("benign_evidence", perf_counter() - t0)
    return WriteTimeline.from_writes(writes)
