"""Affinity-sharded single-trace fan-out: one scan, many workers.

:func:`scan_segments_sharded` is the parallel twin of
:func:`repro.analysis.engine.scan_segments` for one *giant* segmented
trace: the trace's threads are partitioned round-robin into one shard
per worker, each worker streams the whole segment file but folds only
its own threads' chunks into a :class:`repro.analysis.engine.ScanFold`
(the fold the serial scan and the checkpoint/resume machinery use), and
the parent merges the per-shard scans into one empty fold and finishes
it once.

Why the merge is exact:

* a thread's walk — its sections, masks, anchors, body spans and error
  checks — depends only on that thread's own chunks, which live wholly
  inside one shard; concatenated shard sections hit the same global
  ``(t_start, uid)`` sort in ``ScanFold.finish`` the serial scan uses,
* the only cross-thread coupling is shared-address discovery, and
  "shared" just means "touched by two or more distinct threads": a
  shard resolves sharedness among its own threads, and the parent's
  first-toucher merge resolves it across shards (threads are
  partitioned, so the same address surfacing in two shards *is* a
  two-thread address),
* intern tables are deterministic over the file bytes (declared-thread
  order, then per-segment deltas in file order), so every shard decodes
  ids identically and any shard's tables can serve the merged scan.

Workers are pinned one-per-CPU (compact placement, silent fallback —
see :mod:`repro.runner.affinity`) via the supervised pool, so the fan
-out inherits supervision, retries and the ``jobs N == jobs 1``
determinism contract.  Checkpointing stays a serial-scan feature: a
sharded run is the fast path, a resumable run is the crash-safe path.

On a malformed trace every affected shard raises the same
:class:`TraceError` text the serial walk would; when several threads
are malformed the shard with the lowest index wins, which may name a
different (equally real) violation than the serial scan's first-in-
scan-order one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.analysis.engine import ScanFold, TraceScan
from repro.errors import TaskError, TraceError
from repro.runner.pool import ExecPolicy, parallel_map
from repro.trace.segments import open_segmented

__all__ = ["scan_segments_sharded", "shard_threads"]


def shard_threads(threads: List[str], jobs: int) -> List[Tuple[str, ...]]:
    """Round-robin partition of ``threads`` into at most ``jobs`` shards."""
    jobs = max(1, min(jobs, len(threads)))
    shards = [tuple(threads[w::jobs]) for w in range(jobs)]
    return [shard for shard in shards if shard]


def _scan_shard(task) -> Tuple[TraceScan, Dict[int, int]]:
    """Worker body: fold one shard's threads over the whole segment file.

    Returns the unfinalized scan and its first-toucher map; the parent
    merges shards and finalizes once.
    """
    path, tids = task
    wanted = frozenset(tids)
    with open_segmented(path) as reader:
        fold = ScanFold(reader.tables, tids)
        for segment in reader.segments():
            fold.add([chunk for chunk in segment.chunks if chunk.tid in wanted])
        fold.check_closed()
    return fold.scan, fold.first_toucher


def _unwrap(exc: TaskError) -> Exception:
    """Surface a worker's TraceError as itself, not as a pool failure."""
    text = str(exc)
    marker = "TraceError: "
    if marker in text:
        return TraceError(text.split(marker, 1)[1])
    return exc


def scan_segments_sharded(path, *, jobs: int,
                          policy: Optional[ExecPolicy] = None) -> TraceScan:
    """Scan one segmented trace with ``jobs`` affinity-pinned workers.

    Produces a :class:`TraceScan` observably identical to
    ``scan_segments(open_segmented(path))`` — same sections in the same
    order, same masks, spans, sharedness and event count.
    """
    with telemetry.span("analyze.scan_sharded"):
        with open_segmented(path) as reader:
            threads = list(reader.threads)
            tables = reader.tables
        shards = shard_threads(threads, jobs)
        if policy is None:
            policy = ExecPolicy(pin_workers=True)
        tasks = [(str(path), shard) for shard in shards]
        try:
            results = parallel_map(_scan_shard, tasks,
                                   jobs=len(shards), policy=policy)
        except TaskError as exc:
            raise _unwrap(exc) from None

        # a thread-less trace has no shards: its fold finishes empty
        fold = ScanFold(results[0][0].tables if results else tables, ())
        merged = fold.scan
        for scan, first_toucher in results:
            merged.sections.extend(scan.sections)
            merged.events += scan.events
            merged.body_spans.update(scan.body_spans)
            merged.shared_ids.update(scan.shared_ids)
            for aid, tid_id in first_toucher.items():
                if fold.first_toucher.setdefault(aid, tid_id) != tid_id:
                    merged.shared_ids.add(aid)
        return fold.finish()
