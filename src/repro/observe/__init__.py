"""Live incremental analysis: watch a trace converge instead of waiting.

The batch pipeline records fully, then analyzes.  ``repro.observe``
folds a segmented trace into analysis state *as it grows* — one epoch
per segment — and emits a deterministic stream of progress snapshots:
events seen, segments folded, the current ULCP breakdown, per-lock
contention, the streaming Eq. 2 top-K ranking, and ``stable_for``, the
number of consecutive snapshots whose ranking did not change (the signal
behind ``repro watch --until-stable N``).

Three entry points share one fold:

* :func:`watch` — tail-follow a file another process is still writing
  (``repro watch PATH``); distinguishes "mid-write, retry" from real
  corruption via :class:`repro.trace.segments.SegmentTail`.
* :func:`fold_snapshots` — the batch twin: the full snapshot sequence of
  a complete file, byte-identical to what a live watch would have
  printed.
* ``api.analyze(..., on_progress=...)`` — in-process pipelines receive
  the same snapshots while a normal analysis runs
  (:func:`repro.observe.fold.run_with_progress` underneath).

**Determinism contract.**  A snapshot is a pure function of the trace
prefix folded so far: byte-identical (via :func:`snapshot_dumps`) across
runs, across poll timings, and across watch-vs-batch.  The terminal
snapshot embeds the exact ``repro analyze`` result object, so
``repro watch`` and ``repro analyze --format json`` agree byte-for-byte
on a finished trace.
"""

from repro.observe.fold import (
    DEFAULT_TOP_K,
    SNAPSHOT_VERSION,
    IncrementalFold,
    fold_snapshots,
    run_with_progress,
    snapshot_dumps,
    terminal_snapshot,
)
from repro.observe.watch import WatchResult, render_snapshot, watch

__all__ = [
    "SNAPSHOT_VERSION",
    "DEFAULT_TOP_K",
    "IncrementalFold",
    "fold_snapshots",
    "run_with_progress",
    "snapshot_dumps",
    "terminal_snapshot",
    "watch",
    "WatchResult",
    "render_snapshot",
]
