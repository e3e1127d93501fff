"""Tail-follow a (possibly still growing) segmented trace and fold live.

:func:`watch` is the engine behind ``repro watch``: it polls a
:class:`repro.trace.segments.SegmentTail` for newly completed segments,
folds each into an :class:`repro.observe.fold.IncrementalFold`, and
hands every snapshot to a callback.  The loop ends in one of three ways:

* **complete** — the tail reached the footer; the fold finishes through
  the shared batch path and the terminal snapshot (whose ``result`` is
  byte-identical to ``repro analyze``) is emitted.
* **early stop** — ``until_stable=N`` was given and the top-K ranking
  held unchanged for N consecutive snapshots.  If a run id was supplied
  and the file is already complete, the mid-scan state is checkpointed
  first, so a later ``repro analyze --resume RUN_ID`` fast-forwards past
  every folded segment instead of redoing the work.
* **stall** — the file stopped growing for longer than ``grace``
  seconds without a footer (e.g. the recorder died).  Partial results
  stay valid; the caller decides what to do with them.

Timing (``interval``, ``grace``) only affects *when* the loop looks at
the file — never what it emits: the snapshot sequence is a pure function
of the trace prefix, so two watchers racing the same recorder print
byte-identical streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro import log, telemetry
from repro.observe.fold import DEFAULT_TOP_K, IncrementalFold
from repro.trace.segments import SegmentTail

_log = log.get_logger("observe")


@dataclass
class WatchResult:
    """Outcome of one :func:`watch` loop."""

    #: snapshots emitted (including the terminal one, when reached)
    snapshots: int = 0
    #: segments folded
    segments: int = 0
    #: the trace completed and the terminal snapshot was emitted
    complete: bool = False
    #: ``until_stable`` fired before the trace completed folding
    early_stopped: bool = False
    #: the file stopped growing for longer than ``grace`` with no footer
    stalled: bool = False
    #: a resumable checkpoint was written (early stop with ``resume=``)
    checkpoint_saved: bool = False
    #: the finished analysis (``complete`` only)
    analysis: Optional[object] = None
    #: the last snapshot emitted, terminal or not
    final_snapshot: Optional[dict] = field(default=None, repr=False)


def watch(
    path: Union[str, Path],
    *,
    on_snapshot: Optional[Callable[[dict], None]] = None,
    interval: float = 0.5,
    grace: float = 30.0,
    until_stable: int = 0,
    top_k: int = DEFAULT_TOP_K,
    benign_detection: bool = True,
    resume: Optional[str] = None,
    checkpoint_every: int = 16,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> WatchResult:
    """Follow ``path`` until complete, stable for N epochs, or stalled.

    ``path`` may not exist yet, or exist only as the writer's private
    ``.tmp-*`` sibling — the tail discovers both.  ``on_snapshot``
    receives every snapshot dict in sequence.  ``until_stable=N > 0``
    requests early termination once ``stable_for`` reaches N;
    ``resume=RUN_ID`` additionally checkpoints the fold (at the usual
    segment cadence, and once more on early stop) so batch analysis can
    pick up where the watch left off — checkpoints need the complete
    file's index, so they only happen once the footer exists.
    ``grace <= 0`` disables the stall detector.  ``sleep``/``clock`` are
    injectable for tests.
    """
    path = Path(path)
    tail = SegmentTail(path)
    tail.keep_boundaries = resume is not None
    fold: Optional[IncrementalFold] = None
    checkpointer = None
    result = WatchResult()
    last_growth = clock()

    def emit(snap: dict) -> None:
        result.snapshots += 1
        result.final_snapshot = snap
        if on_snapshot is not None:
            on_snapshot(snap)

    def ensure_checkpointer():
        """Checkpoints are tagged with the complete file's digest, so
        they only become possible once the footer landed on disk."""
        nonlocal checkpointer
        if resume is None or checkpointer is not None or not tail.complete:
            return checkpointer
        if not path.exists():
            return None  # footer read from the .tmp file; rename pending
        from repro.api import _checkpointer_for

        checkpointer = _checkpointer_for(path, resume, checkpoint_every)
        return checkpointer

    def save_checkpoint(ck) -> None:
        """Checkpoint at the *fold* position: the tail may have parsed
        ahead, so the reader state comes from the matching boundary."""
        done = fold.segments_folded
        ck.save(fold.scan_fold.payload(tail.suspend_at(done)), done)

    with tail:
        while True:
            segments = tail.poll()
            if tail.header_ready and fold is None:
                fold = IncrementalFold(tail, top_k=top_k)
            if segments:
                last_growth = clock()
                for segment in segments:
                    fold.add(segment)
                    emit(fold.snapshot())
                    result.segments = fold.segments_folded
                    ck = ensure_checkpointer()
                    if ck is not None and ck.due(fold.segments_folded):
                        save_checkpoint(ck)
                    if until_stable > 0 and fold.stable_for >= until_stable:
                        telemetry.count("analyze.early_stop")
                        _log.info(
                            "ranking stable, stopping early",
                            extra={
                                "stable_for": fold.stable_for,
                                "segments": fold.segments_folded,
                            },
                        )
                        ck = ensure_checkpointer()
                        if ck is not None:
                            save_checkpoint(ck)
                            result.checkpoint_saved = True
                        result.early_stopped = True
                        return result
            if tail.complete:
                break
            if not segments:
                if grace > 0 and clock() - last_growth > grace:
                    _log.warning(
                        "trace stopped growing without a footer",
                        extra={"path": str(path), "grace_s": grace},
                    )
                    result.stalled = True
                    return result
                sleep(interval)

    # footer reached: finish through the shared batch path.  The final
    # rename races the footer read; prefer the final path, fall back to
    # whatever the tail last read from.
    target = path if path.exists() else tail.active_path()
    try:
        analysis, terminal = fold.finish(
            target, benign_detection=benign_detection
        )
    except FileNotFoundError:
        # renamed between the exists() check and the benign re-stream
        analysis, terminal = fold.finish(
            path, benign_detection=benign_detection
        )
    emit(terminal)
    result.segments = fold.segments_folded
    result.complete = True
    result.analysis = analysis
    ck = ensure_checkpointer()
    if ck is not None:
        # the watch finished the whole analysis; a leftover checkpoint
        # would only tempt a later --resume into stale fast-forwarding
        ck.clear()
    return result


def render_snapshot(snap: dict) -> str:
    """Human-readable multi-line rendering of one snapshot (the TUI body)."""
    kind = "final" if snap.get("complete") else "live"
    lines = [
        f"repro watch — {kind} snapshot #{snap['seq']}",
        (
            f"  segments {snap['segments']}  events {snap['events']}  "
            f"sections {snap['sections']}"
            + (
                f" (+{snap['open_sections']} open)"
                if snap.get("open_sections")
                else ""
            )
        ),
        (
            f"  pairs {snap['pairs']}  ulcps {snap['ulcps']}"
            + (
                f"  pending-benign {snap['pending']}"
                if snap.get("pending")
                else ""
            )
        ),
    ]
    breakdown = snap["breakdown"]
    lines.append(
        "  " + "  ".join(
            f"{kind}={breakdown[kind]}"
            for kind in (
                "null_lock", "read_read", "disjoint_write", "benign", "tlcp"
            )
        )
    )
    if snap["ranking"]:
        lines.append(
            f"  top-{len(snap['ranking'])} ranking "
            f"(stable for {snap['stable_for']}):"
        )
        for i, entry in enumerate(snap["ranking"], 1):
            lines.append(
                f"    {i}. {entry['lock']}  "
                f"ulcp_wait={entry['ulcp_wait_ns']}  p={entry['p']:.3f}"
            )
    else:
        lines.append("  ranking: (no contended ULCP wait yet)")
    return "\n".join(lines) + "\n"
