"""Standalone streaming-scale benchmark: generate + analyze N events.

Run as a subprocess (its own address space) so ``ru_maxrss`` is an
honest high-water mark for the streaming pipeline alone::

    PYTHONPATH=src python benchmarks/_segbench.py [EVENTS] [DIR] [auto]

Builds a synthetic segmented trace of EVENTS events *without ever
holding the trace in memory* (the schedule is computed analytically, the
events are generated straight into :class:`SegmentedTraceWriter`), then
runs the full streaming ULCP analysis over the file.  Prints one JSON
object with throughput and the process's peak RSS; the companion
``test_segments.py`` asserts the memory bound and records the numbers in
``BENCH_segments.json``.  With ``auto`` the file is analyzed through
``api.analyze(path)`` instead, whose default route decodes a file of
at most ``api.DECODE_ONCE_MAX_EVENTS`` events once into a whole-trace
core; the output then also says whether that route was taken.

The workload shape: two threads of mostly COMPUTE events, one short
critical section per ~100 events per thread, alternating between a
disjoint-write lock (each thread touches its own field — the classic
ULCP) and a read-only lock.  Every pair settles via Algorithm 1 alone,
so the benchmark measures the scan, not the replay machinery.
"""

import json
import resource
import sys
import time
from pathlib import Path

from repro.trace.segments import SegmentedTraceWriter
from repro.trace.trace import TraceMeta

THREADS = ("t0", "t1")
SECTION_PERIOD = 100  # one critical section per this many events per thread
SEGMENT_EVENTS = 65536


def _complete(s: int, total_events: int) -> bool:
    """Does section ``s`` (events s*PERIOD .. s*PERIOD+2) fit entirely?"""
    return s * SECTION_PERIOD + 2 < total_events


def generate(path: Path, total_events: int) -> dict:
    """Stream ``total_events`` synthetic events into a segmented file."""
    # the acquisition order is fully determined by the generation loop,
    # so the lock schedule is computed analytically up front: section s
    # uses lock s%2, runs on thread (s//2)%2 (consecutive sections of a
    # lock come from different threads), and acquires at event s*PERIOD
    schedule = {"L_write": [], "L_read": []}
    s = 0
    while _complete(s, total_events):
        lock = "L_write" if s % 2 == 0 else "L_read"
        schedule[lock].append(f"e{s * SECTION_PERIOD}")
        s += 1

    writer = SegmentedTraceWriter(
        path,
        meta=TraceMeta(name="segbench", lock_cost=0, mem_cost=0),
        threads=list(THREADS),
        lock_schedule=schedule,
        segment_events=SEGMENT_EVENTS,
    )
    # one bulk block per run of same-shaped events (`add_block` is
    # byte-identical to per-event `add`): a complete section is a
    # 3-event lock block plus a block of computes, the incomplete tail
    # is computes only — event n keeps uid f"e{n}" and t = 10*n
    n0 = 0
    while n0 < total_events:
        s = n0 // SECTION_PERIOD
        count = min(SECTION_PERIOD, total_events - n0)
        thread_idx = (s // 2) % 2
        tid = THREADS[thread_idx]
        uids = [f"e{k}" for k in range(n0, n0 + count)]
        ts = list(range(n0 * 10, (n0 + count) * 10, 10))
        body = 0
        if _complete(s, total_events):
            lock = "L_write" if s % 2 == 0 else "L_read"
            if s % 2 == 0:
                # disjoint-write ULCP: each thread its own field
                mem = ("write", f"obj.f{thread_idx}", s)
            else:
                mem = ("read", "obj.shared", 0)
            writer.add_block(
                tid,
                uids=uids[:3],
                kinds=["acquire", mem[0], "release"],
                t=ts[:3],
                t_request=[ts[0], 0, 0],
                lock=[lock, "", lock],
                addr=["", mem[1], ""],
                value=[0, mem[2], 0],
            )
            body = 3
        if count > body:
            writer.add_block(tid, uids=uids[body:], kinds="compute",
                             t=ts[body:], duration=10)
        n0 += count
    index = writer.close()
    return {"segments": len(index.segments), "events": index.events}


def main() -> int:
    total_events = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    out_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else Path(".")
    path = out_dir / "segbench.seg.jsonl.gz"

    t0 = time.perf_counter()
    written = generate(path, total_events)
    t1 = time.perf_counter()

    auto = len(sys.argv) > 3 and sys.argv[3] == "auto"
    if auto:
        from repro import api

        analysis = api.analyze(path)
    else:
        from repro.analysis.streaming import analyze_segments

        analysis = analyze_segments(path)
    t2 = time.perf_counter()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    analyze_seconds = t2 - t1
    extra = {"decoded_once": analysis.core is not None} if auto else {}
    print(json.dumps({
        **extra,
        "events": written["events"],
        "segments": written["segments"],
        "segment_events": SEGMENT_EVENTS,
        "file_bytes": path.stat().st_size,
        "sections": len(analysis.sections),
        "pairs": len(analysis.pairs),
        "ulcps": len(analysis.ulcps),
        "generate_seconds": round(t1 - t0, 3),
        "analyze_seconds": round(analyze_seconds, 3),
        "analyze_events_per_sec": round(written["events"] / analyze_seconds),
        "peak_rss_mb": round(rss_kb / 1024, 1),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
