"""Seeded input generators: every input the benchmark feeds the program.

The program under test only ever sees what these functions write or
return; the seed fixes all of it.  Each generator keeps the *shape* of a
workload (event counts, the share of each pair class, the request mix)
independent of the seed, so runs with different seeds measure the same
amount of work and stay comparable.
"""

from __future__ import annotations

import random
from pathlib import Path

# ------------------------------------------------------------ bigtrace-1m

BIG_EVENTS = 1_000_000
BIG_THREADS = ("t0", "t1", "t2", "t3")
#: one critical section opens every SECTION_PERIOD events
SECTION_PERIOD = 100
#: write sections come in groups of this many; one run of CONFLICT_RUN
#: consecutive sections in each group writes one shared field
CONFLICT_GROUP = 16
CONFLICT_RUN = 3
SEGMENT_EVENTS = 65536


def _complete(s: int, total: int) -> bool:
    return s * SECTION_PERIOD + 2 < total


def _conflict_plan(rng: random.Random, write_sections: int):
    """Write-section index -> value for the hot-field runs.

    Each group of CONFLICT_GROUP write sections holds one run of
    CONFLICT_RUN consecutive hot-field writes at a seeded offset.  Half
    the runs store one value (the reversed-replay test finds the pair
    benign), half store distinct values (a true conflict).
    """
    plan = {}
    for g in range(0, write_sections, CONFLICT_GROUP):
        if g + CONFLICT_GROUP > write_sections:
            break
        start = g + rng.randrange(CONFLICT_GROUP - CONFLICT_RUN + 1)
        same = rng.random() < 0.5
        for w in range(start, start + CONFLICT_RUN):
            plan[w] = 7 if same else w + 1
    return plan


def write_bigtrace(path: Path, seed: int, total: int = BIG_EVENTS) -> dict:
    """Stream the ``bigtrace-1m`` trace into a segmented ``.jsonl.gz``.

    Four threads take turns: section ``s`` runs on thread ``(s // 2) % 4``
    and uses ``L_write`` (even ``s``) or ``L_read`` (odd ``s``), so
    neighbouring sections of one lock always come from different
    threads.  ``L_read`` sections read one shared field (read-read
    ULCPs); ``L_write`` sections write their thread's own field
    (disjoint-write ULCPs) except for the seeded hot-field runs, whose
    inner pairs Algorithm 1 leaves FALSE for the benign pass.  The rest
    of each 100-event period is computation.
    """
    from repro.trace.segments import SegmentedTraceWriter
    from repro.trace.trace import TraceMeta

    rng = random.Random(seed)
    sections = 0
    while _complete(sections, total):
        sections += 1
    plan = _conflict_plan(rng, (sections + 1) // 2)
    schedule = {"L_write": [], "L_read": []}
    for s in range(sections):
        lock = "L_write" if s % 2 == 0 else "L_read"
        schedule[lock].append(f"e{s * SECTION_PERIOD}")

    writer = SegmentedTraceWriter(
        path,
        meta=TraceMeta(name=f"bigtrace-{seed}", seed=seed, lock_cost=0,
                       mem_cost=0),
        threads=list(BIG_THREADS),
        lock_schedule=schedule,
        segment_events=SEGMENT_EVENTS,
    )
    try:
        n0 = 0
        while n0 < total:
            s = n0 // SECTION_PERIOD
            count = min(SECTION_PERIOD, total - n0)
            thread_idx = (s // 2) % len(BIG_THREADS)
            tid = BIG_THREADS[thread_idx]
            uids = [f"e{k}" for k in range(n0, n0 + count)]
            ts = list(range(n0 * 10, (n0 + count) * 10, 10))
            body = 0
            if s < sections:
                if s % 2 == 0:
                    w = s // 2
                    if w in plan:
                        mem = ("write", "obj.hot", plan[w])
                    else:
                        mem = ("write", f"obj.f{thread_idx}", w + 1)
                    lock = "L_write"
                else:
                    mem = ("read", "obj.shared", 0)
                    lock = "L_read"
                writer.add_block(
                    tid,
                    uids=uids[:3],
                    kinds=["acquire", mem[0], "release"],
                    t=ts[:3],
                    t_request=[ts[0], 0, 0],
                    lock=[lock, "", lock],
                    addr=["", mem[1], ""],
                    value=[0, mem[2], 0],
                    # the benign test re-executes writes from their Store op
                    op={1: ("store", mem[2])} if mem[0] == "write" else None,
                )
                body = 3
            if count > body:
                writer.add_block(tid, uids=uids[body:], kinds="compute",
                                 t=ts[body:], duration=10)
            n0 += count
    except BaseException:
        writer.abort()
        raise
    index = writer.close()
    return {"events": index.events, "segments": len(index.segments),
            "sections": sections}


# ----------------------------------------------------------- debug-session

#: (model, scale) of the rotation; every session records at 4 threads.
#: Three small real-world traces (1.5k-3k events), four mid-size PARSEC
#: ones of near-equal cost (4.3k-4.5k events), so the median session is
#: always one of them, and one mysql trace of ~30k events in which the
#: transform dominates (one in eight sessions, so the p90 session is
#: always the large-mysql one).
ROTATION = (
    ("pbzip2", 1.0),
    ("mysql", 1.0),
    ("handbrake", 1.0),
    ("dedup", 1.0),
    ("dedup", 1.0),
    ("vips", 1.0),
    ("vips", 1.0),
    ("mysql", 15.0),
)
DEBUG_THREADS = 4


def debug_rotation(seed: int):
    """The seeded session order: ``[(model, scale, simulation seed)]``.

    The seed orders the sessions; the recordings themselves are fixed.
    The simulator's seed moves one large-mysql session's cost by up to
    30 %, so seeded recordings would make the spread across seeds
    measure the draw of inputs rather than the program.
    """
    order = list(range(len(ROTATION)))
    random.Random(seed).shuffle(order)
    return [(ROTATION[i][0], ROTATION[i][1], i) for i in order]


# -------------------------------------------------------------- serve-open

SMALL_THREADS = ("w0", "w1", "w2")
SMALL_LOCKS = ("L0", "L1", "L2", "L3")
SMALL_FIELDS = ("s.a", "s.b", "s.c", "s.d", "s.e", "s.f")
SMALL_PERIOD = 40
SMALL_EVENTS = 1200


def write_small_trace(path: Path, seed: int,
                      total: int = SMALL_EVENTS) -> None:
    """A ~1.2k-event segmented trace with seeded values, for uploads.

    Every SMALL_PERIOD events thread ``s % 3`` runs a critical section
    on lock ``s % 4`` that reads or writes one field, then computes for
    the rest of the period.  The pattern of threads, locks and fields is
    the same for every seed, so every upload costs the service the same
    work; the seed draws the stored values, which decide the benign
    verdicts and make the bytes of every upload distinct.
    """
    from repro.trace.segments import SegmentedTraceWriter
    from repro.trace.trace import TraceMeta

    rng = random.Random(seed)
    periods = []
    for s in range(total // SMALL_PERIOD):
        kind = "write" if s % 3 else "read"
        field = SMALL_FIELDS[(s % 4 + s // 8) % len(SMALL_FIELDS)]
        periods.append((SMALL_THREADS[s % len(SMALL_THREADS)],
                        SMALL_LOCKS[s % len(SMALL_LOCKS)],
                        (kind, field, rng.randrange(4))))
    schedule = {lock: [] for lock in SMALL_LOCKS}
    for s, (_, lock, _) in enumerate(periods):
        schedule[lock].append(f"u{s * SMALL_PERIOD}")

    writer = SegmentedTraceWriter(
        path,
        meta=TraceMeta(name=f"upload-{seed}", seed=seed),
        threads=list(SMALL_THREADS),
        lock_schedule=schedule,
    )
    try:
        for s, (tid, lock, (kind, field, value)) in enumerate(periods):
            n0 = s * SMALL_PERIOD
            uids = [f"u{k}" for k in range(n0, n0 + SMALL_PERIOD)]
            ts = list(range(n0 * 10, (n0 + SMALL_PERIOD) * 10, 10))
            writer.add_block(
                tid,
                uids=uids[:3],
                kinds=["acquire", kind, "release"],
                t=ts[:3],
                t_request=[ts[0], 0, 0],
                lock=[lock, "", lock],
                addr=["", field, ""],
                value=[0, value, 0],
                op={1: ("store", value)} if kind == "write" else None,
            )
            writer.add_block(tid, uids=uids[3:], kinds="compute",
                             t=ts[3:], duration=10)
    except BaseException:
        writer.abort()
        raise
    writer.close()
