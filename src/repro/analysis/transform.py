"""The end-to-end ULCP trace transformation (Figure 6 of the paper).

Pipeline::

    ULCP trace --(traditional lock semantics)--> sections + shared sets
               --(Algorithm 1 + reversed replay)--> classified pairs
               --(RULE 1/2)--> ULCP-free topology
               --(RULE 3/4)--> resynchronization plan
               --(rewrite)--> ULCP-free trace

The rewritten trace replaces every surviving critical section's original
lock/unlock events with ``CS_ENTER``/``CS_EXIT`` markers (uid-stable with
the original acquire/release events) and drops the lock events of removed
sections entirely.  The replayer materializes the markers according to
the chosen synchronization mode (DLS END-flags or full locksets).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from time import perf_counter
from typing import Dict, List, Optional, Set

from repro import kernels, telemetry
from repro.analysis.pairs import PairAnalysis, analyze_pairs
from repro.analysis.resync import ResyncPlan, build_resync_plan
from repro.analysis.sections import CriticalSection
from repro.analysis.topology import ORDER, Topology, build_topology
from repro.trace.interning import (
    ACQUIRE_CODE,
    CS_ENTER_CODE,
    CS_EXIT_CODE,
    FLAG_SPIN,
    RELEASE_CODE,
    ColumnarThread,
    ColumnarTrace,
    positions,
)
from repro.trace.trace import Trace, TraceMeta
from repro.trace.validate import validate


@dataclass
class TransformResult:
    """Everything produced by one transformation run."""

    original: Trace
    trace: Trace
    analysis: PairAnalysis
    topology: Topology
    plan: ResyncPlan

    @property
    def sections(self) -> List[CriticalSection]:
        return self.analysis.sections

    def section(self, cs_uid: str) -> CriticalSection:
        return self.topology.nodes[cs_uid]

    @property
    def removed_sections(self) -> int:
        return len(self.plan.removed)


def transform(
    trace: Trace,
    *,
    benign_detection: bool = True,
    order_edges: bool = True,
    validate_output: bool = True,
    fix_categories: Optional[Set[str]] = None,
    analysis: Optional[PairAnalysis] = None,
) -> TransformResult:
    """Transform a recorded trace into its ULCP-free counterpart.

    ``order_edges=False`` disables RULE 2 (the stability ablation);
    ``benign_detection=False`` treats every conflicting pair as a TLCP.

    ``fix_categories`` restricts the transformation to a subset of ULCP
    categories (e.g. ``{"read_read"}``): pairs of every *other* category
    keep their original serialization (an order edge is re-inserted), so
    the replayed gain isolates what fixing just those categories buys —
    the per-strategy estimates of :mod:`repro.perfdebug.advisor`.

    A caller that already ran :func:`analyze_pairs` (with the same
    ``benign_detection``) can pass its ``analysis`` to skip re-analyzing;
    the topology stage then also reuses its write timeline and cached
    benign verdicts instead of re-replaying every FALSE pair.
    """
    with telemetry.span("transform"):
        if analysis is None:
            analysis = analyze_pairs(trace, benign_detection=benign_detection)
        topology = build_topology(
            trace,
            analysis.sections,
            benign_detection=benign_detection,
            order_edges=order_edges,
            timeline=analysis.timeline,
            benign_cache=analysis.benign_cache,
        )
        if fix_categories is not None:
            _reserialize_unselected(topology, analysis, fix_categories)
        plan = build_resync_plan(topology)
        new_trace = _rewrite(trace, analysis.sections, plan)
        if validate_output:
            validate(new_trace)
    telemetry.count("transform.runs")
    telemetry.count("transform.removed_sections", len(plan.removed))
    telemetry.count("transform.aux_locks", len(plan.aux_locks))
    telemetry.count("transform.causal_edges", len(topology.causal_edges()))
    telemetry.count("transform.order_edges", len(topology.order_edges()))
    return TransformResult(
        original=trace,
        trace=new_trace,
        analysis=analysis,
        topology=topology,
        plan=plan,
    )


def _reserialize_unselected(
    topology: Topology, analysis: PairAnalysis, fix_categories: Set[str]
) -> None:
    """Re-insert order edges for ULCP pairs outside ``fix_categories``.

    Those pairs keep exactly the serialization the original lock imposed
    (adjacent re-serialization chains transitively, like the lock did).
    """
    for pair in analysis.ulcps:
        if pair.kind in fix_categories:
            continue
        if pair.c2.uid not in topology.succs(pair.c1.uid):
            topology.add_edge(pair.c1.uid, pair.c2.uid, ORDER)


def _rewrite(
    trace: Trace, sections: List[CriticalSection], plan: ResyncPlan
) -> ColumnarTrace:
    """Produce the marker-based ULCP-free trace on the interned columns.

    No event object is built: per thread, the lock events come from one
    :func:`~repro.trace.interning.positions` scan, removed sections'
    lock events are dropped by copying the runs of survivors between
    them by slice, and the surviving lock events are retyped in place
    on the copy.  The result is a
    :class:`~repro.trace.interning.ColumnarTrace` sharing the source
    core's intern tables — read-compatible with :class:`Trace`, and
    serializing to the bytes the event-by-event rewrite would emit.
    """
    start = perf_counter()
    core = trace.columnar()
    release_to_cs: Dict[str, CriticalSection] = {
        cs.release.uid: cs for cs in sections
    }
    acquire_to_cs: Dict[str, CriticalSection] = {cs.uid: cs for cs in sections}

    meta = core.meta
    new_meta = TraceMeta(
        name=f"{meta.name}+ulcpfree" if meta.name else "ulcpfree",
        seed=meta.seed,
        num_cores=meta.num_cores,
        lock_cost=meta.lock_cost,
        mem_cost=meta.mem_cost,
        params={**meta.params, "transformed": True},
    )
    # selective-recording deltas carry over; the schedule does not
    out = ColumnarTrace(new_meta, core.side, {}, tables=core.tables)
    for tid, column in core.columns.items():
        out.columns[tid] = _rewrite_column(
            column, acquire_to_cs, release_to_cs, plan.removed
        )
    kernels.record("rewrite", perf_counter() - start)
    return out


#: the dense columns, copied run by run
_ARRAYS = ("kind", "t", "duration", "t_request", "value", "lock_id",
           "addr_id", "flags")


def _rewrite_column(
    column: ColumnarThread,
    acquire_to_cs: Dict[str, CriticalSection],
    release_to_cs: Dict[str, CriticalSection],
    removed: Set[str],
) -> ColumnarThread:
    new = ColumnarThread(column.tid, column.tid_id, column.tables)
    n = len(column)
    if not n:
        return new
    kind = column.kind
    uids = column.uids
    # survivors' new positions: only lock events drop, so a survivor
    # moves down by the number of drops before it
    enters: List[int] = []
    exits: List[int] = []
    tokens: Dict[int, str] = {}
    drop: List[int] = []
    for i in positions(kind, ACQUIRE_CODE, RELEASE_CODE):
        if kind[i] == ACQUIRE_CODE:
            cs = acquire_to_cs[uids[i]]
            if cs.uid in removed:
                drop.append(i)
                continue
            enters.append(i - len(drop))
        else:
            cs = release_to_cs.get(uids[i])
            if cs is None or cs.uid in removed:
                drop.append(i)
                continue
            exits.append(i - len(drop))
        tokens[i - len(drop)] = cs.uid

    # copy the runs of survivors between dropped positions: byte slices
    # of the dense columns and a mask over the object lists, so the copy
    # allocates no object the cyclic GC tracks
    starts = [0] + [d + 1 for d in drop]
    ends = drop + [n]
    for name in _ARRAYS:
        src = getattr(column, name)
        size = src.itemsize
        raw = src.tobytes()
        getattr(new, name).frombytes(b"".join([
            raw[a * size:b * size] for a, b in zip(starts, ends)
        ]))
    keep = bytearray(b"\x01") * n
    for d in drop:
        keep[d] = 0
    new.uids = list(compress(column.uids, keep))
    new.sites = list(compress(column.sites, keep))

    # retype the surviving lock events, resetting their payload fields
    # as a freshly built CS_ENTER/CS_EXIT event would have them
    for code, at, flag_mask in ((CS_ENTER_CODE, enters, FLAG_SPIN),
                                (CS_EXIT_CODE, exits, 0)):
        for p in at:
            new.kind[p] = code
            new.duration[p] = new.t_request[p] = new.value[p] = 0
            new.addr_id[p] = -1
            new.flags[p] &= flag_mask

    # sparse payloads: survivors are re-indexed; lock events (dropped or
    # retyped) shed theirs, and the markers carry only the section uid
    for attr in ("ops", "tokens", "reasons", "woken"):
        old = getattr(column, attr)
        if old:
            setattr(new, attr, {
                p - bisect_left(drop, p): v for p, v in old.items()
                if kind[p] != ACQUIRE_CODE and kind[p] != RELEASE_CODE
            })
    new.tokens.update(tokens)
    return new
