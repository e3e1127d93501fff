"""Causal-order topology (RULE 1 and RULE 2).

Nodes are critical sections; a *causal edge* connects a section to the
first true-conflicting (TLCP) section of every other thread, found by
sequential searching forward in the lock's acquisition order (RULE 1).
ULCP relations produce no edge — that is precisely how the false
inter-thread dependencies disappear from the graph.

RULE 2 (performance stability) is materialized as *order edges*: the
causal-edge nodes of each lock are chained in their original partial
order, so every replay of the transformed trace serializes them the same
way the original execution did.

The construction is index-accelerated: for each (lock, thread, address)
we keep the sorted lock-order positions of sections reading/writing that
address, so "first conflicting section after position i" is a bisect, not
a scan.  Candidates are judged by *body class* (their interned memory-op
signature): a section's verdict against one class holds for every
candidate of it, and a benign class's run along a position list is
stepped over at once.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.benign import WriteTimeline, is_benign
from repro.analysis.sections import CriticalSection, sections_by_lock
from repro.trace.trace import Trace

CAUSAL = "causal"
ORDER = "order"


@dataclass
class Topology:
    """The causal-order graph over critical sections."""

    nodes: Dict[str, CriticalSection] = field(default_factory=dict)
    edges: Set[Tuple[str, str, str]] = field(default_factory=set)  # (src, dst, kind)
    _preds: Dict[str, Set[str]] = field(default_factory=dict)
    _succs: Dict[str, Set[str]] = field(default_factory=dict)

    def add_node(self, cs: CriticalSection) -> None:
        self.nodes[cs.uid] = cs
        self._preds.setdefault(cs.uid, set())
        self._succs.setdefault(cs.uid, set())

    def add_edge(self, src: str, dst: str, kind: str = CAUSAL) -> None:
        if src == dst:
            raise ValueError("self edge in topology")
        self.edges.add((src, dst, kind))
        self._preds[dst].add(src)
        self._succs[src].add(dst)

    def preds(self, uid: str) -> Set[str]:
        return self._preds.get(uid, set())

    def succs(self, uid: str) -> Set[str]:
        return self._succs.get(uid, set())

    def outdegree(self, uid: str) -> int:
        return len(self.succs(uid))

    def indegree(self, uid: str) -> int:
        return len(self.preds(uid))

    def is_standalone(self, uid: str) -> bool:
        """No causal or order relation at all (RULE 3 drops its locks)."""
        return not self.preds(uid) and not self.succs(uid)

    def causal_edges(self) -> List[Tuple[str, str]]:
        return [(s, d) for (s, d, k) in self.edges if k == CAUSAL]

    def order_edges(self) -> List[Tuple[str, str]]:
        return [(s, d) for (s, d, k) in self.edges if k == ORDER]

    def toposort(self) -> List[str]:
        """Kahn's algorithm; raises if a cycle sneaked in."""
        indeg = {uid: self.indegree(uid) for uid in self.nodes}
        queue = sorted(uid for uid, d in indeg.items() if d == 0)
        out: List[str] = []
        while queue:
            uid = queue.pop(0)
            out.append(uid)
            for succ in sorted(self.succs(uid)):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    queue.append(succ)
        if len(out) != len(self.nodes):
            raise ValueError("cycle in causal-order topology")
        return out


class _LockIndex:
    """Per-lock acceleration structure for RULE 1's sequential searching."""

    def __init__(self, sections: List[CriticalSection]):
        self.by_thread: Dict[str, List[CriticalSection]] = {}
        # (tid, addr) -> sorted lock_index positions of write / any access
        self.write_pos: Dict[Tuple[str, str], List[int]] = {}
        self.access_pos: Dict[Tuple[str, str], List[int]] = {}
        self.by_index: Dict[int, CriticalSection] = {}
        self._classes: Dict[tuple, int] = {}  # body signature -> class
        self._class_at: Dict[int, int] = {}  # lock_index -> body class
        # (tid, addr) -> run ends of the matching position list, built on
        # the first skip along that list
        self._write_ends: Dict[Tuple[str, str], List[int]] = {}
        self._access_ends: Dict[Tuple[str, str], List[int]] = {}
        for cs in sections:
            self.by_thread.setdefault(cs.tid, []).append(cs)
            self.by_index[cs.lock_index] = cs
            # keys are interned address ids on the engine path, strings on
            # the reference path — either way they only meet keys from the
            # same analysis, so the dicts stay internally consistent
            for addr in cs.swr_keys():
                self.write_pos.setdefault((cs.tid, addr), []).append(cs.lock_index)
                self.access_pos.setdefault((cs.tid, addr), []).append(cs.lock_index)
            for addr in cs.srd_only_keys():
                self.access_pos.setdefault((cs.tid, addr), []).append(cs.lock_index)

    def body_class(self, position: int) -> int:
        """The interned memory-op signature of the section at ``position``."""
        klass = self._class_at.get(position)
        if klass is None:
            signature = tuple(
                (e.kind, e.addr, e.op) for e in self.by_index[position].memory_ops()
            )
            klass = self._classes.setdefault(signature, len(self._classes))
            self._class_at[position] = klass
        return klass

    def _next(self, table, ends, key, after_index: int, skip: Optional[int]):
        """First position of ``table[key]`` past ``after_index``, stepping
        over a leading run of class ``skip``; None when the list runs out."""
        positions = table.get(key)
        if not positions:
            return None
        i = bisect.bisect_right(positions, after_index)
        if (
            skip is not None
            and i < len(positions)
            and self.body_class(positions[i]) == skip
        ):
            run_ends = ends.get(key)
            if run_ends is None:
                # run_ends[j]: index of the first position whose class
                # differs from position j's
                classes = [self.body_class(p) for p in positions]
                run_ends = [len(positions)] * len(positions)
                for j in range(len(positions) - 2, -1, -1):
                    same = classes[j] == classes[j + 1]
                    run_ends[j] = run_ends[j + 1] if same else j + 1
                ends[key] = run_ends
            i = run_ends[i]
        return positions[i] if i < len(positions) else None

    def first_conflict_after(
        self,
        cs: CriticalSection,
        tid: str,
        after_index: int,
        skip: Optional[int] = None,
    ) -> Optional[CriticalSection]:
        """First section of ``tid`` past ``after_index`` whose sets collide.

        With ``skip``, sections of that body class are passed over: the
        caller has judged the class benign against ``cs``, and every
        skipped section collides with ``cs``, so it is a benign candidate
        the sequential search would have passed over one by one.
        """
        best: Optional[int] = None
        for addr in cs.swr_keys():
            pos = self._next(self.access_pos, self._access_ends, (tid, addr),
                             after_index, skip)
            if pos is not None and (best is None or pos < best):
                best = pos
        for addr in cs.srd_keys():
            pos = self._next(self.write_pos, self._write_ends, (tid, addr),
                             after_index, skip)
            if pos is not None and (best is None or pos < best):
                best = pos
        if best is None:
            return None
        return self.by_index[best]


def build_topology(
    trace: Trace,
    sections: List[CriticalSection],
    *,
    benign_detection: bool = True,
    order_edges: bool = True,
    timeline: Optional[WriteTimeline] = None,
    benign_cache: Optional[Dict[Tuple[str, str], bool]] = None,
) -> Topology:
    """Apply RULE 1 (+ RULE 2 when ``order_edges``) to annotated sections.

    ``sections`` must already carry their shared sets (either the
    engine's bitmasks or :func:`repro.analysis.shadow.annotate_shared_sets`
    string sets).  ``timeline`` / ``benign_cache`` let a caller share the
    pair analysis's write timeline and already-computed benign verdicts —
    every pair the classifier judged FALSE skips its reversed replay here.
    ``benign_cache`` is only read: RULE 1 keeps its own verdicts per
    section and candidate body class, for the length of this call.
    """
    topology = Topology()
    for cs in sections:
        topology.add_node(cs)

    if timeline is None and benign_detection:
        timeline = WriteTimeline(trace)
    if benign_cache is None:
        benign_cache = {}

    for lock_sections in sections_by_lock(sections).values():
        index = _LockIndex(lock_sections)
        threads = list(index.by_thread)
        for cs in lock_sections:
            verdicts: Dict[int, bool] = {}  # candidate body class -> benign
            for tid in threads:
                if tid == cs.tid:
                    continue
                cursor = cs.lock_index
                skip: Optional[int] = None
                while True:
                    candidate = index.first_conflict_after(cs, tid, cursor, skip)
                    if candidate is None:
                        break
                    if benign_detection:
                        skip = index.body_class(candidate.lock_index)
                        benign = verdicts.get(skip)
                        if benign is None:
                            benign = benign_cache.get((cs.uid, candidate.uid))
                            if benign is None:
                                benign = is_benign(cs, candidate, timeline)
                            verdicts[skip] = benign
                        if benign:
                            cursor = candidate.lock_index  # keep searching
                            continue
                    topology.add_edge(cs.uid, candidate.uid, CAUSAL)
                    break

        if order_edges:
            causal_nodes = [
                cs
                for cs in lock_sections
                if topology.preds(cs.uid) or topology.succs(cs.uid)
            ]
            for first, second in zip(causal_nodes, causal_nodes[1:]):
                if first.tid == second.tid:
                    continue  # program order already covers it
                if second.uid not in topology.succs(first.uid):
                    topology.add_edge(first.uid, second.uid, ORDER)

    return topology
