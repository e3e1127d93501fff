"""ULCP pair enumeration and classification over a whole trace.

Pairs are the paper's unit of analysis: for every lock, consecutive
critical sections from *different* threads in the lock's acquisition
order form candidate pairs (three sequential sections encode as two
pairs, as §2.1 prescribes).  Each pair runs through Algorithm 1 and, when
Algorithm 1 answers FALSE, through the reversed-replay benign test.

This module runs the fused columnar path: one :func:`scan_trace` walk
replaces the separate section-extraction / shared-address / shared-set
passes, the write timeline is built lazily (only a FALSE pair triggers
it), and every benign verdict is cached on the returned
:class:`PairAnalysis` so the transformation stage can reuse it instead
of re-replaying.  The original multi-pass implementation is retained as
:func:`repro.analysis.reference.analyze_pairs_reference` and the two are
held to identical output by ``tests/analysis/test_engine_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.analysis.benign import WriteTimeline, is_benign
from repro.analysis.classify import FALSE, classify_pair
from repro.analysis.engine import scan_trace
from repro.analysis.sections import CriticalSection, sections_by_lock
from repro.analysis.ulcp import BENIGN, TLCP, UlcpBreakdown, UlcpPair
from repro.trace.interning import ColumnarTrace
from repro.trace.trace import Trace


@dataclass
class PairAnalysis:
    """Everything the pair pass learned about a trace."""

    sections: List[CriticalSection] = field(default_factory=list)
    pairs: List[UlcpPair] = field(default_factory=list)
    breakdown: UlcpBreakdown = field(default_factory=UlcpBreakdown)
    #: lazy write timeline over the analyzed trace (None when the benign
    #: pass was disabled); downstream stages reuse it instead of rebuilding
    timeline: Optional[WriteTimeline] = None
    #: benign verdicts keyed ``(c1.uid, c2.uid)``, for reuse by topology
    benign_cache: Dict[Tuple[str, str], bool] = field(default_factory=dict)
    #: total events in the analyzed trace (both paths fill it; the
    #: streaming path has no Trace object for consumers to ``len()``)
    events: int = 0
    #: the shared decoded core this analysis was computed from, when
    #: ``api.analyze`` decoded a segmented file once
    #: (:func:`repro.trace.segments.load_segmented_columnar`); holding it
    #: keeps the core live for the flow's timeline and transform calls
    core: Optional[ColumnarTrace] = field(default=None, repr=False, compare=False)

    @property
    def ulcps(self) -> List[UlcpPair]:
        return [p for p in self.pairs if p.is_ulcp]

    @property
    def tlcps(self) -> List[UlcpPair]:
        return [p for p in self.pairs if p.kind == TLCP]

    def pairs_by_lock(self) -> Dict[str, List[UlcpPair]]:
        grouped: Dict[str, List[UlcpPair]] = {}
        for pair in self.pairs:
            grouped.setdefault(pair.lock, []).append(pair)
        return grouped


def iter_candidate_pairs(
    sections: List[CriticalSection],
) -> Iterator[Tuple[CriticalSection, CriticalSection]]:
    """§2.1 pair enumeration: per lock, consecutive sections from
    different threads, in acquisition order.  Shared by the whole-trace
    and streaming analysis paths so the pair set (and its order) is one
    definition."""
    for lock_sections in sections_by_lock(sections).values():
        for first, second in zip(lock_sections, lock_sections[1:]):
            if first.tid == second.tid:
                continue  # program order already serializes these
            yield first, second


def analyze_pairs(trace: Trace, *, benign_detection: bool = True) -> PairAnalysis:
    """Scan, enumerate and classify all same-lock pairs in one pass.

    ``benign_detection=False`` skips the reversed replay and counts every
    conflicting pair as a TLCP — the ablation for how much the benign pass
    buys (misclassified benign pairs keep causal edges they don't need).
    """
    with telemetry.span("analyze.pairs"):
        core = trace.columnar()
        scan = scan_trace(core)
        sections = scan.sections
        timeline = WriteTimeline(trace) if benign_detection else None

        analysis = PairAnalysis(
            sections=sections, timeline=timeline, events=len(trace)
        )
        benign_cache = analysis.benign_cache
        benign_tests = 0
        for first, second in iter_candidate_pairs(sections):
            kind = classify_pair(first, second)
            if kind == FALSE:
                if benign_detection:
                    benign = is_benign(first, second, timeline)
                    benign_cache[(first.uid, second.uid)] = benign
                    benign_tests += 1
                    kind = BENIGN if benign else TLCP
                else:
                    kind = TLCP
            pair = UlcpPair(c1=first, c2=second, kind=kind)
            analysis.pairs.append(pair)
            analysis.breakdown.add(kind)
    telemetry.count("analyze.pairs", len(analysis.pairs))
    if benign_tests:
        telemetry.count("analyze.benign_tests", benign_tests)
    breakdown = analysis.breakdown
    for kind in ("null_lock", "read_read", "disjoint_write", "benign", "tlcp"):
        n = getattr(breakdown, kind)
        if n:
            telemetry.count(f"ulcp.{kind}", n)
    return analysis
