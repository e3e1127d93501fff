"""Pipeline stage profiler: where does an analysis run spend its time?

``profile_pipeline`` executes the PERFPLAY pipeline stage by stage —
record (or load), intern, scan, classify, benign, transform, replay —
timing each with ``time.perf_counter`` and counting the artifacts it
produces.  The stage boundaries deliberately mirror the fused engine's
internals (``repro profile`` exists to show what the columnar core buys
and where the remaining time goes), so the classify and benign phases
that :func:`repro.analysis.pairs.analyze_pairs` interleaves are timed
separately here while producing the identical :class:`PairAnalysis`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro import kernels, telemetry
from repro.analysis.benign import WriteTimeline, is_benign
from repro.analysis.classify import FALSE, classify_pair
from repro.analysis.engine import scan_trace
from repro.analysis.pairs import PairAnalysis, iter_candidate_pairs
from repro.analysis.transform import TransformResult, transform
from repro.analysis.ulcp import BENIGN, TLCP, UlcpPair
from repro.replay.replayer import Replayer
from repro.trace.trace import Trace


@dataclass
class Stage:
    """One timed pipeline stage."""

    name: str
    seconds: float
    detail: str = ""

    @property
    def millis(self) -> float:
        return self.seconds * 1000.0


@dataclass
class ProfileReport:
    """Per-stage wall times plus the pipeline's artifact counts."""

    stages: List[Stage] = field(default_factory=list)
    events: int = 0
    sections: int = 0
    pairs: int = 0
    analysis: Optional[PairAnalysis] = None
    result: Optional[TransformResult] = None
    kernels: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def render(self) -> str:
        lines = ["pipeline profile"]
        width = max(len(stage.name) for stage in self.stages)
        for stage in self.stages:
            line = f"  {stage.name:<{width}} {stage.millis:9.2f} ms"
            if stage.detail:
                line += f"  {stage.detail}"
            lines.append(line)
        lines.append(f"  {'total':<{width}} {self.total_seconds * 1000.0:9.2f} ms")
        breakdown = self.analysis.breakdown if self.analysis else None
        lines.append(
            f"  events={self.events} sections={self.sections} pairs={self.pairs}"
        )
        if breakdown is not None:
            lines.append(
                "  null-lock={0.null_lock} read-read={0.read_read} "
                "disjoint-write={0.disjoint_write} benign={0.benign} "
                "tlcp={0.tlcp}".format(breakdown)
            )
        for name, entry in sorted(self.kernels.items()):
            lines.append(
                f"  kernel {name:<18} {entry['seconds'] * 1000.0:9.2f} ms"
                f"  ({entry['calls']} calls)"
            )
        return "\n".join(lines)


def profile_pipeline(
    trace: Optional[Trace] = None,
    workload=None,
    *,
    seed: int = 0,
    replay: bool = True,
) -> ProfileReport:
    """Run the full pipeline over ``trace`` (or record ``workload`` first),
    timing every stage.  Exactly one of ``trace``/``workload`` is required."""
    if (trace is None) == (workload is None):
        raise ValueError("profile_pipeline needs a trace OR a workload")

    report = ProfileReport()
    kernels.reset_timings()

    def timed(name: str, fn, detail: str = ""):
        # one span per stage, labelled, so stage wall times never overlap
        # in the exported span tree (stages run strictly one after another)
        with telemetry.span("profile.stage", stage=name):
            start = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - start
        report.stages.append(Stage(name, elapsed, detail))
        return value

    if workload is not None:
        trace = timed("record", lambda: workload.record().trace)
    report.events = len(trace)

    core = timed("intern", trace.columnar)
    scan = timed("scan", lambda: scan_trace(core))
    report.sections = len(scan.sections)

    # pair enumeration + Algorithm 1, with the benign replays deferred so
    # the two phases time separately (analyze_pairs interleaves them)
    def classify_stage():
        return [
            (first, second, classify_pair(first, second))
            for first, second in iter_candidate_pairs(scan.sections)
        ]

    classified = timed("classify", classify_stage)
    report.pairs = len(classified)

    timeline = WriteTimeline(trace)
    analysis = PairAnalysis(sections=scan.sections, timeline=timeline)

    def benign_stage():
        for first, second, kind in classified:
            if kind == FALSE:
                analysis.benign_cache[(first.uid, second.uid)] = is_benign(
                    first, second, timeline
                )

    timed(
        "benign",
        benign_stage,
        detail=f"{sum(1 for *_, k in classified if k == FALSE)} replay tests",
    )
    for first, second, kind in classified:
        if kind == FALSE:
            benign = analysis.benign_cache[(first.uid, second.uid)]
            kind = BENIGN if benign else TLCP
        analysis.pairs.append(UlcpPair(c1=first, c2=second, kind=kind))
        analysis.breakdown.add(kind)
    report.analysis = analysis

    result = timed("transform", lambda: transform(trace, analysis=analysis))
    report.result = result

    if replay:
        replayer = Replayer(jitter=0.0)
        timed(
            "replay",
            lambda: replayer.replay_transformed(result, seed=seed),
            detail="transformed trace, 1 run",
        )
    # attribute stage time to individual kernels (scan/rewrite/validate/
    # ...) — the registry accumulated while the stages above ran
    report.kernels = kernels.timings()
    return report
