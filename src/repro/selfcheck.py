"""Self-check harness: verify the pipeline's invariants on a real input.

``run_selfcheck(workload_or_trace)`` exercises the end-to-end guarantees
this reproduction rests on and reports each as pass/fail:

1.  **determinism** — recording the workload twice with one seed yields
    identical traces;
2.  **serialization** — dump/load round-trips the trace bit-for-bit;
3.  **fidelity** — a zero-jitter ELSC replay reproduces the recorded end
    time exactly;
4.  **transformation** — the ULCP-free trace validates, preserves every
    non-lock event uid, and its topology is acyclic;
5.  **correctness** — original and ULCP-free replays agree on final
    memory, or data races are reported (Theorem 1);
6.  **gain-sanity** — the ULCP-free replay is not materially slower than
    the original (DLS bookkeeping bounds the overshoot).

Exposed on the CLI as ``python -m repro selfcheck <workload>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.transform import transform
from repro.races.happens_before import transformed_trace_races
from repro.replay.replayer import Replayer
from repro.replay.schemes import ELSC_S
from repro.trace import serialize
from repro.trace.diff import diff_traces
from repro.trace.trace import Trace
from repro.trace.validate import problems


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self):
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


@dataclass
class SelfCheckReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name=name, passed=passed, detail=detail))

    def render(self) -> str:
        lines = [str(c) for c in self.checks]
        lines.append(
            f"{'all checks passed' if self.ok else 'SELF-CHECK FAILED'} "
            f"({sum(c.passed for c in self.checks)}/{len(self.checks)})"
        )
        return "\n".join(lines)


def run_selfcheck(
    workload=None, *, trace: Optional[Trace] = None, seed: int = 0
) -> SelfCheckReport:
    """Run every invariant check; pass a workload (preferred) or a trace."""
    report = SelfCheckReport()

    if workload is not None:
        # programs() builds fresh generators with re-derived RNG streams,
        # so recording the same workload twice must match exactly
        first = workload.record().trace
        second = workload.record().trace
        determinism = diff_traces(first, second)
        report.add(
            "deterministic recording",
            determinism.identical,
            "" if determinism.identical else determinism.render(limit=3),
        )
        trace = first
    if trace is None:
        raise ValueError("need a workload or a trace")

    issues = problems(trace)
    report.add(
        "trace well-formed", not issues, "; ".join(issues[:3])
    )

    clone = serialize.loads(serialize.dumps(trace))
    round_trip = diff_traces(trace, clone)
    report.add(
        "serialization round-trip",
        round_trip.identical,
        "" if round_trip.identical else round_trip.render(limit=3),
    )

    replayer = Replayer(jitter=0.0)
    replay = replayer.replay(trace, scheme=ELSC_S, seed=seed)
    report.add(
        "ELSC replay reproduces recorded time",
        replay.end_time == trace.end_time,
        f"recorded {trace.end_time}, replayed {replay.end_time}",
    )

    result = transform(trace)
    transform_issues = problems(result.trace)
    report.add(
        "ULCP-free trace well-formed", not transform_issues,
        "; ".join(transform_issues[:3]),
    )
    original_other = [
        e.uid for e in trace.iter_events() if e.kind not in ("acquire", "release")
    ]
    new_other = [
        e.uid
        for e in result.trace.iter_events()
        if e.kind not in ("cs_enter", "cs_exit")
    ]
    report.add("transformation preserves event uids", original_other == new_other)
    try:
        result.topology.toposort()
        report.add("topology acyclic", True)
    except ValueError as exc:
        report.add("topology acyclic", False, str(exc))

    free = replayer.replay_transformed(result, seed=seed)
    memory_ok = replay.final_memory == free.final_memory
    if memory_ok:
        report.add("replays agree on final memory", True)
    else:
        races = transformed_trace_races(result)
        report.add(
            "replays agree on final memory",
            bool(races),
            f"divergence explained by {len(races)} reported race(s)"
            if races
            else "divergence with no reported races",
        )

    overshoot_ok = free.end_time <= replay.end_time * 1.1
    report.add(
        "ULCP-free replay within bounds",
        overshoot_ok,
        f"original {replay.end_time}, free {free.end_time}",
    )

    return report
