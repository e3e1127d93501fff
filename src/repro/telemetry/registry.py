"""The metric name registry: every metric the pipeline emits, described.

Names are dotted, ``<subsystem>.<noun>[.<detail>]``.  The registry is the
single source of truth for exporters (Prometheus ``# HELP`` lines come
from here) and for the documentation table in ``docs/INTERNALS.md`` §10.
Emitting an unregistered name is allowed — exporters fall back to a
generic description — but every name the core pipeline emits should be
listed here so the inventory stays reviewable.

Conventions:

* counters and histograms carry **deterministic** values only (logical
  event counts, simulated nanoseconds).  Wall-clock time lives in spans.
* ``*_ns`` suffixes are simulated (virtual) nanoseconds, never wall time.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["COUNTERS", "GAUGES", "HISTOGRAMS", "SPANS", "describe", "kind_of"]

#: counter name -> description
COUNTERS: Dict[str, str] = {
    # simulated machine
    "sim.runs": "machine executions completed",
    "sim.simulated_ns": "total simulated nanoseconds across runs",
    "sim.threads": "thread programs run to completion",
    "sim.lock.acquisitions": "lock acquisitions granted",
    "sim.lock.contended": "acquisitions that had to wait",
    "sim.wait.spin_ns": "simulated ns burned spinning on busy locks",
    "sim.wait.block_ns": "simulated ns spent blocked on busy locks",
    # recording
    "record.traces": "workload executions recorded",
    "record.events": "trace events recorded",
    # analysis
    "analyze.scans": "columnar engine walks (cache misses of the scan memo)",
    "analyze.events_scanned": "events walked by the columnar engine",
    "analyze.sections": "critical sections extracted",
    "analyze.pairs": "same-lock candidate pairs classified",
    "analyze.benign_tests": "reversed-replay benign tests executed",
    "analyze.degraded_to_stream": "full loads degraded to the streaming "
                                  "path under memory pressure",
    "analyze.segments_resumed": "segments fast-forwarded from a checkpoint "
                                "instead of rescanned",
    "analyze.segments_folded": "segments folded by the incremental "
                               "(watch/progress) analysis",
    "analyze.early_stop": "watches stopped early by a stable top-K ranking",
    "segments.reindexed": "segment indexes rebuilt from a sidecar-less file",
    "segments.cores_shared": "segmented loads answered by a live decoded "
                             "core instead of a decode",
    "ulcp.null_lock": "pairs classified null-lock",
    "ulcp.read_read": "pairs classified read-read",
    "ulcp.disjoint_write": "pairs classified disjoint-write",
    "ulcp.benign": "pairs classified benign via reversed replay",
    "ulcp.tlcp": "pairs classified as true lock contention",
    # transformation
    "transform.runs": "ULCP transformations completed",
    "transform.removed_sections": "critical sections removed by RULE 1-4",
    "transform.aux_locks": "auxiliary locks introduced by the resync plan",
    "transform.causal_edges": "causal edges in the ULCP-free topology",
    "transform.order_edges": "order edges in the ULCP-free topology",
    # replay
    "replay.runs": "replays executed (any scheme)",
    "replay.simulated_ns": "simulated ns accumulated across replays",
    "replay.elsc_stalls": "acquire attempts vetoed by the ELSC schedule",
    # worker pool / supervisor
    "pool.tasks": "tasks submitted to parallel_map",
    "pool.retries": "task attempts retried after a transient failure",
    "pool.crashes": "worker crashes observed",
    "pool.timeouts": "task attempts that exceeded their budget",
    "pool.quarantined": "tasks quarantined as TaskFailure results",
    # result cache
    "cache.trace.hits": "trace cache hits",
    "cache.trace.misses": "trace cache misses",
    "cache.blob.hits": "result blob cache hits",
    "cache.blob.misses": "result blob cache misses",
    "cache.corrupt_dropped": "corrupt cache entries dropped as misses",
    # salvage loader
    "salvage.loads": "trace loads attempted in salvage mode",
    "salvage.events_dropped": "events trimmed while salvaging damaged traces",
    # HTTP service (repro serve)
    "serve.jobs": "service jobs started (one per distinct content key)",
    "serve.computed": "service computations actually executed",
    "serve.dedup.inflight": "requests attached to an already-running job",
    "serve.dedup.done": "requests served from a retained finished job",
    "serve.jobs.async": "requests answered 202 for later polling",
    "serve.quarantined": "service jobs quarantined by the supervised pool",
    "serve.errors": "requests answered with a structured error envelope",
    "serve.requests.analyze": "requests routed to POST /v1/analyze",
    "serve.requests.transform": "requests routed to POST /v1/transform",
    "serve.requests.report": "requests routed to POST /v1/report",
    "serve.requests.timeline": "requests routed to POST /v1/timeline",
    "serve.requests.jobs": "requests routed to GET /v1/jobs/*",
    "serve.requests.health": "requests routed to GET /v1/health",
    "serve.requests.metrics": "requests routed to GET /metrics",
    "serve.requests.events": "requests routed to GET /v1/jobs/*/events (SSE)",
}

#: gauge name -> description
GAUGES: Dict[str, str] = {
    "trace.events": "events in the most recently handled trace",
    "trace.threads": "threads in the most recently handled trace",
    "runner.affinity": "CPU slots available for worker pinning "
                       "(0 = requested but unsupported)",
    "serve.watchers": "SSE event streams currently open",
}

#: histogram name -> description (power-of-two buckets, integer values)
HISTOGRAMS: Dict[str, str] = {
    "replay.end_ns": "simulated end time per replay run",
    "record.trace_events": "events per recorded trace",
    # per-endpoint request latency (wall ms — the one histogram family
    # that is intentionally nondeterministic; it never enters golden
    # comparisons, only the /metrics scrape)
    "serve.latency_ms.analyze": "wall ms per POST /v1/analyze request",
    "serve.latency_ms.transform": "wall ms per POST /v1/transform request",
    "serve.latency_ms.report": "wall ms per POST /v1/report request",
    "serve.latency_ms.timeline": "wall ms per POST /v1/timeline request",
    "serve.latency_ms.jobs": "wall ms per GET /v1/jobs/* request",
    "serve.latency_ms.health": "wall ms per GET /v1/health request",
    "serve.latency_ms.metrics": "wall ms per GET /metrics request",
    "serve.latency_ms.events": "wall ms per GET /v1/jobs/*/events stream",
}

#: span name -> description (wall time; excluded from deterministic exports)
SPANS: Dict[str, str] = {
    "record": "record one workload execution into a trace",
    "analyze.scan_trace": "fused columnar walk (sections + sharedness)",
    "analyze.scan_segments": "streaming segment-by-segment scan pass",
    "analyze.scan_sharded": "fan-out segment scan over pinned workers",
    "analyze.fold_segments": "incremental fold of a segmented trace "
                             "(watch / on_progress)",
    "analyze.pairs": "pair enumeration, Algorithm 1, benign tests",
    "transform": "RULE 1-4 transformation to the ULCP-free trace",
    "replay.run": "one seeded replay on the simulated machine",
    "runner.task": "one supervised task attempt (label: attempt)",
    "experiment.cell": "one experiment cell through the pipeline",
    "profile.stage": "one timed stage of repro profile (label: stage)",
}

_FALLBACK = "unregistered metric (see repro.telemetry.registry)"


def describe(name: str) -> str:
    """Human description of a metric or span name."""
    base = name.split("{", 1)[0]
    for table in (COUNTERS, GAUGES, HISTOGRAMS, SPANS):
        if base in table:
            return table[base]
    return _FALLBACK


def kind_of(name: str) -> str:
    """``counter`` / ``gauge`` / ``histogram`` / ``span`` / ``unknown``."""
    base = name.split("{", 1)[0]
    if base in COUNTERS:
        return "counter"
    if base in GAUGES:
        return "gauge"
    if base in HISTOGRAMS:
        return "histogram"
    if base in SPANS:
        return "span"
    return "unknown"
