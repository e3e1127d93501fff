"""``bigtrace-1m``: the giant-trace user flow over one ~1M-event file.

Set-up writes the seeded segmented trace (:func:`inputs.write_bigtrace`)
outside the timed region.  One operation is

1. streaming ``api.analyze(path)``;
2. ``build_timeline_segments`` over that analysis;
3. ``api.transform(path)``.

Outputs are checked after the timed region: the streaming analysis
against the in-memory ``analyze_pairs`` over ``load_segmented_columnar``,
the timeline against ``build_timeline`` over the same columnar trace,
and the transformed trace's digest against the pure-Python backend's,
computed in a fresh process.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

import common
import inputs

SETUP_REPEATS = 3
#: one flow takes ~20 s, longer than a run's measuring time; the run
#: still times at least this many, and reports their median
MIN_OPS = 2
WARMUP_EVENTS = 20_000


def trace_digest(trace) -> str:
    """SHA-256 over the schedule and every event field that replay reads."""
    digest = hashlib.sha256()
    digest.update(json.dumps(trace.lock_schedule, sort_keys=True).encode())
    for tid in trace.thread_ids:
        for e in trace.threads[tid]:
            digest.update(
                f"{tid}|{e.uid}|{e.kind}|{e.t}|{e.duration}|{e.lock}|"
                f"{e.t_request}|{e.spin}|{e.shared}|{e.addr}|{e.value}|"
                f"{e.op}|{e.token}\n".encode()
            )
    return digest.hexdigest()


def pair_table(analysis):
    return [(p.c1.uid, p.c2.uid, p.kind) for p in analysis.pairs]


def pairs_digest(pairs) -> str:
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def flow(path):
    """One giant-trace flow: (analysis, timeline, transformed, times)."""
    from repro import api
    from repro.timeline.build import build_timeline_segments
    from repro.trace.segments import open_segmented

    t0 = time.perf_counter()
    analysis = api.analyze(path)
    t1 = time.perf_counter()
    with open_segmented(path) as reader:
        timeline = build_timeline_segments(reader, analysis=analysis)
    t2 = time.perf_counter()
    transformed = api.transform(path)
    t3 = time.perf_counter()
    return analysis, timeline, transformed, (t1 - t0, t2 - t1, t3 - t2)


def setup(seed, work):
    """Write the big trace, then run the flow once on a small one."""
    path = work / "big.seg.jsonl.gz"
    inputs.write_bigtrace(path, seed)
    small = work / "warmup.seg.jsonl.gz"
    inputs.write_bigtrace(small, seed, total=WARMUP_EVENTS)
    flow(small)
    return path


def reference(path):
    """In-memory oracle outputs: pair table and timeline shape."""
    from repro.analysis.pairs import analyze_pairs
    from repro.timeline.build import build_timeline
    from repro.trace.segments import load_segmented_columnar

    core = load_segmented_columnar(path)
    analysis = analyze_pairs(core)
    timeline = build_timeline(core, analysis=analysis)
    return pair_table(analysis), timeline_shape(timeline), len(core)


def timeline_shape(timeline):
    return {tid: len(lane) for tid, lane in timeline.lanes.items()}, \
        timeline.end_time


def check_ops(checks, outputs, ref, python_digest) -> None:
    pairs, shape, events = ref
    want_pairs = pairs_digest(pairs)
    for got_events, got_pairs, timeline, digest in outputs:
        problems = []
        if got_events != events or got_pairs != want_pairs:
            problems.append("streaming analysis differs from analyze_pairs")
        if timeline != shape:
            problems.append("streaming timeline differs from build_timeline")
        if digest != python_digest:
            problems.append("transformed trace differs from the pure-Python "
                            "backend's")
        checks.op("; ".join(problems) or None)


def run(seed: int, seconds: float, trace: bool, work, checks) -> dict:
    if trace:
        path = setup(seed, work)
        _, _, _, times = flow(path)
        return traced_metrics(seed, path, sum(times), checks)

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        path = setup(seed, work)
        setups.append(time.perf_counter() - start)

    outputs, latencies = [], []
    start = time.perf_counter()
    while len(latencies) < MIN_OPS or time.perf_counter() - start < seconds:
        # garbage from the previous operation is collected outside the
        # timed region, so every operation starts from the same heap
        gc.collect()
        analysis, timeline, transformed, times = flow(path)
        latencies.append(sum(times))
        # keep only digests, so one operation's outputs are freed before
        # the next one runs
        outputs.append((analysis.events, pairs_digest(pair_table(analysis)),
                        timeline_shape(timeline), trace_digest(transformed)))
        del analysis, timeline, transformed
    rss = common.peak_rss_mb()

    # the pure-Python transform runs in a fresh process meanwhile
    proc = common.start_probe(["bigtrace", "--path", path, "--digest-only"],
                              env=common.backend_env("python"))
    try:
        ref = reference(path)
    finally:
        python_side = common.probe_output(proc)
    check_ops(checks, outputs, ref, python_side["digest"])
    return {
        "setup_s": common.median(setups),
        "peak_rss_mb": rss,
        "latency_p50_ms": common.percentile(latencies, 50) * 1000,
        "latency_p90_ms": common.percentile(latencies, 90) * 1000,
        "ops_per_s": len(latencies) / sum(latencies),
    }


def traced_metrics(seed, path, untraced_s, checks) -> dict:
    """One traced flow per kernel backend, each in a fresh process."""
    ref = reference(path)
    out = {}
    probes = {}
    for backend in ("numpy", "python"):
        probe = common.run_probe(
            ["bigtrace", "--path", path, "--spans",
             common.WORK / "spans" / f"bigtrace-1m-{seed}-{backend}.json"],
            env=common.backend_env(backend),
        )
        probes[backend] = probe
        for name, seconds in probe["kernels"].items():
            out[f"kernels.{name}.{backend}_s"] = seconds
        for name, seconds in probe["facade"].items():
            out[f"api.{name}.{backend}_s"] = seconds
    pairs, shape, events = ref
    for backend, probe in probes.items():
        problems = []
        if probe["pairs_digest"] != pairs_digest(pairs):
            problems.append(f"{backend} streaming analysis differs from "
                            "analyze_pairs")
        if probe["timeline"] != [shape[0], shape[1]]:
            problems.append(f"{backend} timeline differs from build_timeline")
        if probe["digest"] != probes["python"]["digest"]:
            problems.append("transformed trace differs between backends")
        checks.op("; ".join(problems) or None)

    numpy_probe = probes["numpy"]
    out.update(numpy_probe["layers"])
    out.update(common.overhead(numpy_probe, untraced_s))
    out["analysis.stream_peak_rss_mb"] = numpy_probe["stream_peak_rss_mb"]
    out["trace.materialize_share"] = numpy_probe["materialize_share"]
    facade = numpy_probe["facade"]
    for stage in ("analyze", "timeline", "transform"):
        out[f"api.{stage}_events_per_s"] = events / facade[stage]
    return out
