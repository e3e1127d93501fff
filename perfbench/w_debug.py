"""``debug-session``: closed loop, one in-process client.

One operation is the two-command user flow ``repro record -o t.jsonl.gz``
then ``repro report t.jsonl.gz``, through the facade: ``api.record`` ->
``write_segmented`` -> ``api.report(path)``.  Sessions run over the
seeded rotation of :data:`inputs.ROTATION`, whole rotations at a time,
so every run measures the same mix.  Each report's ULCP breakdown is
checked against ``analysis.reference`` on the same trace, computed
during set-up.
"""

from __future__ import annotations

import gc
import re
import time

import common
import inputs

_BREAKDOWN = re.compile(
    r"ULCPs: null-lock (\d+), read-read (\d+), disjoint-write (\d+), "
    r"benign (\d+) \(TLCPs (\d+)\)"
)
SETUP_REPEATS = 3
#: a run times at least this many whole rotations (~15-20 s), so a slow
#: spell of a shared host moves its figures less
MIN_ROTATIONS = 4


def breakdown_of(html: str):
    match = _BREAKDOWN.search(html)
    return tuple(int(g) for g in match.groups()) if match else None


def session(spec, path):
    """One record -> write -> report session; returns (events, html)."""
    from repro import api
    from repro.trace.segments import write_segmented

    name, scale, sim_seed = spec
    trace = api.record(name, threads=inputs.DEBUG_THREADS, scale=scale,
                       seed=sim_seed)
    write_segmented(trace, path)
    return len(trace), api.report(path)


def expected_outputs(rotation):
    """(events, reference breakdown) per session, from the oracle."""
    from repro import api
    from repro.analysis.reference import analyze_pairs_reference

    expected = []
    for name, scale, sim_seed in rotation:
        trace = api.record(name, threads=inputs.DEBUG_THREADS, scale=scale,
                           seed=sim_seed)
        b = analyze_pairs_reference(trace).breakdown
        expected.append((len(trace), (b.null_lock, b.read_read,
                                      b.disjoint_write, b.benign, b.tlcp)))
    return expected


def check_session(checks, spec, want, events, html) -> None:
    got = (events, breakdown_of(html))
    checks.op(None if got == want else
              f"debug-session {spec}: got {got}, reference {want}")


def setup(rotation, work):
    """Reference outputs plus one warm-up session (imports, first calls)."""
    expected = expected_outputs(rotation)
    smallest = min(range(len(rotation)), key=lambda i: expected[i][0])
    session(rotation[smallest], work / "warmup.seg.jsonl.gz")
    return expected


def run_rotation(rotation, expected, work, checks):
    """One pass over the rotation; returns per-session seconds."""
    latencies = []
    for i, spec in enumerate(rotation):
        path = work / f"t{i}.jsonl.gz"
        # the previous session's garbage is collected outside the timed
        # region, so the session order does not decide what a session pays
        gc.collect()
        start = time.perf_counter()
        events, html = session(spec, path)
        latencies.append(time.perf_counter() - start)
        check_session(checks, spec, expected[i], events, html)
    return latencies


def run(seed: int, seconds: float, trace: bool, work, checks) -> dict:
    rotation = inputs.debug_rotation(seed)
    if trace:
        expected = setup(rotation, work)
        untraced = run_rotation(rotation, expected, work, checks)
        return traced_metrics(seed, rotation, expected, untraced, work,
                              checks)

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        expected = setup(rotation, work)
        setups.append(time.perf_counter() - start)

    latencies = []
    start = time.perf_counter()
    rotations = 0
    while rotations < MIN_ROTATIONS or time.perf_counter() - start < seconds:
        latencies += run_rotation(rotation, expected, work, checks)
        rotations += 1
    return {
        "setup_s": common.median(setups),
        "peak_rss_mb": common.peak_rss_mb(),
        "latency_p50_ms": common.percentile(latencies, 50) * 1000,
        "latency_p90_ms": common.percentile(latencies, 90) * 1000,
        "ops_per_s": len(latencies) / sum(latencies),
    }


def traced_metrics(seed, rotation, expected, untraced, work, checks) -> dict:
    """One traced rotation per kernel backend, each in a fresh process."""
    out = {}
    probes = {}
    for backend in ("numpy", "python"):
        spans = common.WORK / "spans" / f"debug-session-{seed}-{backend}.json"
        probe = common.run_probe(
            ["debug-session", "--seed", seed, "--work", work,
             "--spans", spans],
            env=common.backend_env(backend),
        )
        probes[backend] = probe
        for i, spec in enumerate(rotation):
            events, breakdown = probe["outputs"][i]
            got = (events, tuple(breakdown) if breakdown else None)
            checks.op(None if got == expected[i] else
                      f"{backend} probe {spec}: got {got}, "
                      f"reference {expected[i]}")
        for name, seconds in probe["kernels"].items():
            out[f"kernels.{name}.{backend}_s"] = seconds
        for name, seconds in probe["facade"].items():
            out[f"api.{name}.{backend}_s"] = seconds
    numpy_probe = probes["numpy"]
    out.update(numpy_probe["layers"])
    out.update(common.overhead(numpy_probe, sum(untraced)))
    out["analysis.transform_share"] = (numpy_probe["transform_s"]
                                       / numpy_probe["traced_s"])
    return out

