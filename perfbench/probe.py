"""One traced (or digest-only) operation in a fresh interpreter.

The kernel backend is fixed when ``repro.kernels`` is imported, so each
backend's figures come from their own process; the parent sets
``REPRO_NO_NUMPY=1`` for the pure-Python one::

    python3 perfbench/probe.py debug-session --seed N --work DIR --spans FILE
    python3 perfbench/probe.py bigtrace --path TRACE --spans FILE
    python3 perfbench/probe.py bigtrace --path TRACE --digest-only

A traced probe wraps each layer's entry points (:mod:`layers`), runs one
warm-up operation untraced, then the measured operation(s) inside an
``op`` span each, writes every span to ``--spans`` and prints one JSON
object: per-layer figures, per-kernel and facade-level seconds, and the
outputs the parent checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

import common


def _traced(tracer):
    """Seconds inside ``op`` spans, and the part of it layer spans cover."""
    own = tracer.self_times()
    total = attributed = 0.0
    for (name, start, end, _, _), s in zip(tracer.spans, own):
        if name == "op":
            total += (end - start) / 1e9
            attributed += (end - start) / 1e9 - s
    return total, attributed


def _finish(tracer, spans_path, result) -> dict:
    from repro import kernels

    import layers

    result["layers"] = layers.layer_metrics(tracer)
    result["kernels"] = {name: entry["seconds"]
                         for name, entry in kernels.timings().items()}
    result["traced_s"], result["attributed_s"] = _traced(tracer)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path)
    return result


def probe_debug(args) -> dict:
    from repro import kernels

    import inputs
    import layers
    import w_debug
    from spans import Tracer

    rotation = inputs.debug_rotation(args.seed)
    work = Path(args.work)
    w_debug.session(rotation[0], work / "probe-warmup.jsonl.gz")
    kernels.reset_timings()
    tracer = Tracer()
    tracer.install(layers.POINTS)
    outputs = []
    for i, spec in enumerate(rotation):
        gc.collect()
        with tracer.span("op"):
            events, html = w_debug.session(spec, work / f"probe{i}.jsonl.gz")
        outputs.append((events, w_debug.breakdown_of(html)))
    tracer.uninstall()
    result = {
        "outputs": outputs,
        "facade": {"record": tracer.inclusive("record"),
                   "report": tracer.inclusive("api.report")},
        "transform_s": tracer.inclusive("analysis.transform"),
    }
    return _finish(tracer, Path(args.spans), result)


def probe_bigtrace(args) -> dict:
    from repro import api

    import w_bigtrace

    if args.digest_only:
        transformed = api.transform(args.path)
        return {"digest": w_bigtrace.trace_digest(transformed),
                "events": len(transformed)}

    from repro import kernels
    from repro.timeline.build import build_timeline_segments
    from repro.trace.segments import open_segmented

    import inputs
    import layers
    from spans import Tracer

    small = Path(args.path).with_name("probe-warmup.seg.jsonl.gz")
    inputs.write_bigtrace(small, 0, total=w_bigtrace.WARMUP_EVENTS)
    w_bigtrace.flow(small)
    kernels.reset_timings()
    tracer = Tracer()
    tracer.install(layers.POINTS)
    with tracer.span("op"):
        analysis = api.analyze(args.path)
        with tracer.span("api.timeline"):
            with open_segmented(args.path) as reader:
                timeline = build_timeline_segments(reader, analysis=analysis)
        stream_rss = common.peak_rss_mb()
        transformed = api.transform(args.path)
    tracer.uninstall()
    pairs = w_bigtrace.pair_table(analysis)
    facade = {stage: tracer.inclusive(f"api.{stage}")
              for stage in ("analyze", "timeline", "transform")}
    result = {
        "digest": w_bigtrace.trace_digest(transformed),
        "pairs_digest": w_bigtrace.pairs_digest(pairs),
        "timeline": list(w_bigtrace.timeline_shape(timeline)),
        "stream_peak_rss_mb": stream_rss,
        "materialize_share": (tracer.inclusive("trace.materialize")
                              / facade["transform"]),
        "facade": facade,
    }
    return _finish(tracer, Path(args.spans), result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("debug-session", "bigtrace"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work")
    parser.add_argument("--path")
    parser.add_argument("--spans")
    parser.add_argument("--digest-only", action="store_true")
    args = parser.parse_args(argv)
    common.use_program()
    run = probe_debug if args.workload == "debug-session" else probe_bigtrace
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
