"""The layer boundaries the traced run wraps, and the per-layer figures.

Each point names a public entry point of one layer of the program (the
facade, the trace format, the analysis, the replay, the debugging
framework, the timeline) and the span its calls record.  Hooks count the
work a call did from its arguments and result, at the same boundary.
"""

from __future__ import annotations


def _count(name, fn):
    def hook(tracer, args, kwargs, result):
        tracer.count(name, fn(args, kwargs, result))
    return hook


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _benign(tracer, args, kwargs, result):
    tracer.count("analysis.benign_tests", 1)
    tracer.count("analysis.benign_true", 1 if result else 0)


def _analysis(tracer, args, kwargs, result):
    tracer.count("analysis.sections", len(result.sections))
    tracer.count("analysis.pairs", len(result.pairs))


#: (module, attribute, span name, hook)
POINTS = [
    ("repro.api", "record", "record",
     _count("record.events",
            lambda a, k, r: len(getattr(r, "trace", r)))),
    ("repro.api", "analyze", "api.analyze", None),
    ("repro.api", "transform", "api.transform", None),
    ("repro.api", "debug", "api.debug", None),
    ("repro.api", "report", "api.report", None),
    ("repro.trace.segments", "write_segmented", "trace.write",
     _count("trace.bytes_written", lambda a, k, index: index.file_size)),
    ("repro.trace.segments", "SegmentedReader.segments", "trace.decode",
     _count("trace.decode_events", lambda a, k, seg: seg.events)),
    ("repro.trace.serialize", "load", "trace.materialize", None),
    ("repro.trace.interning", "ColumnarTrace.to_trace", "trace.materialize",
     None),
    ("repro.analysis.engine", "scan_trace", "analysis.scan", None),
    ("repro.analysis.engine", "scan_segments", "analysis.scan", None),
    ("repro.analysis.pairs", "analyze_pairs", "analysis.classify", _analysis),
    ("repro.analysis.streaming", "analyze_segments", "analysis.classify",
     _analysis),
    ("repro.observe.fold", "run_with_progress", "analysis.classify",
     _analysis),
    ("repro.analysis.streaming", "_collect_benign_evidence",
     "analysis.benign", None),
    ("repro.analysis.benign", "is_benign", "analysis.benign", _benign),
    ("repro.analysis.transform", "transform", "analysis.transform",
     _count("analysis.transform_events_out", lambda a, k, r: len(r.trace))),
    ("repro.replay.replayer", "Replayer.replay", "replay",
     _count("replay.events",
            lambda a, k, r: len(_arg(a, k, 1, "trace")))),
    ("repro.replay.replayer", "Replayer.replay_transformed", "replay",
     _count("replay.events",
            lambda a, k, r: len(_arg(a, k, 1, "result").trace))),
    ("repro.perfdebug.metrics", "evaluate_pairs", "perfdebug.evaluate", None),
    ("repro.perfdebug.report", "render_html_report", "perfdebug.render",
     _count("perfdebug.html_bytes", lambda a, k, r: len(r.encode("utf-8")))),
    ("repro.timeline.build", "build_timeline", "timeline.build",
     _count("timeline.intervals", lambda a, k, r: len(r))),
    ("repro.timeline.build", "build_timeline_segments", "timeline.build",
     _count("timeline.intervals", lambda a, k, r: len(r))),
]

#: span name -> per-layer busy-time metric (self time summed over calls)
BUSY = {
    "record": "record.busy_s",
    "trace.write": "trace.write_s",
    "trace.decode": "trace.decode_s",
    "trace.materialize": "trace.materialize_s",
    "analysis.scan": "analysis.scan_s",
    "analysis.classify": "analysis.classify_s",
    "analysis.benign": "analysis.benign_s",
    "analysis.transform": "analysis.transform_s",
    "replay": "replay.busy_s",
    "perfdebug.evaluate": "perfdebug.evaluate_s",
    "perfdebug.render": "perfdebug.render_s",
    "timeline.build": "timeline.build_s",
}

#: counters reported as they are
COUNTS = (
    "record.events", "trace.bytes_written", "trace.decode_events",
    "analysis.sections", "analysis.pairs", "analysis.benign_tests",
    "analysis.transform_events_out", "replay.events",
    "perfdebug.html_bytes", "timeline.intervals",
)


def layer_metrics(tracer) -> dict:
    """Per-layer busy seconds and work counts from one tracer's spans."""
    totals = tracer.totals()
    out = {metric: totals.get(span, (0, 0.0, 0.0))[1]
           for span, metric in BUSY.items()}
    counts = tracer.counts
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    tests = counts.get("analysis.benign_tests", 0)
    out["analysis.benign_ratio"] = (
        counts.get("analysis.benign_true", 0) / tests if tests else 0.0
    )
    decode_s = out["trace.decode_s"]
    out["trace.decode_events_per_s"] = (
        out["trace.decode_events"] / decode_s if decode_s else 0.0
    )
    return out
