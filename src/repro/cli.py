"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show registered workloads (by category) and experiment names.
``record WORKLOAD -o TRACE``
    Record a workload execution into a JSONL trace file (a ``.gz``
    suffix writes the compressed ``.jsonl.gz`` format;
    ``--segment-events N`` writes the segmented streaming format).
``convert IN OUT [--segment-events N] [--monolithic]``
    Convert a trace file to the segmented streaming format (or back,
    with ``--monolithic``).  Both formats hold identical traces; the
    segmented one lets ``stats``/``analyze``/``timeline`` run in memory
    bounded by one segment.
``replay TRACE [--scheme S] [--runs N] [--jobs N]``
    Replay a trace under one of the four schemes; prints timing stats.
    ``--jobs N`` runs the repeated seeded replays in parallel.
``transform TRACE [-o OUT]``
    Run the ULCP transformation; prints the breakdown and plan summary.
``debug WORKLOAD | debug --trace TRACE``
    Full PERFPLAY pipeline; prints the recommendation report.
``timeline TRACE [--format ascii|chrome|json] [-o OUT]``
    Per-thread activity lanes: ascii art on the terminal, Chrome
    trace-event JSON for Perfetto/chrome://tracing (ULCP-classified
    slices, waiter→holder flow arrows), or compact columnar JSON for
    programmatic diffing.
``report TRACE|WORKLOAD [TRANSFORMED] [-o REPORT.html]``
    Render the whole debugging session as one self-contained HTML file:
    original-vs-transformed waterfalls, per-lock contention heatmap,
    Eq. 1 / Eq. 2 tables, fused regions, telemetry summary.  A second
    positional trace supplies an already-saved ULCP-free trace for the
    right-hand waterfall.
``profile WORKLOAD | profile --trace TRACE``
    Per-stage wall times of the pipeline (record/intern/scan/classify/
    benign/transform/replay) plus event/section/pair counts.
``experiment NAME [--jobs N] [--cache-dir DIR | --no-cache]``
    Regenerate one of the paper's tables/figures (or ``all``).
    ``--jobs N`` fans independent cells over a worker pool; output is
    bit-for-bit identical to a serial run.  Results are memoized in a
    content-addressed on-disk cache (default ``.repro-cache/``).
``resume RUN_ID``
    Continue an ``experiment --run-id RUN_ID`` run that was killed:
    the journal under the cache root replays the original invocation,
    completed tasks are skipped, and the output is identical to an
    uninterrupted run.
``chaos [--cycles N] [--seed S]``
    Seeded kill->resume soak harness: crash the pipeline at named
    crash-points, resume, and verify cache/journal/trace invariants.
``cache info | cache clear [--cache-dir DIR]``
    Inspect or empty the on-disk result cache.
``sensitivity WORKLOAD``
    Cross-input robustness classification of the recommendations.
``stats TRACE`` / ``locks TRACE``
    Structural summary / per-lock contention profile of a trace.
``advise WORKLOAD`` / ``fix WORKLOAD --lock L --fix F``
    Per-category fix strategies with measured gains; apply one and verify.
``analyze TRACE [--format text|json]``
    Identify and classify the ULCP pairs of a trace (no transformation).
``watch TRACE [--interval S] [--until-stable N] [--format text|json]``
    Live incremental analysis of a segmented trace — including one still
    being written by ``repro record --segment-events`` in another
    process.  Repaints a progress snapshot per folded segment (events,
    ULCP breakdown, per-lock contention, Eq. 2 top-K ranking);
    ``--format json`` prints one canonical snapshot per line instead.
    ``--until-stable N`` stops early once the top-K ranking has held for
    N consecutive snapshots (exit 3); with ``--resume RUN_ID`` the
    fold's checkpoint lets a later ``repro analyze --resume RUN_ID``
    continue without redoing the folded segments.  The final snapshot's
    ``result`` is byte-identical to ``repro analyze --format json``
    (``--final-output PATH`` writes exactly that envelope).
``selfcheck WORKLOAD``
    Verify the pipeline invariants (determinism, exact ELSC replay, ...).
``faults list | faults demo``
    Show the fault-injection sites, or run the end-to-end recovery demo
    (worker crash retried, poison task quarantined, truncated trace
    salvaged).
``telemetry FILE [--format json|prom|summary]``
    Render a saved ``TELEMETRY.json`` artifact.
``serve [--port P] [--workers N] [--cache-dir DIR]``
    Run the multi-tenant HTTP analysis service: ``POST
    /v1/analyze|transform|report|timeline`` (sync or ``mode=async`` with
    ``GET /v1/jobs/<id>`` polling), Prometheus metrics at ``/metrics``.
    Identical concurrent requests share one computation; failures come
    back as the structured v1 error envelope.  See ``docs/SERVICE.md``.
``loadtest [--url URL] [--clients N] [--seed S]``
    Seeded synthetic load (mixed trace sizes, configurable read/compute
    mix) against a running server — or an in-process one with no
    ``--url`` — publishing p50/p99 latency and throughput as
    ``BENCH_serve.json``.  ``--fail-on-errors`` / ``--max-p99-ms`` turn
    it into the CI smoke gate.

Commands printing ``--format json`` output emit the same versioned v1
envelope the HTTP service speaks — ``{"v": 1, "ok": true, "result":
...}`` — built by the same code, so local and served output are
byte-identical for the same input.  Errors print as ``error: [<code>]
<message>`` with the envelope's stable code.

Every command that reads a TRACE file accepts ``--salvage`` to recover
the longest well-formed prefix of a damaged file instead of failing
(``--strict``, the default, rejects any damage).  ``stats``, ``analyze``
and ``timeline`` (chrome/json formats) additionally accept
``--stream``/``--no-stream``: segmented files stream segment by segment
in bounded memory (the default for them), with output identical to a
full load.

Every pipeline command (record/analyze/transform/replay/debug/profile/
experiment/...) accepts ``--telemetry [PATH]`` to collect spans and
metrics for the invocation (``--telemetry-format json|prom|summary``
picks the artifact format; ``--telemetry-timings`` includes wall-clock
span durations, at the price of nondeterministic output).  All pipeline
commands call through the :mod:`repro.api` facade.

Global flags (before the subcommand): ``--log-level
debug|info|warning|error`` and ``--log-json`` configure the package's
structured diagnostics (:mod:`repro.log`) — worker retries and
quarantines, trace-salvage events, run ids from the facade.

Exit codes: 0 success, 1 error, 2 usage, 3 completed but degraded
(quarantined or budget-stopped cells under ``--partial``), 130
interrupted (SIGINT) after journal/telemetry were flushed.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import api, log, telemetry
from repro.options import AnalyzeOptions, ReplayOptions, ReportOptions
from repro.perfdebug.framework import PerfPlay
from repro.replay.schemes import ALL_SCHEMES, ELSC_S
from repro.trace import serialize
from repro.workloads import get_workload, workload_names

# Process exit codes, stable across releases (documented in the README):
# 0 clean success, 1 error, 2 usage, 3 completed-but-degraded (quarantined
# or budget-stopped cells under --partial), 130 operator interrupt
# (SIGINT), issued only after journal and telemetry were flushed.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_INTERRUPTED = 130


def _add_workload_options(parser):
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--input-size", default="simlarge",
                        choices=("simsmall", "simmedium", "simlarge"))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)


def _add_format_option(parser, choices=("text", "json"), default="text"):
    parser.add_argument("--format", choices=choices, default=default,
                        help="output format (default: %(default)s)")


def _add_telemetry_options(parser):
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--telemetry", nargs="?", const="", default=None, metavar="PATH",
        help="collect telemetry for this invocation; PATH defaults to "
             "TELEMETRY.json / TELEMETRY.prom next to the cwd ('-' prints "
             "to stdout)",
    )
    group.add_argument(
        "--telemetry-format", choices=telemetry.EXPORT_FORMATS,
        default="json", help="telemetry artifact format (default: json)",
    )
    group.add_argument(
        "--telemetry-timings", action="store_true",
        help="include wall-clock span durations in the artifact "
             "(nondeterministic across runs)",
    )


def _add_trace_options(parser):
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--salvage", action="store_true",
                      help="recover the longest well-formed prefix of a "
                           "damaged trace file instead of failing")
    mode.add_argument("--strict", dest="salvage", action="store_false",
                      help="reject any damage in the trace file (default)")
    parser.set_defaults(salvage=False)


def _add_stream_option(parser):
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--stream", action="store_true", dest="stream",
                      default=None,
                      help="stream the trace segment by segment in bounded "
                           "memory (requires a segmented file; see "
                           "'repro convert')")
    mode.add_argument("--no-stream", action="store_false", dest="stream",
                      help="always load the whole trace (default: stream "
                           "automatically for segmented files)")


def _want_stream(path, args) -> bool | str:
    """Resolve ``--stream/--no-stream`` (default: auto) for a trace path.

    Returns the :attr:`AnalyzeOptions.stream` value for the path: ``False``
    loads the whole trace, ``True`` (an explicit ``--stream``) streams,
    and ``"auto"`` — also truthy — hands a segmented file to the facade,
    whose auto rule picks between streaming and one shared decode.  Auto
    applies exactly when the file is segmented and ``--salvage`` was not
    requested (salvage hands the damaged file to the tolerant loader,
    which needs the full-load path).  An explicit ``--stream`` on a
    non-segmented file fails loudly rather than silently loading it all.
    """
    from repro.errors import TraceError
    from repro.trace import segments

    stream = getattr(args, "stream", None)
    if stream is False:
        return False
    segmented = segments.is_segmented_file(path)
    if stream is True:
        if getattr(args, "salvage", False):
            raise TraceError("--stream and --salvage are incompatible "
                             "(salvage needs the full-load path)")
        if not segmented:
            raise TraceError(
                f"--stream requires a segmented trace file, but {path} is "
                "monolithic; convert it first: repro convert IN OUT"
            )
        return True
    if segmented and not getattr(args, "salvage", False):
        return "auto"
    return False


def _load_trace(path, args):
    """Load a trace honouring the command's ``--salvage``/``--strict``."""
    import warnings

    if not getattr(args, "salvage", False):
        return serialize.load(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loaded = serialize.load_trace(path, salvage=True)
    if loaded.report is not None and not loaded.report.clean:
        log.get_logger("cli").warning(
            "salvage: %s", loaded.report.render(),
            extra={"event": "cli.salvage", "source": str(path)},
        )
    return loaded.trace


def _emit_json(result) -> None:
    """Print a v1 success envelope (the CLI's ``--format json`` contract).

    The body is built by the same :mod:`repro.serve.protocol` result
    builders and canonical encoder the HTTP service uses, so local JSON
    output is byte-identical to the server's response for the same input.
    """
    from repro.serve import protocol

    print(protocol.wire_dumps(protocol.ok_envelope(result)), end="")


def _workload_from(args):
    return get_workload(
        args.workload,
        threads=args.threads,
        input_size=args.input_size,
        scale=args.scale,
        seed=args.seed,
    )


def cmd_list(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    print("real-world workloads:")
    for name in workload_names(category="realworld"):
        print(f"  {name}")
    print("PARSEC workloads:")
    for name in workload_names(category="parsec"):
        print(f"  {name}")
    print("bug cases:")
    for name in workload_names(category="bug"):
        print(f"  {name}")
    print("experiments:")
    for name in ALL_EXPERIMENTS:
        print(f"  {name}")
    return 0


def cmd_record(args) -> int:
    recorded = api.record(_workload_from(args), seed=args.seed, full=True)
    if args.segment_events is not None:
        from repro.trace.segments import write_segmented

        write_segmented(
            recorded.trace, args.output, segment_events=args.segment_events
        )
    else:
        serialize.dump(recorded.trace, args.output)
    print(
        f"recorded {args.workload}: {len(recorded.trace)} events, "
        f"{recorded.recorded_time} ns -> {args.output}"
    )
    return 0


def cmd_convert(args) -> int:
    from repro.trace.segments import DEFAULT_SEGMENT_EVENTS, write_segmented

    trace = _load_trace(args.input, args)
    if args.monolithic:
        serialize.dump(trace, args.output)
        print(f"converted {args.input} -> {args.output} (monolithic)")
        return 0
    segment_events = args.segment_events or DEFAULT_SEGMENT_EVENTS
    index = write_segmented(trace, args.output, segment_events=segment_events)
    print(
        f"converted {args.input} -> {args.output} "
        f"({len(index.segments)} segments x {segment_events} events)"
    )
    return 0


def cmd_replay(args) -> int:
    trace = _load_trace(args.trace, args)
    result = api.replay(trace, ReplayOptions(
        scheme=args.scheme, runs=args.runs, seed=args.seed,
        jitter=args.jitter, jobs=args.jobs,
    ))
    if args.runs <= 1:  # a single run comes back as one ReplayResult
        from repro.replay.results import ReplaySeries

        series = ReplaySeries(scheme=args.scheme)
        series.runs.append(result)
    else:
        series = result
    summary = series.summary()
    print(f"scheme={args.scheme} runs={args.runs}")
    print(f"recorded time : {trace.end_time} ns")
    print(f"mean replay   : {summary.mean:.0f} ns")
    print(f"stdev         : {summary.stdev:.1f} ns")
    print(f"spread        : {summary.spread} ns")
    return 0


def cmd_analyze(args) -> int:
    if args.jobs > 1 and args.resume is not None:
        print("error: --jobs fans the scan out, --resume checkpoints it; "
              "pick one", file=sys.stderr)
        return EXIT_USAGE
    stream = _want_stream(args.trace, args)
    if stream:
        analysis = api.analyze(args.trace, AnalyzeOptions(
            benign_detection=not args.no_benign, stream=stream,
            resume=args.resume, checkpoint_every=args.checkpoint_every,
            jobs=args.jobs,
        ))
    else:
        if args.resume is not None:
            print("error: --resume needs a segmented trace file and the "
                  "streaming path (see 'repro convert')", file=sys.stderr)
            return EXIT_USAGE
        if args.jobs > 1:
            print("error: --jobs needs a segmented trace file and the "
                  "streaming path (see 'repro convert')", file=sys.stderr)
            return EXIT_USAGE
        trace = _load_trace(args.trace, args)
        analysis = api.analyze(trace, AnalyzeOptions(
            benign_detection=not args.no_benign, stream=False
        ))
    breakdown = analysis.breakdown
    if args.format == "json":
        from repro.serve import protocol

        _emit_json(protocol.analyze_result(analysis))
        return 0
    print(f"events            : {analysis.events}")
    print(f"critical sections : {len(analysis.sections)}")
    print(f"candidate pairs   : {len(analysis.pairs)}")
    print(
        "ULCP pairs        : "
        f"null-lock={breakdown.null_lock} read-read={breakdown.read_read} "
        f"disjoint-write={breakdown.disjoint_write} benign={breakdown.benign} "
        f"(TLCP={breakdown.tlcp})"
    )
    return 0


def cmd_watch(args) -> int:
    from repro.observe import render_snapshot, snapshot_dumps, watch

    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.until_stable < 0:
        print("error: --until-stable must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    from pathlib import Path

    from repro.trace import segments as _segments

    target = Path(args.trace)
    if target.exists() and not _segments.is_segmented_file(target):
        print(f"error: {args.trace} is not a segmented trace file; watch "
              "follows the segmented streaming format (see 'repro convert' "
              "or 'repro record --segment-events')", file=sys.stderr)
        return EXIT_USAGE

    is_tty = sys.stdout.isatty()

    def on_snapshot(snap: dict) -> None:
        if args.format == "json":
            sys.stdout.write(snapshot_dumps(snap))
        else:
            if is_tty:
                sys.stdout.write("\x1b[H\x1b[2J")  # repaint in place
            sys.stdout.write(render_snapshot(snap))
        sys.stdout.flush()

    result = watch(
        args.trace,
        on_snapshot=on_snapshot,
        interval=args.interval,
        grace=args.grace,
        until_stable=args.until_stable,
        top_k=args.top,
        benign_detection=not args.no_benign,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
    )
    if result.complete and args.final_output:
        from repro.serve import protocol

        Path(args.final_output).write_text(
            protocol.wire_dumps(
                protocol.ok_envelope(result.final_snapshot["result"])
            ),
            encoding="utf-8",
        )
    if result.stalled:
        print(f"watch: {args.trace} stopped growing without a footer "
              f"(waited {args.grace:.0f}s); partial results stand",
              file=sys.stderr)
        return EXIT_PARTIAL
    if result.early_stopped:
        note = " (checkpoint saved)" if result.checkpoint_saved else ""
        print(f"watch: ranking stable for {args.until_stable} consecutive "
              f"snapshots after {result.segments} segments; "
              f"stopping early{note}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_transform(args) -> int:
    # without --salvage the facade loads the path itself (segmented
    # files take its columnar route)
    source = _load_trace(args.trace, args) if args.salvage else args.trace
    result = api.transform(source, full=True)
    breakdown = result.analysis.breakdown
    print(f"critical sections : {len(result.sections)}")
    print(
        "ULCP pairs        : "
        f"null-lock={breakdown.null_lock} read-read={breakdown.read_read} "
        f"disjoint-write={breakdown.disjoint_write} benign={breakdown.benign} "
        f"(TLCP={breakdown.tlcp})"
    )
    print(f"causal edges      : {len(result.topology.causal_edges())}")
    print(f"order edges       : {len(result.topology.order_edges())}")
    print(f"removed sections  : {result.removed_sections}")
    print(f"auxiliary locks   : {len(result.plan.aux_locks)}")
    if args.output:
        serialize.dump(result.trace, args.output)
        print(f"ULCP-free trace -> {args.output}")
    return 0


def cmd_debug(args) -> int:
    if args.trace:
        source = _load_trace(args.trace, args)
    else:
        if not args.workload:
            print("debug: need a WORKLOAD or --trace FILE", file=sys.stderr)
            return 2
        source = _workload_from(args)
    report = api.debug(source, seed=args.seed, jitter=args.jitter)
    print(report.render())
    return 0


def cmd_profile(args) -> int:
    from repro.profiling import profile_pipeline

    if args.trace:
        trace = _load_trace(args.trace, args)
        report = profile_pipeline(
            trace=trace, seed=args.seed, replay=not args.no_replay
        )
    else:
        if not args.workload:
            print("profile: need a WORKLOAD or --trace FILE", file=sys.stderr)
            return 2
        report = profile_pipeline(
            workload=_workload_from(args),
            seed=args.seed,
            replay=not args.no_replay,
        )
    if args.format == "json":
        from repro.serve import protocol

        _emit_json(protocol.profile_result(report))
        return 0
    print(report.render())
    return 0


def cmd_timeline(args) -> int:
    # the ascii renderer needs whole-thread views, so only the chrome/json
    # formats have a streaming path
    stream = args.format != "ascii" and _want_stream(args.trace, args)
    if stream:
        return _cmd_timeline_stream(args, stream)
    trace = _load_trace(args.trace, args)
    if args.format == "ascii":
        from repro.trace.render import render_timeline

        print(render_timeline(trace, width=args.width))
        return 0

    from repro.analysis.pairs import analyze_pairs
    from repro.timeline import build_timeline, to_chrome_json, to_columnar_json

    analysis = analyze_pairs(trace, benign_detection=not args.no_benign)
    timeline = build_timeline(trace, analysis=analysis)
    return _emit_timeline(timeline, args)


def _cmd_timeline_stream(args, stream) -> int:
    from repro.timeline import build_timeline_segments
    from repro.trace.segments import open_segmented

    # under the auto rule the analysis holds the file's decoded core, and
    # the timeline build below reuses it instead of decoding again
    analysis = api.analyze(args.trace, AnalyzeOptions(
        benign_detection=not args.no_benign, stream=stream,
    ))
    with open_segmented(args.trace) as reader:
        timeline = build_timeline_segments(reader, analysis=analysis)
    return _emit_timeline(timeline, args)


def _emit_timeline(timeline, args) -> int:
    from repro.timeline import to_chrome_json, to_columnar_json

    text = (
        to_chrome_json(timeline)
        if args.format == "chrome"
        else to_columnar_json(timeline)
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"timeline ({args.format}) -> {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_report(args) -> int:
    from pathlib import Path

    source = args.trace
    if Path(source).exists():
        source = _load_trace(source, args)
    transformed = (
        _load_trace(args.transformed, args) if args.transformed else None
    )
    html_text = api.report(
        source,
        transformed,
        ReportOptions(
            threads=args.threads,
            input_size=args.input_size,
            scale=args.scale,
            seed=args.seed,
        ),
        output=args.output,
        telemetry=telemetry.active(),
    )
    print(f"report -> {args.output} ({len(html_text)} bytes)", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    from repro.trace.stats import stats_segments, trace_stats

    if _want_stream(args.trace, args):
        from repro.trace.segments import open_segmented

        with open_segmented(args.trace) as reader:
            stats = stats_segments(reader)
    else:
        trace = _load_trace(args.trace, args)
        stats = trace_stats(trace)
    if args.format == "json":
        from repro.serve import protocol

        _emit_json(protocol.stats_result(stats))
        return 0
    print(stats.render())
    return 0


def cmd_advise(args) -> int:
    from repro.perfdebug.advisor import advise

    if args.trace:
        trace = _load_trace(args.trace, args)
    else:
        if not args.workload:
            print("advise: need a WORKLOAD or --trace FILE", file=sys.stderr)
            return 2
        trace = api.record(_workload_from(args), seed=args.seed)
    print(advise(trace).render())
    return 0


def cmd_locks(args) -> int:
    from repro.perfdebug.lockstats import profile_locks, render_lock_profiles

    trace = _load_trace(args.trace, args)
    profiles = profile_locks(trace)
    if args.format == "json":
        from repro.serve import protocol

        _emit_json(protocol.locks_result(profiles, limit=args.limit))
        return 0
    print(render_lock_profiles(profiles, limit=args.limit))
    return 0


def cmd_fix(args) -> int:
    from repro.perfdebug.rewrite import FIXES, try_fix

    if args.trace:
        trace = _load_trace(args.trace, args)
    else:
        if not args.workload:
            print("fix: need a WORKLOAD or --trace FILE", file=sys.stderr)
            return 2
        trace = api.record(_workload_from(args), seed=args.seed)
    if args.fix not in FIXES:
        print(f"unknown fix {args.fix!r}; known: {', '.join(sorted(FIXES))}",
              file=sys.stderr)
        return 2
    outcome = try_fix(trace, args.lock, args.fix)
    print(outcome)
    return 0


def cmd_selfcheck(args) -> int:
    from repro.selfcheck import run_selfcheck

    if args.trace:
        report = run_selfcheck(trace=_load_trace(args.trace, args))
    else:
        if not args.workload:
            print("selfcheck: need a WORKLOAD or --trace FILE", file=sys.stderr)
            return 2
        report = run_selfcheck(_workload_from(args))
    print(report.render())
    return 0 if report.ok else 1


def cmd_compare(args) -> int:
    from repro.perfdebug.compare import compare_reports

    perfplay = PerfPlay()
    before = perfplay.analyze(_load_trace(args.before, args))
    after = perfplay.analyze(_load_trace(args.after, args))
    comparison = compare_reports(before, after)
    print(comparison.render())
    return 0


def _experiment_spec(args) -> dict:
    """The resumable description of an ``experiment`` invocation.

    Everything needed to re-run the command identically lives here; the
    journal stores it in its header so ``repro resume RUN_ID`` can
    rebuild the invocation without the original command line.
    """
    return {
        "name": args.name,
        "jobs": args.jobs,
        "task_timeout": args.task_timeout,
        "retries": args.retries,
        "partial": args.partial,
        "fault": list(args.fault),
        "fault_seed": args.fault_seed,
        "deadline": args.deadline,
        "max_rss": args.max_rss,
    }


def _run_experiment(spec: dict, root, run_id=None) -> int:
    """Run experiment(s) per ``spec`` — shared by experiment and resume.

    With ``run_id`` (and a cache root to keep the ledger in), progress is
    journaled task by task: a killed run re-invoked as ``repro resume
    RUN_ID`` skips every task whose result the journal already holds and
    produces output identical to an uninterrupted run.
    """
    import contextlib

    from repro import faults
    from repro.experiments import ALL_EXPERIMENTS
    from repro.runner import ExecPolicy, RunBudget, cache, use_budget
    from repro.runner import journal as journal_mod
    from repro.runner.journal import use_journal
    from repro.runner.pool import RUN_STATS

    if spec["name"] == "all":
        names = list(ALL_EXPERIMENTS)
    elif spec["name"] in ALL_EXPERIMENTS:
        names = [spec["name"]]
    else:
        print(f"unknown experiment {spec['name']!r}; known: "
              f"{', '.join(ALL_EXPERIMENTS)} or 'all'", file=sys.stderr)
        return EXIT_USAGE
    policy = None
    if spec["partial"] or spec["retries"] or spec["task_timeout"] is not None:
        policy = ExecPolicy(
            timeout=spec["task_timeout"],
            retries=spec["retries"],
            partial=spec["partial"],
        )
    injection = contextlib.nullcontext()
    if spec["fault"]:
        plan = faults.FaultPlan.parse(spec["fault"], seed=spec["fault_seed"])
        injection = faults.use_plan(plan)
    budget_ctx = contextlib.nullcontext()
    if spec.get("deadline") is not None or spec.get("max_rss") is not None:
        budget_ctx = use_budget(RunBudget(
            deadline=spec.get("deadline"), max_rss_mb=spec.get("max_rss"),
        ))
    RUN_STATS.reset()
    with injection, cache.use_cache(root), budget_ctx:
        journal_ctx = contextlib.nullcontext()
        if run_id is not None:
            store = cache.active()
            if store is None:
                print("error: --run-id needs the on-disk cache "
                      "(drop --no-cache)", file=sys.stderr)
                return EXIT_USAGE
            run_id = journal_mod.sanitize_run_id(run_id)
            if journal_mod.journal_path(store.root, run_id).exists():
                journal = journal_mod.RunJournal.attach(store.root, run_id)
            else:
                journal = journal_mod.RunJournal.create(store.root, run_id, spec)
            journal_ctx = contextlib.ExitStack()
            journal_ctx.enter_context(journal)
            journal_ctx.enter_context(use_journal(journal))
        with journal_ctx:
            for name in names:
                ALL_EXPERIMENTS[name].main(jobs=spec["jobs"], policy=policy)
                print()
    return EXIT_PARTIAL if RUN_STATS.degraded() else EXIT_OK


def cmd_experiment(args) -> int:
    from repro.runner import cache

    if args.no_cache:
        root = None
    elif args.cache_dir:
        root = args.cache_dir
    else:
        root = cache.default_cache_dir()
    if args.run_id is not None and root is None:
        print("error: --run-id needs the on-disk cache (drop --no-cache)",
              file=sys.stderr)
        return EXIT_USAGE
    return _run_experiment(_experiment_spec(args), root, run_id=args.run_id)


def cmd_resume(args) -> int:
    from repro.runner import cache
    from repro.runner import journal as journal_mod

    root = args.cache_dir or cache.default_cache_dir()
    from pathlib import Path

    run_id = journal_mod.sanitize_run_id(args.run_id)
    path = journal_mod.journal_path(Path(root), run_id)
    if not path.exists():
        known = journal_mod.list_runs(Path(root))
        hint = f" (known runs: {', '.join(known)})" if known else ""
        print(f"error: no journal for run {run_id!r} under {root}{hint}",
              file=sys.stderr)
        return EXIT_USAGE
    header, _events, skipped = journal_mod.read_journal(path)
    if skipped:
        log.get_logger("cli").warning(
            "journal %s: %d malformed line(s) ignored", run_id, skipped,
            extra={"event": "cli.journal_skipped", "run_id": run_id},
        )
    spec = dict(header.get("spec") or {})
    if not spec.get("name"):
        print(f"error: journal {run_id!r} has no resumable experiment spec",
              file=sys.stderr)
        return EXIT_USAGE
    if args.jobs is not None:
        # worker count does not affect results, so it is fair game to
        # override on resume; everything else must replay the original
        spec["jobs"] = args.jobs
    print(f"resuming run {run_id}: experiment {spec['name']}")
    return _run_experiment(spec, root, run_id=run_id)


def cmd_chaos(args) -> int:
    from repro.chaos.harness import OPS, run_soak

    unknown = [op for op in (args.ops or ()) if op not in OPS]
    if unknown:
        print(f"error: unknown chaos ops {unknown}; known: {list(OPS)}",
              file=sys.stderr)
        return EXIT_USAGE
    report = run_soak(
        cycles=args.cycles,
        seed=args.seed,
        ops=args.ops or None,
        keep=args.keep,
    )
    print(report.render())
    if args.report:
        from pathlib import Path

        Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"chaos report -> {args.report}", file=sys.stderr)
    return EXIT_OK if not report.violations else EXIT_ERROR


def cmd_faults(args) -> int:
    from repro import faults

    if args.action == "list":
        print("fault injection sites (use with: experiment --fault SPEC,")
        print("spec syntax: site[@key][:nth=N,times=N,attempt=N,rate=F]):")
        width = max(len(site) for site in faults.SITES)
        for site, description in faults.SITES.items():
            print(f"  {site:<{width}}  {description}")
        return 0
    if args.action == "demo":
        from repro.faults.demo import run_demo

        run_demo(
            seed=args.seed,
            jobs=args.jobs,
            scale=args.scale,
            enable_faults=not args.no_faults,
        )
        return 0
    print(f"unknown faults action {args.action!r}", file=sys.stderr)
    return 2


def cmd_cache(args) -> int:
    from repro.runner import TraceCache, cache

    root = args.cache_dir or cache.default_cache_dir()
    store = TraceCache(root)
    if args.action == "info":
        print(store.info().render())
    elif args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} cached entries from {store.root}")
    return 0


def cmd_telemetry(args) -> int:
    data = telemetry.load(args.file)
    if args.format == "json":
        print(telemetry.to_json(data), end="")
    elif args.format == "prom":
        print(telemetry.to_prometheus(data), end="")
    else:
        print(telemetry.render_summary(data))
    return 0


def cmd_sensitivity(args) -> int:
    from repro.perfdebug.sensitivity import sweep

    result = sweep(
        args.workload,
        thread_counts=tuple(args.threads_list),
        input_sizes=tuple(args.sizes),
        scale=args.scale,
    )
    print(result.render())
    return 0


def cmd_serve(args) -> int:
    import contextlib

    from repro.runner import ExecPolicy, cache
    from repro.serve.server import serve

    policy = ExecPolicy(
        timeout=args.task_timeout, retries=args.retries, partial=True
    )
    cache_ctx = (
        cache.use_cache(args.cache_dir) if args.cache_dir
        else contextlib.nullcontext()
    )
    with cache_ctx:
        server = serve(
            host=args.host,
            port=args.port,
            policy=policy,
            max_workers=args.workers,
            keep_mb=args.keep_mb,
            max_body_mb=args.max_body_mb,
            sync_timeout=args.sync_timeout,
            spool_dir=args.spool_dir,
        )
        print(f"repro serve: listening on {server.url} "
              f"(workers={args.workers}, ctrl-c to stop)", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("repro serve: shutting down", file=sys.stderr)
        finally:
            server.close()
    return EXIT_OK


def cmd_loadtest(args) -> int:
    from repro.serve.loadtest import run_loadtest

    report = run_loadtest(
        args.url,
        clients=args.clients,
        requests_per_client=args.requests,
        seed=args.seed,
        read_mix=args.read_mix,
        sizes=tuple(args.sizes),
        timeout=args.timeout,
        tenants=args.tenants,
        out=args.output,
    )
    overall = report.latency_ms.get("all", {})
    print(f"clients           : {report.clients}")
    print(f"requests          : {report.requests}")
    print(f"wall time         : {report.wall_seconds:.2f} s")
    print(f"throughput        : {report.throughput_rps:.1f} req/s")
    print(f"latency p50/p99   : {overall.get('p50_ms', 0)} / "
          f"{overall.get('p99_ms', 0)} ms")
    print(f"dedup             : {report.dedup or '{}'}")
    print(f"error envelopes   : {report.error_envelopes}")
    print(f"transport errors  : {report.transport_errors}")
    print(f"event streams     : {report.streams}")
    if args.output:
        print(f"report -> {args.output}", file=sys.stderr)
    if report.transport_errors:
        print(f"error: {report.transport_errors} request(s) lost at the "
              "transport layer", file=sys.stderr)
        return EXIT_ERROR
    if report.streams.get("dropped"):
        print(f"error: {report.streams['dropped']} event stream(s) ended "
              "without the terminal result frame (gate: 0)", file=sys.stderr)
        return EXIT_ERROR
    if args.fail_on_errors and report.error_envelopes:
        print(f"error: {report.error_envelopes} structured error "
              "envelope(s) received (gate: 0)", file=sys.stderr)
        return EXIT_ERROR
    if args.max_p99_ms is not None and overall \
            and overall["p99_ms"] > args.max_p99_ms:
        print(f"error: overall p99 {overall['p99_ms']} ms exceeds the "
              f"--max-p99-ms gate of {args.max_p99_ms} ms", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PERFPLAY reproduction: replay-based ULCP debugging",
    )
    parser.add_argument("--log-level", choices=log.LEVELS, default="warning",
                        help="diagnostic verbosity (default: %(default)s)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit diagnostics as one JSON object per line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show workloads and experiments")

    p = sub.add_parser("record", help="record a workload into a trace file")
    p.add_argument("workload")
    _add_workload_options(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--segment-events", type=int, default=None, metavar="N",
                   help="write the segmented streaming format, N events "
                        "per segment (default: monolithic)")
    _add_telemetry_options(p)

    p = sub.add_parser(
        "convert",
        help="convert a trace file between monolithic and segmented formats",
    )
    p.add_argument("input")
    p.add_argument("output")
    _add_trace_options(p)
    p.add_argument("--segment-events", type=int, default=None, metavar="N",
                   help="events per segment (default: 65536)")
    p.add_argument("--monolithic", action="store_true",
                   help="write the monolithic format instead of segmented")

    p = sub.add_parser("replay", help="replay a trace file")
    p.add_argument("trace")
    _add_trace_options(p)
    p.add_argument("--scheme", default=ELSC_S, choices=ALL_SCHEMES)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.02)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the repeated replays")
    _add_telemetry_options(p)

    p = sub.add_parser("analyze",
                       help="identify and classify ULCP pairs in a trace")
    p.add_argument("trace")
    _add_trace_options(p)
    _add_stream_option(p)
    p.add_argument("--no-benign", action="store_true",
                   help="skip the reversed-replay benign test "
                        "(conflicting pairs count as TLCPs)")
    p.add_argument("--resume", metavar="RUN_ID", default=None,
                   help="checkpoint the streaming scan under this run id "
                        "and resume it from the last checkpoint if one "
                        "exists (segmented files only)")
    p.add_argument("--checkpoint-every", type=int, default=16, metavar="N",
                   help="segments between checkpoints (default: %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="affinity-pinned worker processes for the "
                        "streaming scan (segmented files only)")
    _add_format_option(p)
    _add_telemetry_options(p)

    p = sub.add_parser(
        "watch",
        help="live incremental analysis of a (possibly still growing) "
             "segmented trace",
    )
    p.add_argument("trace", help="segmented trace file; may still be "
                                 "written by another process")
    p.add_argument("--interval", type=float, default=0.5, metavar="SECONDS",
                   help="poll interval while the file is quiet "
                        "(default: %(default)s)")
    p.add_argument("--grace", type=float, default=30.0, metavar="SECONDS",
                   help="give up (exit 3) after this long without growth "
                        "and no footer; 0 waits forever "
                        "(default: %(default)s)")
    p.add_argument("--until-stable", type=int, default=0, metavar="N",
                   help="stop early (exit 3) once the top-K ranking held "
                        "for N consecutive snapshots (default: run to "
                        "completion)")
    p.add_argument("--top", type=int, default=5, metavar="K",
                   help="ranking depth for display and the stability "
                        "check (default: %(default)s)")
    p.add_argument("--no-benign", action="store_true",
                   help="skip the reversed-replay benign test in the "
                        "final pass (conflicting pairs count as TLCPs)")
    p.add_argument("--resume", metavar="RUN_ID", default=None,
                   help="checkpoint the fold under this run id so 'repro "
                        "analyze --resume RUN_ID' continues after an "
                        "early stop without redoing folded segments")
    p.add_argument("--checkpoint-every", type=int, default=16, metavar="N",
                   help="segments between checkpoints (default: "
                        "%(default)s)")
    p.add_argument("--final-output", metavar="PATH", default=None,
                   help="also write the final v1 result envelope here "
                        "(byte-identical to 'repro analyze --format "
                        "json')")
    _add_format_option(p)
    _add_telemetry_options(p)

    p = sub.add_parser("transform", help="ULCP-transform a trace file")
    p.add_argument("trace")
    _add_trace_options(p)
    p.add_argument("-o", "--output")
    _add_telemetry_options(p)

    p = sub.add_parser("debug", help="full PERFPLAY pipeline")
    p.add_argument("workload", nargs="?")
    p.add_argument("--trace")
    _add_trace_options(p)
    _add_workload_options(p)
    p.add_argument("--jitter", type=float, default=0.0)
    _add_telemetry_options(p)

    p = sub.add_parser("profile",
                       help="per-stage wall times of the analysis pipeline")
    p.add_argument("workload", nargs="?")
    p.add_argument("--trace")
    _add_trace_options(p)
    _add_workload_options(p)
    p.add_argument("--no-replay", action="store_true",
                   help="skip the final replay stage")
    _add_format_option(p)
    _add_telemetry_options(p)

    p = sub.add_parser(
        "timeline",
        help="per-thread timeline of a trace (ascii, Chrome JSON, columnar)",
    )
    p.add_argument("trace")
    _add_trace_options(p)
    _add_stream_option(p)
    p.add_argument("--width", type=int, default=72,
                   help="lane width for --format ascii")
    _add_format_option(p, choices=("ascii", "chrome", "json"), default="ascii")
    p.add_argument("-o", "--output",
                   help="write chrome/json output to a file instead of stdout")
    p.add_argument("--no-benign", action="store_true",
                   help="skip the reversed-replay benign test when "
                        "classifying intervals (faster, less precise colors)")

    p = sub.add_parser(
        "report", help="render a self-contained HTML debugging report"
    )
    p.add_argument("trace", help="trace file or registered workload name")
    p.add_argument("transformed", nargs="?",
                   help="optional saved ULCP-free trace for the right-hand "
                        "waterfall (default: the session's own transform)")
    _add_trace_options(p)
    _add_workload_options(p)
    p.add_argument("-o", "--output", default="REPORT.html",
                   help="output file (default: %(default)s)")
    _add_telemetry_options(p)

    p = sub.add_parser("stats", help="structural summary of a trace")
    p.add_argument("trace")
    _add_trace_options(p)
    _add_stream_option(p)
    _add_format_option(p)

    p = sub.add_parser("advise", help="per-category fix strategies with gains")
    p.add_argument("workload", nargs="?")
    p.add_argument("--trace")
    _add_trace_options(p)
    _add_workload_options(p)
    _add_telemetry_options(p)

    p = sub.add_parser("locks", help="per-lock contention profile of a trace")
    p.add_argument("trace")
    _add_trace_options(p)
    p.add_argument("--limit", type=int, default=10)
    _add_format_option(p)

    p = sub.add_parser("fix", help="apply a suggested fix to a trace and measure")
    p.add_argument("workload", nargs="?")
    p.add_argument("--trace")
    _add_trace_options(p)
    p.add_argument("--lock", required=True)
    p.add_argument("--fix", required=True)
    _add_workload_options(p)
    _add_telemetry_options(p)

    p = sub.add_parser("compare", help="diff two traces' debug reports (before/after a fix)")
    p.add_argument("before")
    p.add_argument("after")
    _add_trace_options(p)
    _add_telemetry_options(p)

    p = sub.add_parser("selfcheck", help="verify pipeline invariants on an input")
    p.add_argument("workload", nargs="?")
    p.add_argument("--trace")
    _add_trace_options(p)
    _add_workload_options(p)
    _add_telemetry_options(p)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for independent cells "
                        "(0 = one per CPU); output matches a serial run")
    p.add_argument("--cache-dir",
                   help="result cache directory (default: .repro-cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk result cache")
    p.add_argument("--task-timeout", type=float, default=None, metavar="SECONDS",
                   help="per-cell wall-clock budget; a cell past it is "
                        "terminated (and retried, if --retries)")
    p.add_argument("--retries", type=int, default=0,
                   help="retry budget per cell for crashes/timeouts")
    p.add_argument("--partial", action="store_true",
                   help="render failed cells as n/a instead of aborting")
    p.add_argument("--fault", action="append", default=[], metavar="SPEC",
                   help="inject a fault (repeatable); see 'repro faults list'")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for rate-based fault rules")
    p.add_argument("--run-id", default=None, metavar="RUN_ID",
                   help="journal progress under this id so a killed run "
                        "can continue with 'repro resume RUN_ID' "
                        "(needs the cache)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget for the whole run; tasks past "
                        "it stop (quarantined under --partial)")
    p.add_argument("--max-rss", type=float, default=None, metavar="MB",
                   help="peak-RSS watermark; memory pressure degrades "
                        "full loads to the streaming path")
    _add_telemetry_options(p)

    p = sub.add_parser(
        "resume", help="continue an interrupted journaled experiment run"
    )
    p.add_argument("run_id", help="run id given to experiment --run-id")
    p.add_argument("--cache-dir",
                   help="cache directory holding the journal "
                        "(default: .repro-cache)")
    p.add_argument("--jobs", type=int, default=None,
                   help="override the worker count (results are identical "
                        "for any value)")
    _add_telemetry_options(p)

    p = sub.add_parser(
        "chaos",
        help="seeded kill/resume soak: crash the pipeline at random "
             "crash-points and verify every invariant after each resume",
    )
    p.add_argument("--cycles", type=int, default=25,
                   help="kill->resume cycles to run (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the crash-point schedule")
    p.add_argument("--ops", nargs="+", default=None,
                   metavar="OP", help="restrict to these operations "
                   "(default: all; see repro.chaos.harness.OPS)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="also write the soak report as JSON")
    p.add_argument("--keep", action="store_true",
                   help="keep each cycle's scratch directory (default: "
                        "only cycles with violations are kept)")

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("action", choices=("info", "clear"))
    p.add_argument("--cache-dir",
                   help="cache directory (default: .repro-cache)")

    p = sub.add_parser("sensitivity", help="cross-input robustness sweep")
    p.add_argument("workload")
    p.add_argument("--threads-list", type=int, nargs="+", default=[2, 4])
    p.add_argument("--sizes", nargs="+", default=["simsmall", "simlarge"])
    p.add_argument("--scale", type=float, default=1.0)
    _add_telemetry_options(p)

    p = sub.add_parser("telemetry", help="render a saved telemetry artifact")
    p.add_argument("file", help="a TELEMETRY.json written by --telemetry")
    _add_format_option(p, choices=telemetry.EXPORT_FORMATS, default="summary")

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant HTTP analysis service (v1 wire API)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: %(default)s)")
    p.add_argument("--port", type=int, default=8787,
                   help="bind port, 0 = any free port (default: %(default)s)")
    p.add_argument("--workers", type=int, default=16,
                   help="job-manager worker threads (default: %(default)s)")
    p.add_argument("--keep-mb", type=float, default=64.0, metavar="MB",
                   help="byte budget of the finished jobs retained for "
                        "polling, oldest evicted first (default: %(default)s)")
    p.add_argument("--max-body-mb", type=float, default=64.0, metavar="MB",
                   help="largest accepted request body (default: %(default)s)")
    p.add_argument("--sync-timeout", type=float, default=600.0,
                   metavar="SECONDS",
                   help="longest a sync request waits for its job "
                        "(default: %(default)s)")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-job compute budget (quarantined past it)")
    p.add_argument("--retries", type=int, default=1,
                   help="retry budget for crashed/faulted jobs "
                        "(default: %(default)s)")
    p.add_argument("--cache-dir", default=None,
                   help="back responses with the on-disk cache so a "
                        "restarted server answers repeats from disk")
    p.add_argument("--spool-dir", default=None,
                   help="directory for uploaded traces (default: a "
                        "temporary directory)")

    p = sub.add_parser(
        "loadtest",
        help="seeded synthetic load against the service; writes "
             "BENCH_serve.json",
    )
    p.add_argument("--url", default=None,
                   help="server base URL (default: start an in-process "
                        "server on an ephemeral port)")
    p.add_argument("--clients", type=int, default=32,
                   help="concurrent clients (default: %(default)s)")
    p.add_argument("--requests", type=int, default=6, metavar="N",
                   help="requests per client (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the per-client op mix (default: 0)")
    p.add_argument("--read-mix", type=float, default=0.5, metavar="FRACTION",
                   help="fraction of read (health/metrics/poll) requests "
                        "(default: %(default)s)")
    p.add_argument("--sizes", nargs="+",
                   default=["small", "medium", "large"],
                   choices=("small", "medium", "large"),
                   help="trace sizes in the upload corpus")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-request client timeout (default: %(default)s)")
    p.add_argument("--tenants", type=int, default=4,
                   help="distinct X-Repro-Tenant values (default: %(default)s)")
    p.add_argument("-o", "--output", default="BENCH_serve.json",
                   help="report file (default: %(default)s)")
    p.add_argument("--fail-on-errors", action="store_true",
                   help="exit 1 if any structured error envelope comes back "
                        "(the CI smoke gate)")
    p.add_argument("--max-p99-ms", type=float, default=None, metavar="MS",
                   help="exit 1 if overall p99 latency exceeds this")

    p = sub.add_parser("faults",
                       help="fault-injection sites and the recovery demo")
    p.add_argument("action", choices=("list", "demo"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=2)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--no-faults", action="store_true",
                   help="run the demo pipeline with no faults installed "
                        "(its output must match a plain serial run)")

    return parser


COMMANDS = {
    "list": cmd_list,
    "record": cmd_record,
    "convert": cmd_convert,
    "replay": cmd_replay,
    "analyze": cmd_analyze,
    "watch": cmd_watch,
    "transform": cmd_transform,
    "debug": cmd_debug,
    "telemetry": cmd_telemetry,
    "profile": cmd_profile,
    "timeline": cmd_timeline,
    "report": cmd_report,
    "stats": cmd_stats,
    "advise": cmd_advise,
    "locks": cmd_locks,
    "fix": cmd_fix,
    "compare": cmd_compare,
    "selfcheck": cmd_selfcheck,
    "experiment": cmd_experiment,
    "resume": cmd_resume,
    "chaos": cmd_chaos,
    "cache": cmd_cache,
    "sensitivity": cmd_sensitivity,
    "faults": cmd_faults,
    "serve": cmd_serve,
    "loadtest": cmd_loadtest,
}


def _export_telemetry(sink, args) -> None:
    """Write (or print) the invocation's telemetry artifact."""
    fmt = args.telemetry_format
    timings = args.telemetry_timings
    target = args.telemetry
    if target == "-" or (target == "" and fmt == "summary"):
        if fmt == "json":
            print(telemetry.to_json(sink, timings=timings), end="")
        elif fmt == "prom":
            print(telemetry.to_prometheus(sink, timings=timings), end="")
        else:
            print(telemetry.render_summary(sink))
        return
    from repro.telemetry.export import DEFAULT_PATHS

    path = target or DEFAULT_PATHS.get(fmt, "TELEMETRY.json")
    written = telemetry.write(sink, path, fmt=fmt, timings=timings)
    print(f"telemetry -> {written}", file=sys.stderr)


def main(argv=None) -> int:
    from repro.errors import ReproError, RunInterrupted

    args = build_parser().parse_args(argv)
    log.configure(args.log_level, json_lines=args.log_json)
    collect = getattr(args, "telemetry", None) is not None
    sink = telemetry.Telemetry() if collect else None
    try:
        with telemetry.use_telemetry(sink) if collect else _null_context():
            code = COMMANDS[args.command](args)
        if collect:
            _export_telemetry(sink, args)
        return code
    except (KeyboardInterrupt, RunInterrupted) as exc:
        # the pool already terminated its workers and flushed the run
        # journal; keep the telemetry artifact too, then exit 130 (the
        # conventional SIGINT code) instead of a raw traceback
        if collect:
            _export_telemetry(sink, args)
        note = str(exc) if isinstance(exc, RunInterrupted) else "interrupted"
        print(f"interrupted: {note}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        # the whole taxonomy renders as one clean line carrying the same
        # stable machine-readable code the HTTP error envelope uses
        print(f"error: [{exc.code}] {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_ERROR


def _null_context():
    import contextlib

    return contextlib.nullcontext()


if __name__ == "__main__":
    sys.exit(main())
