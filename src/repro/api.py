"""The stable public facade: five one-call entry points for the pipeline.

``repro.api`` is the documented, compatibility-guaranteed surface of the
package — the five stages of the PERFPLAY pipeline, one function each::

    record(workload, **cfg)  -> Trace         # run + record an execution
    analyze(trace)           -> PairAnalysis  # identify + classify ULCPs
    transform(trace)         -> Trace         # rewrite to the ULCP-free trace
    replay(trace)            -> ReplayResult  # re-execute under a scheme
    debug(trace)             -> DebugReport   # the whole pipeline, ranked fixes
    report(trace)            -> str           # self-contained HTML debug report

Everything else in the package is internal: it keeps working, but only
these functions (plus :mod:`repro.telemetry` and :mod:`repro.options`)
are covered by the deprecation policy — renamed keyword arguments get a
one-release ``DeprecationWarning`` shim before removal.

``analyze``, ``replay`` and ``report`` take their configuration as one
typed options object (:class:`repro.options.AnalyzeOptions`,
:class:`~repro.options.ReplayOptions`, :class:`~repro.options.ReportOptions`)
shared with the CLI and the ``repro serve`` wire API.  The pre-redesign
bare keyword spellings (``api.analyze(trace, benign_detection=False)``)
still work for one release behind a ``DeprecationWarning`` shim.

Every entry point accepts an optional ``telemetry=`` sink
(:class:`repro.telemetry.Telemetry`); when given, the call's spans and
counters land in that sink instead of the ambient process-wide one.

``workload`` / ``trace`` arguments are forgiving:

* ``record``/``debug`` take a registered workload name (``"mysql"``), a
  :class:`~repro.workloads.base.Workload` instance, or a raw iterable of
  ``(generator, thread_name)`` program pairs;
* ``analyze``/``transform``/``replay``/``debug`` take a
  :class:`~repro.trace.Trace` or a trace-file path (``str``/``Path``).
"""

from __future__ import annotations

import contextlib
import warnings
from pathlib import Path
from typing import Optional, Union

from repro.analysis.engine import scan_trace
from repro.analysis.pairs import PairAnalysis, analyze_pairs
from repro.analysis.transform import TransformResult
from repro.analysis.transform import transform as _transform_trace
from repro.options import AnalyzeOptions, ReplayOptions, ReportOptions
from repro.perfdebug.framework import DebugReport, PerfPlay
from repro.record.recorder import RecordResult, Recorder
from repro.replay.replayer import Replayer
from repro.replay.results import ReplayResult, ReplaySeries
from repro.telemetry import Telemetry, use_telemetry
from repro.trace.trace import Trace
from repro.workloads.base import Workload, get_workload

__all__ = [
    "record", "analyze", "transform", "replay", "debug", "report",
    "AnalyzeOptions", "ReplayOptions", "ReportOptions",
]

TraceLike = Union[Trace, str, Path]

#: the ``stream="auto"`` rule of :func:`analyze`: a segmented file whose
#: fresh index counts at most this many events is decoded once into a
#: shared core (:func:`repro.trace.segments.load_segmented_columnar`)
#: instead of streamed twice.  A decoded core costs ~190 B/event; at
#: this limit the decode-once ``analyze`` peaks at ~410 MB, under the
#: 512 MB ceiling ``benchmarks/test_segments.py`` gates it with (a
#: full analyze + timeline + transform flow peaks at ~1 GB on either
#: route, since transform loads the whole trace).  Larger files stream.
DECODE_ONCE_MAX_EVENTS = 2_000_000


def _options_shim(func_name: str, cls, options, legacy: dict):
    """Resolve the one-options-object signature against bare kwargs.

    The redesigned entry points take a single typed options object; the
    pre-redesign bare keyword spellings keep working for one release via
    this shim (``DeprecationWarning``).  Mixing both is ambiguous and a
    ``TypeError``; so is an unknown keyword (exactly as before the
    redesign, when the signature itself would have rejected it).
    """
    if not legacy:
        return options if options is not None else cls()
    if options is not None:
        raise TypeError(
            f"{func_name}() got both options= and bare keyword arguments "
            f"{sorted(legacy)}; pass one {cls.__name__}"
        )
    warnings.warn(
        f"{func_name}(**kwargs) bare keyword options are deprecated; "
        f"pass options={cls.__name__}(...)",
        DeprecationWarning,
        stacklevel=3,
    )
    try:
        return cls.from_kwargs(legacy)
    except TypeError as exc:
        raise TypeError(f"{func_name}() {exc}") from None


def _sink(telemetry: Optional[Telemetry]):
    """Activate an explicit sink for the call, or keep the ambient one."""
    if telemetry is None:
        return contextlib.nullcontext()
    return use_telemetry(telemetry)


@contextlib.contextmanager
def _call(name: str, telemetry: Optional[Telemetry]):
    """One facade invocation: a log run id plus the telemetry sink.

    Every log record emitted inside carries ``run_id="<name>-NNNN>"``
    (:func:`repro.log.run_scope`), so diagnostics from one entry-point
    call — including its nested facade calls — are greppable as a unit.
    """
    from repro import log

    with log.run_scope(name), _sink(telemetry):
        yield


def _coerce_trace(trace: TraceLike) -> Trace:
    if isinstance(trace, Trace):
        return trace
    from repro.trace import serialize

    return serialize.load(trace)


def _coerce_programs(workload, *, threads, input_size, scale, seed, workload_kwargs):
    """Resolve a workload spec to (programs, name, params, semaphores)."""
    if isinstance(workload, str):
        workload = get_workload(
            workload, threads=threads, input_size=input_size, scale=scale,
            seed=seed, **workload_kwargs,
        )
    if isinstance(workload, Workload):
        return (
            workload.programs(),
            workload.name,
            workload.params(),
            workload.semaphores(),
        )
    return workload, "", {}, {}


# ------------------------------------------------------------------ record


def record(
    workload,
    *,
    threads: int = 2,
    input_size: str = "simlarge",
    scale: float = 1.0,
    seed: int = 0,
    num_cores: int = 8,
    lock_cost: Optional[int] = None,
    mem_cost: Optional[int] = None,
    full: bool = False,
    telemetry: Optional[Telemetry] = None,
    **workload_kwargs,
) -> Union[Trace, RecordResult]:
    """Run ``workload`` on the simulated machine and record its trace.

    ``workload`` is a registered name, a :class:`Workload` instance, or a
    raw iterable of ``(generator, thread_name)`` pairs.  Workload names
    honour ``threads``/``input_size``/``scale``/``seed`` (extra keyword
    arguments reach the workload constructor); machine parameters are
    ``num_cores``/``lock_cost``/``mem_cost``.

    Returns the recorded :class:`Trace`; ``full=True`` returns the
    underlying :class:`RecordResult` (trace + machine accounting).
    """
    from repro.sim.timebase import DEFAULT_LOCK_COST, DEFAULT_MEM_COST

    with _call("record", telemetry):
        programs, name, params, semaphores = _coerce_programs(
            workload, threads=threads, input_size=input_size, scale=scale,
            seed=seed, workload_kwargs=workload_kwargs,
        )
        recorder = Recorder(
            num_cores=num_cores,
            lock_cost=DEFAULT_LOCK_COST if lock_cost is None else lock_cost,
            mem_cost=DEFAULT_MEM_COST if mem_cost is None else mem_cost,
        )
        result = recorder.record(
            programs, name=name, seed=seed, params=params, semaphores=semaphores
        )
    return result if full else result.trace


# ----------------------------------------------------------------- analyze


def _checkpointer_for(path: Union[str, Path], run_id: str, every: int):
    """Build the segment checkpointer for a resumable streaming analysis.

    The checkpoint is tagged with the trace's index digest and size so a
    checkpoint never resumes against a different (or rewritten) file, and
    lives under the active cache root when there is one — otherwise next
    to the trace itself.
    """
    from repro.errors import TraceError
    from repro.runner import cache as _cache
    from repro.runner.checkpoint import Checkpointer
    from repro.runner.journal import sanitize_run_id
    from repro.trace.segments import ensure_index

    run_id = sanitize_run_id(run_id)
    index = ensure_index(path)
    if index is None:
        raise TraceError(
            f"cannot checkpoint {path}: the segmented file is damaged "
            "(no index could be rebuilt)"
        )
    tag = f"{index.digest}:{index.file_size}"
    store = _cache.active()
    if store is not None:
        ckpt_path = store.root / "checkpoints" / f"{run_id}.ckpt.pkl.gz"
    else:
        p = Path(path)
        ckpt_path = p.with_name(f"{p.name}.{run_id}.ckpt.pkl.gz")
    return Checkpointer(ckpt_path, tag=tag, every=every)


def _decodes_once(path, opts: AnalyzeOptions, budget, on_progress) -> bool:
    """Whether auto-mode :func:`analyze` decodes segmented ``path`` once.

    Everything that needs the segment-by-segment walk keeps it:
    progress snapshots, checkpoints, the sharded scan, an explicit
    ``stream=True``, a budget with a memory watermark (a decoded core
    holds the whole trace, which the watermark may not fit), and files
    over :data:`DECODE_ONCE_MAX_EVENTS` or without a fresh index (whose
    event count is unknown until streamed).
    """
    from repro.trace import segments as _segments

    if (opts.stream != "auto" or on_progress is not None
            or opts.resume is not None or opts.jobs > 1
            or (budget is not None and budget.max_rss_mb is not None)):
        return False
    index = _segments.fresh_index(path)
    return index is not None and index.events <= DECODE_ONCE_MAX_EVENTS


def analyze(
    trace: TraceLike,
    options: Optional[AnalyzeOptions] = None,
    *,
    budget=None,
    on_progress=None,
    telemetry: Optional[Telemetry] = None,
    **legacy,
) -> PairAnalysis:
    """Identify and classify every same-lock pair in ``trace``.

    Returns the :class:`PairAnalysis` (sections, pairs, per-category
    breakdown, cached benign verdicts) that :func:`transform` can reuse.

    ``options`` is an :class:`repro.options.AnalyzeOptions` — the same
    object the CLI and the wire API build.  Its ``stream`` field selects
    the analysis path.  With the default ``"auto"``, a path to a
    segmented file (see :mod:`repro.trace.segments`) whose fresh index
    counts at most :data:`DECODE_ONCE_MAX_EVENTS` events is decoded
    once into a shared columnar core and analyzed in memory; the
    returned analysis keeps that core (``analysis.core``) alive, so a
    later :func:`transform` of the same path, or
    :func:`repro.timeline.build_timeline_segments` over it, reuses the
    decode instead of repeating it.  Larger segmented files — and any
    call with ``on_progress``, ``resume``, ``jobs > 1`` or a budget with
    a memory watermark — stream segment by segment, in memory bounded
    by one segment, not the trace.  Anything else loads the whole
    trace.  ``stream=True`` always streams and requires a segmented
    file path (raises :class:`~repro.errors.TraceError` for traces and
    monolithic files); ``stream=False`` always loads fully.  Every path
    produces identical results.

    ``options.resume`` names a run id whose streaming scan checkpoints
    every ``options.checkpoint_every`` segments; a killed analysis
    re-invoked with the same id restarts from the last checkpoint
    instead of byte 0 (only meaningful for segmented file paths).
    ``options.jobs > 1`` fans the streaming scan out over
    affinity-pinned worker processes (one thread shard each) with
    results identical to a serial scan; it needs the streaming path and
    is mutually exclusive with ``resume`` (a sharded scan is the fast
    path, not the resumable one).

    ``budget`` is an optional
    :class:`repro.runner.budget.RunBudget`: the call fails fast when the
    deadline has already passed, and memory pressure degrades a
    ``stream=False`` load of a segmented file back to the streaming path.

    ``on_progress`` is an optional callback receiving
    :mod:`repro.observe` progress snapshots (plain dicts, see
    :func:`repro.observe.snapshot_dumps`).  On the serial streaming path
    it fires after every folded segment and once with the terminal
    snapshot; on the in-memory and sharded paths — which have no
    per-segment epochs — it fires once, with the terminal snapshot.
    The returned analysis is byte-identical either way.

    Bare keyword spellings (``benign_detection=``, ``stream=``, ...)
    are deprecated; they keep working for one release via a
    ``DeprecationWarning`` shim.
    """
    from repro.trace import segments as _segments

    opts = _options_shim("analyze", AnalyzeOptions, options, legacy)
    with _call("analyze", telemetry):
        from repro import telemetry as _tel
        from repro.runner import budget as _budget_mod

        if budget is None:
            budget = _budget_mod.active()
        if budget is not None and budget.expired():
            # a spent deadline fails fast; memory pressure, by contrast,
            # is recoverable — it degrades the load below instead
            budget.check()
        want_stream = opts.stream is not False
        if (
            not want_stream
            and budget is not None
            and not isinstance(trace, Trace)
            and _segments.is_segmented_file(trace)
            and budget.over_memory()
        ):
            # graceful degradation: a full load under memory pressure
            # would blow the budget; the streaming path gives the same
            # answer in one segment's worth of memory
            _tel.count("analyze.degraded_to_stream")
            want_stream = True
        if want_stream and not isinstance(trace, Trace):
            if _segments.is_segmented_file(trace):
                if _decodes_once(trace, opts, budget, on_progress):
                    core = _segments.load_segmented_columnar(trace)
                    analysis = analyze_pairs(
                        core, benign_detection=opts.benign_detection
                    )
                    analysis.core = core
                    return analysis
                from repro.analysis.streaming import analyze_segments

                checkpoint = None
                if opts.resume is not None:
                    checkpoint = _checkpointer_for(
                        trace, opts.resume, opts.checkpoint_every
                    )
                if on_progress is not None and opts.jobs <= 1:
                    from repro.observe.fold import run_with_progress

                    return run_with_progress(
                        trace,
                        benign_detection=opts.benign_detection,
                        checkpoint=checkpoint,
                        on_progress=on_progress,
                    )
                analysis = analyze_segments(
                    trace,
                    benign_detection=opts.benign_detection,
                    checkpoint=checkpoint,
                    jobs=opts.jobs,
                )
                if on_progress is not None:
                    from repro.observe.fold import terminal_snapshot

                    on_progress(terminal_snapshot(analysis))
                return analysis
        if opts.jobs > 1:
            from repro.errors import TraceError

            raise TraceError(
                "analyze(jobs=...) fans out the streaming scan, so it "
                "needs a path to a segmented trace file (write one with "
                "repro.trace.segments.write_segmented or `repro convert`)"
            )
        if opts.stream is True:
            from repro.errors import TraceError

            raise TraceError(
                "analyze(stream=True) needs a path to a segmented trace "
                "file (write one with repro.trace.segments.write_segmented "
                "or `repro convert`)"
            )
        if opts.resume is not None:
            from repro.errors import TraceError

            raise TraceError(
                "analyze(resume=...) needs a path to a segmented trace "
                "file; in-memory traces and monolithic files have no "
                "segment boundaries to checkpoint at"
            )
        analysis = analyze_pairs(
            _coerce_trace(trace), benign_detection=opts.benign_detection
        )
        if on_progress is not None:
            from repro.observe.fold import terminal_snapshot

            on_progress(terminal_snapshot(analysis))
        return analysis


# --------------------------------------------------------------- transform


def transform(
    trace: TraceLike,
    *,
    full: bool = False,
    telemetry: Optional[Telemetry] = None,
    **options,
) -> Union[Trace, TransformResult]:
    """Rewrite ``trace`` into its ULCP-free counterpart (RULE 1-4).

    Returns the transformed :class:`Trace`; ``full=True`` returns the
    whole :class:`TransformResult` (analysis, topology, resync plan).
    Extra keyword options (``benign_detection``, ``order_edges``,
    ``fix_categories``, ``analysis``) pass through to the transformation.

    A path to a segmented file is loaded straight into its columnar core
    (:func:`repro.trace.segments.load_segmented_columnar`) and
    transformed there.  When an earlier :func:`analyze` of the same
    path still holds its decoded core, that core — and the scan memoized
    on it — is reused.

    The transformed trace (and, with ``full=True``, a
    ``result.original`` loaded by path) is returned as
    a :class:`Trace` that holds its columnar core: ``len()``,
    ``end_time``, ``thread_ids`` and ``count`` answer from the columns,
    and its events are built on the first read of ``threads``.  A
    ``result.original`` that nothing reads is never built.

    An ``analysis`` option is reused only when it was computed in memory
    over this very trace (its sections are the scan memoized on the
    trace's core).  Any other analysis — a streamed one, whose sections
    keep no bodies, or one over another load of the file — is ignored
    and the trace is re-analyzed.
    """
    from repro.trace import segments as _segments

    with _call("transform", telemetry):
        if not isinstance(trace, Trace) and _segments.is_segmented_file(trace):
            source = _segments.load_segmented_columnar(trace)
        else:
            source = _coerce_trace(trace)
        analysis = options.get("analysis")
        if analysis is not None and (
            scan_trace(source.columnar()).sections is not analysis.sections
        ):
            options["analysis"] = None
        result = _transform_trace(source, **options)
    # the rewrite (and the columnar route's original) are ColumnarTraces;
    # the facade returns Traces over them
    result.trace = result.trace.to_trace()
    if full and not isinstance(result.original, Trace):
        result.original = result.original.to_trace()
    return result if full else result.trace


# ------------------------------------------------------------------ replay


def _journal_for(run_id: str, spec: dict):
    """Attach to (or create) the run journal ``run_id`` under the cache."""
    from repro.errors import CacheError
    from repro.runner import cache as _cache
    from repro.runner import journal as _journal

    store = _cache.active()
    if store is None:
        raise CacheError(
            "resume= needs an active trace cache to hold the run journal "
            "(enter one with repro.runner.use_cache or repro --cache)"
        )
    run_id = _journal.sanitize_run_id(run_id)
    if _journal.journal_path(store.root, run_id).exists():
        return _journal.RunJournal.attach(store.root, run_id)
    return _journal.RunJournal.create(store.root, run_id, spec)


def replay(
    trace: TraceLike,
    options: Optional[ReplayOptions] = None,
    *,
    telemetry: Optional[Telemetry] = None,
    **legacy,
) -> Union[ReplayResult, ReplaySeries]:
    """Replay ``trace`` under ``options.scheme`` (one of ``ALL_SCHEMES``).

    ``options`` is a :class:`repro.options.ReplayOptions`.  With
    ``runs=1`` (the default) returns a single :class:`ReplayResult`;
    with ``runs>1`` returns a :class:`ReplaySeries` of seeded runs
    (``seed``, ``seed+1``, ...; default seed 0), fanned over ``jobs``
    worker processes — parallel output is identical to serial.

    ``timeline=True`` (single runs only) collects live interval lanes
    into the result's ``intervals`` for :mod:`repro.timeline`.

    ``resume`` names a run id journaled under the active cache
    (:mod:`repro.runner.journal`): each completed run is recorded as it
    lands, and re-invoking with the same id skips runs the journal
    already holds — the series is identical to an uninterrupted call.
    Needs ``runs>1`` and an active cache.

    Bare keyword spellings (``scheme=``, ``runs=``, ``seed=``, ...) are
    deprecated; they keep working for one release via a
    ``DeprecationWarning`` shim.  The pre-redesign ``base_seed=``
    spelling (deprecated since the facade's introduction) is retired —
    it now raises ``TypeError`` like any other unknown keyword.
    """
    opts = _options_shim("replay", ReplayOptions, options, legacy)
    opts.validate()
    with _call("replay", telemetry):
        loaded = _coerce_trace(trace)
        replayer = Replayer(jitter=opts.jitter)
        if opts.runs <= 1:
            if opts.resume is not None:
                raise ValueError(
                    "replay(resume=...) needs runs>1; a single replay has "
                    "no per-run progress to journal"
                )
            return replayer.replay(
                loaded, scheme=opts.scheme, seed=opts.seed,
                timeline=opts.timeline,
            )
        if opts.resume is not None:
            from repro.runner.journal import use_journal

            spec = {
                "api": "replay", "scheme": opts.scheme, "runs": opts.runs,
                "seed": opts.seed, "jitter": opts.jitter,
            }
            with _journal_for(opts.resume, spec) as journal, \
                    use_journal(journal):
                return replayer.replay_many(
                    loaded, scheme=opts.scheme, runs=opts.runs,
                    seed=opts.seed, jobs=opts.jobs,
                )
        return replayer.replay_many(
            loaded, scheme=opts.scheme, runs=opts.runs, seed=opts.seed,
            jobs=opts.jobs,
        )


# ------------------------------------------------------------------- debug


def debug(
    trace,
    *,
    threads: int = 2,
    input_size: str = "simlarge",
    scale: float = 1.0,
    seed: int = 0,
    jitter: float = 0.0,
    benign_detection: bool = True,
    order_edges: bool = True,
    timeline: bool = False,
    telemetry: Optional[Telemetry] = None,
    **workload_kwargs,
) -> DebugReport:
    """The whole pipeline: record (if needed), transform, replay, rank.

    ``trace`` may be a :class:`Trace`, a trace-file path, a registered
    workload name, a :class:`Workload`, or raw program pairs — anything
    that is not already a trace is recorded first (honouring the workload
    parameters, exactly like :func:`record`).  Returns the ranked
    :class:`DebugReport`; ``timeline=True`` makes both replays collect
    interval lanes for :meth:`DebugReport.timelines`.
    """
    with _call("debug", telemetry):
        if isinstance(trace, (str, Path)) and not _is_workload_name(trace):
            trace = _coerce_trace(trace)
        if not isinstance(trace, Trace):
            trace = record(
                trace, threads=threads, input_size=input_size, scale=scale,
                seed=seed, **workload_kwargs,
            )
        perfplay = PerfPlay(
            jitter=jitter,
            benign_detection=benign_detection,
            order_edges=order_edges,
        )
        return perfplay.analyze(trace, seed=seed, timeline=timeline)


# ------------------------------------------------------------------ report


def report(
    trace,
    transformed: Optional[TraceLike] = None,
    options: Optional[ReportOptions] = None,
    *,
    output: Optional[Union[str, Path]] = None,
    telemetry: Optional[Telemetry] = None,
    **legacy,
) -> str:
    """Render the full debugging session as one self-contained HTML file.

    ``trace`` accepts everything :func:`debug` does (trace, trace path,
    workload name, program pairs).  The pipeline runs with jitter 0 and
    live timeline collection, so the report's waterfalls show the exact
    replayed schedules and reconcile with the machine accounting.
    ``options`` is a :class:`repro.options.ReportOptions` (workload
    parameters for workload-name inputs, analysis knobs for both).

    ``transformed`` optionally supplies an already-saved ULCP-free trace
    (e.g. the output of ``repro transform``) to render as the right-hand
    waterfall instead of the session's own transformed replay.

    Returns the HTML text; ``output`` additionally writes it to a file.
    The document is byte-deterministic for a fixed input trace: repeated
    runs (and ``--jobs`` variations upstream) produce identical bytes.

    Bare keyword spellings (``threads=``, ``seed=``, extra workload
    keyword arguments, ...) are deprecated; they keep working for one
    release via a ``DeprecationWarning`` shim (unknown names fold into
    ``ReportOptions.workload_kwargs``).
    """
    from dataclasses import fields as _fields

    from repro.perfdebug.report import render_html_report
    from repro.telemetry import to_dict
    from repro.timeline.build import build_timeline

    if legacy:
        # split bare kwargs into ReportOptions fields and workload
        # passthrough arguments before the common shim
        known = {f.name for f in _fields(ReportOptions)}
        extra = {k: legacy.pop(k) for k in list(legacy) if k not in known}
        if extra:
            legacy.setdefault("workload_kwargs", extra)
    opts = _options_shim("report", ReportOptions, options, legacy)
    sink = telemetry if telemetry is not None else Telemetry()
    with _call("report", sink):
        session = debug(
            trace,
            threads=opts.threads,
            input_size=opts.input_size,
            scale=opts.scale,
            seed=opts.seed,
            jitter=0.0,
            benign_detection=opts.benign_detection,
            order_edges=opts.order_edges,
            timeline=True,
            **opts.workload_kwargs,
        )
        original_timeline, free_timeline = session.timelines()
        if transformed is not None:
            free_timeline = build_timeline(
                _coerce_trace(transformed),
                analysis=session.transform_result.analysis,
            )
    html_text = render_html_report(
        session,
        original_timeline=original_timeline,
        free_timeline=free_timeline,
        telemetry_data=to_dict(sink, timings=False),
    )
    if output is not None:
        Path(output).write_text(html_text, encoding="utf-8")
    return html_text


def _is_workload_name(value) -> bool:
    if not isinstance(value, str):
        return False
    from repro.workloads.base import _REGISTRY

    return value in _REGISTRY
