"""PERFPLAY reproduction: replay-based performance debugging of
unnecessary lock contention (Zheng et al., CGO 2015).

The stable public surface is the :mod:`repro.api` facade — five
functions, one per pipeline stage — re-exported here::

    from repro import api

    trace = api.record("mysql", threads=4)
    analysis = api.analyze(trace)       # classify ULCP pairs
    freed = api.transform(trace)        # the ULCP-free trace
    result = api.replay(freed)          # deterministic re-execution
    report = api.debug(trace)           # the whole pipeline, ranked fixes
    print(report.render())

Every facade call takes an optional ``telemetry=`` sink
(:class:`repro.telemetry.Telemetry`) that collects spans and counters
for the run; see :mod:`repro.telemetry`.

Package map (everything below :mod:`repro.api` is internal):

==================  ====================================================
``repro.api``       the stable five-function facade
``repro.telemetry`` spans, counters, exporters (JSON / Prometheus)
``repro.sim``       deterministic discrete-event multicore machine
``repro.trace``     trace events, builder, (de)serialization, validation
``repro.record``    recording phase
``repro.analysis``  ULCP identification, topology RULE 1-4, transform
``repro.replay``    ORIG-S / ELSC-S / SYNC-S / MEM-S replay engine
``repro.perfdebug`` Eq. 1 metrics, Algorithm 2 fusion, Eq. 2 ranking
``repro.races``     happens-before race detector (Theorem 1)
``repro.baselines`` lock-elision comparison model
``repro.workloads`` the paper's 16 application models + bug cases
``repro.experiments`` one module per evaluation table/figure
==================  ====================================================
"""

from repro.analysis import TransformResult, UlcpBreakdown, UlcpPair
from repro.errors import (
    DeadlockError,
    ReplayError,
    ReproError,
    SimulationError,
    TraceError,
    TransformError,
    WorkloadError,
)
from repro.perfdebug import DebugReport, PerfPlay
from repro.record import RecordResult, Recorder
from repro.selfcheck import SelfCheckReport, run_selfcheck
from repro.replay import (
    ALL_SCHEMES,
    ELSC_S,
    MEM_S,
    ORIG_S,
    SYNC_S,
    Replayer,
    ReplayResult,
    ReplaySeries,
)
from repro.trace import CodeRegion, CodeSite, Trace, TraceMeta
from repro import api, telemetry
from repro.api import analyze, debug, record, replay, report, transform
from repro.options import AnalyzeOptions, ReplayOptions, ReportOptions

__version__ = "1.0.0"

__all__ = [
    "api",
    "telemetry",
    "record",
    "analyze",
    "transform",
    "replay",
    "debug",
    "report",
    "AnalyzeOptions",
    "ReplayOptions",
    "ReportOptions",
    "PerfPlay",
    "DebugReport",
    "Recorder",
    "RecordResult",
    "run_selfcheck",
    "SelfCheckReport",
    "Replayer",
    "ReplayResult",
    "ReplaySeries",
    "TransformResult",
    "UlcpPair",
    "UlcpBreakdown",
    "Trace",
    "TraceMeta",
    "CodeSite",
    "CodeRegion",
    "ORIG_S",
    "ELSC_S",
    "SYNC_S",
    "MEM_S",
    "ALL_SCHEMES",
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "TraceError",
    "TransformError",
    "ReplayError",
    "WorkloadError",
    "__version__",
]
