"""``repro.serve``: the multi-tenant analysis service over ``repro.api``.

A stdlib-only HTTP service (``http.server.ThreadingHTTPServer``, no new
runtime dependencies) that turns the batch pipeline into a long-running
shared server:

* :mod:`repro.serve.protocol` — the versioned v1 wire contract: one
  envelope ``{"v": 1, "ok": ..., "result"|"error": ...}`` shared with
  the CLI's ``--format json`` output, stable error codes from
  :mod:`repro.errors`, and the per-endpoint result schemas;
* :mod:`repro.serve.jobs` — content-addressed job manager: concurrent
  identical requests (same trace digest, same options) share one
  computation, finished jobs are frozen to bytes (artifacts spilled
  to disk) and retained for polling under a byte budget, and every
  computation runs under the supervised executor's
  :class:`~repro.runner.pool.ExecPolicy` (retries, quarantine);
* :mod:`repro.serve.server` — the HTTP endpoints
  (``POST /v1/analyze|transform|report|timeline``, async polling via
  ``GET /v1/jobs/<id>``, Prometheus metrics at ``GET /metrics``);
* :mod:`repro.serve.loadtest` — the seeded synthetic load generator
  behind ``repro loadtest`` (hundreds of concurrent clients, mixed
  trace sizes, p50/p99/throughput published as ``BENCH_serve.json``).

See ``docs/SERVICE.md`` for the full wire contract.
"""

from repro.serve.jobs import Job, JobManager
from repro.serve.loadtest import LoadTestReport, run_loadtest
from repro.serve.protocol import (
    WIRE_VERSION,
    envelope_from_exception,
    error_envelope,
    http_status,
    ok_envelope,
    wire_dumps,
)
from repro.serve.server import ReproServer, serve

__all__ = [
    "WIRE_VERSION",
    "Job",
    "JobManager",
    "LoadTestReport",
    "ReproServer",
    "envelope_from_exception",
    "error_envelope",
    "http_status",
    "ok_envelope",
    "run_loadtest",
    "serve",
    "wire_dumps",
]
