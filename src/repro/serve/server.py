"""The HTTP service: ``repro serve`` — v1 endpoints over ``repro.api``.

Routes (see ``docs/SERVICE.md`` for the full contract)::

    POST /v1/analyze    classify ULCP pairs      -> JSON result envelope
    POST /v1/transform  ULCP-free rewrite        -> trace artifact (JSONL)
    POST /v1/report     HTML debugging report    -> text/html artifact
    POST /v1/timeline   columnar/Chrome timeline -> JSON artifact
    GET  /v1/jobs/<id>            poll an async job
    GET  /v1/jobs/<id>/artifact   fetch a finished job's artifact blob
    GET  /v1/jobs/<id>/events     live progress snapshots (SSE); the
                                  terminal "result" event is
                                  byte-identical to the polled result
    GET  /v1/health               liveness + job-manager stats
    GET  /metrics                 Prometheus exposition (repro.telemetry)

A job request is either a JSON body (``{"workload": {...}, "options":
{...}, "mode": "sync"|"async"}``) or a raw trace upload (any
content type except ``application/json``; monolithic or segmented
container, auto-sniffed) with ``mode`` / ``format`` / ``options``
(URL-encoded JSON) as query parameters.  Every computation is
content-addressed through :mod:`repro.serve.jobs` — concurrent
identical requests share one computation — and executes under the
supervised executor, so failures come back as the structured v1 error
envelope with a stable code, never as a dropped connection.

Responses carry ``X-Repro-Job`` (the job id), ``X-Repro-Dedup``
(``miss`` | ``inflight`` | ``done``) and ``X-Repro-Key`` (the content
key) so clients and the load-test harness can observe the dedup.
"""

from __future__ import annotations

import io
import itertools
import json
import tempfile
import threading
import time
import urllib.parse
from hashlib import sha256
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from repro import log, telemetry
from repro.errors import (
    NotFoundError,
    OptionsError,
    PayloadTooLarge,
    ReproError,
    RequestError,
)
from repro.options import AnalyzeOptions, ReportOptions
from repro.runner.keys import cache_key
from repro.runner.pool import ExecPolicy
from repro.serve import protocol
from repro.serve.jobs import JobManager, JobResult

__all__ = ["ReproServer", "serve"]

_log = log.get_logger("serve")

#: content types for artifact blobs
TRACE_CONTENT_TYPE = "application/x-repro-trace+jsonl"
HTML_CONTENT_TYPE = "text/html; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

ENDPOINTS = ("analyze", "transform", "report", "timeline")


# ------------------------------------------------------------ computations
#
# Each builder returns a closure producing a JobResult; the closure runs
# on a manager worker thread under the supervised executor.  Everything
# inside is deterministic per content key, which is what makes the dedup
# and the blob-cache reuse sound.


def _spool_trace(server: "ReproServer", body: bytes) -> Path:
    """Write an uploaded trace to the content-addressed spool.

    The spool file name is the payload digest, so re-uploads of the same
    trace bytes share one file and the write is idempotent (atomic
    rename; a concurrent identical upload simply wins the race).  Each
    handler thread stages under its own temp name: a shared one let a
    second writer truncate it mid-rename or find it already moved.
    """
    digest = sha256(body).hexdigest()
    path = server.spool_dir / f"{digest[:32]}.trace"
    if not path.exists():
        server.spool_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.tmp-{digest[:8]}-{threading.get_ident()}"
        )
        tmp.write_bytes(body)
        tmp.replace(path)
    return path


def _trace_key(path: Path, body: bytes) -> str:
    """Content digest of an uploaded trace.

    Segmented containers reuse :func:`repro.runner.keys.segmented_digest`
    (per-segment digests from the sidecar index — also validates the
    container); anything else hashes the raw bytes.
    """
    from repro.errors import TraceError
    from repro.runner.keys import segmented_digest
    from repro.trace.segments import is_segmented_file

    try:
        if is_segmented_file(path):
            return "seg:" + segmented_digest(path)
    except TraceError:
        pass  # damaged segmented file: fall back to raw bytes, let the
        # analysis surface the precise TraceError in the envelope
    return "raw:" + sha256(body).hexdigest()[:32]


def _load_source(server: "ReproServer", source: dict):
    """Resolve a job source dict to a Trace (or segmented path).

    ``{"path": ...}`` loads/streams a spooled upload; ``{"workload":
    spec}`` records the workload (through the trace cache when one is
    active, reusing its ``task_key`` content addressing).
    """
    if "path" in source:
        return Path(source["path"])
    spec = source["workload"]
    from repro.runner.cache import record_cached

    kwargs, extra = _split_workload_spec(spec)
    if extra:
        kwargs["workload_kwargs"] = extra
    return record_cached(spec["name"], **kwargs).trace


def _split_workload_spec(spec: dict):
    """(record parameters, workload-constructor passthrough) from a spec."""
    known = ("threads", "input_size", "scale", "seed")
    kwargs = {k: spec[k] for k in known if spec.get(k) is not None}
    extra = {k: v for k, v in spec.items()
             if k != "name" and k not in known and v is not None}
    return kwargs, extra


def _analyze_compute(server, source, options: AnalyzeOptions):
    def compute(job) -> JobResult:
        from repro import api

        target = _load_source(server, source)
        if isinstance(target, Path):
            from repro.trace import segments, serialize

            if not segments.is_segmented_file(target):
                target = serialize.load(target)
        analysis = api.analyze(target, options, on_progress=job.publish)
        envelope = protocol.ok_envelope(protocol.analyze_result(analysis))
        return JobResult(envelope=envelope)

    # the job manager passes the Job in so the analysis can stream
    # progress snapshots to /v1/jobs/<id>/events subscribers
    compute.wants_job = True
    return compute


def _transform_compute(server, source, options: dict):
    def compute() -> JobResult:
        from repro import api
        from repro.trace import serialize

        # a spooled upload goes in as its path: segmented bytes then take
        # the facade's columnar route
        result = api.transform(_load_source(server, source), full=True,
                               **options)
        out = io.StringIO()
        serialize.write_trace(result.trace, out)
        envelope = protocol.ok_envelope(protocol.transform_summary(result))
        return JobResult(
            envelope=envelope,
            blob=out.getvalue().encode("utf-8"),
            content_type=TRACE_CONTENT_TYPE,
        )

    return compute


def _timeline_compute(server, source, options: dict, fmt: str):
    def compute() -> JobResult:
        from repro import api
        from repro.timeline import build_timeline, to_chrome_json, to_columnar_json

        trace = _coerce_full_trace(server, source)
        analysis = api.analyze(
            trace,
            AnalyzeOptions(benign_detection=options.get("benign_detection", True)),
        )
        timeline = build_timeline(trace, analysis=analysis)
        text = to_chrome_json(timeline) if fmt == "chrome" \
            else to_columnar_json(timeline)
        envelope = protocol.ok_envelope({"format": fmt, "bytes": len(text) + 1})
        return JobResult(
            envelope=envelope,
            blob=(text + "\n").encode("utf-8"),
            content_type=JSON_CONTENT_TYPE,
        )

    return compute


def _report_compute(server, source, options: ReportOptions):
    def compute() -> JobResult:
        from repro import api

        if "workload" in source:
            spec = source["workload"]
            kwargs, extra = _split_workload_spec(spec)
            if extra:
                kwargs["workload_kwargs"] = extra
            html_text = api.report(spec["name"],
                                   options=options.replace(**kwargs))
        else:
            html_text = api.report(_coerce_full_trace(server, source),
                                   options=options)
        envelope = protocol.ok_envelope({"bytes": len(html_text)})
        return JobResult(
            envelope=envelope,
            blob=html_text.encode("utf-8"),
            content_type=HTML_CONTENT_TYPE,
        )

    return compute


def _coerce_full_trace(server, source):
    """A fully loaded Trace for endpoints that need whole-thread views.

    The spool file is named ``<digest>.trace`` whatever the upload's
    container, so the segmented format is sniffed by content first — a
    gzip-compressed segmented upload would fail the monolithic loader's
    suffix check.
    """
    from repro.trace import segments, serialize

    target = _load_source(server, source)
    if isinstance(target, Path):
        if segments.is_segmented_file(target):
            return segments.load_segmented(target)
        return serialize.load(target)
    return target


_COMPUTE_BUILDERS = {
    "analyze": lambda server, source, req: _analyze_compute(
        server, source, AnalyzeOptions.from_wire(req["options"])),
    "transform": lambda server, source, req: _transform_compute(
        server, source, _transform_options(req["options"])),
    "timeline": lambda server, source, req: _timeline_compute(
        server, source, _timeline_options(req["options"]), req["format"]),
    "report": lambda server, source, req: _report_compute(
        server, source, ReportOptions.from_wire(req["options"])),
}


def _bool_options(owner: str, payload: Optional[dict], known: tuple) -> dict:
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise OptionsError(f"{owner}: options must be a JSON object")
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise OptionsError(
            f"{owner}: unknown option(s) {unknown}; known: {sorted(known)}"
        )
    for name, value in payload.items():
        if not isinstance(value, bool):
            raise OptionsError(f"{owner}.{name}: expected a boolean, got {value!r}")
    return dict(payload)


def _transform_options(payload: Optional[dict]) -> dict:
    return _bool_options("TransformOptions", payload,
                         ("benign_detection", "order_edges"))


def _timeline_options(payload: Optional[dict]) -> dict:
    return _bool_options("TimelineOptions", payload, ("benign_detection",))


# ------------------------------------------------------------- the server


class ReproServer(ThreadingHTTPServer):
    """Threaded HTTP server wired to a :class:`JobManager` and a sink."""

    daemon_threads = True
    allow_reuse_address = True
    # the socketserver default backlog (5) drops connections under a
    # concurrent-client burst; size it for hundreds of simultaneous opens
    request_queue_size = 512

    def __init__(
        self,
        address=("127.0.0.1", 0),
        *,
        policy: Optional[ExecPolicy] = None,
        max_workers: int = 16,
        keep_mb: float = 64.0,
        max_body_mb: float = 64.0,
        sync_timeout: float = 600.0,
        spool_dir=None,
        sink: Optional[telemetry.Telemetry] = None,
    ):
        self.sink = sink if sink is not None else telemetry.Telemetry()
        if spool_dir is None:
            self._spool_tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
            spool_dir = self._spool_tmp.name
        self.spool_dir = Path(spool_dir)
        # finished jobs' artifacts spill next to the uploads
        self.manager = JobManager(policy=policy, max_workers=max_workers,
                                  keep_mb=keep_mb,
                                  spill_dir=self.spool_dir / "jobs")
        self.max_body = int(max_body_mb * 1024 * 1024)
        self.sync_timeout = sync_timeout
        self.started = time.monotonic()
        self.tenants: dict = {}
        self._tenants_lock = threading.Lock()
        #: open SSE event streams (exported as the serve.watchers gauge)
        self.watchers = 0
        self._watchers_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        # the server owns the process-wide ambient sink for its lifetime:
        # handler threads and job-manager workers all record into one
        # Telemetry without per-request global swaps (those would race
        # across threads); close() restores whatever was active before
        self._previous_sink = telemetry.active()
        telemetry.configure(self.sink)
        super().__init__(tuple(address), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def note_tenant(self, tenant: str) -> None:
        with self._tenants_lock:
            self.tenants[tenant] = self.tenants.get(tenant, 0) + 1

    def adjust_watchers(self, delta: int) -> int:
        """Track open SSE streams; mirrors into the serve.watchers gauge."""
        with self._watchers_lock:
            self.watchers += delta
            self.sink.gauge("serve.watchers", self.watchers)
            return self.watchers

    def close(self) -> None:
        self.manager.shutdown()
        self.server_close()
        telemetry.configure(self._previous_sink)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a keep-alive response is written as headers then body;
    # with Nagle on, the body waits out the client's delayed ACK (~40 ms)
    disable_nagle_algorithm = True
    server: ReproServer

    # ------------------------------------------------------------- plumbing
    #
    # http.server's default request logging writes bare lines to stderr;
    # everything here routes through repro.log instead, with structured
    # fields (request id, job id, status) so server logs correlate with
    # the run ids the analysis emits and with /v1/jobs ids.

    #: per-request correlation fields, assigned at route entry
    request_id: str = ""
    job_id: str = ""
    #: a POST whose body is still unread on the socket; an error answered
    #: then closes the connection, or the body would parse as the next
    #: request
    body_pending: bool = False

    def _log_fields(self, **extra) -> dict:
        fields = {
            "event": "serve.request",
            "request_id": self.request_id,
            "client": self.address_string(),
        }
        if self.job_id:
            fields["job"] = self.job_id
        fields.update(extra)
        return fields

    def log_request(self, code="-", size="-"):  # noqa: D102 (contract)
        _log.info(
            "%s %s -> %s", self.command, self.path,
            getattr(code, "value", code),
            extra=self._log_fields(status=str(getattr(code, "value", code))),
        )

    def log_error(self, fmt, *args):
        _log.warning(
            fmt, *args,
            extra=self._log_fields(event="serve.request_error"),
        )

    def log_message(self, fmt, *args):  # route through repro.log, not stderr
        _log.debug("%s " + fmt, self.address_string(), *args)

    def _respond(self, status: int, body: bytes, content_type: str,
                 headers: Optional[dict] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_outcome(self, outcome, headers: dict) -> None:
        """A finished job's frozen result envelope, as encoded at finish."""
        self._respond(outcome.status, outcome.body, JSON_CONTENT_TYPE, headers)

    def _respond_envelope(self, envelope: dict, *, status: Optional[int] = None,
                          headers: Optional[dict] = None) -> None:
        body = protocol.wire_dumps(envelope).encode("utf-8")
        self._respond(status if status is not None
                      else protocol.http_status(envelope),
                      body, JSON_CONTENT_TYPE, headers)

    def _respond_error(self, exc: BaseException) -> None:
        envelope = protocol.envelope_from_exception(exc)
        telemetry.count("serve.errors")
        # "Connection: close" also sets close_connection
        headers = {"Connection": "close"} if self.body_pending else None
        self._respond_envelope(envelope, headers=headers)

    # --------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        started = time.perf_counter()
        self.request_id = f"req-{next(self.server._request_ids):06d}"
        parsed = urllib.parse.urlsplit(self.path)
        try:
            self._route_get(parsed)
        except BrokenPipeError:
            pass
        except Exception as exc:
            self._safe_error(exc)
        finally:
            self._observe(parsed.path, started)

    def do_POST(self) -> None:  # noqa: N802
        started = time.perf_counter()
        self.request_id = f"req-{next(self.server._request_ids):06d}"
        self.body_pending = True
        parsed = urllib.parse.urlsplit(self.path)
        try:
            self._route_post(parsed)
        except BrokenPipeError:
            pass
        except Exception as exc:
            self._safe_error(exc)
        finally:
            self._observe(parsed.path, started)

    def _safe_error(self, exc: BaseException) -> None:
        try:
            self._respond_error(exc)
        except Exception:
            _log.error("failed to send error response: %s", exc,
                       extra={"event": "serve.respond_failed"})

    def _observe(self, path: str, started: float) -> None:
        endpoint = self._endpoint_label(path)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        sink = self.server.sink
        sink.count(f"serve.requests.{endpoint}")
        sink.observe(f"serve.latency_ms.{endpoint}", elapsed_ms)

    @staticmethod
    def _endpoint_label(path: str) -> str:
        parts = [p for p in path.split("/") if p]
        if not parts:
            return "root"
        if parts[0] == "metrics":
            return "metrics"
        if len(parts) >= 2 and parts[0] == "v1":
            if parts[1] == "jobs":
                return "events" if len(parts) >= 4 and parts[3] == "events" \
                    else "jobs"
            return parts[1]
        return "other"

    def _route_get(self, parsed) -> None:
        parts = [p for p in parsed.path.split("/") if p]
        if parsed.path == "/metrics":
            text = telemetry.to_prometheus(self.server.sink)
            self._respond(200, text.encode("utf-8"), PROM_CONTENT_TYPE)
            return
        if parsed.path == "/v1/health":
            result = {
                "status": "ok",
                "jobs": self.server.manager.stats(),
                "tenants": dict(sorted(self.server.tenants.items())),
                "endpoints": sorted(ENDPOINTS),
            }
            self._respond_envelope(protocol.ok_envelope(result))
            return
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            self._route_job(parts[2:])
            return
        raise NotFoundError(f"no such route: GET {parsed.path}")

    def _route_job(self, rest) -> None:
        job = self.server.manager.get(rest[0])
        if job is None:
            raise NotFoundError(_evicted(rest[0]))
        self.job_id = job.id
        headers = {"X-Repro-Job": job.id}
        outcome = job.result
        if len(rest) == 1:
            if outcome is not None and outcome.artifact is None:
                # JSON-result jobs answer with the result envelope itself,
                # byte-identical to the synchronous response
                self._respond_outcome(outcome, headers)
                return
            self._respond_envelope(protocol.ok_envelope(job.status()),
                                   headers=headers)
            return
        if rest[1] == "artifact":
            if outcome is None:
                raise RequestError(
                    f"job {job.id} is still running; poll /v1/jobs/{job.id}"
                )
            if not outcome.ok:
                self._respond_outcome(outcome, headers)
                return
            if outcome.artifact is None:
                raise NotFoundError(f"job {job.id} has no artifact; its "
                                    "result is the JSON envelope")
            blob = self.server.manager.read_artifact(job)
            if blob is None:
                raise NotFoundError(_evicted(job.id))
            self._respond(200, blob, outcome.content_type, headers)
            return
        if rest[1] == "events":
            self._stream_events(job)
            return
        raise NotFoundError(f"no such job route: {'/'.join(rest)}")

    def _stream_events(self, job) -> None:
        """``GET /v1/jobs/<id>/events``: progress snapshots over SSE.

        Each progress snapshot is one ``event: snapshot`` frame whose
        data line is the canonical :func:`repro.observe.snapshot_dumps`
        encoding; the stream ends with one ``event: result`` frame whose
        data lines carry exactly the bytes a ``GET /v1/jobs/<id>`` poll
        of the finished job returns — byte-identical after the standard
        SSE join of data lines with a newline.  The response has no
        Content-Length (the connection closes when the stream ends), so
        ``Connection: close`` is explicit.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.send_header("X-Repro-Job", job.id)
        self.end_headers()
        self.close_connection = True
        self.server.adjust_watchers(+1)
        try:
            for data in job.progress_lines(timeout=self.server.sync_timeout):
                self.wfile.write(
                    f"event: snapshot\ndata: {data}\n\n".encode("utf-8")
                )
                self.wfile.flush()
            if job.result is not None:
                body = job.result.body.decode("utf-8")
                frame = "event: result\n" + "".join(
                    f"data: {line}\n" for line in body.split("\n")
                ) + "\n"
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        finally:
            self.server.adjust_watchers(-1)

    def _route_post(self, parsed) -> None:
        parts = [p for p in parsed.path.split("/") if p]
        if len(parts) != 2 or parts[0] != "v1" or parts[1] not in ENDPOINTS:
            raise NotFoundError(
                f"no such route: POST {parsed.path} "
                f"(endpoints: {', '.join('/v1/' + e for e in ENDPOINTS)})"
            )
        endpoint = parts[1]
        tenant = self.headers.get("X-Repro-Tenant", "anonymous")
        self.server.note_tenant(tenant)
        body = self._read_body()
        content_type = (self.headers.get("Content-Type") or "").split(";")[0]
        if content_type == "application/json":
            request = self._json_request(endpoint, body)
            if request["workload"] is None:
                raise RequestError(
                    "JSON requests need a workload spec; upload raw trace "
                    "bytes with a non-JSON content type to analyze a trace"
                )
            source = {"workload": request["workload"]}
            key_params = {"workload": request["workload"]}
            path = None
        else:
            if not body:
                raise RequestError("empty trace upload")
            request = self._query_request(endpoint, parsed.query)
            path = _spool_trace(self.server, body)
        manager = self.server.manager
        sync = request["mode"] != "async"
        if path is not None:
            # pinned until submitted: the budget may evict it meanwhile
            manager.pin_upload(path, len(body))
        try:
            if path is not None:
                if not path.exists():  # evicted before the pin
                    _spool_trace(self.server, body)
                source = {"path": str(path)}
                key_params = {"trace": _trace_key(path, body)}
            key = cache_key(
                f"serve.{endpoint}",
                options=request["options"] or {},
                format=request["format"],
                **key_params,
            )
            compute = _COMPUTE_BUILDERS[endpoint](self.server, source, request)
            job, dedup = manager.submit(
                endpoint, key, self._cached(endpoint, key, compute),
                tenant=tenant, hold=sync, upload=path,
            )
        finally:
            if path is not None:
                manager.unpin_upload(path)
        self.job_id = job.id
        headers = {
            "X-Repro-Job": job.id,
            "X-Repro-Dedup": dedup,
            "X-Repro-Key": key[:32],
        }
        if sync:
            try:
                self._respond_sync(job, headers)
            finally:
                manager.release(job)
        else:
            telemetry.count("serve.jobs.async")
            envelope = protocol.ok_envelope({
                "job": job.id,
                "state": job.state,
                "poll": f"/v1/jobs/{job.id}",
                "dedup": dedup,
            })
            self._respond_envelope(envelope, status=202, headers=headers)

    def _respond_sync(self, job, headers: dict) -> None:
        """Wait for a job this request holds, then send its result."""
        if not job.wait(self.server.sync_timeout):
            raise RequestError(
                f"job {job.id} did not finish within the server's sync "
                f"window; resubmit with mode=async and poll /v1/jobs/{job.id}"
            )
        outcome = job.result
        if outcome.artifact is not None:
            # held: the bytes are in memory or the file is still there
            self._respond(200, self.server.manager.read_artifact(job),
                          outcome.content_type, headers)
            return
        self._respond_outcome(outcome, headers)

    def _cached(self, endpoint: str, key: str, compute):
        """Back a computation with the active blob cache when one is open.

        The tuple round-trips through gzip-pickle, so a server restarted
        over the same ``--cache-dir`` answers repeat requests from disk.
        """
        from repro.runner import cache as _cache

        if _cache.active() is None:
            return compute
        wants_job = getattr(compute, "wants_job", False)

        def cached_compute(job=None) -> JobResult:
            run = (lambda: compute(job)) if wants_job else compute
            envelope, blob, content_type = _cache.memoized(
                "serve.response", {"key": key},
                lambda: _result_tuple(run()),
            )
            return JobResult(envelope=envelope, blob=blob,
                             content_type=content_type)

        # a cache hit skips the computation, so no intermediate progress
        # is published — the event stream then carries just the terminal
        # result, which is the correct replay of "no work was redone"
        cached_compute.wants_job = wants_job
        return cached_compute

    # ------------------------------------------------------------- parsing

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        if length is None:
            raise RequestError("POST needs a Content-Length header")
        try:
            length = int(length)
        except ValueError:
            raise RequestError(f"bad Content-Length: {length!r}") from None
        if length > self.server.max_body:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the server's "
                f"limit of {self.server.max_body} bytes"
            )
        body = self.rfile.read(length)
        self.body_pending = False
        return body

    def _json_request(self, endpoint: str, body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"request body is not valid JSON: {exc}") \
                from None
        return protocol.parse_request(endpoint, payload)

    def _query_request(self, endpoint: str, query: str) -> dict:
        params = dict(urllib.parse.parse_qsl(query))
        payload: dict = {}
        for name in ("mode", "format"):
            if name in params:
                payload[name] = params.pop(name)
        if "options" in params:
            try:
                payload["options"] = json.loads(params.pop("options"))
            except json.JSONDecodeError as exc:
                raise RequestError(
                    f"options query parameter is not valid JSON: {exc}"
                ) from None
        if params:
            raise RequestError(
                f"unknown query parameter(s) {sorted(params)}; "
                "known: mode, format, options"
            )
        return protocol.parse_request(endpoint, payload)


def _evicted(job_id: str) -> str:
    return (f"no such job: {job_id!r} (finished jobs are evicted oldest first "
            "once the server's retention budget is full; resubmit the "
            "request)")


def _result_tuple(result: JobResult):
    return (result.envelope, result.blob, result.content_type)


def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    **server_kwargs,
) -> ReproServer:
    """Build a :class:`ReproServer` bound to ``host:port`` (not yet running).

    The caller starts it with ``serve_forever()`` (the CLI does) or on a
    background thread (tests and the in-process load test do)::

        server = serve(port=0)           # 0 = any free port
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown(); server.close()
    """
    server = ReproServer((host, port), **server_kwargs)
    _log.info(
        "serving on %s", server.url,
        extra={"event": "serve.start", "url": server.url},
    )
    return server
