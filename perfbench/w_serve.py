"""``serve-open``: an open-loop request mix against a ``repro serve`` process.

The harness starts ``repro serve`` (through :mod:`serve_child`) on an
ephemeral port with a fresh spool directory.  A single-process generator sends seeded arrivals
(jittered gaps around the offered rate) over at most ``nproc`` keep-alive
connections (two), and times every request from the moment it was due,
so a stall also charges the requests queued behind it.

Each block of 20 requests is a seeded shuffle of :data:`DECK`: 70 %
reads (health, ``/metrics``, polls of async jobs) and 30 % writes --
``/v1/analyze`` uploads of 1.2k-event segmented traces (three unique,
one repeat of an earlier upload), one ``/v1/transform`` or
``/v1/timeline`` upload as plain monolithic JSONL, and one as a
segmented ``.jsonl.gz``.

The run holds :data:`FIXED_RATE` for the measured seconds, then searches
for the highest offered rate whose p90 over all requests stays within
:data:`P90_LIMIT_MS` without a growing backlog.

Every response is checked after the run: analyze bodies byte-for-byte
against ``protocol.wire_dumps(protocol.ok_envelope(
protocol.analyze_result(api.analyze(path))))`` on the same bytes,
transform and timeline artifacts against the same functions run
locally.  Segmented ``.jsonl.gz`` uploads to ``/v1/transform`` and
``/v1/timeline`` are answered ``400 trace.invalid`` today (the spool
file has no ``.gz`` suffix, so ``serialize.load`` refuses it); that
answer is counted as the known defect, and a correct artifact is
accepted once it is fixed.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import inputs

#: keeps both connections busy enough that every response waits out the
#: client's delayed ACK (the Nagle floor, ~44 ms); below ~32 req/s the
#: connections idle long enough for quick ACKs and latency turns bimodal
FIXED_RATE = 36.0
#: gaps between arrivals are the mean gap times a seeded draw in this range
JITTER = (0.75, 1.25)
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
WINDOW_S = 3.0
RATE_STEP = 1.3
BISECT_STEPS = 2
MAX_RATE = 400.0
P90_LIMIT_MS = 500.0
#: a window whose late-third queueing exceeds its first third by this
#: much has a growing backlog
BACKLOG_GROWTH_MS = 100.0
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 60.0
#: back-to-back health requests on one connection for the transport gap
HEALTH_BURST = 40

READ_KINDS = ("health", "metrics", "poll")
#: one block of the mix: 14 reads and 6 writes, of which three are
#: computed (two unique sync analyze uploads and the plain artifact).
DECK = (["health"] * 10 + ["metrics"] + ["poll"] * 3
        + ["analyze"] * 2 + ["analyze_async"] + ["analyze_repeat"]
        + ["artifact_plain", "artifact_gz"])
ENDPOINT_LABELS = ("health", "metrics", "jobs", "analyze", "transform",
                   "timeline")


# ---------------------------------------------------------------- inputs


class Corpus:
    """Upload bodies, generated from the seed as the schedule needs them."""

    def __init__(self, seed: int, work: Path):
        self.base = seed * 1_000_000
        self.work = work
        self.count = 0
        #: body key -> (path of the segmented file, plain JSONL path or None)
        self.files = {}
        self.bodies = {}

    def unique(self, plain: bool = False) -> str:
        from repro.trace import serialize

        key = f"u{self.count}"
        path = self.work / f"{key}.seg.jsonl.gz"
        inputs.write_small_trace(path, self.base + self.count)
        self.count += 1
        plain_path = None
        if plain:
            plain_path = self.work / f"{key}.jsonl"
            serialize.dump(serialize.load(path), plain_path)
        self.files[key] = (path, plain_path)
        self.bodies[key] = (plain_path or path).read_bytes()
        return key


class Request:
    __slots__ = ("kind", "due", "method", "path", "key", "endpoint",
                 "sent", "done", "status", "headers", "body", "error",
                 "late")

    def __init__(self, kind, due, method, path, key=None, endpoint=None):
        self.kind, self.due, self.method, self.path = kind, due, method, path
        self.key, self.endpoint = key, endpoint
        self.sent = self.done = self.late = None
        self.status, self.headers, self.body, self.error = None, {}, b"", None

    @property
    def is_read(self) -> bool:
        return self.kind in READ_KINDS

    def latency_ms(self) -> float:
        if self.error is not None or self.done is None:
            return math.inf
        return (self.done - self.due) * 1000.0


def schedule(rng, rate: float, seconds: float, corpus: Corpus, analyzed):
    """The seeded request list of one phase (dues relative to its start)."""
    n = max(1, round(rate * seconds))
    kinds = []
    while len(kinds) < n:
        deck = list(DECK)
        rng.shuffle(deck)
        kinds += deck
    requests, due, flip = [], 0.0, 0
    for kind in kinds[:n]:
        due += rng.uniform(*JITTER) / rate
        if kind == "health":
            req = Request(kind, due, "GET", "/v1/health")
        elif kind == "metrics":
            req = Request(kind, due, "GET", "/metrics")
        elif kind == "poll":
            req = Request(kind, due, "GET", None)  # target picked when sent
        elif kind in ("analyze", "analyze_async"):
            key = corpus.unique()
            analyzed.append(key)
            path = "/v1/analyze" + ("?mode=async" if kind != "analyze" else "")
            req = Request(kind, due, "POST", path, key, "analyze")
        elif kind == "analyze_repeat":
            req = Request(kind, due, "POST", "/v1/analyze",
                          rng.choice(analyzed), "analyze")
        else:
            endpoint = ("transform", "timeline")[flip % 2]
            flip += 1
            key = corpus.unique(plain=kind == "artifact_plain")
            req = Request(kind, due, "POST", f"/v1/{endpoint}", key, endpoint)
        requests.append(req)
    return requests


# ---------------------------------------------------------------- server


class Server:
    """One ``repro serve`` child (:mod:`serve_child`) on an ephemeral port."""

    def __init__(self, work: Path, name: str, spans=None):
        self.log = work / f"{name}.log"
        command = [sys.executable, str(common.HERE / "serve_child.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["serve", "--host", "127.0.0.1", "--port", "0",
                    "--spool-dir", str(work / f"{name}-spool")]
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(command, cwd=common.ROOT,
                                         stdout=log, stderr=log)
        self.host, self.port = "127.0.0.1", None
        deadline = time.monotonic() + 60
        while self.port is None:
            match = re.search(r"listening on http://[\d.]+:(\d+)",
                              self.log.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not start: "
                                   + self.log.read_text(errors="replace"))
            else:
                time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)


def call(conn, method, path, body=None, headers=None):
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return response.status, dict(response.getheaders()), response.read()


def connection(server):
    return http.client.HTTPConnection(server.host, server.port,
                                      timeout=REQUEST_TIMEOUT_S)


# ------------------------------------------------------------- generator


class Generator:
    """Open-loop sender: requests go out in due order on free connections."""

    def __init__(self, server, corpus: Corpus):
        self.server = server
        self.corpus = corpus
        self.jobs = []            # (job id, body key) of async submissions
        self.lock = threading.Lock()

    def run_phase(self, requests) -> None:
        """Send ``requests``, each on the first free connection."""
        cursor = iter(range(len(requests)))
        lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def worker():
            conn = connection(self.server)
            try:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    self.send(conn, requests[i], start)
                    if requests[i].error is not None:
                        conn.close()
                        conn = connection(self.server)
            finally:
                conn.close()

        threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def send(self, conn, req: Request, start: float) -> None:
        due = start + req.due
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            req.late = time.perf_counter() - due
        req.due = due
        headers, body = {}, None
        if req.kind == "poll":
            with self.lock:
                job_id, req.key = self.jobs[-1]
            req.path = f"/v1/jobs/{job_id}"
        elif req.method == "POST":
            headers = {"Content-Type": "application/octet-stream"}
            body = self.corpus.bodies[req.key]
        req.sent = time.perf_counter()
        try:
            req.status, req.headers, req.body = call(conn, req.method,
                                                     req.path, body, headers)
        except (OSError, http.client.HTTPException) as exc:
            req.error = f"{type(exc).__name__}: {exc}"
            return
        req.done = time.perf_counter()
        if req.kind == "analyze_async" and req.status == 202:
            job = json.loads(req.body)["result"]["job"]
            with self.lock:
                self.jobs.append((job, req.key))


# ------------------------------------------------------------ checking


class Expected:
    """Local outputs of the same functions the service runs, per upload."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.cache = {}

    def analyze(self, key) -> bytes:
        from repro import api
        from repro.serve import protocol

        if ("analyze", key) not in self.cache:
            path = self.corpus.files[key][0]
            envelope = protocol.ok_envelope(
                protocol.analyze_result(api.analyze(path)))
            self.cache["analyze", key] = protocol.wire_dumps(
                envelope).encode("utf-8")
        return self.cache["analyze", key]

    def artifact(self, endpoint, key) -> bytes:
        import io

        from repro import api
        from repro.options import AnalyzeOptions
        from repro.timeline import build_timeline, to_columnar_json
        from repro.trace import serialize

        if (endpoint, key) not in self.cache:
            trace = serialize.load(self.corpus.files[key][0])
            if endpoint == "transform":
                out = io.StringIO()
                serialize.write_trace(api.transform(trace), out)
                blob = out.getvalue()
            else:
                analysis = api.analyze(trace, AnalyzeOptions())
                blob = to_columnar_json(
                    build_timeline(trace, analysis=analysis)) + "\n"
            self.cache[endpoint, key] = blob.encode("utf-8")
        return self.cache[endpoint, key]


def job_state(body: bytes):
    """The ``state`` of a job-status envelope (None for anything else)."""
    try:
        return json.loads(body)["result"].get("state")
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def known_defect(req: Request) -> bool:
    """The gzip-upload rejection of ``/v1/transform`` and ``/v1/timeline``."""
    if req.kind != "artifact_gz" or req.status != 400:
        return False
    try:
        return json.loads(req.body)["error"]["code"] == "trace.invalid"
    except (ValueError, KeyError, TypeError):
        return False


def problem_of(req: Request, expected: Expected):
    """None when the response is right, else what is wrong with it."""
    if req.error is not None:
        return f"{req.kind} {req.path}: {req.error}"
    where = f"{req.kind} {req.path} -> {req.status}"
    if req.kind == "health":
        ok = req.status == 200 and json.loads(req.body).get("ok") is True
    elif req.kind == "metrics":
        ok = req.status == 200 and req.body.startswith(b"# HELP")
    elif req.kind == "poll":
        ok = req.status == 200 and (
            req.body == expected.analyze(req.key)
            or job_state(req.body) in ("queued", "running"))
    elif req.kind == "analyze_async":
        ok = req.status == 202 and json.loads(req.body)["ok"] is True
    elif req.kind in ("analyze", "analyze_repeat"):
        ok = req.status == 200 and req.body == expected.analyze(req.key)
    elif known_defect(req):
        ok = True
    else:
        ok = req.status == 200 and req.body == expected.artifact(
            req.endpoint, req.key)
    return None if ok else where


def check_all(checks, requests, expected, generator) -> None:
    for req in requests:
        checks.op(problem_of(req, expected))
    # every async job's final result, polled once more after the load
    conn = connection(generator.server)
    try:
        for job_id, key in generator.jobs:
            for _ in range(600):
                status, _, body = call(conn, "GET", f"/v1/jobs/{job_id}")
                if job_state(body) not in ("queued", "running"):
                    break
                time.sleep(0.05)
            checks.op(None if body == expected.analyze(key) else
                      f"async job {job_id}: final result differs")
    finally:
        conn.close()


# ----------------------------------------------------------- statistics


def window_verdict(requests):
    """(p90 ms over all requests, backlog growth ms) for one window."""
    p90 = common.percentile([r.latency_ms() for r in requests], 90)
    third = max(1, len(requests) // 3)
    queued = [((r.sent or r.due) - r.due) * 1000.0 for r in requests]
    return p90, common.median(queued[-third:]) - common.median(queued[:third])


def rate_search(generator, corpus, analyzed, seed, fixed, all_requests):
    """Highest offered rate meeting the p90 limit with no growing backlog.

    Steps up by RATE_STEP from the fixed rate until a window fails (or
    down, when the fixed rate already failed), bisects the
    last bracket BISECT_STEPS times, then places the limit
    crossing inside the final bracket by log-linear interpolation of the
    windows' :func:`margin`, so the estimate is not tied to the grid.
    """
    fixed_p90, fixed_growth = window_verdict(fixed)
    results = {FIXED_RATE: (fixed_p90, fixed_growth)}
    windows = 0

    def measure(rate):
        nonlocal windows
        rng = random.Random(seed * 7919 + windows)
        windows += 1
        requests = schedule(rng, rate, WINDOW_S, corpus, analyzed)
        generator.run_phase(requests)
        all_requests.extend(requests)
        results[rate] = window_verdict(requests)
        return passed(rate)

    def passed(rate):
        return margin(*results[rate]) <= 1.0

    lo, hi = None, None
    rate = FIXED_RATE
    if passed(rate):
        lo = rate
        while hi is None and rate < MAX_RATE:
            rate = min(MAX_RATE, rate * RATE_STEP)
            if measure(rate):
                lo = rate
            else:
                hi = rate
    else:
        hi = rate
        while lo is None and rate > 1.0:
            rate = rate / RATE_STEP
            if measure(rate):
                lo = rate
            else:
                hi = rate
    if lo is None or hi is None:
        return lo or rate
    for _ in range(BISECT_STEPS):
        mid = math.sqrt(lo * hi)
        if measure(mid):
            lo = mid
        else:
            hi = mid
    # the crossing of margin 1 inside the final bracket, log-linearly
    m_lo, m_hi = margin(*results[lo]), margin(*results[hi])
    if not math.isfinite(m_hi) or m_hi <= m_lo:
        return lo
    frac = (math.log(1.0) - math.log(m_lo)) / (math.log(m_hi)
                                                - math.log(m_lo))
    return lo * (hi / lo) ** min(1.0, max(0.0, frac))


def margin(p90_ms: float, growth_ms: float) -> float:
    """How close a window came to failing: > 1 is a failed window."""
    return max(p90_ms / P90_LIMIT_MS, growth_ms / BACKLOG_GROWTH_MS, 1e-3)


def prometheus(text: str):
    """(counters, histograms) from the Prometheus exposition."""
    counters, hists = {}, {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        match = re.match(r'(\w+)_bucket\{le="([^"]+)"\}$', name)
        if match:
            hists.setdefault(match.group(1), []).append(
                (math.inf if match.group(2) == "+Inf" else float(
                    match.group(2)), float(value)))
        elif "{" not in name:
            counters[name] = float(value)
    return counters, hists


def histogram_quantile(buckets, q: float) -> float:
    """Linear interpolation inside the bucket holding quantile ``q``."""
    total = buckets[-1][1]
    if not total:
        return 0.0
    target, lower, below = q * total, 0.0, 0.0
    for upper, cumulative in buckets:
        if cumulative >= target:
            if math.isinf(upper) or cumulative == below:
                return lower
            return lower + (upper - lower) * (target - below) / (
                cumulative - below)
        lower, below = upper, cumulative
    return lower


# ---------------------------------------------------------------- run


def setup(seed, seconds, work, name, spans=None):
    """Start a server, warm it up and generate the fixed phase's inputs."""
    server = Server(work, name, spans)
    try:
        corpus = Corpus(seed, work / f"{name}-corpus")
        corpus.work.mkdir()
        generator = Generator(server, corpus)
        analyzed = [corpus.unique() for _ in range(2)]
        upload = {"Content-Type": "application/octet-stream"}
        conn = connection(server)
        try:
            # one of each request shape, so first-call costs (imports,
            # caches) land here; two async jobs are the first poll targets
            for key in analyzed:
                call(conn, "POST", "/v1/analyze", corpus.bodies[key], upload)
                job_key = corpus.unique()
                _, _, body = call(conn, "POST", "/v1/analyze?mode=async",
                                  corpus.bodies[job_key], upload)
                generator.jobs.append(
                    (json.loads(body)["result"]["job"], job_key))
            for endpoint in ("transform", "timeline"):
                call(conn, "POST", f"/v1/{endpoint}",
                     corpus.bodies[corpus.unique(plain=True)], upload)
            call(conn, "GET", "/metrics")
            call(conn, "GET", "/v1/health")
        finally:
            conn.close()
        fixed = schedule(random.Random(seed), FIXED_RATE, seconds, corpus,
                         analyzed)
        return server, corpus, generator, analyzed, fixed
    except BaseException:
        server.stop()
        raise


def run(seed: int, seconds: float, trace: bool, work, checks) -> dict:
    if trace:
        return traced_metrics(seed, seconds, work, checks)
    setups = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        server, corpus, generator, analyzed, requests = setup(
            seed, seconds, work, f"s{i}")
        setups.append(time.perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            server.stop()
    try:
        generator.run_phase(requests)
        latencies = [r.latency_ms() for r in requests]
        all_requests = list(requests)
        max_rate = rate_search(generator, corpus, analyzed, seed, requests,
                               all_requests)
        rss = server.peak_rss_mb()
        check_all(checks, all_requests, Expected(corpus), generator)
    finally:
        server.stop()
    return {
        "setup_s": common.median(setups),
        "peak_rss_mb": rss,
        "latency_p50_ms": common.percentile(latencies, 50),
        "latency_p90_ms": common.percentile(latencies, 90),
        "ops_per_s": max_rate,
    }


def traced_metrics(seed, seconds, work, checks) -> dict:
    """The fixed phase on a plain server, then on one with span wrappers."""
    from spans import Tracer

    import layers

    server, corpus, generator, _, requests = setup(seed, seconds, work,
                                                   "plain")
    try:
        generator.run_phase(requests)
        burst = health_burst(server, checks)
        conn = connection(server)
        try:
            _, _, text = call(conn, "GET", "/metrics")
        finally:
            conn.close()
        check_all(checks, requests, Expected(corpus), generator)
    finally:
        server.stop()
    out = serve_layer_metrics(requests, burst, text.decode("utf-8"))

    spans_path = common.WORK / "spans" / f"serve-open-{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    traced_server, corpus2, generator2, _, traced = setup(
        seed, seconds, work, "traced", spans=spans_path)
    try:
        generator2.run_phase(traced)
        check_all(checks, traced, Expected(corpus2), generator2)
    finally:
        traced_server.stop()
    tracer = Tracer.load(spans_path)
    out.update(layers.layer_metrics(tracer))
    totals = tracer.totals()
    _, op_self, busy = totals.get("op", (0, 0.0, 0.0))
    layer_s = sum(own for _, own, _ in totals.values()) - op_self
    plain_p50 = common.percentile([r.latency_ms() for r in requests], 50)
    traced_p50 = common.percentile([r.latency_ms() for r in traced], 50)
    out["tracing.overhead_ratio"] = traced_p50 / plain_p50 - 1.0
    out["tracing.accounted_ratio"] = layer_s / busy if busy else 0.0
    return out


def health_burst(server, checks):
    """Closed-loop health requests, back to back on one keep-alive
    connection: every response waits out the client's delayed ACK,
    because Nagle's algorithm holds the body behind the separately
    sent headers."""
    latencies = []
    conn = connection(server)
    try:
        for _ in range(HEALTH_BURST):
            start = time.perf_counter()
            status, _, _ = call(conn, "GET", "/v1/health")
            latencies.append((time.perf_counter() - start) * 1000.0)
            checks.op(None if status == 200 else f"health burst: {status}")
    finally:
        conn.close()
    return latencies


def serve_layer_metrics(requests, burst, metrics_text: str) -> dict:
    counters, hists = prometheus(metrics_text)
    out = {}
    for label in ENDPOINT_LABELS:
        buckets = hists.get(f"repro_serve_latency_ms_{label}")
        out[f"serve.server_p50_ms.{label}"] = (
            histogram_quantile(buckets, 0.5) if buckets else 0.0)
    reads = [r.latency_ms() for r in requests if r.is_read]
    writes = [r.latency_ms() for r in requests if not r.is_read]
    out["serve.read_p50_ms"] = common.percentile(reads, 50)
    out["serve.read_p90_ms"] = common.percentile(reads, 90)
    out["serve.compute_p50_ms"] = common.percentile(writes, 50)
    out["serve.compute_p90_ms"] = common.percentile(writes, 90)
    out["serve.transport_gap_ms"] = (
        common.percentile(burst, 50) - out["serve.server_p50_ms.health"])
    analyze = [r for r in requests if r.endpoint == "analyze"]
    hits = [r for r in analyze
            if r.headers.get("X-Repro-Dedup") in ("done", "inflight")]
    out["serve.dedup_hit_ratio"] = len(hits) / len(analyze)
    out["serve.jobs_computed"] = counters.get("repro_serve_computed", 0.0)
    out["serve.known_defect_rejects"] = sum(map(known_defect, requests))
    late = [r.late * 1000.0 for r in requests if r.late is not None]
    out["serve.generator_late_ms"] = common.percentile(late, 90) if late \
        else 0.0
    out["runner.tasks"] = counters.get("repro_pool_tasks", 0.0)
    out["runner.retries"] = counters.get("repro_pool_retries", 0.0)
    return out
