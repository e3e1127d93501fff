"""The HTTP service end to end: routing, dedup, quarantine, metrics."""

import dataclasses
import http.client
import io
import json
import threading
import time

import pytest

from repro import api
from repro.serve import protocol
from repro.serve.jobs import RECORD_OVERHEAD, JobManager, JobResult
from repro.serve.server import ReproServer
from repro.trace import serialize
from repro.trace.segments import write_segmented
from repro.workloads import get_workload


def _trace_bytes(name="mixed-bag", threads=2, scale=1.0, seed=3) -> bytes:
    trace = api.record(name, threads=threads, scale=scale, seed=seed)
    out = io.StringIO()
    serialize.write_trace(trace, out)
    return out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def server():
    server = ReproServer(("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.close()
    thread.join(timeout=5)


@pytest.fixture()
def client(server):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=120)

    def request(method, path, body=None, content_type=None, headers=None):
        merged = dict(headers or {})
        if content_type:
            merged["Content-Type"] = content_type
        conn.request(method, path, body=body, headers=merged)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()

    yield request
    conn.close()


TRACE = None


@pytest.fixture(scope="module")
def trace_bytes():
    global TRACE
    if TRACE is None:
        TRACE = _trace_bytes()
    return TRACE


class TestSync:
    def test_analyze_envelope(self, client, trace_bytes):
        status, headers, body = client(
            "POST", "/v1/analyze", trace_bytes, "application/octet-stream"
        )
        assert status == 200
        envelope = json.loads(body)
        assert envelope["v"] == 1 and envelope["ok"] is True
        assert envelope["result"]["pairs"] > 0
        assert headers["X-Repro-Job"].startswith("analyze-")

    def test_identical_upload_served_from_retained_job(self, client,
                                                       trace_bytes):
        _, first_headers, first = client(
            "POST", "/v1/analyze", trace_bytes, "application/octet-stream"
        )
        _, headers, body = client(
            "POST", "/v1/analyze", trace_bytes, "application/octet-stream"
        )
        assert headers["X-Repro-Dedup"] == "done"
        assert body == first
        assert headers["X-Repro-Job"] == first_headers["X-Repro-Job"]

    def test_workload_spec_matches_upload(self, client, trace_bytes):
        _, _, uploaded = client(
            "POST", "/v1/analyze", trace_bytes, "application/octet-stream"
        )
        spec = json.dumps({
            "workload": {"name": "mixed-bag", "threads": 2, "scale": 1.0,
                         "seed": 3},
        }).encode()
        status, _, body = client(
            "POST", "/v1/analyze", spec, "application/json"
        )
        assert status == 200
        assert json.loads(body) == json.loads(uploaded)

    def test_transform_returns_loadable_trace(self, client, trace_bytes,
                                              tmp_path):
        status, headers, body = client(
            "POST", "/v1/transform", trace_bytes, "application/octet-stream"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("application/x-repro-trace")
        path = tmp_path / "transformed.jsonl"
        path.write_bytes(body)
        transformed = serialize.load(path)
        assert len(transformed) > 0

    def test_timeline_formats(self, client, trace_bytes):
        status, _, body = client(
            "POST", "/v1/timeline?format=json", trace_bytes,
            "application/octet-stream",
        )
        assert status == 200
        assert json.loads(body)["version"] == 1
        status, _, body = client(
            "POST", "/v1/timeline?format=chrome", trace_bytes,
            "application/octet-stream",
        )
        assert status == 200
        assert "traceEvents" in json.loads(body)

    def test_options_change_the_key_and_result(self, client, trace_bytes):
        options = json.dumps({"benign_detection": False}, separators=(",", ":"))
        status, headers, body = client(
            "POST", f"/v1/analyze?options={options}", trace_bytes,
            "application/octet-stream",
        )
        assert status == 200
        envelope = json.loads(body)
        assert envelope["result"]["breakdown"]["benign"] == 0
        assert headers["X-Repro-Dedup"] in ("miss", "done")


class TestAsync:
    def test_poll_until_done_matches_sync(self, client, trace_bytes):
        _, _, sync_body = client(
            "POST", "/v1/analyze", trace_bytes, "application/octet-stream"
        )
        status, headers, body = client(
            "POST", "/v1/analyze?mode=async", trace_bytes,
            "application/octet-stream",
        )
        assert status == 202
        envelope = json.loads(body)
        assert envelope["ok"] is True
        job_id = envelope["result"]["job"]
        assert envelope["result"]["poll"] == f"/v1/jobs/{job_id}"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, _, body = client("GET", f"/v1/jobs/{job_id}")
            document = json.loads(body)
            result = document.get("result")
            if not (isinstance(result, dict)
                    and result.get("state") == "running"):
                break
            time.sleep(0.01)
        # a finished JSON-result job answers with the result envelope
        # itself, byte-identical to the synchronous response
        assert body == sync_body

    def test_unknown_job_is_404(self, client):
        status, _, body = client("GET", "/v1/jobs/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "request.not_found"

    def test_artifact_endpoint(self, client, trace_bytes):
        _, _, sync_blob = client(
            "POST", "/v1/transform", trace_bytes, "application/octet-stream"
        )
        status, headers, _ = client(
            "POST", "/v1/transform?mode=async", trace_bytes,
            "application/octet-stream",
        )
        assert status == 202
        job_id = headers["X-Repro-Job"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, _, body = client("GET", f"/v1/jobs/{job_id}")
            result = json.loads(body)["result"]
            if result.get("state") == "done":
                assert result["artifact"] == f"/v1/jobs/{job_id}/artifact"
                break
            time.sleep(0.01)
        status, _, blob = client("GET", f"/v1/jobs/{job_id}/artifact")
        assert status == 200
        assert blob == sync_blob


class TestConcurrentDedup:
    def test_identical_requests_compute_once(self):
        server = ReproServer(("127.0.0.1", 0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            body = _trace_bytes(seed=11)
            host, port = server.server_address[:2]
            results = []

            def submit():
                conn = http.client.HTTPConnection(host, port, timeout=120)
                try:
                    conn.request(
                        "POST", "/v1/analyze", body=body,
                        headers={"Content-Type": "application/octet-stream"},
                    )
                    response = conn.getresponse()
                    results.append(
                        (response.status,
                         dict(response.getheaders())["X-Repro-Dedup"],
                         response.read())
                    )
                finally:
                    conn.close()

            threads = [threading.Thread(target=submit) for _ in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 12
            assert all(status == 200 for status, _, _ in results)
            bodies = {payload for _, _, payload in results}
            assert len(bodies) == 1
            # the dedup counters prove a single computation happened
            assert server.manager.computed == 1
            assert sum(1 for _, dedup, _ in results if dedup == "miss") == 1
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)


class TestSpool:
    def test_concurrent_identical_uploads_all_spool(self, tmp_path):
        # every handler thread stages under its own temp name; a shared
        # one made racing writers fail the rename (or truncate the file)
        from types import SimpleNamespace

        from repro.serve.server import _spool_trace

        server = SimpleNamespace(spool_dir=tmp_path / "spool")
        body = b"x" * (1 << 20)
        barrier = threading.Barrier(8)
        errors = []

        def upload():
            barrier.wait()
            try:
                assert _spool_trace(server, body).read_bytes() == body
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        for _ in range(20):
            for path in server.spool_dir.glob("*"):
                path.unlink()
            threads = [threading.Thread(target=upload) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        assert [p.name for p in server.spool_dir.iterdir()] == [
            _spool_trace(server, body).name
        ]


    def test_uploads_share_the_retention_budget(self, tmp_path):
        """Spooled uploads are charged to ``--keep-mb`` with the jobs:
        the spool stays under the budget, and every retained job still
        serves its artifact byte for byte."""
        spool = tmp_path / "spool"
        server = ReproServer(("127.0.0.1", 0), keep_mb=0.04, spool_dir=spool)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = _connect(server)
        blobs = {}
        try:
            for seed in range(8):
                trace = api.record("mixed-bag", threads=2, scale=0.3, seed=seed)
                if seed % 2:
                    path = tmp_path / f"{seed}.seg.jsonl.gz"
                    write_segmented(trace, path, segment_events=64)
                    body = path.read_bytes()
                else:
                    out = io.StringIO()
                    serialize.write_trace(trace, out)
                    body = out.getvalue().encode("utf-8")
                status, headers, blob = _call(conn, "POST", "/v1/transform",
                                              body, "application/octet-stream")
                assert status == 200
                blobs[headers["X-Repro-Job"]] = blob
                on_disk = sum(f.stat().st_size for f in spool.rglob("*")
                              if f.is_file())
                assert on_disk <= server.manager.keep_bytes
            retained = [job_id for job_id in blobs if server.manager.get(job_id)]
            assert 0 < len(retained) < len(blobs)
            for job_id in retained:
                status, _, blob = _call(conn, "GET",
                                        f"/v1/jobs/{job_id}/artifact")
                assert status == 200 and blob == blobs[job_id]
        finally:
            conn.close()
            server.shutdown()
            server.close()
            thread.join(timeout=5)

    def test_running_job_pins_its_upload(self, tmp_path):
        manager = JobManager(max_workers=1, keep_mb=0)
        upload = tmp_path / "up.trace"
        upload.write_bytes(b"trace")
        release = threading.Event()

        def compute():
            release.wait(10)
            assert upload.read_bytes() == b"trace"
            return JobResult(envelope={"v": 1, "ok": True, "result": {}})

        try:
            manager.pin_upload(upload, 5)
            job, _ = manager.submit("analyze", "k", compute, upload=upload)
            manager.unpin_upload(upload)  # the request is done with it
            assert upload.exists()
            release.set()
            assert job.wait(10) and job.result.ok
            # finished, the job no longer pins it: the zero budget
            # evicts the upload and the job
            assert not upload.exists()
            assert manager.get(job.id) is None
        finally:
            release.set()
            manager.shutdown()


class TestQuarantine:
    def test_malformed_trace_is_structured_400(self, client):
        status, _, body = client(
            "POST", "/v1/analyze", b"definitely not a trace",
            "application/octet-stream",
        )
        assert status == 400
        envelope = json.loads(body)
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "trace.invalid"
        assert envelope["error"]["detail"]["kind"] == "error"

    def test_unknown_workload_is_structured_400(self, client):
        spec = json.dumps({"workload": {"name": "no-such-thing"}}).encode()
        status, _, body = client(
            "POST", "/v1/analyze", spec, "application/json"
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "workload.invalid"

    def test_bad_options_rejected_before_compute(self, client, trace_bytes):
        status, _, body = client(
            "POST", '/v1/analyze?options={"bogus":1}', trace_bytes,
            "application/octet-stream",
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "options.invalid"

    def test_unknown_route(self, client):
        status, _, body = client("POST", "/v1/nope", b"{}", "application/json")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "request.not_found"

    def test_payload_too_large(self):
        server = ReproServer(("127.0.0.1", 0), max_body_mb=0.0001)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request(
                "POST", "/v1/analyze", body=b"x" * 4096,
                headers={"Content-Type": "application/octet-stream"},
            )
            response = conn.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["error"]["code"] \
                == "request.too_large"
            conn.close()
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)


def _error_then_health(server, path, body):
    """POST ``body`` to ``path``, then GET the health route, on one
    connection: (POST status, GET status)."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/octet-stream"})
        response = conn.getresponse()
        response.read()
        conn.request("GET", "/v1/health")
        health = conn.getresponse()
        health.read()
        return response.status, health.status
    finally:
        conn.close()


class TestKeepAliveAfterEarlyError:
    """An error answered before the request body is read must not leave
    that body on the connection to be parsed as the next request."""

    def test_unknown_route_then_get(self, server):
        assert _error_then_health(server, "/v1/nope", b"{}") == (404, 200)

    def test_over_limit_body_then_get(self):
        server = ReproServer(("127.0.0.1", 0), max_body_mb=0.0001)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert _error_then_health(
                server, "/v1/analyze", b"x" * 4096) == (413, 200)
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)


class TestIntrospection:
    def test_health(self, client):
        status, _, body = client("GET", "/v1/health")
        assert status == 200
        result = json.loads(body)["result"]
        assert result["status"] == "ok"
        assert set(result["jobs"]) == {"running", "finished", "computed"}

    def test_metrics_scrape(self, client, trace_bytes):
        client("POST", "/v1/analyze", trace_bytes, "application/octet-stream")
        status, headers, body = client("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "serve_requests_analyze" in text.replace(".", "_")
        assert "serve_latency_ms_analyze" in text.replace(".", "_")

    def test_tenant_accounting(self, client, trace_bytes):
        client("POST", "/v1/analyze", trace_bytes,
               "application/octet-stream", {"X-Repro-Tenant": "team-a"})
        status, _, body = client("GET", "/v1/health")
        assert "team-a" in json.loads(body)["result"]["tenants"]


class TestJobManager:
    def test_inflight_dedup_shares_one_job(self):
        manager = JobManager(max_workers=2)
        release = threading.Event()

        def compute():
            release.wait(10)
            return JobResult(envelope={"v": 1, "ok": True, "result": {}})

        try:
            first, dedup_first = manager.submit("analyze", "k1", compute)
            assert dedup_first == "miss"
            second, dedup_second = manager.submit("analyze", "k1", compute)
            assert dedup_second == "inflight"
            assert second is first
            release.set()
            assert first.wait(10)
            third, dedup_third = manager.submit("analyze", "k1", compute)
            assert dedup_third == "done"
            assert third.result.ok
            assert manager.computed == 1
        finally:
            release.set()
            manager.shutdown()

    @staticmethod
    def _blob_result(blob=b"x" * 4096):
        return JobResult(envelope={"v": 1, "ok": True, "result": {}},
                         blob=blob, content_type="text/plain")

    def _budget_mb(self, jobs: float) -> float:
        """A retention budget holding ``jobs`` jobs of _blob_result."""
        result = self._blob_result()
        charge = (RECORD_OVERHEAD + len(result.blob)
                  + len(protocol.wire_dumps(result.envelope).encode("utf-8")))
        return jobs * charge / (1024 * 1024)

    def test_finished_jobs_evicted_fifo(self):
        manager = JobManager(max_workers=2, keep_mb=self._budget_mb(2.5))
        try:
            jobs = []
            for i in range(4):
                job, _ = manager.submit("analyze", f"key-{i}",
                                        self._blob_result)
                assert job.wait(10)
                jobs.append(job)
            assert [manager.get(job.id) for job in jobs] == \
                [None, None, jobs[2], jobs[3]]
            assert manager.stats()["finished"] == 2
            # eviction unlinks the spilled artifact; retained ones stay
            assert not jobs[0].result.artifact.exists()
            assert not jobs[1].result.artifact.exists()
            assert manager.read_artifact(jobs[0]) is None
            assert jobs[2].result.artifact.read_bytes() == b"x" * 4096
            assert manager.read_artifact(jobs[3]) == b"x" * 4096
            # an evicted key computes again; a retained one is a dedup hit
            assert manager.submit("analyze", "key-3",
                                  self._blob_result)[1] == "done"
            again, dedup = manager.submit("analyze", "key-0",
                                          self._blob_result)
            assert dedup == "miss" and again is not jobs[0]
        finally:
            manager.shutdown()
        assert not manager.spill_dir.exists()

    def test_held_job_keeps_its_artifact_past_eviction(self):
        manager = JobManager(max_workers=2, keep_mb=self._budget_mb(1.5))
        release = threading.Event()

        def compute():
            release.wait(10)
            return self._blob_result(b"held")

        try:
            held, _ = manager.submit("transform", "held", compute, hold=True)
            release.set()
            assert held.wait(10)
            # a sync holder gets the bytes it computed without a file read
            assert held.blob == b"held"
            later, _ = manager.submit("transform", "later",
                                      self._blob_result)
            assert later.wait(10)
            later, _ = manager.submit("transform", "later2",
                                      self._blob_result)
            assert later.wait(10)
            assert manager.get(held.id) is None
            assert manager.read_artifact(held) == b"held"
            assert held.result.artifact.exists()
            manager.release(held)
            assert held.blob is None
            assert not held.result.artifact.exists()
        finally:
            release.set()
            manager.shutdown()

    def test_zero_budget_serves_holders_and_keeps_nothing(self):
        manager = JobManager(max_workers=1, keep_mb=0)
        try:
            held, _ = manager.submit("transform", "held", self._blob_result,
                                     hold=True)
            assert held.wait(10)
            assert manager.read_artifact(held) == b"x" * 4096
            manager.release(held)
            assert not held.result.artifact.exists()
            job, _ = manager.submit("transform", "async", self._blob_result)
            assert job.wait(10)
            assert manager.get(job.id) is None
            assert manager.read_artifact(job) is None
            assert not job.result.artifact.exists()
            assert manager.stats()["finished"] == 0
        finally:
            manager.shutdown()

    def test_finished_job_drops_its_latch(self):
        manager = JobManager(max_workers=1)
        try:
            job, _ = manager.submit("analyze", "k", lambda: JobResult(
                envelope={"v": 1, "ok": True, "result": {"n": 1}}))
            assert job.wait(10)
            assert job._cond is None
            assert job.progress == ()
            assert job.result.body == protocol.wire_dumps(
                {"v": 1, "ok": True, "result": {"n": 1}}).encode("utf-8")
            assert job.result.artifact is None
        finally:
            manager.shutdown()

    def test_compute_crash_becomes_envelope(self):
        manager = JobManager(max_workers=1)

        def compute():
            raise ValueError("kaboom")

        try:
            job, _ = manager.submit("analyze", "crash-key", compute)
            assert job.wait(30)
            assert job.result.ok is False
            assert "kaboom" in job.result.envelope["error"]["message"]
        finally:
            manager.shutdown()


@pytest.fixture()
def own_server():
    """A private server, for tests that fill its job retention."""
    server = ReproServer(("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.close()
    thread.join(timeout=5)


def _connect(server):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=120)


def _call(conn, method, path, body=None, content_type=None):
    headers = {"Content-Type": content_type} if content_type else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, dict(response.getheaders()), response.read()


def _poll_done(conn, job_id):
    deadline = time.monotonic() + 60
    while True:
        status, _, body = _call(conn, "GET", f"/v1/jobs/{job_id}")
        result = json.loads(body).get("result")
        if not (isinstance(result, dict) and result.get("state") == "running"):
            return status, body
        assert time.monotonic() < deadline
        time.sleep(0.01)


class TestTransport:
    def test_keepalive_responses_skip_the_delayed_ack(self, server):
        """Back-to-back requests on one keep-alive connection.

        With Nagle's algorithm on, each response's body waits for the
        client's delayed ACK of its headers (>= 40 ms on Linux).
        """
        conn = _connect(server)
        try:
            times = []
            for _ in range(20):
                started = time.perf_counter()
                status, _, _ = _call(conn, "GET", "/v1/health")
                times.append((time.perf_counter() - started) * 1000.0)
                assert status == 200
        finally:
            conn.close()
        times.sort()
        assert (times[9] + times[10]) / 2 < 20.0, times


class TestRetention:
    def test_async_job_outlives_a_thousand_later_jobs(self, own_server,
                                                      client, trace_bytes):
        conn = _connect(own_server)
        try:
            status, headers, _ = _call(conn, "POST", "/v1/analyze?mode=async",
                                       trace_bytes, "application/octet-stream")
            assert status == 202
            job_id = headers["X-Repro-Job"]
            _poll_done(conn, job_id)
            manager = own_server.manager
            for i in range(1000):
                job, _ = manager.submit("analyze", f"later-{i}", lambda: (
                    JobResult(envelope=protocol.ok_envelope({"n": 1}))))
                assert job.wait(10)
            status, body = _poll_done(conn, job_id)
        finally:
            conn.close()
        assert status == 200
        assert manager.stats()["finished"] == 1001
        # the sync body of the same upload, computed by another server
        _, _, sync_body = client("POST", "/v1/analyze", trace_bytes,
                                 "application/octet-stream")
        assert body == sync_body

    def test_spilled_artifact_is_identical_on_every_route(self, own_server,
                                                          trace_bytes):
        conn = _connect(own_server)
        try:
            status, headers, sync_blob = _call(
                conn, "POST", "/v1/timeline", trace_bytes,
                "application/octet-stream")
            assert status == 200
            job = own_server.manager.get(headers["X-Repro-Job"])
            spilled = job.result.artifact
            assert spilled.parent == own_server.spool_dir / "jobs"
            assert job.blob is None  # the sync holder released it
            assert spilled.read_bytes() == sync_blob
            status, _, blob = _call(conn, "GET",
                                    f"/v1/jobs/{job.id}/artifact")
            assert status == 200 and blob == sync_blob
            # a dedup hit reads the spilled file
            status, headers, blob = _call(
                conn, "POST", "/v1/timeline", trace_bytes,
                "application/octet-stream")
            assert headers["X-Repro-Dedup"] == "done"
            assert blob == sync_blob
        finally:
            conn.close()
        sse = _connect(own_server)
        try:
            status, _, stream = _call(sse, "GET", f"/v1/jobs/{job.id}/events")
        finally:
            sse.close()
        assert status == 200
        frame = stream.decode("utf-8").split("\n\n")[-2].split("\n")
        assert frame[0] == "event: result"
        body = "\n".join(line[len("data: "):] for line in frame[1:])
        assert body.encode("utf-8") == job.result.body
        assert json.loads(body)["result"]["bytes"] == len(sync_blob)


class TestSegmentedDedupKey:
    def test_renamed_upload_gets_its_own_artifact(self, client, tmp_path):
        """Equal events, different header: two keys, two artifacts."""
        trace = get_workload("mixed-bag", threads=2, seed=5).record().trace
        first = tmp_path / "first.seg.jsonl.gz"
        write_segmented(trace, first, segment_events=64)
        trace.meta = dataclasses.replace(trace.meta, name="renamed-upload")
        second = tmp_path / "second.seg.jsonl.gz"
        write_segmented(trace, second, segment_events=64)
        _, _, first_blob = client("POST", "/v1/transform", first.read_bytes(),
                                  "application/octet-stream")
        status, headers, second_blob = client(
            "POST", "/v1/transform", second.read_bytes(),
            "application/octet-stream")
        assert status == 200
        assert headers["X-Repro-Dedup"] == "miss"
        assert b'"mixed-bag+ulcpfree"' in first_blob
        assert b'"renamed-upload+ulcpfree"' in second_blob
