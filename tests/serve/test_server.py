"""The HTTP service end to end: routing, dedup, quarantine, metrics."""

import http.client
import io
import json
import threading
import time

import pytest

from repro import api
from repro.serve.jobs import JobManager, JobResult
from repro.serve.server import ReproServer
from repro.trace import serialize


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

    def test_finished_jobs_evicted_fifo(self):
        manager = JobManager(max_workers=2, keep=2)

        def compute():
            return JobResult(envelope={"v": 1, "ok": True, "result": {}})

        try:
            jobs = []
            for i in range(4):
                job, _ = manager.submit("analyze", f"key-{i}", compute)
                assert job.wait(10)
                jobs.append(job)
            assert manager.get(jobs[0].id) is None
            assert manager.get(jobs[3].id) is jobs[3]
            assert manager.stats()["finished"] == 2
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
