"""Server output must be byte-identical to local CLI output."""

import http.client
import threading

import pytest

from repro.cli import main
from repro.serve.server import ReproServer


@pytest.fixture()
def server():
    server = ReproServer(("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.close()
    thread.join(timeout=5)


def _post(server, path, body, content_type="application/octet-stream"):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": content_type})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.fixture()
def trace_file(tmp_path, capsys):
    path = str(tmp_path / "t.jsonl")
    assert main(["record", "mixed-bag", "-o", path, "--seed", "5"]) == 0
    capsys.readouterr()
    return path


class TestByteIdentity:
    def test_analyze(self, server, trace_file, capsys):
        assert main(["analyze", trace_file, "--format", "json"]) == 0
        local = capsys.readouterr().out
        status, body = _post(
            server, "/v1/analyze", open(trace_file, "rb").read()
        )
        assert status == 200
        assert body.decode("utf-8") == local

    def test_analyze_segmented_upload(self, server, trace_file, tmp_path,
                                      capsys):
        seg_file = str(tmp_path / "t.seg.jsonl")
        assert main(["convert", trace_file, seg_file,
                     "--segment-events", "64"]) == 0
        capsys.readouterr()
        assert main(["analyze", trace_file, "--format", "json"]) == 0
        local = capsys.readouterr().out
        # uploading the segmented container streams server-side, yet the
        # envelope bytes must match the monolithic local analysis
        status, body = _post(
            server, "/v1/analyze", open(seg_file, "rb").read()
        )
        assert status == 200
        assert body.decode("utf-8") == local

    def test_timeline(self, server, trace_file, capsys):
        assert main(["timeline", trace_file, "--format", "json"]) == 0
        local = capsys.readouterr().out
        status, body = _post(
            server, "/v1/timeline?format=json", open(trace_file, "rb").read()
        )
        assert status == 200
        assert body.decode("utf-8") == local


class TestSegmentedGzipUploads:
    """Segmented ``.jsonl.gz`` uploads to the whole-trace endpoints.

    The spool file is ``<digest>.trace`` whatever the upload's container,
    so these endpoints must sniff the segmented format by content
    rather than hand the file to the monolithic loader (which refused a
    gzip file without a ``.gz`` suffix as ``400 trace.invalid``).
    """

    @pytest.fixture()
    def seg_gz(self, trace_file, tmp_path, capsys):
        path = str(tmp_path / "t.seg.jsonl.gz")
        assert main(["convert", trace_file, path,
                     "--segment-events", "64"]) == 0
        capsys.readouterr()
        return path

    def test_transform_artifact_equals_local(self, server, seg_gz):
        import io

        from repro import api
        from repro.trace import serialize

        out = io.StringIO()
        serialize.write_trace(api.transform(serialize.load(seg_gz)), out)
        status, body = _post(server, "/v1/transform",
                             open(seg_gz, "rb").read())
        assert status == 200
        assert body.decode("utf-8") == out.getvalue()

    def test_timeline_artifact_equals_local(self, server, seg_gz):
        from repro import api
        from repro.options import AnalyzeOptions
        from repro.timeline import build_timeline, to_columnar_json
        from repro.trace import serialize

        trace = serialize.load(seg_gz)
        local = to_columnar_json(build_timeline(
            trace, analysis=api.analyze(trace, AnalyzeOptions()))) + "\n"
        status, body = _post(server, "/v1/timeline?format=json",
                             open(seg_gz, "rb").read())
        assert status == 200
        assert body.decode("utf-8") == local
