"""Structured logging (`repro.log`): formats, run ids, event wiring."""

import io
import json
import logging
import warnings

import pytest

from repro import api, log
from repro.trace import serialize


@pytest.fixture(autouse=True)
def _reset_repro_logger():
    """Isolate logging state: strip package handlers, restore propagation."""
    root = logging.getLogger(log.ROOT)
    saved_handlers = list(root.handlers)
    saved_propagate = root.propagate
    saved_level = root.level
    for handler in saved_handlers:
        root.removeHandler(handler)
    root.propagate = True
    root.setLevel(logging.NOTSET)
    yield
    for handler in list(root.handlers):
        root.removeHandler(handler)
    for handler in saved_handlers:
        root.addHandler(handler)
    root.propagate = saved_propagate
    root.setLevel(saved_level)


def _configure(level="info", json_lines=False):
    stream = io.StringIO()
    log.configure(level, json_lines=json_lines, stream=stream)
    return stream


class TestConfigure:
    def test_single_handler_even_when_reconfigured(self):
        _configure()
        _configure()
        root = logging.getLogger(log.ROOT)
        assert len(root.handlers) == 1

    def test_level_filtering(self):
        stream = _configure(level="warning")
        log.get_logger("x").info("quiet")
        log.get_logger("x").warning("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            log.configure("loud")

    def test_line_format_includes_fields(self):
        stream = _configure()
        log.get_logger("runner.pool").warning(
            "task 3 crash", extra={"event": "pool.task_failure", "task": 3}
        )
        line = stream.getvalue().strip()
        assert line.startswith("repro.runner.pool WARNING task 3 crash")
        assert "event=pool.task_failure" in line
        assert "task=3" in line

    def test_json_format_one_object_per_line(self):
        stream = _configure(json_lines=True)
        log.get_logger("a").info("first", extra={"k": 1})
        log.get_logger("b").warning("second")
        lines = stream.getvalue().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0] == {
            "level": "info", "logger": "repro.a", "message": "first", "k": 1,
        }
        assert records[1]["level"] == "warning"


class TestRunScope:
    def test_run_ids_are_deterministic_counters(self):
        with log.run_scope("debug") as rid:
            assert rid.startswith("debug-")
            assert log.current_run_id() == rid

    def test_scopes_nest_and_restore(self):
        assert log.current_run_id() == ""
        with log.run_scope("outer") as outer:
            with log.run_scope("inner") as inner:
                assert log.current_run_id() == inner
            assert log.current_run_id() == outer
        assert log.current_run_id() == ""

    def test_records_carry_the_ambient_run_id(self):
        stream = _configure(json_lines=True)
        with log.run_scope("analyze") as rid:
            log.get_logger("x").info("inside")
        log.get_logger("x").info("outside")
        first, second = [
            json.loads(line) for line in stream.getvalue().strip().splitlines()
        ]
        assert first["run_id"] == rid
        assert "run_id" not in second

    def test_scope_held_in_another_thread_stays_there(self):
        # a serve worker thread can sit inside a facade call while other
        # threads log; its run id must not stamp their records
        import threading

        stream = _configure(json_lines=True)
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def worker():
            with log.run_scope("analyze") as rid:
                seen["rid"] = rid
                entered.set()
                release.wait(10)
                seen["inside"] = log.current_run_id()

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(10)
            assert log.current_run_id() == ""
            log.get_logger("x").info("main thread")
            with log.run_scope("debug") as mine:
                assert log.current_run_id() == mine
        finally:
            release.set()
            thread.join(10)
        assert seen["inside"] == seen["rid"]
        record = json.loads(stream.getvalue().strip())
        assert "run_id" not in record
        assert log.current_run_id() == ""

    def test_facade_calls_open_a_scope(self):
        # every repro.api entry point wraps its body in _call(name, sink),
        # so diagnostics emitted anywhere inside carry the facade run id
        from repro.api import _call

        assert log.current_run_id() == ""
        with _call("debug", None):
            assert log.current_run_id().startswith("debug-")
        assert log.current_run_id() == ""


class TestEventWiring:
    def test_pool_failures_are_logged(self, caplog):
        from repro import faults
        from repro.faults import FaultPlan, parse_rule
        from repro.runner import ExecPolicy
        from repro.runner.pool import parallel_map

        plan = FaultPlan(seed=0, rules=[parse_rule("pool.worker_crash@1:attempt=0")])
        with caplog.at_level(logging.WARNING, logger="repro.runner.pool"):
            with faults.use_plan(plan):
                results = parallel_map(
                    _double, [1, 2, 3], jobs=1, policy=ExecPolicy(retries=1)
                )
        assert results == [2, 4, 6]
        failures = [
            r for r in caplog.records
            if getattr(r, "event", "") == "pool.task_failure"
        ]
        assert len(failures) == 1
        assert failures[0].task == 1
        assert failures[0].kind == "crash"
        assert failures[0].retry is True

    def test_pool_quarantine_is_logged(self, caplog):
        from repro.runner import ExecPolicy
        from repro.runner.pool import parallel_map

        with caplog.at_level(logging.WARNING, logger="repro.runner.pool"):
            results = parallel_map(
                _fail_on_two, [1, 2, 3], jobs=1,
                policy=ExecPolicy(partial=True),
            )
        assert results[0] == 2 and results[2] == 6
        quarantines = [
            r for r in caplog.records
            if getattr(r, "event", "") == "pool.quarantine"
        ]
        assert len(quarantines) == 1
        assert quarantines[0].task == 1

    def test_salvage_load_is_logged(self, caplog, tmp_path):
        trace = api.record("transmissionBT", threads=2, seed=0)
        path = tmp_path / "t.jsonl"
        serialize.dump(trace, path)
        text = path.read_text()
        path.write_text(text[: int(len(text) * 0.6)])
        with caplog.at_level(logging.INFO, logger="repro.trace.salvage"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                serialize.load_trace(path, salvage=True)
        events = [
            r for r in caplog.records
            if getattr(r, "event", "") == "trace.salvage"
        ]
        assert len(events) == 1
        assert events[0].kept_events > 0
        assert events[0].source == str(path)


def _double(x):
    return x * 2


def _fail_on_two(x):
    if x == 2:
        raise RuntimeError("boom")
    return x * 2
