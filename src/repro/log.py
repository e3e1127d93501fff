"""Structured logging for the package: one logger tree, two formats.

Every diagnostic the package emits at runtime — worker retries and
quarantines in :mod:`repro.runner.pool`, trace salvage events in
:mod:`repro.trace.serialize`, CLI notices — goes through loggers below
the ``"repro"`` root, so one :func:`configure` call (or the CLI's
``--log-level`` / ``--log-json`` flags) controls all of them.

Records carry structured fields (passed via ``extra=``) plus a
``run_id`` threaded from the :mod:`repro.api` facade: each facade call
opens a :func:`run_scope` naming the entry point, so a grep for
``run_id=debug-0001`` (or the ``"run_id"`` key in ``--log-json``
output) isolates one pipeline invocation.  Run ids are a deterministic
in-process counter, not wall clock, so log *content* stays reproducible.
The ambient id is a :class:`contextvars.ContextVar`: a scope covers the
thread (or task) that opened it, never records from other threads.

Nothing here touches the root logger or other libraries' handlers;
without :func:`configure`, warnings and errors still surface through
logging's last-resort stderr handler.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import logging
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

ROOT = "repro"

LEVELS = ("debug", "info", "warning", "error")

#: LogRecord attributes that are bookkeeping, not user-supplied fields
_RESERVED = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "run_id", "taskName"}

_run_id: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_run_id", default=""
)
_run_counter = itertools.count(1)


def current_run_id() -> str:
    """The run id of the innermost active :func:`run_scope` ("" outside)."""
    return _run_id.get()


@contextmanager
def run_scope(label: str) -> Iterator[str]:
    """Tag every record emitted inside the block with a fresh run id.

    The id is ``"<label>-<NNNN>"`` from a process-wide counter — stable
    content across runs (no wall clock, no pids).  Scopes nest; the
    innermost one wins, and the previous id is restored on exit.  The
    id is visible only in the current context (thread): a scope another
    thread holds open never stamps this thread's records.
    """
    run_id = f"{label}-{next(_run_counter):04d}"
    token = _run_id.set(run_id)
    try:
        yield run_id
    finally:
        _run_id.reset(token)


class _ContextFilter(logging.Filter):
    """Stamp the ambient run id onto records that don't carry one."""

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "run_id"):
            record.run_id = _run_id.get()
        return True


def _fields(record: logging.LogRecord) -> dict:
    """The structured (``extra=``) fields of a record, sorted by key."""
    return {
        key: record.__dict__[key]
        for key in sorted(record.__dict__)
        if key not in _RESERVED
    }


class LineFormatter(logging.Formatter):
    """Human-oriented one-liner: ``repro.pool WARNING message k=v ...``."""

    def format(self, record: logging.LogRecord) -> str:
        parts = [record.name, record.levelname, record.getMessage()]
        run = getattr(record, "run_id", "")
        pairs = _fields(record)
        if run:
            pairs = {"run_id": run, **pairs}
        if pairs:
            parts.append(" ".join(f"{k}={v}" for k, v in pairs.items()))
        text = " ".join(parts)
        if record.exc_info:
            text = f"{text}\n{self.formatException(record.exc_info)}"
        return text


class JsonFormatter(logging.Formatter):
    """One JSON object per line: level, logger, message, fields, run_id."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        run = getattr(record, "run_id", "")
        if run:
            payload["run_id"] = run
        payload.update(_fields(record))
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=repr)


class _DynamicStderrHandler(logging.StreamHandler):
    """A stream handler that always writes to the *current* ``sys.stderr``.

    Binding at emit time (instead of at :func:`configure` time) keeps the
    handler correct when the surrounding program swaps ``sys.stderr`` —
    e.g. pytest's capture fixtures replacing the stream per test.
    """

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def get_logger(name: str = "") -> logging.Logger:
    """A logger below the package root (``get_logger("runner.pool")``)."""
    return logging.getLogger(f"{ROOT}.{name}" if name else ROOT)


def configure(
    level: str = "warning",
    *,
    json_lines: bool = False,
    stream=None,
) -> logging.Logger:
    """Install (or replace) the package's single stderr handler.

    ``level`` is one of :data:`LEVELS`; ``json_lines`` switches the
    handler to one-JSON-object-per-line output for machine consumption.
    Repeated calls reconfigure in place — there is never more than one
    handler, so records are emitted exactly once.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r} (expected one of {LEVELS})")
    root = logging.getLogger(ROOT)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_handler", False):
            root.removeHandler(handler)
    handler = (
        logging.StreamHandler(stream) if stream is not None
        else _DynamicStderrHandler()
    )
    handler._repro_handler = True
    handler.addFilter(_ContextFilter())
    handler.setFormatter(JsonFormatter() if json_lines else LineFormatter())
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper()))
    # the package handler replaces propagation to the (possibly
    # app-configured) root logger; diagnostics are emitted exactly once
    root.propagate = False
    return root
