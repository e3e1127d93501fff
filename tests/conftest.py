"""Suite-wide safety net: a per-test wall-clock budget.

The fault-injection tests intentionally exercise hangs, crashed workers
and truncated files; a bug in the recovery paths shows up as a test that
never returns.  ``pytest-timeout`` is not a dependency of this repo, so
the budget is enforced with a plain SIGALRM wrapper (POSIX only; on
platforms without SIGALRM the fixture is a no-op).  The alarm lives in
the pytest process only — forked worker processes do not inherit it, so
it cannot fire inside a supervised task.

``REPRO_TEST_TIMEOUT`` (seconds) overrides the default budget.

The ``decodes`` fixture counts full segmented-file decodes, for tests of
the shared decoded core.

The ``numpy_env`` fixture runs a test twice: ``numpy`` as installed, and
``python`` with ``import numpy`` made to fail.  The package is pure
Python, so both runs must give the same results.
"""

import os
import signal
import sys

import pytest

DEFAULT_TIMEOUT = 300.0


def _budget() -> float:
    try:
        return float(os.environ.get("REPRO_TEST_TIMEOUT", DEFAULT_TIMEOUT))
    except ValueError:
        return DEFAULT_TIMEOUT


@pytest.fixture(autouse=True)
def _test_timeout(request):
    seconds = _budget()
    if seconds <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        pytest.fail(
            f"test exceeded the {seconds:.0f}s suite budget "
            f"(REPRO_TEST_TIMEOUT) — likely a hang in a recovery path",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def decodes(monkeypatch):
    """Paths of every ``SegmentedReader.segments`` walk started."""
    from repro.trace.segments import SegmentedReader

    calls = []
    original = SegmentedReader.segments

    def counting(self):
        calls.append(self.path)
        return original(self)

    monkeypatch.setattr(SegmentedReader, "segments", counting)
    return calls


@pytest.fixture(params=["numpy", "python"])
def numpy_env(request, monkeypatch):
    """``python``: any ``import numpy`` during the test raises ImportError."""
    if request.param == "python":
        monkeypatch.setitem(sys.modules, "numpy", None)
    return request.param
