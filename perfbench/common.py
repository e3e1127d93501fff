"""Shared plumbing: locating the program, statistics, memory, results."""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: the checkout the benchmark runs in (the repository root)
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for generated inputs, spooled uploads and span files
WORK = ROOT / ".perfbench-work"


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def use_program() -> None:
    """Put the checkout's ``src`` first on the import path (and children's)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    parts = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p and p != str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)


def work_dir(name: str) -> Path:
    """A fresh scratch directory for one run."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: a value that was actually observed."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb(pid: str = "self") -> float:
    """A live process's resident-set high-water mark (Linux ``VmHWM``).

    Unlike ``ru_maxrss``, which a child inherits from its parent across
    fork and exec, ``VmHWM`` covers only the process's own memory.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Checks:
    """Counts operations and the ones whose output was wrong or missing."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, problem=None) -> bool:
        """Record one operation; ``problem`` (a string) marks it failed."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return not problem


def start_probe(args, *, env=None) -> subprocess.Popen:
    """Start ``probe.py`` in a fresh interpreter (see :func:`probe_output`)."""
    command = [sys.executable, str(HERE / "probe.py")] + [str(a) for a in args]
    return subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def probe_output(proc: subprocess.Popen, timeout: float = 170.0) -> dict:
    """Wait for a probe; its last line of output is one JSON object."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"probe {proc.args[2]} exited {proc.returncode}: "
                           f"{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_probe(args, *, env=None) -> dict:
    """Run ``probe.py`` in a fresh interpreter and return its result."""
    return probe_output(start_probe(args, env=env))


def overhead(probe: dict, untraced_s: float) -> dict:
    """Tracing overhead, and the share of the untraced time spans explain."""
    return {
        "tracing.overhead_ratio": probe["traced_s"] / untraced_s - 1.0,
        "tracing.accounted_ratio": probe["attributed_s"] / untraced_s,
    }


def backend_env(backend: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_NO_NUMPY", None)
    if backend == "python":
        env["REPRO_NO_NUMPY"] = "1"
    return env
