"""Per-kernel wall-time registry.

The analysis hot paths — the engine's chunk walk, the write-timeline
collect, the benign-evidence stream, the timeline lane walk, the
transform rewrite and output validation — each record their wall time
here (:func:`record`), so ``repro profile`` and the benchmark's traced
runs can attribute a regression to one kernel (:func:`timings`).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["record", "timings", "reset_timings"]

_timings: Dict[str, float] = {}
_calls: Dict[str, int] = {}


def record(kernel: str, seconds: float) -> None:
    """Accumulate one kernel invocation's wall time."""
    _timings[kernel] = _timings.get(kernel, 0.0) + seconds
    _calls[kernel] = _calls.get(kernel, 0) + 1


def timings() -> Dict[str, Dict[str, float]]:
    """Accumulated ``{kernel: {"seconds": s, "calls": n}}`` since reset."""
    return {
        name: {"seconds": _timings[name], "calls": _calls.get(name, 0)}
        for name in sorted(_timings)
    }


def reset_timings() -> None:
    _timings.clear()
    _calls.clear()
