"""Kernel backend selection: vectorized (numpy) vs pure Python.

The analysis hot paths — the engine's chunk walk (the one scan kernel:
in-memory and streaming scans both fold through it), the write-timeline
collect, the benign-evidence stream, the timeline lane build, the
transform rewrite and output validation — each exist twice: the
original pure Python walk (always available, the reference for
byte-identical output) and a numpy twin operating directly on the
interned id columns of :mod:`repro.trace.interning`.

This module picks between them:

* numpy present -> backend ``"numpy"`` (installed via ``repro[fast]``),
* numpy absent, or ``REPRO_NO_NUMPY`` set to a non-empty value ->
  backend ``"python"``.

The choice is consulted *per call* (:func:`use_numpy`), not bound at
import, so tests and benchmarks can flip backends in-process via
:func:`set_backend` and compare outputs from one interpreter.

Both backends must produce byte-identical results everywhere — the
equivalence oracle remains :mod:`repro.analysis.reference`, and
``tests/analysis/test_kernel_backends.py`` holds all three to it.

Per-kernel wall times accumulate in a module-level registry
(:func:`record` / :func:`timings`) so ``repro profile`` and
``repro selfcheck`` can attribute regressions to a specific kernel.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

__all__ = [
    "HAVE_NUMPY",
    "backend",
    "use_numpy",
    "set_backend",
    "record",
    "timings",
    "reset_timings",
    "mask_from_ids",
]

#: set REPRO_NO_NUMPY=1 to force the pure-Python backend even when
#: numpy is importable (the forced-fallback knob from the CI matrix)
_DISABLED = bool(os.environ.get("REPRO_NO_NUMPY"))

if not _DISABLED:
    try:
        import numpy  # noqa: F401
        HAVE_NUMPY = True
    except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
        HAVE_NUMPY = False
else:
    HAVE_NUMPY = False

_backend = "numpy" if HAVE_NUMPY else "python"


def backend() -> str:
    """The active kernel backend: ``"numpy"`` or ``"python"``."""
    return _backend


def use_numpy() -> bool:
    """True when the vectorized kernels should run (checked per call)."""
    return _backend == "numpy"


def set_backend(name: str) -> str:
    """Force a backend (``"numpy"``/``"python"``/``"auto"``); returns it.

    Requesting ``"numpy"`` without numpy installed raises — silently
    running the slow path would invalidate any benchmark asking for it.
    """
    global _backend
    if name == "auto":
        name = "numpy" if HAVE_NUMPY else "python"
    if name not in ("numpy", "python"):
        raise ValueError(f"unknown kernel backend: {name!r}")
    if name == "numpy" and not HAVE_NUMPY:
        raise RuntimeError(
            "numpy backend requested but numpy is unavailable "
            "(not installed, or disabled via REPRO_NO_NUMPY)"
        )
    _backend = name
    return _backend


# ------------------------------------------------- per-kernel timings

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


# --------------------------------------------------- shared helpers

#: below this many ids the Python loop beats the packbits round trip
_SMALL_MASK = 32


def mask_from_ids(ids: Sequence[int], np_module=None) -> int:
    """OR of ``1 << id`` over ``ids`` (a numpy int array or any iterable).

    Large batches go through ``np.packbits`` -> ``int.from_bytes`` so
    the cost is linear in the byte length of the result, not the number
    of set bits times the mask width.
    """
    np = np_module
    if np is not None and len(ids) > _SMALL_MASK:
        u = np.unique(np.asarray(ids, dtype=np.int64))
        bits = np.zeros(int(u[-1]) + 1, dtype=np.uint8)
        bits[u] = 1
        return int.from_bytes(
            np.packbits(bits, bitorder="little").tobytes(), "little"
        )
    mask = 0
    for aid in ids:
        mask |= 1 << int(aid)
    return mask


def iter_mask_ids(mask: int):
    """Iterate the set bit positions of an int bitmask, ascending."""
    aid = 0
    while mask:
        if mask & 1:
            yield aid
        mask >>= 1
        aid += 1


def thread_arrays(column, np):
    """numpy views over a :class:`ColumnarThread`'s dense arrays.

    Zero-copy ``frombuffer`` views; callers must treat them read-only.
    Returns ``(kind, t, duration, t_request, value, lock_id, addr_id,
    flags)``.
    """
    return (
        np.frombuffer(column.kind, dtype=np.int8),
        np.frombuffer(column.t, dtype=np.int64),
        np.frombuffer(column.duration, dtype=np.int64),
        np.frombuffer(column.t_request, dtype=np.int64),
        np.frombuffer(column.value, dtype=np.int64),
        np.frombuffer(column.lock_id, dtype=np.int32),
        np.frombuffer(column.addr_id, dtype=np.int32),
        np.frombuffer(column.flags, dtype=np.uint8),
    )
