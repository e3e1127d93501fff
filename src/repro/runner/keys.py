"""Stable content-addressed cache keys.

A cache entry is valid only for the exact computation that produced it,
so every key mixes in:

* the *kind* of artifact (``"record"``, ``"transform"``, an experiment
  cell name, ...),
* the full parameter set of the computation, canonically JSON-encoded
  (sorted keys, no whitespace), and
* the *code version* — a hash over every ``repro/**/*.py`` source file,
  so editing any module invalidates everything derived from it.

Keys are hex SHA-256 digests: safe as filenames, uniform for sharding.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of the package's own source code (12 hex chars, cached)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parent.parent  # .../repro
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:12]
    return _CODE_VERSION


def canonical(params: dict) -> str:
    """Deterministic JSON encoding of a parameter dict."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=repr)


def cache_key(kind: str, **params) -> str:
    """Content-addressed key for one computation."""
    payload = {"kind": kind, "code": code_version(), "params": params}
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def trace_digest(trace) -> str:
    """Content hash of a trace, streamed through the serializer."""
    from repro.trace import serialize

    digest = hashlib.sha256()

    class _HashWriter:
        def write(self, text: str) -> None:
            digest.update(text.encode())

    serialize.write_trace(trace, _HashWriter())
    return digest.hexdigest()[:32]


def segmented_digest(path) -> str:
    """Content hash of a segmented trace file, from its segment digests.

    Folds the digest of the header block's raw bytes and the
    per-segment content digests (from the sidecar index, rebuilt in
    passing when stale) into one key-sized hash without ever loading
    the trace.  Any change to the header (meta, lock schedule, thread
    list), to any segment, or to the segment size, which changes the
    segmentation, changes the result.
    """
    from repro.errors import TraceError
    from repro.trace.segments import (
        ensure_index,
        fold_digests,
        header_digest,
        segment_digests,
    )

    index = ensure_index(path)
    if index is None:
        segment_digests(path)  # a damaged file: the strict reader names it
        raise TraceError(f"{path}: cannot index segmented trace")
    return fold_digests([header_digest(path, index)]
                        + [s.digest for s in index.segments])
