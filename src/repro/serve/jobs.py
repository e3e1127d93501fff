"""Content-addressed job manager: dedup, supervision, async polling.

Every service request resolves to a *job key* — a
:func:`repro.runner.keys.cache_key` over the endpoint, the request's
content (trace digest or workload spec) and its options, folding in the
package's code version exactly like the batch cache.  The manager keeps
one :class:`Job` per key:

* a request whose key matches a **running** job attaches to it instead
  of computing again (``serve.dedup.inflight``) — this is what makes
  concurrent identical submissions compute once;
* a request whose key matches a **finished, still-retained** job gets
  the stored response bytes back immediately (``serve.dedup.done``);
* otherwise the computation is submitted to the worker thread pool and
  runs under the supervised executor
  (:func:`repro.runner.pool.parallel_map` with the server's
  :class:`~repro.runner.pool.ExecPolicy`, ``partial=True``), so
  injected faults, worker hangs and crashes surface as quarantined
  :class:`~repro.runner.pool.TaskFailure` records — which the manager
  maps to the structured error envelope, never to a lost request.

Job ids are derived from the key (``<endpoint>-<key prefix>``), so they
are stable across identical submissions: polling ``/v1/jobs/<id>`` for
a deduplicated request finds the shared job.

A finished job is frozen at once (:class:`Outcome`): its result
envelope is encoded to the wire bytes every poll, dedup hit and SSE
``result`` frame then send, its artifact blob is spilled to
``<spill dir>/<job id>.<n>``, and its progress snapshots become their
canonical text.  Finished jobs are retained FIFO under one byte budget
(``keep_mb``); each is charged its envelope and progress bytes, its
artifact file's size and :data:`RECORD_OVERHEAD`.  Evicting a job
unlinks its artifact file, unless a reader holds the job (see
:meth:`JobManager.submit`), in which case the last release does.

Uploaded traces spooled to disk are charged to the same budget
(:meth:`JobManager.pin_upload`): an upload is pinned while a request
handles it or a queued or running job computes on it, and unpinned
uploads are evicted FIFO — before any retained job is.  A finished job
never reads its upload again (its answer is frozen), so retention does
not pin it.

Determinism note: replay-based analysis is deterministic per content
key, so handing one job's result to many tenants is safe — the dedup
can never leak one request's data into a different request's answer.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import tempfile
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

from repro import log, telemetry
from repro.runner.pool import ExecPolicy, TaskFailure, parallel_map
from repro.serve import protocol
from repro.trace.segments import index_path

__all__ = ["Job", "JobResult", "Outcome", "JobManager", "RECORD_OVERHEAD"]

_log = log.get_logger("serve.jobs")

#: bytes charged per retained job on top of its payload: the record
#: itself, its key and id strings and its index entries
RECORD_OVERHEAD = 1024


@dataclasses.dataclass
class JobResult:
    """What one computation hands back to the job manager.

    ``envelope`` is always set (the v1 success or error envelope);
    ``blob``/``content_type`` carry the artifact body for blob
    endpoints (transform's trace, report's HTML, timeline's JSON).
    """

    envelope: dict
    blob: Optional[bytes] = None
    content_type: Optional[str] = None

    @property
    def ok(self) -> bool:
        return bool(self.envelope.get("ok"))

    def freeze(self, artifact: Optional[Path] = None) -> "Outcome":
        """Encode the envelope once and write the blob to ``artifact``."""
        if self.blob is None:
            artifact = None
        elif artifact is None:
            raise ValueError("a result with an artifact needs a spill path")
        else:
            artifact.write_bytes(self.blob)
        return Outcome(
            body=protocol.wire_dumps(self.envelope).encode("utf-8"),
            status=protocol.http_status(self.envelope),
            ok=self.ok,
            content_type=self.content_type,
            artifact=artifact,
            artifact_bytes=0 if artifact is None else len(self.blob),
        )


@dataclasses.dataclass(frozen=True, slots=True)
class Outcome:
    """A finished job's answer, frozen to bytes.

    ``body`` is the canonical wire encoding of the result envelope
    (:func:`repro.serve.protocol.wire_dumps`) and ``status`` its HTTP
    status; ``artifact`` is the file holding the artifact blob, if any.
    """

    body: bytes
    status: int
    ok: bool
    content_type: Optional[str] = None
    artifact: Optional[Path] = None
    artifact_bytes: int = 0

    @property
    def envelope(self) -> dict:
        return json.loads(self.body)


class Job:
    """One content-addressed computation and its completion latch.

    While it runs, a job carries one condition (completion and progress
    share it) and a list of progress snapshots in their canonical text;
    :meth:`finish` drops the condition and freezes the list, so a
    retained job is its :class:`Outcome` plus a few strings.
    """

    __slots__ = ("id", "key", "kind", "tenant", "seq", "result", "blob",
                 "holds", "progress", "upload", "_cond")

    def __init__(self, job_id: str, key: str, kind: str, tenant: str, seq: int):
        self.id = job_id
        self.key = key
        self.kind = kind
        self.tenant = tenant
        self.seq = seq
        self.result: Optional[Outcome] = None
        #: the artifact bytes, kept in memory only while a reader holds
        #: the job (a sync request sends them without a file read)
        self.blob: Optional[bytes] = None
        #: readers holding the job (see JobManager.submit)
        self.holds = 0
        #: append-only progress snapshots, each in its canonical one-line
        #: text (repro.observe.snapshot_dumps); every follower replays the
        #: full sequence from the start, so a watcher attaching late still
        #: sees the deterministic whole sequence
        self.progress: Union[list, tuple] = []
        #: the spooled upload this job computes on, if any
        self.upload: Optional[Path] = None
        self._cond: Optional[threading.Condition] = threading.Condition()

    @property
    def state(self) -> str:
        return "running" if self.result is None else "done"

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; False on timeout."""
        cond = self._cond
        if cond is None:
            return True
        with cond:
            return cond.wait_for(lambda: self.result is not None, timeout)

    def finish(self, result: Union[JobResult, Outcome]) -> None:
        """Set the job's outcome (freezing a plain result) and wake waiters."""
        if isinstance(result, JobResult):
            result = result.freeze()
        cond = self._cond
        with cond:
            self.progress = tuple(self.progress)
            self.result = result
            cond.notify_all()
        self._cond = None

    def publish(self, snapshot: dict) -> None:
        """Append one progress snapshot and wake any followers.

        This is the ``on_progress`` callback the analyze computation is
        wired with; it runs on the job's worker thread.
        """
        from repro.observe import snapshot_dumps

        line = snapshot_dumps(snapshot).rstrip("\n")
        with self._cond:
            self.progress.append(line)
            self._cond.notify_all()

    def progress_lines(self, timeout: Optional[float] = None):
        """Yield the canonical progress lines in order until the job finishes.

        Starts from the beginning of the job's progress (late subscribers
        replay everything), then follows live.  ``timeout`` bounds each
        wait for *new* progress; a quiet period longer than that ends the
        stream early (the caller can poll the job state).
        """
        i = 0
        while True:
            cond = self._cond
            if cond is None:  # finished: progress is frozen
                yield from self.progress[i:]
                return
            with cond:
                while i >= len(self.progress) and self.result is None:
                    if not cond.wait(timeout):
                        return
                batch = self.progress[i:]
                done = self.result is not None
            yield from batch
            i += len(batch)
            if done:
                return

    def events(self, timeout: Optional[float] = None):
        """:meth:`progress_lines`, decoded back to snapshot dicts."""
        return map(json.loads, self.progress_lines(timeout))

    def status(self) -> dict:
        """The ``/v1/jobs/<id>`` status object (state + links)."""
        status = {
            "job": self.id,
            "kind": self.kind,
            "state": self.state,
        }
        if self.result is not None:
            status["ok"] = self.result.ok
            if self.result.artifact is not None:
                status["artifact"] = f"/v1/jobs/{self.id}/artifact"
        return status


def _run_supervised(compute: Callable[[], JobResult],
                    policy: ExecPolicy) -> JobResult:
    """One computation under the supervised executor's failure contract.

    ``partial=True`` is forced: a failed task must come back as a
    quarantined :class:`TaskFailure` (-> structured error envelope), not
    abort the serving thread.  Retries/timeouts follow the policy.
    """
    policy = dataclasses.replace(policy, partial=True)
    outcome = parallel_map(lambda thunk: thunk(), [compute], policy=policy)[0]
    if isinstance(outcome, TaskFailure):
        telemetry.count("serve.quarantined")
        _log.warning(
            "job quarantined: %s", outcome.message,
            extra={"event": "serve.quarantine", "kind": outcome.kind},
        )
        return JobResult(envelope=protocol.envelope_from_failure(outcome))
    return outcome


def _charge(job: Job) -> int:
    """Retention bytes of a finished job."""
    return (RECORD_OVERHEAD + len(job.result.body) + job.result.artifact_bytes
            + sum(map(len, job.progress)))


class JobManager:
    """Deduplicating executor over a bounded worker thread pool.

    Artifacts are spilled under ``spill_dir`` (a private temporary
    directory when ``None``), which the manager owns: :meth:`shutdown`
    removes it.
    """

    def __init__(
        self,
        *,
        policy: Optional[ExecPolicy] = None,
        max_workers: int = 16,
        keep_mb: float = 64.0,
        spill_dir=None,
    ):
        self.policy = policy or ExecPolicy()
        self.keep_bytes = int(keep_mb * 1024 * 1024)
        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="repro-jobs-")
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._running: dict = {}          # key -> Job
        self._finished: OrderedDict = OrderedDict()  # key -> Job, FIFO
        self._retained = 0                # bytes charged to _finished
        self._uploads: OrderedDict = OrderedDict()  # path -> bytes, FIFO
        self._pins: dict = {}             # upload path -> pin count
        self._spooled = 0                 # bytes charged to _uploads
        self._by_id: dict = {}            # job id -> Job
        self._seq = itertools.count()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        #: computations actually executed (dedup hits do not increment)
        self.computed = 0

    # ------------------------------------------------------------- submit

    def submit(
        self,
        kind: str,
        key: str,
        compute: Callable[[], JobResult],
        *,
        tenant: str = "",
        hold: bool = False,
        upload: Optional[Path] = None,
    ) -> Tuple[Job, str]:
        """Attach to (or start) the job for ``key``.

        Returns ``(job, dedup)`` where dedup is ``"miss"`` (started a
        computation), ``"inflight"`` (attached to a running job) or
        ``"done"`` (served from a retained finished job).

        ``hold=True`` holds the job for a reader that will send its
        artifact: until the matching :meth:`release`, the artifact bytes
        of a job finishing meanwhile stay in memory (:attr:`Job.blob`)
        and eviction leaves the artifact file in place.

        ``upload`` is the pinned spool file the computation reads; a job
        started here pins it until the job finishes.
        """
        with self._lock:
            job = self._running.get(key)
            if job is not None:
                telemetry.count("serve.dedup.inflight")
                dedup = "inflight"
            else:
                job = self._finished.get(key)
                if job is not None:
                    telemetry.count("serve.dedup.done")
                    dedup = "done"
                else:
                    job = Job(self._job_id(kind, key), key, kind,
                              tenant, next(self._seq))
                    self._running[key] = job
                    self._by_id[job.id] = job
                    if upload is not None:
                        job.upload = upload
                        self._pins[upload] += 1
                    telemetry.count("serve.jobs")
                    self.computed += 1
                    dedup = "miss"
            job.holds += hold
        if dedup == "miss":
            telemetry.count("serve.computed")
            self._pool.submit(self._run, job, compute)
        return job, dedup

    def release(self, job: Job) -> None:
        """End one :meth:`submit` hold on ``job``."""
        with self._lock:
            job.holds -= 1
            if job.holds:
                return
            job.blob = None
            if job.result is not None and self._finished.get(job.key) is not job:
                self._unlink(job)

    def read_artifact(self, job: Job) -> Optional[bytes]:
        """A finished job's artifact bytes; ``None`` once it was evicted."""
        with self._lock:
            if job.blob is not None:
                return job.blob
            if not job.holds and self._finished.get(job.key) is not job:
                return None
            job.holds += 1
        try:
            return job.result.artifact.read_bytes()
        finally:
            self.release(job)

    @staticmethod
    def _job_id(kind: str, key: str) -> str:
        # derived from the content key: identical requests share the id,
        # so a deduplicated submitter can poll the same /v1/jobs/<id>
        return f"{kind}-{key[:16]}"

    def _run(self, job: Job, compute: Callable[[], JobResult]) -> None:
        if getattr(compute, "wants_job", False):
            # progress-publishing computations take the job so they can
            # call job.publish from inside the analysis
            bound, compute = compute, (lambda: bound(job))
        try:
            result = _run_supervised(compute, self.policy)
            # the sequence number keeps the file of an evicted job still
            # held by a reader apart from a recomputation of the same key
            outcome = result.freeze(self.spill_dir / f"{job.id}.{job.seq}")
        except BaseException as exc:  # a bug, not a task failure
            _log.error(
                "job %s internal failure: %s", job.id, exc,
                extra={"event": "serve.internal", "job": job.id},
            )
            result = JobResult(envelope=protocol.envelope_from_exception(exc))
            outcome = result.freeze()
        with self._lock:
            if job.holds:
                job.blob = result.blob
            # waiters wake here, but whatever they read of the manager
            # takes this lock, so they see the retention settled below
            job.finish(outcome)
            self._running.pop(job.key, None)
            self._finished[job.key] = job
            self._retained += _charge(job)
            if job.upload is not None:
                self._pins[job.upload] -= 1
            self._trim()

    def pin_upload(self, path: Path, nbytes: int) -> None:
        """Register (or re-pin) a spooled upload of ``nbytes`` bytes.

        A new upload is charged its size and :data:`RECORD_OVERHEAD`
        (which covers its sidecar index).  Each pin is ended by one
        :meth:`unpin_upload`; a job submitted with the upload holds its
        own pin.
        """
        with self._lock:
            if path not in self._uploads:
                self._uploads[path] = nbytes + RECORD_OVERHEAD
                self._spooled += nbytes + RECORD_OVERHEAD
                self._pins[path] = 0
            self._pins[path] += 1

    def unpin_upload(self, path: Path) -> None:
        """End one :meth:`pin_upload` pin; the budget may then evict it."""
        with self._lock:
            self._pins[path] -= 1
            self._trim()

    def _trim(self) -> None:
        """Evict until the retained bytes fit the budget: unpinned
        uploads first, then finished jobs, each oldest first (caller
        holds the lock)."""
        while self._retained + self._spooled > self.keep_bytes:
            path = next((p for p in self._uploads if not self._pins[p]), None)
            if path is not None:
                self._spooled -= self._uploads.pop(path)
                del self._pins[path]
                path.unlink(missing_ok=True)
                index_path(path).unlink(missing_ok=True)
                continue
            if not self._finished:
                return
            _, evicted = self._finished.popitem(last=False)
            self._retained -= _charge(evicted)
            self._by_id.pop(evicted.id, None)
            if not evicted.holds:
                self._unlink(evicted)

    @staticmethod
    def _unlink(job: Job) -> None:
        if job.result.artifact is not None:
            job.result.artifact.unlink(missing_ok=True)

    # -------------------------------------------------------------- reads

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._by_id.get(job_id)

    def stats(self) -> dict:
        with self._lock:
            return {
                "running": len(self._running),
                "finished": len(self._finished),
                "computed": self.computed,
            }

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
        shutil.rmtree(self.spill_dir, ignore_errors=True)
