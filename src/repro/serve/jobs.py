"""Job queue and worker pool for asynchronous diagnosis.

A diagnosis of a large production set can take seconds; HTTP clients should
not have to hold a connection open for that long.  The worker pool accepts
jobs (arbitrary callables returning a JSON-friendly result), runs them on a
fixed set of daemon threads, and tracks each job's lifecycle in a bounded
in-memory store so clients can poll ``GET /jobs/<id>``.

Concurrency note: the worker threads never touch a model directly — diagnosis
jobs funnel their extraction through the single-threaded
:class:`~repro.serve.batching.BatchingEngine`, which is what makes concurrent
jobs over the same model both safe and batched.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..exceptions import ServeError, ServiceUnavailableError

__all__ = ["JobStatus", "Job", "JobStore", "WorkerPool"]


class JobStatus:
    """Lifecycle states of a job (plain strings so payloads stay JSON-native)."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"

    FINISHED = (SUCCEEDED, FAILED)


@dataclass
class Job:
    """One tracked unit of asynchronous work.

    Two clocks per lifecycle event: the wall-clock ``*_at`` fields are for
    display ("when did this run"), the ``*_monotonic`` fields are what all
    duration math uses — a wall-clock jump (NTP step, manual adjustment)
    must never corrupt a reported queue or run time.
    """

    job_id: str
    kind: str
    status: str = JobStatus.PENDING
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    submitted_monotonic: float = field(default_factory=time.monotonic)
    started_monotonic: Optional[float] = None
    finished_monotonic: Optional[float] = None
    result: Optional[Dict] = None
    error: Optional[str] = None
    details: Dict = field(default_factory=dict)

    @property
    def is_finished(self) -> bool:
        return self.status in JobStatus.FINISHED

    @property
    def queue_seconds(self) -> Optional[float]:
        """Time spent waiting for a worker (monotonic)."""
        if self.started_monotonic is None:
            return None
        return max(0.0, self.started_monotonic - self.submitted_monotonic)

    @property
    def run_seconds(self) -> Optional[float]:
        """Time spent executing (monotonic)."""
        if self.started_monotonic is None or self.finished_monotonic is None:
            return None
        return max(0.0, self.finished_monotonic - self.started_monotonic)

    def as_dict(self) -> Dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
            "result": self.result,
            "error": self.error,
            "details": dict(self.details),
        }


class JobStore:
    """Thread-safe bounded store of job records.

    Finished jobs are evicted oldest-first once ``max_jobs`` is exceeded, so a
    long-lived service cannot leak memory through its job history.  Unfinished
    jobs are never evicted.
    """

    def __init__(self, max_jobs: int = 1000):
        if max_jobs < 1:
            raise ServeError(f"max_jobs must be >= 1, got {max_jobs}")
        self.max_jobs = int(max_jobs)
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()

    def create(self, kind: str, details: Optional[Dict] = None) -> Job:
        job = Job(job_id=uuid.uuid4().hex, kind=kind, details=dict(details or {}))
        with self._lock:
            self._jobs[job.job_id] = job
            self._evict_locked()
        return job

    def _evict_locked(self) -> None:
        if len(self._jobs) <= self.max_jobs:
            return
        finished = sorted(
            (job for job in self._jobs.values() if job.is_finished),
            key=lambda job: (
                job.finished_monotonic
                if job.finished_monotonic is not None
                else job.submitted_monotonic
            ),
        )
        for job in finished[: len(self._jobs) - self.max_jobs]:
            del self._jobs[job.job_id]

    def get(self, job_id: str) -> Job:
        with self._lock:
            if job_id not in self._jobs:
                raise ServeError(f"unknown job {job_id!r}")
            return self._jobs[job_id]

    def mark_running(self, job_id: str) -> None:
        job = self.get(job_id)
        job.status = JobStatus.RUNNING
        job.started_at = time.time()
        job.started_monotonic = time.monotonic()

    def mark_succeeded(self, job_id: str, result: Dict) -> None:
        job = self.get(job_id)
        # Publish the payload before the terminal status: pollers stop at the
        # first finished status they see and must never observe it with the
        # result still unset.
        job.result = result
        job.finished_at = time.time()
        job.finished_monotonic = time.monotonic()
        job.status = JobStatus.SUCCEEDED

    def mark_failed(self, job_id: str, error: str) -> None:
        job = self.get(job_id)
        job.error = error
        job.finished_at = time.time()
        job.finished_monotonic = time.monotonic()
        job.status = JobStatus.FAILED

    def list(self, limit: int = 50) -> List[Job]:
        """Most recent jobs first."""
        with self._lock:
            jobs = sorted(
                self._jobs.values(), key=lambda job: job.submitted_monotonic, reverse=True
            )
        return jobs[: max(0, int(limit))]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counters: Dict[str, int] = {}
            for job in self._jobs.values():
                counters[job.status] = counters.get(job.status, 0) + 1
            counters["total"] = len(self._jobs)
        return counters


class WorkerPool:
    """Fixed pool of daemon threads executing jobs from a shared queue.

    When a :class:`~repro.serve.metrics.MetricsRegistry` is given, the pool
    records submission/outcome counters, job wall time, and the depth of its
    work queue.
    """

    def __init__(self, num_workers: int = 2, store: Optional[JobStore] = None, metrics=None):
        if num_workers < 1:
            raise ServeError(f"num_workers must be >= 1, got {num_workers}")
        self.store = store or JobStore()
        self._metrics = metrics
        if metrics is not None:
            self._m_submitted = metrics.counter("jobs.submitted_total", "jobs accepted")
            self._m_succeeded = metrics.counter("jobs.succeeded_total", "jobs that succeeded")
            self._m_failed = metrics.counter("jobs.failed_total", "jobs that failed")
            self._m_run_seconds = metrics.histogram("jobs.run_seconds", "job wall time")
            self._m_queue_depth = metrics.gauge("jobs.queue_depth", "jobs waiting for a worker")
        self._queue: "queue.Queue" = queue.Queue()
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._worker, name=f"repro-serve-worker-{i}", daemon=True)
            for i in range(int(num_workers))
        ]
        for thread in self._threads:
            thread.start()

    @property
    def num_workers(self) -> int:
        return len(self._threads)

    def submit(
        self, fn: Callable[[], Dict], kind: str = "diagnosis", details: Optional[Dict] = None
    ) -> Job:
        """Queue ``fn`` for execution and return its (pending) job record."""
        if self._stop.is_set():
            raise ServiceUnavailableError("worker pool is shut down")
        job = self.store.create(kind=kind, details=details)
        self._queue.put((job.job_id, fn))
        if self._metrics is not None:
            self._m_submitted.inc()
            self._m_queue_depth.set(self._queue.qsize())
        # shutdown() may have enqueued the stop sentinels between our check
        # and the put, leaving this job behind them forever; fail it rather
        # than let it sit PENDING with every worker gone.
        if self._stop.is_set():
            self._fail_pending()
        return job

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            job_id, fn = item
            self.store.mark_running(job_id)
            if self._metrics is not None:
                self._m_queue_depth.set(self._queue.qsize())
            start = time.perf_counter()
            try:
                self.store.mark_succeeded(job_id, fn())
                if self._metrics is not None:
                    self._m_succeeded.inc()
            except Exception as error:  # noqa: BLE001 - job outcome, not a crash
                self.store.mark_failed(job_id, f"{type(error).__name__}: {error}")
                if self._metrics is not None:
                    self._m_failed.inc()
            finally:
                if self._metrics is not None:
                    self._m_run_seconds.observe(time.perf_counter() - start)

    def wait_for(self, job_id: str, timeout: float = 30.0, poll: float = 0.01) -> Job:
        """Block until ``job_id`` finishes (convenience for tests and CLIs)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = self.store.get(job_id)
            if job.is_finished:
                return job
            time.sleep(poll)
        raise ServeError(f"job {job_id!r} did not finish within {timeout} seconds")

    def _fail_pending(self) -> None:
        """Mark every job still in the queue as failed (pool is going away)."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                job_id, _ = item
                self.store.mark_failed(job_id, "worker pool shut down before the job ran")

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        self._stop.set()
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)
            self._fail_pending()
