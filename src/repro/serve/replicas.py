"""Replica sharding and admission control for the serving gateway.

One :class:`~repro.serve.service.DiagnosisService` serializes every
extraction on its single engine thread — correct, but a scale ceiling: two
requests for *different* models still queue behind each other.  The
:class:`ReplicaPool` runs N independent service replicas (each with its own
engine thread and loaded-model LRU) over the same artifact
registry, so independent requests extract in parallel while each individual
replica keeps its single-forward-pass-at-a-time invariant.

Routing is queue-depth aware: a request goes to the replica with the fewest
in-flight requests, with a round-robin pointer breaking ties so equally-idle
replicas share the load.  Admission control is a two-level bound — a
per-replica queue cap and a pool-wide in-flight cap — and a request that fits
under neither is shed immediately with
:class:`~repro.exceptions.ServiceSaturatedError` (surfaced by the HTTP layer
as ``503`` + ``Retry-After``) instead of being buffered without bound.

The pool is also the replica supervisor.  Each replica carries a
:class:`~repro.resilience.ReplicaHealth` state machine: infrastructure
faults (engine timeouts, a stopped engine — never a client's bad request)
count against a consecutive-failure threshold, routing skips quarantined
replicas, and a background supervisor thread probes quarantined replicas on
the policy's cadence, re-admitting them once a synthetic probe succeeds.
Health is surfaced through :meth:`ReplicaPool.health_snapshot` (the
``/healthz`` degraded/unavailable states) and pool metrics.
"""

from __future__ import annotations

import time
import threading
from typing import Callable, Dict, List, Optional

from ..core.classifier import DefectReport
from ..exceptions import (
    DeadlineExceededError,
    ServeError,
    ServiceSaturatedError,
    ServiceUnavailableError,
)
from ..obs import span as obs_span
from ..resilience import HealthPolicy, HealthState, ReplicaHealth
from .metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry, merge_counters
from .protocol import error_status
from .service import DiagnosisService

__all__ = ["ReplicaLease", "ReplicaPool", "is_infrastructure_fault"]

#: 5xx failures that still say nothing against the replica: shedding is the
#: pool's own admission control, and an expired deadline is the client's budget.
_CLIENT_FAULTS = (DeadlineExceededError, ServiceSaturatedError)


def is_infrastructure_fault(error: BaseException) -> bool:
    """Whether ``error`` counts against the serving replica's health.

    The status the front end answers with decides (:func:`error_status`, the
    one mapping): a 4xx is the client's fault, so one bad client cannot eject
    the pool; a 5xx (a timeout, a stopped engine, a crash) is the replica's.
    """
    if isinstance(error, _CLIENT_FAULTS):
        return False
    return error_status(error) >= 500


class _Replica:
    """One pool member: a service plus its admission bookkeeping."""

    def __init__(self, index: int, service: DiagnosisService, policy: HealthPolicy):
        self.index = index
        self.service = service
        self.inflight = 0
        self.assigned_total = 0
        self.health = ReplicaHealth(policy)
        self.m_inflight = service.metrics.gauge(
            "replica.inflight", "requests currently admitted to this replica"
        )
        self.m_assigned = service.metrics.counter(
            "replica.assigned_total", "requests ever routed to this replica"
        )


class ReplicaLease:
    """An admitted slot on one replica; release it when the request finishes.

    Usable as a context manager::

        with pool.acquire() as service:
            report = service.diagnose(...)
    """

    def __init__(self, pool: "ReplicaPool", replica: _Replica):
        self._pool = pool
        self._replica = replica
        self._released = False

    @property
    def service(self) -> DiagnosisService:
        return self._replica.service

    @property
    def replica_index(self) -> int:
        return self._replica.index

    def release(
        self,
        error: Optional[BaseException] = None,
        latency_seconds: Optional[float] = None,
    ) -> None:
        """Return the slot, feeding the request's outcome to replica health.

        ``error=None`` records a success (resets the replica's failure
        streak); an infrastructure fault counts toward ejection; a client
        error is neutral — it says nothing about the replica.
        """
        if not self._released:
            self._released = True
            self._pool._release(self._replica, error=error, latency_seconds=latency_seconds)

    def __enter__(self) -> DiagnosisService:
        return self._replica.service

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release(error=exc)


class ReplicaPool:
    """N diagnosis-service replicas behind queue-depth-aware admission.

    Parameters
    ----------
    factory:
        ``factory(index) -> DiagnosisService`` building one replica.  Use
        :meth:`from_registry` for the common same-registry case.
    num_replicas:
        Pool size.  Each replica owns a full service stack (engine thread,
        resident models), so memory scales with this.
    max_queue_per_replica:
        In-flight requests one replica accepts before it stops being an
        admission candidate.
    max_inflight:
        Pool-wide in-flight cap; defaults to
        ``num_replicas * max_queue_per_replica``.
    retry_after_seconds:
        Hint attached to shed requests (the HTTP ``Retry-After`` value).
    metrics:
        Pool-level registry (admissions, sheds, in-flight); defaults to a
        fresh one.  Per-replica instruments live in each replica service's
        own registry.
    health_policy:
        Replica supervision knobs (:class:`~repro.resilience.HealthPolicy`);
        defaults to the policy's own defaults.
    probe:
        ``probe(service) -> None`` run by the supervisor against a
        quarantined replica; raising means "still broken".  Defaults to
        listing the replica's models — cheap, but exercises the service
        object end to end.
    """

    def __init__(
        self,
        factory: Callable[[int], DiagnosisService],
        num_replicas: int = 2,
        max_queue_per_replica: int = 8,
        max_inflight: Optional[int] = None,
        retry_after_seconds: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        health_policy: Optional[HealthPolicy] = None,
        probe: Optional[Callable[[DiagnosisService], None]] = None,
    ):
        if num_replicas < 1:
            raise ServeError(f"num_replicas must be >= 1, got {num_replicas}")
        if max_queue_per_replica < 1:
            raise ServeError(f"max_queue_per_replica must be >= 1, got {max_queue_per_replica}")
        if max_inflight is None:
            max_inflight = num_replicas * max_queue_per_replica
        if max_inflight < 1:
            raise ServeError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_queue_per_replica = int(max_queue_per_replica)
        self.max_inflight = int(max_inflight)
        self.retry_after_seconds = float(retry_after_seconds)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.health_policy = health_policy if health_policy is not None else HealthPolicy()
        self._probe = probe if probe is not None else self._default_probe
        self._replicas = [
            _Replica(i, factory(i), self.health_policy) for i in range(int(num_replicas))
        ]
        self._lock = threading.Lock()
        self._next = 0
        self._closed = False
        self._stop_supervisor = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._m_admitted = self.metrics.counter(
            "pool.admitted_total", "requests admitted to a replica"
        )
        self._m_shed = self.metrics.counter(
            "pool.shed_total", "requests rejected by admission control"
        )
        self._m_inflight = self.metrics.gauge(
            "pool.inflight", "requests currently in flight across all replicas"
        )
        self._m_depth = self.metrics.histogram(
            "pool.admitted_queue_depth",
            "chosen replica's queue depth at admission (admitted requests)",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_ejections = self.metrics.counter(
            "pool.ejections_total", "replicas quarantined after consecutive faults"
        )
        self._m_readmissions = self.metrics.counter(
            "pool.readmissions_total", "quarantined replicas re-admitted by a probe"
        )
        self._m_quarantined = self.metrics.gauge(
            "pool.quarantined", "replicas currently quarantined"
        )

    @staticmethod
    def _default_probe(service: DiagnosisService) -> None:
        service.registry.models()

    @classmethod
    def from_registry(
        cls,
        registry,
        num_replicas: int = 2,
        max_queue_per_replica: int = 8,
        max_inflight: Optional[int] = None,
        retry_after_seconds: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        health_policy: Optional[HealthPolicy] = None,
        probe: Optional[Callable[[DiagnosisService], None]] = None,
        **service_kwargs,
    ) -> "ReplicaPool":
        """Build a pool of identical replicas over one artifact registry.

        ``registry`` may be a path or an ``ArtifactRegistry``;
        ``service_kwargs`` are forwarded to every
        :class:`~repro.serve.service.DiagnosisService`.
        """

        def factory(index: int) -> DiagnosisService:
            return DiagnosisService(registry, **service_kwargs)

        return cls(
            factory,
            num_replicas=num_replicas,
            max_queue_per_replica=max_queue_per_replica,
            max_inflight=max_inflight,
            retry_after_seconds=retry_after_seconds,
            metrics=metrics,
            health_policy=health_policy,
            probe=probe,
        )

    # -- admission -----------------------------------------------------------------

    @property
    def num_replicas(self) -> int:
        return len(self._replicas)

    @property
    def inflight(self) -> int:
        with self._lock:
            return sum(replica.inflight for replica in self._replicas)

    def acquire(self) -> ReplicaLease:
        """Admit one request, returning a lease on the least-loaded replica.

        Raises :class:`~repro.exceptions.ServiceSaturatedError` when the
        pool-wide cap is reached or every replica queue is full.
        """
        with obs_span("replicas.route") as route_span, self._lock:
            if self._closed:
                raise ServiceUnavailableError("replica pool is closed")
            total = sum(replica.inflight for replica in self._replicas)
            if total >= self.max_inflight:
                self._m_shed.inc()
                raise ServiceSaturatedError(
                    f"{total} requests in flight (max {self.max_inflight}); retry later",
                    retry_after=self.retry_after_seconds,
                )
            count = len(self._replicas)
            best: Optional[_Replica] = None
            quarantined = 0
            for offset in range(count):
                replica = self._replicas[(self._next + offset) % count]
                if not replica.health.is_healthy:
                    quarantined += 1
                    continue
                if replica.inflight >= self.max_queue_per_replica:
                    continue
                if best is None or replica.inflight < best.inflight:
                    best = replica
            if best is None:
                self._m_shed.inc()
                if quarantined == count:
                    raise ServiceSaturatedError(
                        f"all {count} replicas quarantined; retry later",
                        retry_after=self.retry_after_seconds,
                    )
                raise ServiceSaturatedError(
                    f"all {count - quarantined} healthy replica queues at capacity "
                    f"({self.max_queue_per_replica} each"
                    + (f", {quarantined} quarantined" if quarantined else "")
                    + "); retry later",
                    retry_after=self.retry_after_seconds,
                )
            route_span.set_attributes(
                {"replica": best.index, "replica_inflight": best.inflight, "pool_inflight": total}
            )
            self._next = (best.index + 1) % count
            self._m_depth.observe(best.inflight)
            best.inflight += 1
            best.assigned_total += 1
            best.m_inflight.set(best.inflight)
            best.m_assigned.inc()
            self._m_admitted.inc()
            self._m_inflight.set(total + 1)
            return ReplicaLease(self, best)

    def _release(
        self,
        replica: _Replica,
        error: Optional[BaseException] = None,
        latency_seconds: Optional[float] = None,
    ) -> None:
        ejected = False
        if error is None:
            replica.health.record_success(latency_seconds)
        elif is_infrastructure_fault(error):
            ejected = replica.health.record_failure(latency_seconds)
        with self._lock:
            replica.inflight = max(0, replica.inflight - 1)
            replica.m_inflight.set(replica.inflight)
            self._m_inflight.set(sum(r.inflight for r in self._replicas))
            if ejected:
                self._m_ejections.inc()
                self._m_quarantined.set(self._quarantined_count())
                self._ensure_supervisor_locked()

    # -- request helpers ------------------------------------------------------------

    def diagnose(self, name: str, inputs, labels, **kwargs) -> DefectReport:
        """Admit, route, diagnose, release: :meth:`DiagnosisService.diagnose` on a replica."""
        lease = self.acquire()
        started = time.perf_counter()
        try:
            report = lease.service.diagnose(name, inputs, labels, **kwargs)
        except BaseException as error:
            lease.release(error=error, latency_seconds=time.perf_counter() - started)
            raise
        lease.release(latency_seconds=time.perf_counter() - started)
        return report

    def monitor_snapshot(self, refresh: bool = False) -> Dict:
        """Aggregate ``GET /monitor`` payload across the replicas.

        Each replica carries its own monitor sink (windows and drift state
        are per-replica, like the metrics registries); the pool view keys
        them by replica index and reports the worst alert level across the
        fleet so a single drifting replica is never averaged away.
        """
        replicas = {}
        worst = "ok"
        severity = {"ok": 0, "warn": 1, "critical": 2}
        enabled = False
        for replica in self._replicas:
            payload = replica.service.monitor_payload(refresh=refresh)
            replicas[str(replica.index)] = payload
            enabled = enabled or bool(payload.get("enabled"))
            level = str(payload.get("level", "ok"))
            if severity.get(level, 0) > severity[worst]:
                worst = level
        return {
            "enabled": enabled,
            "level": worst,
            "level_severity": severity[worst],
            "replicas": replicas,
        }

    # -- supervision -----------------------------------------------------------------

    def _quarantined_count(self) -> int:
        return sum(
            1 for replica in self._replicas if replica.health.state == HealthState.QUARANTINED
        )

    def _ensure_supervisor_locked(self) -> None:
        """Start the probe thread lazily — a pool that never ejects never pays."""
        if self._closed or (self._supervisor is not None and self._supervisor.is_alive()):
            return
        self._stop_supervisor.clear()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    def _supervise_loop(self) -> None:
        interval = max(0.01, float(self.health_policy.probe_interval_seconds))
        while not self._stop_supervisor.wait(interval):
            if self._closed:
                return
            for replica in self._replicas:
                if not replica.health.probe_due():
                    continue
                with obs_span("replicas.probe", {"replica": replica.index}) as probe_span:
                    try:
                        self._probe(replica.service)
                    except Exception as error:  # noqa: BLE001 - any probe failure extends quarantine
                        probe_span.set_attributes(
                            {"outcome": "failed", "error": type(error).__name__}
                        )
                        replica.health.record_probe_failure()
                    else:
                        probe_span.set_attribute("outcome", "readmitted")
                        replica.health.readmit()
                        self._m_readmissions.inc()
            self._m_quarantined.set(self._quarantined_count())

    def eject_replica(self, index: int) -> None:
        """Force one replica into quarantine (operator/test hook)."""
        replica = self._replicas[index]
        replica.health.eject()
        with self._lock:
            self._m_ejections.inc()
            self._m_quarantined.set(self._quarantined_count())
            self._ensure_supervisor_locked()

    def health_snapshot(self) -> Dict:
        """Aggregate + per-replica health, the substance behind ``/healthz``.

        ``status`` is ``ok`` (every replica healthy), ``degraded`` (some
        quarantined), or ``unavailable`` (all quarantined).
        """
        snapshots = [replica.health.snapshot() for replica in self._replicas]
        quarantined = sum(
            1 for snapshot in snapshots if snapshot["state"] == HealthState.QUARANTINED
        )
        if quarantined == 0:
            status = "ok"
        elif quarantined == len(snapshots):
            status = "unavailable"
        else:
            status = "degraded"
        return {
            "status": status,
            "quarantined": quarantined,
            "replicas": snapshots,
        }

    # -- introspection ---------------------------------------------------------------

    @property
    def replicas(self) -> List[DiagnosisService]:
        return [replica.service for replica in self._replicas]

    def registered_models(self) -> List[str]:
        return self._replicas[0].service.registry.models()

    def records(self) -> List[Dict]:
        return self._replicas[0].service.models()

    def stats(self) -> Dict:
        with self._lock:
            queue_depths = [replica.inflight for replica in self._replicas]
            assigned = [replica.assigned_total for replica in self._replicas]
        return {
            "num_replicas": self.num_replicas,
            "max_queue_per_replica": self.max_queue_per_replica,
            "max_inflight": self.max_inflight,
            "inflight_per_replica": queue_depths,
            "assigned_per_replica": assigned,
            "shed_total": self._m_shed.value,
            "health": self.health_snapshot(),
            "replicas": [replica.service.stats() for replica in self._replicas],
        }

    def metrics_snapshot(self) -> Dict:
        """Pool + per-replica instrument snapshots, with a counter rollup."""
        replica_snapshots = [replica.service.metrics.as_dict() for replica in self._replicas]
        return {
            "pool": self.metrics.as_dict(),
            "replicas": replica_snapshots,
            "aggregate_counters": merge_counters(replica_snapshots),
        }

    # -- lifecycle -------------------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> int:
        """Stop admitting, drain in-flight work for up to ``timeout``, close.

        Returns the number of requests still in flight when the drain window
        closed (0 means a clean drain).  Idempotent, like :meth:`close`.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
        remaining = 0
        if not already_closed:
            deadline = time.monotonic() + max(0.0, float(timeout))
            while True:
                with self._lock:
                    remaining = sum(replica.inflight for replica in self._replicas)
                if remaining == 0 or time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
        self._stop_supervisor.set()
        supervisor = self._supervisor
        if supervisor is not None and supervisor.is_alive():
            supervisor.join(timeout=2.0)
        for replica in self._replicas:
            replica.service.close()
        return remaining

    def close(self) -> None:
        """Immediate shutdown: no drain window for in-flight requests."""
        self.shutdown(timeout=0.0)

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ReplicaPool(replicas={self.num_replicas}, "
            f"max_queue_per_replica={self.max_queue_per_replica}, "
            f"max_inflight={self.max_inflight})"
        )
