"""repro.resilience — fault tolerance as a tested subsystem, not a hope.

The dependability layer of the serving stack (the interlock/degraded-mode
analogue of the reproduction's instrumentation):

* :mod:`repro.resilience.deadline` — request deadlines propagated as a
  budget (``X-Deadline-Ms`` on the wire, a ``contextvars`` variable inside
  the process) so expired requests are refused *before* work is spent.
* :mod:`repro.resilience.health` — per-replica failure/latency tracking,
  quarantine with exponential re-admission, and the policy knobs the
  :class:`~repro.serve.replicas.ReplicaPool` supervisor runs on.
* :mod:`repro.resilience.breaker` — a client-side circuit breaker
  (closed/open/half-open) so retry storms stop at their source.

Everything here is stdlib-only and imports nothing from :mod:`repro.serve`
(the serving stack imports *this* package), mirroring the cycle-free
discipline of :mod:`repro.obs`.  Nothing here injects faults: the tests in
``tests/integration/test_resilience.py`` cause each one by patching a seam
the serving stack already has.
"""

from __future__ import annotations

from .breaker import BreakerState, CircuitBreaker
from .deadline import (
    DEADLINE_HEADER,
    Deadline,
    bind_deadline,
    check_deadline,
    current_deadline,
    remaining_budget,
    unbind_deadline,
)
from .health import HealthPolicy, HealthState, ReplicaHealth

__all__ = [
    "Deadline",
    "DEADLINE_HEADER",
    "bind_deadline",
    "unbind_deadline",
    "current_deadline",
    "check_deadline",
    "remaining_budget",
    "HealthPolicy",
    "HealthState",
    "ReplicaHealth",
    "BreakerState",
    "CircuitBreaker",
]
