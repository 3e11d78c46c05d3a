"""Client-side circuit breaking: stop retry storms at their source.

When a server is down, N clients each retrying M times multiply its recovery
load by N·M — the retry storm *is* the outage extender.  A
:class:`CircuitBreaker` makes the client stateful about it:

* **closed** (normal): calls pass through; consecutive failures are counted.
* **open**: after ``failure_threshold`` consecutive failures every call fails
  immediately with :class:`~repro.exceptions.CircuitOpenError` — no socket,
  no retries, no load on the struggling server — until ``reset_seconds``
  have passed.
* **half-open**: one trial call is let through; success closes the circuit,
  failure re-opens it for another ``reset_seconds``.  Concurrent callers
  during the trial keep getting :class:`CircuitOpenError` (exactly one probe
  per reset window).

The breaker is thread-safe and clock-injectable; it counts *outcomes*, so
the caller decides what a failure is (for :class:`~repro.api.RemoteDiagnoser`:
transport errors after its bounded retries, and 5xx/503 responses other than
a 504 — a 400 is the caller's bug and a 504 the caller's spent deadline, not
the server's health).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from ..exceptions import CircuitOpenError, ConfigurationError

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState:
    """The three states (plain strings — they go to logs and repr as-is)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a single half-open probe."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_seconds: float = 5.0,
        name: str = "",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if int(failure_threshold) < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if float(reset_seconds) < 0:
            raise ConfigurationError(f"reset_seconds must be >= 0, got {reset_seconds}")
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self.name = str(name)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self._transitions = 0

    # -- queries -----------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    @property
    def transitions(self) -> int:
        """State changes so far (observability; never consulted for behavior)."""
        with self._lock:
            return self._transitions

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == BreakerState.OPEN
            and self._clock() - self._opened_at >= self.reset_seconds
        ):
            self._state = BreakerState.HALF_OPEN
            self._probe_inflight = False
            self._transitions += 1

    # -- the call protocol ---------------------------------------------------------

    def allow(self) -> None:
        """Gate one call: raises :class:`CircuitOpenError` instead of letting it out.

        In half-open state exactly one caller is admitted as the probe; the
        admitting caller MUST follow up with :meth:`record_success` or
        :meth:`record_failure` (as must every closed-state caller).
        """
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == BreakerState.CLOSED:
                return
            if self._state == BreakerState.HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return
            remaining = max(0.0, self.reset_seconds - (self._clock() - self._opened_at))
            raise CircuitOpenError(
                f"circuit {self.name or 'breaker'} is {self._state}: "
                f"{self._consecutive_failures} consecutive failures",
                retry_after=remaining if self._state == BreakerState.OPEN else self.reset_seconds,
            )

    def record_success(self) -> None:
        with self._lock:
            if self._state != BreakerState.CLOSED:
                self._transitions += 1
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == BreakerState.HALF_OPEN:
                self._open_locked()
            elif (
                self._state == BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._open_locked()

    def _open_locked(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._probe_inflight = False
        self._transitions += 1

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            self._maybe_half_open_locked()
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_seconds": self.reset_seconds,
                "transitions": self._transitions,
            }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(name={self.name!r}, state={self.state!r}, "
            f"threshold={self.failure_threshold})"
        )
