"""Unit tests for repro.resilience: deadlines, replica health, the circuit
breaker, and full-jitter backoff."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.exceptions import CircuitOpenError, DeadlineExceededError
from repro.resilience import (
    DEADLINE_HEADER,
    BreakerState,
    CircuitBreaker,
    Deadline,
    HealthPolicy,
    HealthState,
    ReplicaHealth,
    bind_deadline,
    check_deadline,
    current_deadline,
    remaining_budget,
    unbind_deadline,
)


class FakeClock:
    """A controllable monotonic clock for deterministic timing tests."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_remaining_counts_down_with_the_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired()
        clock.advance(1.0)
        assert deadline.expired()
        assert deadline.remaining() < 0

    def test_header_roundtrip_reanchors_on_the_receiving_clock(self):
        clock = FakeClock()
        sent = Deadline.after(3.0, clock=clock)
        receiver = FakeClock(start=9999.0)  # wildly different clock: must not matter
        received = Deadline.from_header_ms(sent.header_value(), clock=receiver)
        assert received is not None
        assert received.remaining() == pytest.approx(3.0, abs=0.01)

    @pytest.mark.parametrize("raw", ["", "abc", "1.5.2", None, "nan"])
    def test_malformed_header_means_no_deadline(self, raw):
        assert Deadline.from_header_ms(raw) is None

    @pytest.mark.parametrize("raw", ["-100", "-inf"])
    def test_negative_header_is_already_expired(self, raw):
        deadline = Deadline.from_header_ms(raw)
        assert deadline is not None
        assert deadline.expired()
        assert deadline.header_value() == "0"

    def test_covers_checks_a_required_budget(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        assert deadline.covers(0.5)
        assert not deadline.covers(2.0)

    def test_check_deadline_names_the_stage(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        check_deadline("admission", deadline=deadline)  # within budget: no raise
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError, match="admission"):
            check_deadline("admission", deadline=deadline)

    def test_contextvar_bind_and_unbind(self):
        assert current_deadline() is None
        deadline = Deadline.after(5.0)
        token = bind_deadline(deadline)
        try:
            assert current_deadline() is deadline
        finally:
            unbind_deadline(token)
        assert current_deadline() is None

    def test_bind_none_is_a_noop_binding(self):
        token = bind_deadline(None)
        try:
            assert current_deadline() is None
        finally:
            unbind_deadline(token)

    def test_remaining_budget_caps_a_default_timeout(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        assert remaining_budget(30.0, deadline=deadline) == pytest.approx(1.0)
        assert remaining_budget(0.2, deadline=deadline) == pytest.approx(0.2)
        assert remaining_budget(30.0, deadline=None) == pytest.approx(30.0)


class TestReplicaHealth:
    def policy(self, **overrides) -> HealthPolicy:
        defaults = dict(
            failure_threshold=3,
            probe_interval_seconds=0.01,
            quarantine_seconds=1.0,
            quarantine_backoff=2.0,
            max_quarantine_seconds=8.0,
        )
        defaults.update(overrides)
        return HealthPolicy(**defaults)

    def test_ejects_after_consecutive_failures(self):
        health = ReplicaHealth(self.policy())
        assert health.record_failure() is False
        assert health.record_failure() is False
        assert health.record_failure() is True  # threshold reached: ejected
        assert health.state == HealthState.QUARANTINED
        assert not health.is_healthy

    def test_success_resets_the_failure_streak(self):
        health = ReplicaHealth(self.policy())
        health.record_failure()
        health.record_failure()
        health.record_success()
        health.record_failure()
        health.record_failure()
        assert health.is_healthy  # streak broke; 2 more failures don't eject

    def test_probe_due_respects_quarantine_window(self):
        clock = FakeClock()
        health = ReplicaHealth(self.policy(), clock=clock)
        for _ in range(3):
            health.record_failure()
        assert not health.probe_due()  # inside the quarantine window
        clock.advance(1.5)
        assert health.probe_due()

    def test_probe_failure_extends_quarantine_exponentially(self):
        clock = FakeClock()
        health = ReplicaHealth(self.policy(), clock=clock)
        for _ in range(3):
            health.record_failure()
        clock.advance(1.5)
        health.record_probe_failure()  # second ejection: 2x window
        clock.advance(1.5)
        assert not health.probe_due()
        clock.advance(1.0)
        assert health.probe_due()

    def test_quarantine_window_is_capped(self):
        policy = self.policy()
        # 1-based: the n-th ejection quarantines for base * backoff**(n-1).
        assert policy.quarantine_for(1) == pytest.approx(1.0)
        assert policy.quarantine_for(3) == pytest.approx(4.0)
        assert policy.quarantine_for(10) == pytest.approx(8.0)  # capped

    def test_readmit_restores_health(self):
        health = ReplicaHealth(self.policy())
        for _ in range(3):
            health.record_failure()
        health.readmit()
        assert health.is_healthy
        assert health.state == HealthState.HEALTHY

    def test_snapshot_shape(self):
        clock = FakeClock()
        health = ReplicaHealth(self.policy(), clock=clock)
        health.record_success(latency_seconds=0.02)
        snapshot = health.snapshot()
        assert snapshot["state"] == "healthy"
        assert snapshot["consecutive_failures"] == 0
        for _ in range(3):
            health.record_failure()
        snapshot = health.snapshot()
        assert snapshot["state"] == "quarantined"
        assert snapshot["ejections"] == 1
        assert snapshot["probe_eligible_in_seconds"] > 0


class TestCircuitBreaker:
    def test_opens_after_threshold_and_rejects(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_seconds=5.0, clock=clock)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow()
        assert excinfo.value.retry_after == pytest.approx(5.0)

    def test_half_open_single_probe_then_close_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0, clock=clock)
        breaker.allow()
        breaker.record_failure()
        clock.advance(6.0)
        breaker.allow()  # the single half-open probe slot
        assert breaker.state == BreakerState.HALF_OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # second caller finds the slot taken
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        breaker.allow()  # closed again: flows freely

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0, clock=clock)
        breaker.allow()
        breaker.record_failure()
        clock.advance(6.0)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # re-opened: the reset window restarts

    def test_success_resets_failure_streak_while_closed(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=5.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED

    def test_snapshot_and_transitions(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=1.0, name="/diagnose", clock=clock
        )
        breaker.record_failure()
        snapshot = breaker.snapshot()
        assert snapshot["name"] == "/diagnose"
        assert snapshot["state"] == "open"
        assert breaker.transitions == 1

    def test_breaker_is_thread_safe_under_contention(self):
        breaker = CircuitBreaker(failure_threshold=50, reset_seconds=5.0)
        errors = []

        def hammer():
            try:
                for _ in range(200):
                    try:
                        breaker.allow()
                    except CircuitOpenError:
                        continue
                    breaker.record_failure()
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert breaker.state == BreakerState.OPEN


class TestFullJitterBackoff:
    def test_backoff_draws_from_uniform_zero_to_ceiling(self):
        from repro.api.remote import RemoteDiagnoser

        client = RemoteDiagnoser("http://127.0.0.1:1", rng=random.Random(42))
        slept = []
        original_sleep = time.sleep
        try:
            time.sleep = slept.append
            client._backoff(0, None)
            client._backoff(1, None)
            client._backoff(2, None)
        finally:
            time.sleep = original_sleep
        base = client.config.retry_backoff_seconds
        expected = random.Random(42)
        assert slept == pytest.approx(
            [expected.uniform(0.0, base * 2 ** n) for n in range(3)]
        )
        for attempt, duration in enumerate(slept):
            assert 0.0 <= duration <= base * 2 ** attempt

    def test_backoff_is_bounded_by_the_deadline(self):
        from repro.api.remote import RemoteDiagnoser

        clock = FakeClock()
        deadline = Deadline.after(0.001, clock=clock)
        # An rng pinned at the ceiling would sleep ~0.25s without the bound.
        class Ceiling(random.Random):
            def uniform(self, a, b):  # noqa: ANN001, ANN202 - stdlib signature
                return b

        client = RemoteDiagnoser("http://127.0.0.1:1", rng=Ceiling())
        slept = []
        original_sleep = time.sleep
        try:
            time.sleep = slept.append
            client._backoff(3, deadline)
        finally:
            time.sleep = original_sleep
        assert slept and slept[0] == pytest.approx(0.001, abs=1e-6)


class TestDeadlineHeaderConstant:
    def test_header_name_is_stable_wire_contract(self):
        # The header name is a wire contract with deployed clients; renaming
        # it is a breaking change and must fail loudly here.
        assert DEADLINE_HEADER == "X-Deadline-Ms"
