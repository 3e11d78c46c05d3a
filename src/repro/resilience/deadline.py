"""Request deadlines: a propagated time budget instead of per-hop timeouts.

Per-hop timeouts compose badly: a 30 s socket timeout at the client, a 120 s
engine timeout at the service, and an unbounded queue wait in between mean a
request can spend minutes dying slowly while every individual stage believes
it is healthy.  A :class:`Deadline` is the caller's *total* budget, stamped on
the wire as ``X-Deadline-Ms`` (remaining milliseconds — relative, so clock
skew between client and server cannot corrupt it), re-anchored to the
server's monotonic clock on arrival, and carried through gateway → replica
pool → batching engine → service via a ``contextvars`` variable, exactly like
the active span in :mod:`repro.obs`.

Every stage that is about to spend real work asks :func:`check_deadline`
first; an expired budget raises
:class:`~repro.exceptions.DeadlineExceededError` (HTTP 504) *before* the work
is done, so a client that has already given up never costs an extraction.
The contextvar crosses ``await`` boundaries and — via ``copy_context`` in the
gateway's executor hop — worker threads for free; the batching engine's queue
is crossed explicitly by capturing :func:`current_deadline` at submit time
(the same pattern its trace context uses).
"""

from __future__ import annotations

import contextvars
import math
import time
from typing import Callable, Optional

from ..exceptions import DeadlineExceededError

__all__ = [
    "Deadline",
    "DEADLINE_HEADER",
    "bind_deadline",
    "unbind_deadline",
    "current_deadline",
    "check_deadline",
    "remaining_budget",
]

#: Wire header carrying the remaining budget in integer milliseconds.
DEADLINE_HEADER = "X-Deadline-Ms"

#: Largest accepted budget (~30 days) — a hostile header cannot overflow
#: arithmetic or encode an effectively-infinite deadline that pins state.
MAX_DEADLINE_MS = 30 * 24 * 3600 * 1000

_current_deadline: "contextvars.ContextVar[Optional[Deadline]]" = contextvars.ContextVar(
    "repro_resilience_deadline", default=None
)


class Deadline:
    """An absolute point on the local monotonic clock by which work must finish."""

    __slots__ = ("_expires", "_clock")

    def __init__(
        self, expires_monotonic: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._expires = float(expires_monotonic)
        self._clock = clock

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``."""
        return cls(clock() + float(seconds), clock=clock)

    @classmethod
    def from_header_ms(
        cls, value: Optional[str], clock: Callable[[], float] = time.monotonic
    ) -> "Optional[Deadline]":
        """Parse an ``X-Deadline-Ms`` header into a local deadline.

        The header carries *remaining milliseconds* (never an absolute
        timestamp), so it is immune to wall-clock skew between peers.
        Absent or malformed values (``"nan"`` included) yield ``None`` — a
        garbage header must not reject a request that never asked for a
        deadline; a negative or zero budget is clamped to zero and yields an
        already-expired deadline (the sender has given up, which is exactly
        what 504 should report).
        """
        if value is None:
            return None
        try:
            budget_ms = float(value.strip())
        except (ValueError, AttributeError):
            return None
        if math.isnan(budget_ms):
            return None
        budget_ms = min(max(budget_ms, 0.0), float(MAX_DEADLINE_MS))
        return cls(clock() + budget_ms / 1000.0, clock=clock)

    # -- queries -----------------------------------------------------------------

    def remaining(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self._expires - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def covers(self, seconds: float) -> bool:
        """Whether the remaining budget can pay for a stage of ``seconds``."""
        return self.remaining() > float(seconds)

    def header_value(self) -> str:
        """The remaining budget as an ``X-Deadline-Ms`` value (floor 0)."""
        return str(max(0, int(self.remaining() * 1000.0)))

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


# -- context propagation ------------------------------------------------------------


def bind_deadline(deadline: Optional[Deadline]) -> "contextvars.Token[Optional[Deadline]]":
    """Make ``deadline`` the current context's budget; returns the reset token."""
    return _current_deadline.set(deadline)


def unbind_deadline(token: "contextvars.Token[Optional[Deadline]]") -> None:
    _current_deadline.reset(token)


def current_deadline() -> Optional[Deadline]:
    """The deadline bound to the current context, if any."""
    return _current_deadline.get()


def check_deadline(stage: str, deadline: Optional[Deadline] = None) -> Optional[Deadline]:
    """Refuse to start ``stage`` on an expired budget.

    Uses the explicit ``deadline`` when given (queue-crossing callers), the
    context's otherwise.  Returns the effective deadline so callers can derive
    stage timeouts from it; raises
    :class:`~repro.exceptions.DeadlineExceededError` when it is already spent.
    """
    effective = deadline if deadline is not None else _current_deadline.get()
    if effective is not None and effective.expired():
        raise DeadlineExceededError(
            f"deadline expired {-effective.remaining():.3f}s before {stage}"
        )
    return effective


def remaining_budget(default: float, deadline: Optional[Deadline] = None) -> float:
    """A stage timeout: the smaller of ``default`` and the budget that is left.

    With no deadline in play the stage keeps its configured timeout; with one,
    the stage never waits beyond the caller's remaining patience.
    """
    effective = deadline if deadline is not None else _current_deadline.get()
    if effective is None:
        return float(default)
    return max(0.0, min(float(default), effective.remaining()))
