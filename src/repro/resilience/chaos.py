"""Deterministic fault injection for the serving stack.

Fault tolerance that is never exercised is a hope, not a property.  This
module provides the exercise harness: a process-global
:class:`FaultInjector` (the in-place-mutation pattern of
``repro.obs.Tracer`` — components keep a reference, reconfiguration is
observed everywhere, and the disabled path costs a single attribute check)
with **named sites** compiled into the stack:

========================  =========================================================
site                      where it fires
========================  =========================================================
``gateway.read_body``     asyncio gateway, after the request body is read
``replica.dispatch``      ``DiagnosisService.diagnose``, before any pipeline work
``batching.drain``        the batching engine's drain thread, per coalesced batch
``remote.send``           ``RemoteDiagnoser``, before a request is written
``codec.decode``          asyncio gateway, before the request body is decoded
========================  =========================================================

A :class:`FaultPlan` arms one site with a mode:

* ``delay`` — sleep ``delay_seconds`` before proceeding (slow dependency);
* ``hang`` — same mechanics, declared intent: a stall long enough to trip
  timeouts and health ejection (``delay_seconds`` defaults much higher);
* ``error`` — raise the named :mod:`repro.exceptions` class;
* ``drop`` — the caller severs the connection (client: reset mid-send,
  gateway: close without responding);
* ``corrupt`` — the caller flips bytes in the payload before decoding.

Draws are **seeded** (``random.Random(seed)``), and ``max_injections`` bounds
how many times a plan fires, so a chaos test is a deterministic script, not a
roll of dice: "hang the first three dispatches, then recover" is expressible
and replayable.  Plans load from a JSON spec (``repro-serve --chaos
spec.json``) or at runtime via ``POST /debug/chaos`` (loopback peers only).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Type, Union

from .. import exceptions
from ..exceptions import ConfigurationError, ReproError

__all__ = [
    "FAULT_SITES",
    "FAULT_MODES",
    "FaultPlan",
    "FaultInjector",
    "get_injector",
    "configure_chaos",
    "chaos_spec_from_dict",
    "corrupt_bytes",
]

#: The sites compiled into the serving stack.  Unknown sites are rejected at
#: configuration time — a typo must fail the spec, not silently never fire.
FAULT_SITES = frozenset(
    {
        "gateway.read_body",
        "replica.dispatch",
        "batching.drain",
        "remote.send",
        "codec.decode",
    }
)

FAULT_MODES = frozenset({"delay", "hang", "error", "drop", "corrupt"})

#: Caller-cooperative modes: :meth:`FaultInjector.inject` returns these as a
#: string instead of acting, because only the call site can sever its own
#: connection or corrupt its own buffer.
_RETURNED_MODES = frozenset({"drop", "corrupt"})


@dataclass(frozen=True)
class FaultPlan:
    """One armed fault: a site, a mode, and the knobs that shape it."""

    site: str
    mode: str
    probability: float = 1.0
    delay_seconds: float = 0.05
    error_type: str = "ServeError"
    message: str = "chaos: injected fault"
    #: How many times this plan may fire; ``None`` is unlimited.
    max_injections: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known sites: {sorted(FAULT_SITES)}"
            )
        if self.mode not in FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r}; known modes: {sorted(FAULT_MODES)}"
            )
        if not 0.0 <= float(self.probability) <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if float(self.delay_seconds) < 0:
            raise ConfigurationError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        if self.max_injections is not None and int(self.max_injections) < 0:
            raise ConfigurationError(
                f"max_injections must be >= 0, got {self.max_injections}"
            )
        if self.mode == "error":
            _resolve_error(self.error_type)  # fail at arm time, not fire time

    def build_error(self) -> ReproError:
        """The exception an ``error`` plan injects (for async call sites that
        surface it through their own error path instead of raising here)."""
        return _resolve_error(self.error_type)(f"{self.message} at {self.site}")


def _resolve_error(name: str) -> Type[ReproError]:
    """Resolve an exception name against the repro hierarchy, and only it."""
    candidate = getattr(exceptions, str(name), None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        return candidate
    raise ConfigurationError(
        f"error_type {name!r} is not a repro exception class"
    )


def corrupt_bytes(payload: bytes) -> bytes:
    """Deterministically damage a payload (bit-flip the first byte).

    Enough to break any codec's magic/JSON while keeping the corruption
    reproducible; an empty payload stays empty (nothing to corrupt).
    """
    if not payload:
        return payload
    return bytes([payload[0] ^ 0xFF]) + payload[1:]


class _ArmedPlan:
    """A plan plus its mutable firing budget (internal to the injector)."""

    __slots__ = ("plan", "budget", "fired")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.budget = None if plan.max_injections is None else int(plan.max_injections)
        self.fired = 0


class FaultInjector:
    """Process-global, seeded fault injector with named sites.

    Mutated in place (never replaced) so every compiled-in call site observes
    reconfiguration; disabled (the default) the per-site cost is one attribute
    check.  ``sleep`` is injectable so unit tests can assert delay plans
    without actually waiting.
    """

    def __init__(
        self,
        enabled: bool = False,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.enabled = bool(enabled)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._plans: Dict[str, List[_ArmedPlan]] = {}
        self._rng = random.Random(0)
        self._seed = 0

    # -- configuration -----------------------------------------------------------

    def configure(self, plans: Sequence[FaultPlan], seed: int = 0) -> None:
        """Arm ``plans`` (replacing any current ones) and reseed the draws."""
        grouped: Dict[str, List[_ArmedPlan]] = {}
        for plan in plans:
            grouped.setdefault(plan.site, []).append(_ArmedPlan(plan))
        with self._lock:
            self._plans = grouped
            self._seed = int(seed)
            self._rng = random.Random(self._seed)
            self.enabled = bool(grouped)

    def disable(self) -> None:
        """Disarm everything (the compiled-in sites go back to one check)."""
        with self._lock:
            self.enabled = False
            self._plans = {}

    # -- firing ------------------------------------------------------------------

    def _draw(self, site: str) -> Optional[FaultPlan]:
        """The plan that fires at ``site`` for this call, if any (seeded)."""
        with self._lock:
            for armed in self._plans.get(site, ()):
                if armed.budget is not None and armed.budget <= 0:
                    continue
                probability = armed.plan.probability
                if probability < 1.0 and self._rng.random() >= probability:
                    continue
                if armed.budget is not None:
                    armed.budget -= 1
                armed.fired += 1
                return armed.plan
        return None

    def inject(self, site: str) -> Optional[str]:
        """Fire any armed plan at ``site`` (the synchronous call-site form).

        ``delay``/``hang`` sleep here; ``error`` raises its resolved
        exception; ``drop``/``corrupt`` return the mode string for the caller
        to act on.  Returns ``None`` when nothing fired.  Disabled cost: one
        attribute check.
        """
        if not self.enabled:
            return None
        plan = self._draw(site)
        if plan is None:
            return None
        _annotate_span(site, plan.mode)
        if plan.mode in ("delay", "hang"):
            self._sleep(plan.delay_seconds)
            return plan.mode
        if plan.mode == "error":
            raise _resolve_error(plan.error_type)(f"{plan.message} at {site}")
        return plan.mode  # drop / corrupt: the caller cooperates

    def planned(self, site: str) -> Optional[FaultPlan]:
        """Draw without acting — for async callers that must not block a loop.

        The gateway uses this: a ``delay`` plan becomes ``await
        asyncio.sleep(...)`` on the event loop instead of stalling every
        connection behind a blocking sleep.
        """
        if not self.enabled:
            return None
        plan = self._draw(site)
        if plan is not None:
            _annotate_span(site, plan.mode)
        return plan

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The ``/debug/chaos`` document: armed plans and per-plan fire counts."""
        with self._lock:
            plans = [
                {
                    "site": armed.plan.site,
                    "mode": armed.plan.mode,
                    "probability": armed.plan.probability,
                    "fired": armed.fired,
                    "remaining_budget": armed.budget,
                }
                for site in sorted(self._plans)
                for armed in self._plans[site]
            ]
            return {"enabled": self.enabled, "seed": self._seed, "plans": plans}

    def __repr__(self) -> str:
        with self._lock:
            armed = sum(len(plans) for plans in self._plans.values())
        return f"FaultInjector(enabled={self.enabled}, plans={armed})"


def _annotate_span(site: str, mode: str) -> None:
    """Stamp the injection onto the active span, when one is recording."""
    from ..obs import current_span

    active = current_span()
    if active is not None and active.is_recording:
        active.set_attribute(f"chaos.{site}", mode)


#: The process-wide injector every compiled-in site consults.  Mutated in
#: place by :func:`configure_chaos`, never replaced.
_GLOBAL_INJECTOR = FaultInjector(enabled=False)


def get_injector() -> FaultInjector:
    """The process-wide fault injector (disabled until configured)."""
    return _GLOBAL_INJECTOR


def chaos_spec_from_dict(spec: Mapping[str, object]) -> "tuple[List[FaultPlan], int]":
    """Parse a chaos spec document into ``(plans, seed)``.

    Spec shape (the ``--chaos`` file and the ``POST /debug/chaos`` body)::

        {"seed": 7,
         "plans": [{"site": "replica.dispatch", "mode": "hang",
                    "delay_seconds": 2.0, "max_injections": 3}]}

    ``{"enabled": false}`` (or an empty/absent plan list) disarms.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError("chaos spec must be a JSON object")
    if spec.get("enabled") is False:
        return [], int(spec.get("seed", 0) or 0)
    raw_plans = spec.get("plans", [])
    if not isinstance(raw_plans, Sequence) or isinstance(raw_plans, (str, bytes)):
        raise ConfigurationError("chaos spec 'plans' must be a list of plan objects")
    plans: List[FaultPlan] = []
    for raw in raw_plans:
        if not isinstance(raw, Mapping):
            raise ConfigurationError(f"chaos plan must be an object, got {raw!r}")
        unknown = set(raw) - {
            "site", "mode", "probability", "delay_seconds",
            "error_type", "message", "max_injections",
        }
        if unknown:
            raise ConfigurationError(f"unknown chaos plan field(s): {sorted(unknown)}")
        kwargs: Dict[str, object] = dict(raw)
        plans.append(FaultPlan(**kwargs))  # type: ignore[arg-type]
    try:
        seed = int(spec.get("seed", 0) or 0)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(f"chaos spec 'seed' must be an integer: {error}") from error
    return plans, seed


def configure_chaos(
    spec: Union[Mapping[str, object], Sequence[FaultPlan], None],
    seed: Optional[int] = None,
) -> FaultInjector:
    """Arm the process-wide injector from a spec document or plan list.

    ``None`` (or an empty spec) disarms.  Returns the injector so callers can
    read :meth:`FaultInjector.stats` back.
    """
    injector = get_injector()
    if spec is None:
        injector.disable()
        return injector
    if isinstance(spec, Mapping):
        plans, spec_seed = chaos_spec_from_dict(spec)
        injector.configure(plans, seed=spec_seed if seed is None else int(seed))
        return injector
    injector.configure(list(spec), seed=0 if seed is None else int(seed))
    return injector
