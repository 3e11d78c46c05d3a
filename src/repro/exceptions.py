"""Exception hierarchy for the repro (DeepMorph reproduction) library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can distinguish library failures from
programming mistakes with a single ``except`` clause.

This module is also the single place where the serving wire protocol's error
responses map back onto typed exceptions: HTTP front ends serialize an error
as ``{"error": <message>, "error_type": <class name>}`` plus a status code
(see :func:`repro.serve.protocol.error_response`), and clients rebuild the
original exception class with :func:`exception_from_wire`.  Keeping both
directions anchored on this hierarchy means a remote caller catches exactly
the same exception types an embedded caller does.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

__all__ = [
    "ReproError",
    "ShapeError",
    "ConfigurationError",
    "NotFittedError",
    "DatasetError",
    "DefectInjectionError",
    "SerializationError",
    "ExperimentError",
    "SchemaVersionError",
    "NoFaultyCasesError",
    "ServeError",
    "ArtifactNotFoundError",
    "PayloadTooLargeError",
    "ServiceSaturatedError",
    "ServiceUnavailableError",
    "RemoteTransportError",
    "CodecError",
    "UnsupportedMediaTypeError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "MonitorOverflowError",
    "exception_from_wire",
]


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An array does not have the shape a component requires.

    Raised, for example, when a layer receives an input whose rank or channel
    count does not match what the layer was built for, or when labels and
    inputs disagree on the number of examples.
    """


class ConfigurationError(ReproError, ValueError):
    """A component was constructed or configured with invalid arguments."""


class NotFittedError(ReproError, RuntimeError):
    """An operation requires a fitted/trained component that is not fitted.

    Raised by probes, pattern libraries, and the :class:`~repro.core.DeepMorph`
    facade when ``diagnose``-style methods are called before ``fit``.
    """


class DatasetError(ReproError, ValueError):
    """A dataset violates an invariant (empty split, unknown class, ...)."""


class DefectInjectionError(ReproError, ValueError):
    """A defect specification cannot be applied to the given dataset or model."""


class SerializationError(ReproError, ValueError):
    """An artifact could not be saved or loaded."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment harness failed to produce a result."""


class SchemaVersionError(ReproError, ValueError):
    """A request/report payload declares a schema version this library does not speak."""


class NoFaultyCasesError(ConfigurationError):
    """None of the submitted production cases is misclassified by the model.

    A defect diagnosis needs misclassifications as evidence; a batch with no
    faulty cases has nothing to diagnose.  Subclasses
    :class:`ConfigurationError`, so pre-existing handlers keep working, while
    streaming callers (``Diagnoser.diagnose_iter``) can skip clean batches by
    catching this type specifically.
    """


class ServeError(ReproError, RuntimeError):
    """The diagnosis service layer failed (bad request, shut-down engine, ...)."""


class ArtifactNotFoundError(ServeError, KeyError):
    """A model name/version is not present in the artifact registry."""


class PayloadTooLargeError(ServeError):
    """A request body exceeds the serving layer's configured size limit."""


class ServiceSaturatedError(ServeError):
    """Admission control rejected a request because every replica queue is full.

    Carries ``retry_after`` (seconds), which HTTP front ends surface as a
    ``Retry-After`` header on the 503 response.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class ServiceUnavailableError(ServeError):
    """The serving replica is shut down: a closed service or pool, a stopped engine.

    The replica's fault, not the request's: HTTP front ends answer ``503``,
    and the replica pool counts it against the replica's health.
    """


class RemoteTransportError(ServeError):
    """A remote diagnosis backend could not be reached (after bounded retries)."""


class CodecError(ServeError):
    """A wire payload could not be decoded by its declared codec.

    Raised by :mod:`repro.wire` codecs on malformed frames — wrong magic,
    truncated array records, dtype/shape headers that disagree with the
    actual byte count, undecodable header JSON.  A client sending garbage
    gets a typed 400, never a 500 or a hung connection.
    """


class UnsupportedMediaTypeError(ServeError):
    """A request names a ``Content-Type``/``Accept`` no registered codec speaks.

    HTTP front ends surface this as a 415 response; the payload's
    ``error_type`` lets clients rebuild this class via
    :func:`exception_from_wire`.
    """


class DeadlineExceededError(ServeError):
    """A request's deadline budget ran out before (or during) a serving stage.

    Carried on the wire as ``X-Deadline-Ms`` (remaining milliseconds) and
    enforced at every stage boundary (admission, batching, extraction); HTTP
    front ends surface it as a 504 — crucially *before* the diagnosis work is
    spent, so a caller that has already given up costs nothing downstream.
    """


class CircuitOpenError(ServeError):
    """A client-side circuit breaker is open; the call was refused locally.

    Raised by :class:`~repro.resilience.CircuitBreaker` instead of hitting a
    server that has been failing consecutively — the client's contribution to
    not extending an outage with a retry storm.  Carries ``retry_after``
    (seconds until the breaker's next half-open probe window).
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class MonitorOverflowError(ServeError):
    """The monitoring window could not keep every observation it was offered.

    The online serving path *never* raises this — there, an overfull or
    contended window silently drops the observation and bumps a counter (the
    same non-blocking discipline :mod:`repro.obs` uses).  Strict callers (the
    offline ``repro-monitor`` trace replay, tests) opt into the exception via
    ``MonitorWindow.append_strict`` so silent data loss cannot corrupt an
    analysis.  Carries ``dropped``, the number of observations lost.
    """

    def __init__(self, message: str, dropped: int = 0):
        super().__init__(message)
        self.dropped = int(dropped)


#: HTTP status -> exception class used when a response carries no (or an
#: unknown) ``error_type``.  Covers every error status the front ends emit
#: for exception-derived failures.
_STATUS_FALLBACK: Dict[int, Type[ReproError]] = {
    400: ServeError,
    404: ArtifactNotFoundError,
    408: RemoteTransportError,
    413: PayloadTooLargeError,
    415: UnsupportedMediaTypeError,
    429: MonitorOverflowError,
    503: ServiceSaturatedError,
    504: DeadlineExceededError,
}


def _wire_classes() -> Dict[str, Type[ReproError]]:
    registry: Dict[str, Type[ReproError]] = {}
    for name in __all__:
        candidate = globals().get(name)
        if isinstance(candidate, type) and issubclass(candidate, ReproError):
            registry[name] = candidate
    return registry


def exception_from_wire(
    status: int,
    message: str,
    error_type: Optional[str] = None,
    retry_after: Optional[float] = None,
) -> ReproError:
    """Rebuild the typed exception behind one HTTP error response.

    ``error_type`` is the class name the server put in the response payload;
    when absent (older servers, proxy-generated bodies) the status code picks
    a sensible fallback.  Only classes of this hierarchy are ever constructed
    — a hostile or corrupted ``error_type`` degrades to the status fallback
    instead of resolving arbitrary names.
    """
    cls = _wire_classes().get(error_type or "")
    if cls is None:
        cls = _STATUS_FALLBACK.get(int(status), ServeError)
    if issubclass(cls, ServiceSaturatedError):
        return cls(message, retry_after=retry_after if retry_after is not None else 1.0)
    return cls(message)
