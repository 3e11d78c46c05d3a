"""Wire protocol of the HTTP front end (:mod:`repro.serve.gateway`).

Each part of the protocol comes from one source:

* request parsing is :meth:`repro.api.schema.DiagnosisRequest.from_dict` —
  the wire format *is* the library's ``v1`` schema, so a schema change lands
  in the server and every client at once;
* error responses come from :func:`error_response`, the one place an
  exception is mapped to a status code, an ``{"error", "error_type"}``
  payload, and transport headers (``Retry-After``).  Clients invert the
  mapping with :func:`repro.exceptions.exception_from_wire`;
* wire encodings come from :mod:`repro.wire`: request bodies are decoded by
  the codec owning their ``Content-Type`` (absent → JSON), ``/diagnose``
  success responses are encoded per ``Accept`` (see :func:`negotiate_codecs`),
  unknown media types on either side are a 415, and error documents are
  always JSON so a client can read a failure whatever codec it asked for.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import (
    ArtifactNotFoundError,
    DeadlineExceededError,
    MonitorOverflowError,
    PayloadTooLargeError,
    ReproError,
    ServeError,
    ServiceSaturatedError,
    ServiceUnavailableError,
    UnsupportedMediaTypeError,
)
from ..resilience import DEADLINE_HEADER, Deadline
from ..wire import (
    codec_for_accept,
    codec_for_content_type,
    negotiate as negotiate_codecs,
)

__all__ = [
    "error_status",
    "error_response",
    "resolve_request_id",
    "resolve_deadline",
    "wants_text_metrics",
    "negotiate_codecs",
    "codec_for_content_type",
    "codec_for_accept",
]

Headers = Sequence[Tuple[str, str]]

#: Characters an inbound ``X-Request-ID`` may contain — anything else (or an
#: over-long value) is replaced with a freshly generated id, so a hostile
#: header cannot inject structure into response headers, logs, or traces.
_REQUEST_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)
MAX_REQUEST_ID_LENGTH = 64


def resolve_request_id(supplied: Optional[str], generate) -> str:
    """The request id to use: the client's (when well-formed) or a fresh one."""
    if supplied:
        candidate = supplied.strip()
        if 0 < len(candidate) <= MAX_REQUEST_ID_LENGTH and set(candidate) <= _REQUEST_ID_CHARS:
            return candidate
    return generate()


def resolve_deadline(headers: Dict[str, str]) -> Optional[Deadline]:
    """The request's deadline from ``X-Deadline-Ms``.

    ``headers`` maps lower-cased header names to values, as the gateway
    parses them.  Absent or malformed values mean "no deadline" — a garbage
    header must not reject a request that never asked for one.
    """
    return Deadline.from_header_ms(headers.get(DEADLINE_HEADER.lower()))


def wants_text_metrics(query: str, accept: Optional[str]) -> bool:
    """Content negotiation for ``GET /metrics``: Prometheus text vs JSON.

    Text is chosen by ``?format=text`` or an ``Accept`` header naming
    ``text/plain`` (what a Prometheus scraper sends); everything else keeps
    the JSON compatibility payload.
    """
    for piece in query.split("&"):
        name, separator, value = piece.partition("=")
        if separator and name == "format" and value.lower() in ("text", "prometheus"):
            return True
    return accept is not None and "text/plain" in accept.lower()


def error_status(error: BaseException) -> int:
    """The HTTP status for ``error`` (the single mapping)."""
    if isinstance(error, (ServiceSaturatedError, ServiceUnavailableError)):
        return 503
    if isinstance(error, ArtifactNotFoundError):
        return 404
    if isinstance(error, PayloadTooLargeError):
        return 413
    if isinstance(error, UnsupportedMediaTypeError):
        return 415
    if isinstance(error, MonitorOverflowError):
        return 429
    if isinstance(error, DeadlineExceededError):
        return 504
    if isinstance(error, (ServeError, ReproError, ValueError)):
        return 400
    return 500


def error_response(error: BaseException) -> Tuple[int, Dict, Headers]:
    """``(status, payload, extra_headers)`` for one server-side exception.

    The payload carries ``error_type`` so clients can rebuild the typed
    exception; saturation responses carry ``Retry-After``.
    """
    status = error_status(error)
    if isinstance(error, ArtifactNotFoundError):
        message = f"unknown model: {error.args[0] if error.args else error}"
    elif isinstance(
        error,
        (
            ServiceSaturatedError,
            PayloadTooLargeError,
            UnsupportedMediaTypeError,
            DeadlineExceededError,
        ),
    ):
        message = str(error)
    else:
        message = f"{type(error).__name__}: {error}"
    payload = {"error": message, "error_type": type(error).__name__}
    headers: List[Tuple[str, str]] = []
    if isinstance(error, ServiceSaturatedError):
        headers.append(("Retry-After", str(max(1, int(round(error.retry_after))))))
    return status, payload, tuple(headers)
