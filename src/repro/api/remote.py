"""``RemoteDiagnoser``: the HTTP client backend for a ``repro-serve`` gateway.

A thin, dependency-free (stdlib ``http.client``) counterpart of the serving
gateway.  Every call — ``diagnose``, the inherited sequential
``diagnose_many`` loop, and the ``GET`` introspection endpoints — takes one
path, :meth:`RemoteDiagnoser._request`, so each pays the same breaker,
retries and deadline:

* **pluggable wire codec** — requests are encoded by the codec named in
  ``DiagnoserConfig.wire_codec`` (``"json"``, the compatibility default, or
  ``"binary"`` for framed raw-array transport) and the response is decoded by
  whatever ``Content-Type`` the server answers with, so a binary client still
  reads a JSON error document;
* **keep-alive connection pool** — up to ``config.connection_pool_size``
  persistent connections are kept and reused; concurrent callers beyond the
  pool size open short-lived extras instead of serializing on a lock.  A
  pooled connection the server closed while it sat idle is replaced at once:
  the request goes out again on a new connection, with no backoff and no
  retry spent;
* **bounded retries with full jitter** — transport failures back off by
  ``uniform(0, base * 2**attempt)`` so a burst of failing clients
  decorrelates instead of retrying in lock-step, and 503 responses honor
  the server's ``Retry-After`` hint (capped by
  ``DiagnoserConfig.retry_after_cap_seconds``) before the typed
  :class:`~repro.exceptions.ServiceSaturatedError` is surfaced;
* **a circuit breaker per endpoint** — after
  ``DiagnoserConfig.breaker_failure_threshold`` consecutive failures
  (transport errors after retries, or 5xx responses other than ``504``)
  calls fail locally with :class:`~repro.exceptions.CircuitOpenError` until
  a half-open probe succeeds, so this client stops feeding a struggling
  server;
* **deadlines** — ``DiagnoserConfig.deadline_seconds`` stamps the remaining
  budget on the wire as ``X-Deadline-Ms`` (an ambient server deadline
  propagates automatically in server-to-server calls); a budget that runs
  out, here or at the gateway (``504``), raises
  :class:`~repro.exceptions.DeadlineExceededError` and never counts as a
  breaker failure;
* **typed errors** — every non-200 response is mapped back onto the
  :mod:`repro.exceptions` hierarchy via
  :func:`~repro.exceptions.exception_from_wire`, so remote callers catch the
  same exception classes embedded callers do;
* **cache visibility** — the gateway's ``X-Response-Cache`` header is
  surfaced as :attr:`DiagnosisReport.cache_state`.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..exceptions import (
    CodecError,
    ConfigurationError,
    DeadlineExceededError,
    RemoteTransportError,
    exception_from_wire,
)
from ..obs import current_request_id, get_tracer
from ..resilience import DEADLINE_HEADER, CircuitBreaker, Deadline, current_deadline
from ..wire import Codec, codec_for_content_type, get_codec
from .config import DiagnoserConfig
from .diagnoser import Diagnoser
from .schema import DiagnosisReport, DiagnosisRequest, JsonDict

__all__ = ["RemoteDiagnoser"]


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


class RemoteDiagnoser(Diagnoser):
    """Diagnose against a remote ``repro-serve`` gateway.

    Every request goes through :meth:`_request` (pooled keep-alive
    connection, circuit breaker, retries, deadline).  ``diagnose_many`` is
    the base class's sequential loop, so each request of a batch keeps the
    error contract of a single ``diagnose`` call.

    Parameters
    ----------
    url:
        Base URL of the server, e.g. ``"http://127.0.0.1:8421"``.
    config:
        Shared :class:`DiagnoserConfig`; the remote-client knobs
        (``wire_codec``, ``connection_pool_size``, ``read_timeout``,
        ``max_retries``, ``retry_backoff_seconds``,
        ``retry_after_cap_seconds``, ``deadline_seconds``,
        ``breaker_failure_threshold``, ``breaker_reset_seconds``,
        ``propagate_trace_headers``) apply here.
    default_model:
        Model name used when a convenience call omits ``model=``.
    rng:
        Source of the retry jitter (``random.Random``); injectable so tests
        can assert backoff schedules deterministically.
    """

    def __init__(
        self,
        url: str,
        config: Optional[DiagnoserConfig] = None,
        default_model: Optional[str] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ConfigurationError(
                f"RemoteDiagnoser needs an http://host[:port] URL, got {url!r}"
            )
        if parts.path not in ("", "/") or parts.query or parts.fragment:
            # Silently dropping a path prefix would send every request to the
            # wrong endpoint behind a path-routing proxy; refuse loudly.
            raise ConfigurationError(
                f"RemoteDiagnoser takes a bare base URL (no path/query), got {url!r}"
            )
        self.config = config if config is not None else DiagnoserConfig()
        self.default_model = default_model
        self.host: str = parts.hostname
        self.port: int = parts.port if parts.port is not None else 80
        self.codec: Codec = get_codec(self.config.wire_codec)
        self._pool_lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []
        self._closed = False
        self._rng = rng if rng is not None else random.Random()
        self._breaker_lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection pool -----------------------------------------------------------

    def _checkout(self) -> Tuple[http.client.HTTPConnection, bool]:
        """``(connection, pooled)``: an idle pooled connection, or a new one."""
        with self._pool_lock:
            if self._idle:
                return self._idle.pop(), True
        return self._connect(), False

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.config.read_timeout
        )

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        """Return a healthy connection to the pool (closed when full/shut down)."""
        with self._pool_lock:
            if not self._closed and len(self._idle) < int(self.config.connection_pool_size):
                self._idle.append(connection)
                return
        self._discard(connection)

    @staticmethod
    def _discard(connection: http.client.HTTPConnection) -> None:
        try:
            connection.close()
        except OSError:  # pragma: no cover - close() of a dead socket
            pass

    def _trace_headers(self) -> Dict[str, str]:
        """Propagation headers for the current context (empty when disabled).

        ``X-Request-ID`` carries request identity; ``X-Trace-Parent`` lets
        the server parent its root span under this client's active span, so
        one trace stitches both processes.  ``config.propagate_trace_headers``
        turns both off for servers that must not see client identifiers.
        """
        if not self.config.propagate_trace_headers:
            return {}
        headers: Dict[str, str] = {}
        request_id = current_request_id()
        if request_id is not None:
            headers["X-Request-ID"] = request_id
        context = get_tracer().current_context()
        if context is not None:
            headers["X-Trace-Parent"] = context.header_value()
        return headers

    # -- transport ----------------------------------------------------------------

    def _call_deadline(self) -> Optional[Deadline]:
        """The budget governing one logical call: ambient first, config second.

        An ambient deadline (a server making a downstream call on behalf of a
        request that already carries one) always wins — the caller's patience
        is what matters, not this client's default.
        """
        ambient = current_deadline()
        if ambient is not None:
            return ambient
        if self.config.deadline_seconds is not None:
            return Deadline.after(self.config.deadline_seconds)
        return None

    def _breaker(self, path: str) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(path)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.config.breaker_failure_threshold,
                    reset_seconds=self.config.breaker_reset_seconds,
                    name=f"{self.url}{path}",
                )
                self._breakers[path] = breaker
            return breaker

    def breaker_snapshot(self) -> Dict[str, Dict]:
        """Per-endpoint circuit-breaker state (observability)."""
        with self._breaker_lock:
            return {path: breaker.snapshot() for path, breaker in self._breakers.items()}

    def _roundtrip(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        deadline: Optional[Deadline] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request over a pooled keep-alive connection; raises on transport failure.

        The gateway closes a keep-alive connection left idle past its
        ``idle_timeout``, so a pooled one can be dead before anything is
        sent.  When a pooled connection fails with a ``ConnectionError``
        before any response arrives, the request goes out once more on a new
        connection — no backoff, no retry spent.  A new connection's failure
        propagates to the retry loop.
        """
        headers: Dict[str, str] = {}
        if body is not None:
            headers["Content-Type"] = self.codec.content_type
            headers["Accept"] = self.codec.content_type
        if deadline is not None:
            headers[DEADLINE_HEADER] = deadline.header_value()
        headers.update(self._trace_headers())
        connection, pooled = self._checkout()
        try:
            while True:
                try:
                    connection.request(method, path, body=body, headers=headers)
                    response = connection.getresponse()
                    break
                except ConnectionError:
                    if not pooled:
                        raise
                    self._discard(connection)
                    connection, pooled = self._connect(), False
            payload = response.read()
        except BaseException:
            self._discard(connection)
            raise
        header_map = {name.lower(): value for name, value in response.getheaders()}
        if header_map.get("connection", "").lower() == "close":
            self._discard(connection)
        else:
            self._checkin(connection)
        return response.status, header_map, payload

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Issue one HTTP request, gated by the endpoint's circuit breaker.

        The breaker counts whole logical calls: a transport failure that
        survives every retry, or a 5xx response other than ``504``, is one
        failure; anything else is a success.  An open breaker raises
        :class:`~repro.exceptions.CircuitOpenError` without touching the
        network.
        """
        breaker = self._breaker(path)
        breaker.allow()
        try:
            status, headers, payload = self._request_with_retries(method, path, body)
        except DeadlineExceededError:
            # The caller's budget ran out — says nothing about server health.
            breaker.record_success()
            raise
        except Exception:
            breaker.record_failure()
            raise
        # The gateway answers 504 only for DeadlineExceededError: the same
        # spent caller budget as above, counted the same way.
        if status >= 500 and status != 504:
            breaker.record_failure()
        else:
            breaker.record_success()
        return status, headers, payload

    def _request_with_retries(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """The bounded retry loop; returns the raw response triple.

        Transport failures (connection refused/reset, protocol errors) retry
        with full-jitter exponential backoff — ``uniform(0, base * 2**n)`` —
        so concurrent failing clients spread out; 503 responses retry after
        the server's ``Retry-After`` hint.  Both budgets share
        ``config.max_retries``, and a deadline bounds every sleep.
        """
        deadline = self._call_deadline()
        attempts = int(self.config.max_retries) + 1
        for attempt in range(attempts):
            if deadline is not None and deadline.expired():
                raise DeadlineExceededError(
                    f"deadline expired before attempt {attempt + 1} of "
                    f"{method} {self.url}{path}"
                )
            try:
                status, headers, payload = self._roundtrip(method, path, body, deadline)
            except (OSError, http.client.HTTPException) as error:
                if attempt + 1 < attempts:
                    self._backoff(attempt, deadline)
                    continue
                raise RemoteTransportError(
                    f"{method} {self.url}{path} failed after {attempts} attempt(s): "
                    f"{type(error).__name__}: {error}"
                ) from error
            if status == 503 and attempt + 1 < attempts:
                retry_after = _parse_retry_after(headers.get("retry-after"))
                delay = min(
                    retry_after if retry_after is not None
                    else self.config.retry_backoff_seconds,
                    self.config.retry_after_cap_seconds,
                )
                self._sleep_bounded(delay, deadline)
                continue
            return status, headers, payload
        raise RemoteTransportError(
            f"{method} {self.url}{path} failed"
        )  # pragma: no cover - loop always returns or raises

    def _backoff(self, attempt: int, deadline: Optional[Deadline]) -> None:
        """Full-jitter exponential backoff (AWS-style): ``uniform(0, base * 2**n)``."""
        ceiling = self.config.retry_backoff_seconds * (2 ** attempt)
        self._sleep_bounded(self._rng.uniform(0.0, ceiling), deadline)

    @staticmethod
    def _sleep_bounded(delay: float, deadline: Optional[Deadline]) -> None:
        if deadline is not None:
            delay = min(delay, max(0.0, deadline.remaining()))
        if delay > 0:
            time.sleep(delay)

    @staticmethod
    def _decode_document(payload: bytes) -> JsonDict:
        """Parse a JSON document response (GET endpoints, error bodies)."""
        try:
            decoded = json.loads(payload.decode("utf-8")) if payload else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RemoteTransportError(f"undecodable response body: {error}") from error
        if not isinstance(decoded, dict):
            raise RemoteTransportError("response body must be a JSON object")
        return decoded

    def _decode_report(self, headers: Dict[str, str], payload: bytes) -> DiagnosisReport:
        """Decode a 200 ``/diagnose`` body by its declared ``Content-Type``.

        Absent/JSON content types take the JSON path (compatibility with
        pre-codec servers); a server answering in a codec this client does
        not know — or with bytes its declared codec cannot parse — surfaces
        as :class:`~repro.exceptions.RemoteTransportError`.
        """
        try:
            response_codec = codec_for_content_type(headers.get("content-type"))
            return response_codec.decode_report(
                payload, cache_state=headers.get("x-response-cache")
            )
        except CodecError as error:
            raise RemoteTransportError(f"undecodable response body: {error}") from error

    def _raise_for_error(self, status: int, headers: Dict[str, str], payload: bytes) -> None:
        # Error documents are always JSON, whatever codec the request used
        # (the negotiation contract of repro.serve.protocol).
        document = self._decode_document(payload)
        message = str(document.get("error", f"HTTP {status}"))
        error_type = document.get("error_type")
        raise exception_from_wire(
            status,
            message,
            error_type=error_type if isinstance(error_type, str) else None,
            retry_after=_parse_retry_after(headers.get("retry-after")),
        )

    # -- the Diagnoser surface -----------------------------------------------------

    def _diagnose(self, request: DiagnosisRequest) -> DiagnosisReport:
        body = self.codec.encode_request(request)
        with get_tracer().span(
            "remote.roundtrip",
            {"url": self.url, "body_bytes": len(body), "codec": self.codec.name},
        ) as rt_span:
            status, headers, payload = self._request("POST", "/diagnose", body)
            rt_span.set_attribute("status", status)
        if status != 200:
            self._raise_for_error(status, headers, payload)
        return self._decode_report(headers, payload)

    # -- server introspection -------------------------------------------------------

    def _get(self, path: str) -> JsonDict:
        status, headers, payload = self._request("GET", path)
        document = self._decode_document(payload)
        if status != 200:
            self._raise_for_error(status, headers, payload)
        return document

    def health(self) -> JsonDict:
        """The server's ``GET /health`` document."""
        return self._get("/health")

    def models(self) -> JsonDict:
        """The server's ``GET /models`` document (registered artifact records)."""
        return self._get("/models")

    def stats(self) -> JsonDict:
        """The server's ``GET /stats`` document."""
        return self._get("/stats")

    def metrics(self) -> JsonDict:
        """The server's ``GET /metrics`` document."""
        return self._get("/metrics")

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            self._discard(connection)

    def __repr__(self) -> str:
        return (
            f"RemoteDiagnoser(url={self.url!r}, codec={self.codec.name!r}, "
            f"default_model={self.default_model!r})"
        )
