"""``RemoteDiagnoser``: the HTTP client backend for a ``repro-serve`` gateway.

A thin, dependency-free (stdlib ``http.client`` + ``socket``) counterpart of
the serving gateway:

* **pluggable wire codec** — requests are encoded by the codec named in
  ``DiagnoserConfig.wire_codec`` (``"json"``, the compatibility default, or
  ``"binary"`` for framed raw-array transport) and the response is decoded by
  whatever ``Content-Type`` the server answers with, so a binary client still
  reads a JSON error document;
* **keep-alive connection pool** — up to ``config.connection_pool_size``
  persistent connections are kept and reused; concurrent callers beyond the
  pool size open short-lived extras instead of serializing on a lock;
* **request pipelining** — :meth:`diagnose_many` writes a whole batch of
  ``POST /diagnose`` requests down one connection before reading any
  response, collapsing N round-trip latencies into one send/receive phase on
  the thin-payload path;
* **bounded retries with full jitter** — transport failures back off by
  ``uniform(0, base * 2**attempt)`` so a burst of failing clients
  decorrelates instead of retrying in lock-step, and 503 responses honor
  the server's ``Retry-After`` hint (capped by
  ``DiagnoserConfig.retry_after_cap_seconds``) before the typed
  :class:`~repro.exceptions.ServiceSaturatedError` is surfaced;
* **a circuit breaker per endpoint** — after
  ``DiagnoserConfig.breaker_failure_threshold`` consecutive failures
  (transport errors after retries, or 5xx responses) calls fail locally
  with :class:`~repro.exceptions.CircuitOpenError` until a half-open probe
  succeeds, so this client stops feeding a struggling server;
* **deadlines and hedging** — ``DiagnoserConfig.deadline_seconds`` stamps
  the remaining budget on the wire as ``X-Deadline-Ms`` (an ambient server
  deadline propagates automatically in server-to-server calls), and
  ``DiagnoserConfig.hedge_after_seconds`` launches one backup ``/diagnose``
  attempt when the first is slow — first response wins;
* **typed errors** — every non-200 response is mapped back onto the
  :mod:`repro.exceptions` hierarchy via
  :func:`~repro.exceptions.exception_from_wire`, so remote callers catch the
  same exception classes embedded callers do;
* **cache visibility** — the gateway's ``X-Response-Cache`` header is
  surfaced as :attr:`DiagnosisReport.cache_state`.
"""

from __future__ import annotations

import contextvars
import http.client
import json
import queue
import random
import socket
import threading
import time
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from ..exceptions import (
    CodecError,
    ConfigurationError,
    DeadlineExceededError,
    RemoteTransportError,
    SchemaVersionError,
    exception_from_wire,
)
from ..obs import current_request_id, get_tracer
from ..resilience import (
    DEADLINE_HEADER,
    CircuitBreaker,
    Deadline,
    corrupt_bytes,
    current_deadline,
    get_injector,
)
from ..wire import Codec, codec_for_content_type, get_codec
from .config import DiagnoserConfig
from .diagnoser import Diagnoser
from .schema import SCHEMA_VERSION, DiagnosisReport, DiagnosisRequest, JsonDict

__all__ = ["RemoteDiagnoser"]

#: Requests written down one pipelined connection before responses are read.
#: Bounds the bytes in flight so a server draining slowly cannot deadlock the
#: client against a full socket send buffer.
_PIPELINE_DEPTH = 16


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


class RemoteDiagnoser(Diagnoser):
    """Diagnose against a remote ``repro-serve`` gateway.

    Parameters
    ----------
    url:
        Base URL of the server, e.g. ``"http://127.0.0.1:8421"``.
    config:
        Shared :class:`DiagnoserConfig`; the remote-client knobs
        (``wire_codec``, ``connection_pool_size``, ``read_timeout``,
        ``max_retries``, ``retry_backoff_seconds``,
        ``retry_after_cap_seconds``) apply here.
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

    def _checkout(self) -> http.client.HTTPConnection:
        """An idle pooled connection, or a fresh one when the pool is empty."""
        with self._pool_lock:
            if self._idle:
                return self._idle.pop()
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
        """One request over a pooled keep-alive connection; raises on transport failure."""
        injector = get_injector()
        if injector.enabled:
            mode = injector.inject("remote.send")
            if mode == "drop":
                raise ConnectionResetError("chaos: connection dropped before send")
            if mode == "corrupt" and body is not None:
                body = corrupt_bytes(body)
        connection = self._checkout()
        try:
            headers: Dict[str, str] = {}
            if body is not None:
                headers["Content-Type"] = self.codec.content_type
                headers["Accept"] = self.codec.content_type
            if deadline is not None:
                headers[DEADLINE_HEADER] = deadline.header_value()
            headers.update(self._trace_headers())
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
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
        survives every retry, or a 5xx response, is one failure; anything the
        server answered below 500 is a success.  An open breaker raises
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
        if status >= 500:
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
            if self.config.hedge_after_seconds is not None:
                rt_span.set_attribute("hedged", True)
                status, headers, payload = self._hedged_request("/diagnose", body)
            else:
                status, headers, payload = self._request("POST", "/diagnose", body)
            rt_span.set_attribute("status", status)
        if status != 200:
            self._raise_for_error(status, headers, payload)
        return self._decode_report(headers, payload)

    def _hedged_request(
        self, path: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Issue a request with one hedged backup; the first response wins.

        If the primary has not answered after ``config.hedge_after_seconds``,
        a second identical attempt launches on its own connection.  Whichever
        answers first is returned; the loser runs to completion on its daemon
        thread and is discarded.  Both attempts go through :meth:`_request`,
        so each pays the breaker gate and retry budget independently.  The
        hedge only narrows tail latency of idempotent reads — it never turns
        a failure into a success the primary would not have had: errors are
        held until both attempts have reported.
        """
        results: "queue.Queue[Tuple[bool, object]]" = queue.Queue()
        ambient = contextvars.copy_context()

        def attempt() -> None:
            try:
                results.put((True, ambient.run(self._request, "POST", path, body)))
            except BaseException as error:  # noqa: BLE001 - relayed to the caller
                results.put((False, error))

        launched = 1
        threading.Thread(target=attempt, daemon=True, name="repro-remote-hedge").start()
        first_error: Optional[BaseException] = None
        received = 0
        while received < launched:
            try:
                ok, outcome = results.get(timeout=self.config.hedge_after_seconds)
            except queue.Empty:
                if launched == 1:  # primary is slow: launch the one backup
                    launched += 1
                    threading.Thread(
                        target=attempt, daemon=True, name="repro-remote-hedge"
                    ).start()
                continue
            received += 1
            if ok:
                return outcome  # type: ignore[return-value]
            if first_error is None:
                first_error = outcome  # type: ignore[assignment]
        assert first_error is not None
        raise first_error

    def diagnose_many(self, requests: Sequence[DiagnosisRequest]) -> List[DiagnosisReport]:
        """Diagnose a batch over one pipelined keep-alive connection.

        All requests (in windows of bounded depth) are written before any
        response is read, so the batch pays one network round trip per
        window instead of one per request.  Reports come back in request
        order; the first error response raises its typed exception, exactly
        like the sequential loop it replaces.
        """
        pending = list(requests)
        for request in pending:
            if request.schema != SCHEMA_VERSION:
                raise SchemaVersionError(
                    f"unsupported request schema version {request.schema!r}; this "
                    f"library speaks {SCHEMA_VERSION!r}"
                )
        if len(pending) <= 1:
            return [self.diagnose(request) for request in pending]
        bodies = [self.codec.encode_request(request) for request in pending]
        reports: List[DiagnosisReport] = []
        with get_tracer().span(
            "remote.pipeline",
            {"url": self.url, "requests": len(pending), "codec": self.codec.name},
        ):
            while len(reports) < len(pending):
                window = bodies[len(reports):len(reports) + _PIPELINE_DEPTH]
                responses = self._pipeline_window(window)
                for status, headers, payload in responses:
                    if status != 200:
                        self._raise_for_error(status, headers, payload)
                    reports.append(self._decode_report(headers, payload))
        return reports

    def _pipeline_window(
        self, bodies: Sequence[bytes]
    ) -> List[Tuple[int, Dict[str, str], bytes]]:
        """Send one window of ``POST /diagnose`` bodies, read its responses.

        Uses a dedicated raw socket: ``http.client`` cannot overlap requests
        on one connection.  The socket is never pooled — pipelining leaves no
        cleanly reusable state if anything short of full success happens.
        """
        injector = get_injector()
        if injector.enabled:
            mode = injector.inject("remote.send")
            if mode == "drop":
                raise RemoteTransportError(
                    "chaos: connection dropped before pipelined send"
                )
            if mode == "corrupt" and bodies:
                bodies = [corrupt_bytes(bodies[0]), *bodies[1:]]
        deadline = self._call_deadline()
        trace = self._trace_headers()
        chunks: List[bytes] = []
        for body in bodies:
            lines = [
                "POST /diagnose HTTP/1.1",
                f"Host: {self.host}:{self.port}",
                f"Content-Type: {self.codec.content_type}",
                f"Accept: {self.codec.content_type}",
                f"Content-Length: {len(body)}",
            ]
            if deadline is not None:
                lines.append(f"{DEADLINE_HEADER}: {deadline.header_value()}")
            lines.extend(f"{name}: {value}" for name, value in trace.items())
            chunks.append(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
            chunks.append(body)
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.config.read_timeout
            ) as sock:
                sock.sendall(b"".join(chunks))
                reader = sock.makefile("rb")
                try:
                    responses: List[Tuple[int, Dict[str, str], bytes]] = []
                    for _ in bodies:
                        response = self._read_pipelined_response(reader)
                        responses.append(response)
                        status, headers, _payload = response
                        # The server may close after an error; stop reading
                        # there — the caller raises on it (or re-pipelines the
                        # unanswered tail on a fresh connection).
                        if status != 200 or headers.get("connection", "").lower() == "close":
                            break
                    return responses
                finally:
                    reader.close()
        except (OSError, ValueError) as error:
            raise RemoteTransportError(
                f"pipelined POST {self.url}/diagnose failed: "
                f"{type(error).__name__}: {error}"
            ) from error

    @staticmethod
    def _read_pipelined_response(reader: BinaryIO) -> Tuple[int, Dict[str, str], bytes]:
        """Parse one ``Content-Length``-framed HTTP/1.1 response off the stream."""
        status_line = reader.readline()
        if not status_line:
            raise RemoteTransportError("server closed the connection mid-pipeline")
        parts = status_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise RemoteTransportError(f"malformed status line {status_line!r}")
        try:
            status = int(parts[1])
        except ValueError as error:
            raise RemoteTransportError(f"malformed status line {status_line!r}") from error
        headers: Dict[str, str] = {}
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise RemoteTransportError("server closed the connection mid-headers")
            name, separator, value = line.decode("latin-1").partition(":")
            if separator:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as error:
            raise RemoteTransportError(
                f"malformed Content-Length {headers.get('content-length')!r}"
            ) from error
        payload = reader.read(length) if length > 0 else b""
        if len(payload) != length:
            raise RemoteTransportError("server closed the connection mid-body")
        return status, headers, payload

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
