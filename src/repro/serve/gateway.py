"""Asyncio gateway: the event-loop HTTP front end over a replica pool.

This is the one HTTP front end ``repro-serve`` runs.  Under concurrent load a
thread per connection would pay twice: the interpreter context-switches
across dozens of runnable threads (GIL convoy), and every diagnosis would
serialize on a single batching engine.  The gateway avoids both:

* **one event loop** accepts connections and parses HTTP/1.1 with a minimal
  reader (`readuntil(b"\\r\\n\\r\\n")` + `readexactly(content_length)`), so
  idle and slow connections cost a coroutine, not a thread;
* **a small executor** (sized to the replica pool, not the connection count)
  runs the blocking work — diagnosis, and the routes that read the
  registry directory — bounding how many threads ever compete for the GIL;
* **admission control happens on the loop** before any work is scheduled:
  saturated requests are shed in microseconds with ``503`` +
  ``Retry-After`` instead of queueing without bound;
* **a response cache** sits in front of admission: production monitoring
  re-submits the same labeled cases while a defect is investigated, and a
  repeated ``/diagnose`` body (keyed on its digest, bounded LRU + TTL) is
  answered from memory — bitwise-identically — without spending a replica
  slot or an executor thread.  Responses carry ``X-Response-Cache:
  hit|miss|off`` so clients and tests can observe the path taken; a TTL
  bounds how long a newly-registered "latest" version can be shadowed by a
  cached answer.

Every request, shed, latency, and queue depth is recorded in
:mod:`~repro.serve.metrics` registries and exposed at ``GET /metrics``.

Routes (:meth:`DiagnosisGateway._dispatch_get` and
:meth:`DiagnosisGateway._dispatch_post` are the route table):

``GET /health``, ``GET /healthz``
    Registered model names; replica health for probes.
``GET /models``
    Manifest records of every registered artifact version.
``GET /stats``
    Gateway, pool, and per-replica engine counters.
``GET /metrics``
    Counters/gauges/histograms as JSON, or Prometheus text
    (``?format=text`` or ``Accept: text/plain``).
``GET /monitor``
    Drift/alert snapshot per replica (``?refresh=1`` re-evaluates first).
``POST /diagnose``
    Synchronous diagnosis of a ``v1`` request body; the report is encoded
    per ``Accept``.  The one diagnosis route: it is validated, admitted and
    bound by the request's deadline.
``GET /debug/traces``
    The tracing ring.

Any other path is a ``404`` naming the unknown path.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Sequence, Tuple, Union

from ..exceptions import (
    DeadlineExceededError,
    PayloadTooLargeError,
    ServeError,
    ServiceSaturatedError,
)
from ..obs import (
    SpanContext,
    bind_request_id,
    get_logger,
    get_tracer,
    log_event,
    new_request_id,
    unbind_request_id,
)
from ..resilience import bind_deadline, current_deadline, unbind_deadline
from ..wire import Codec, get_codec
from .cache import ResponseCache, ResponseEntry
from .metrics import MetricsRegistry, render_registries_text
from .protocol import (
    error_response,
    negotiate_codecs,
    resolve_deadline,
    resolve_request_id,
    wants_text_metrics,
)
from .replicas import ReplicaPool

__all__ = ["ParsedRequest", "parse_request_head", "DiagnosisGateway", "serve_gateway_forever"]

DEFAULT_MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024
#: How long a stopping gateway waits for connection handlers to return.
_SHUTDOWN_GRACE_SECONDS = 1.0
#: Executor threads beyond one per replica.  The extra thread keeps the
#: registry routes (``/health``, ``/models``, ``/stats``) answering while
#: every replica is busy diagnosing.
_EXTRA_EXECUTOR_THREADS = 1

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ParsedRequest:
    """The parsed head of one HTTP/1.1 request."""

    __slots__ = ("method", "path", "version", "headers")

    def __init__(self, method: str, path: str, version: str, headers: Dict[str, str]):
        self.method = method
        self.path = path
        self.version = version
        self.headers = headers

    @property
    def content_length(self) -> int:
        raw = self.headers.get("content-length", "0").strip()
        try:
            length = int(raw)
        except ValueError as error:
            raise ServeError(f"invalid Content-Length {raw!r}") from error
        if length < 0:
            raise ServeError(f"invalid Content-Length {raw!r}")
        return length

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.1":
            return connection != "close"
        return connection == "keep-alive"


def parse_request_head(blob: bytes) -> ParsedRequest:
    """Parse a request head (request line + headers, CRLF-terminated).

    Deliberately minimal: no continuation lines, no duplicate-header merging,
    no transfer-encoding — the gateway speaks plain ``Content-Length``
    HTTP/1.1 and rejects anything else with a 400.
    """
    try:
        text = blob.decode("latin-1")
    except UnicodeDecodeError as error:  # pragma: no cover - latin-1 decodes all bytes
        raise ServeError(f"undecodable request head: {error}") from error
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ServeError(f"malformed request line {lines[0]!r}")
    method, path, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise ServeError(f"unsupported HTTP version {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator or not name or name != name.strip() or name.startswith(("\t", " ")):
            raise ServeError(f"malformed header line {line!r}")
        headers[name.lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ServeError("Transfer-Encoding is not supported; send Content-Length")
    return ParsedRequest(method.upper(), path, version, headers)


class DiagnosisGateway:
    """The asyncio front end over a :class:`~repro.serve.replicas.ReplicaPool`.

    Construct, then either :meth:`start` (background thread, for
    tests/embedding) or :meth:`serve_forever` (blocking); ``port=0`` binds an
    ephemeral port readable from :attr:`port` once running.
    """

    def __init__(
        self,
        pool: ReplicaPool,
        host: str = "127.0.0.1",
        port: int = 8421,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        idle_timeout: float = 30.0,
        body_timeout: float = 30.0,
        write_timeout: float = 30.0,
        response_cache_size: int = 1024,
        response_cache_ttl: float = 30.0,
        default_codec: Union[str, Codec] = "json",
        metrics: Optional[MetricsRegistry] = None,
        verbose: bool = False,
    ):
        if max_body_bytes < 1:
            raise ServeError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        self.pool = pool
        self._requested_host = host
        self._requested_port = int(port)
        self.max_body_bytes = int(max_body_bytes)
        self.idle_timeout = float(idle_timeout)
        self.body_timeout = float(body_timeout)
        self.write_timeout = float(write_timeout)
        self.verbose = verbose
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._executor_threads = pool.num_replicas + _EXTRA_EXECUTOR_THREADS
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        #: Open connections: each handler task and its writer (loop-only state).
        self._connections: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}
        self._thread: Optional[threading.Thread] = None
        self._bound: Optional[Tuple[str, int]] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

        self._m_requests = self.metrics.counter(
            "gateway.requests_total", "HTTP requests received"
        )
        self._m_responses = {
            klass: self.metrics.counter(
                f"gateway.responses_{klass}xx_total", f"HTTP {klass}xx responses sent"
            )
            for klass in (2, 4, 5)
        }
        self._m_shed = self.metrics.counter(
            "gateway.shed_total", "requests rejected with 503 by admission control"
        )
        self._m_deadline_rejected = self.metrics.counter(
            "gateway.deadline_rejected_total",
            "requests refused with 504 because their budget was already spent",
        )
        self._m_request_seconds = self.metrics.histogram(
            "gateway.request_seconds", "request wall time, parse to last byte queued"
        )
        self._m_connections = self.metrics.gauge(
            "gateway.open_connections", "currently open client connections"
        )
        #: Response codec used when the client sends no/any ``Accept``.
        self.default_codec = get_codec(default_codec)
        #: Response cache, keyed on the raw request body and its content type
        #: (``response_cache_size <= 0`` disables it).
        self.response_cache_ttl = float(response_cache_ttl)
        self._response_cache = ResponseCache(
            int(response_cache_size), self.response_cache_ttl
        )
        self._m_response_hits = self.metrics.counter(
            "gateway.response_cache_hits_total", "diagnose responses served from cache"
        )
        self._m_response_misses = self.metrics.counter(
            "gateway.response_cache_misses_total", "diagnose requests that missed the cache"
        )
        self._log = get_logger("serve.gateway")
        self._started_monotonic = time.monotonic()

    # -- lifecycle -----------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._bound[0] if self._bound else self._requested_host

    @property
    def port(self) -> int:
        return self._bound[1] if self._bound else self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, timeout: float = 10.0) -> "DiagnosisGateway":
        """Run the event loop on a background thread; returns once bound."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-gateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServeError("gateway did not start within the timeout")
        if self._startup_error is not None:
            raise ServeError(f"gateway failed to start: {self._startup_error}")
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI entry point)."""
        self._run_loop()

    def shutdown(self, timeout: float = 10.0) -> None:
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # noqa: BLE001 - surfaced to start() or re-raised
            self._startup_error = error
            if not self._started.is_set():
                # Failed before binding: start() is still waiting and will
                # surface the error to its caller.
                self._started.set()
            else:
                # Crashed after startup: die loudly (threading's excepthook
                # prints the traceback) instead of exiting silently while
                # clients get connection-refused.
                raise

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_threads, thread_name_prefix="repro-gateway-worker"
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._requested_host,
            self._requested_port,
            limit=MAX_HEADER_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self._bound = (sockname[0], int(sockname[1]))
        self._started.set()
        try:
            async with self._server:
                await self._stop_event.wait()
                await self._close_connections()
        finally:
            self._executor.shutdown(wait=False)
            self._bound = None

    async def _close_connections(self) -> None:
        """Stop accepting, then end every open connection before the loop stops.

        A keep-alive handler idles in ``readuntil``; closing its transport
        feeds it EOF, so it returns on its own and its client reads EOF.  A
        handler still running when ``asyncio.run`` returns is cancelled
        instead, and Python 3.11's stream protocol logs a ``CancelledError``
        traceback for each one.  A handler waiting on the executor gets
        ``_SHUTDOWN_GRACE_SECONDS`` to finish; its response goes nowhere.
        """
        self._server.close()
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=_SHUTDOWN_GRACE_SECONDS)

    # -- connection handling --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        self._m_connections.inc()
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout=self.idle_timeout
                    )
                except (asyncio.IncompleteReadError, ConnectionError, asyncio.TimeoutError):
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    await self._respond(writer, 431, {"error": "request head too large"}, False)
                    break
                keep_alive = await self._handle_request(head, reader, writer)
                if not keep_alive:
                    break
        except ConnectionError:
            pass
        finally:
            self._m_connections.dec()
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.TimeoutError):
                pass

    async def _handle_request(
        self, head: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Parse, dispatch, respond.  Returns whether to keep the connection."""
        start = time.perf_counter()
        self._m_requests.inc()
        try:
            request = parse_request_head(head)
            length = request.content_length
        except ServeError as error:
            await self._respond(writer, 400, {"error": str(error)}, False)
            return False

        # Request identity: the client's well-formed X-Request-ID or a fresh
        # one, bound to this task's context (it stamps spans and log lines,
        # tracing enabled or not) and echoed on every response from here on.
        request_id = resolve_request_id(request.headers.get("x-request-id"), new_request_id)
        token = bind_request_id(request_id)
        # The client's remaining budget rides the task's context from here:
        # every downstream stage (admission, executor hop, batching queue)
        # sees it without threading a parameter through.
        deadline_token = bind_deadline(resolve_deadline(request.headers))
        try:
            tracer = get_tracer()
            root = tracer.span(
                "gateway.request",
                {"method": request.method, "path": request.path, "request_id": request_id},
                # A client-sent X-Trace-Parent stitches this server-side tree
                # under the caller's span, making one cross-process trace.
                parent=SpanContext.from_header_value(request.headers.get("x-trace-parent")),
                kind="request",
            )
            with root:
                status, payload, keep_alive, sent = await self._handle_parsed(
                    request, length, reader, writer, request_id
                )
                root.set_attribute("status", status)
            duration = time.perf_counter() - start
            self._m_request_seconds.observe(duration)
            log_event(
                self._log,
                "request",
                method=request.method,
                path=request.path,
                status=status,
                duration_seconds=round(duration, 6),
            )
            if self.verbose:
                print(f"gateway: {request.method} {request.path} -> {status}")
            return keep_alive and sent
        finally:
            unbind_deadline(deadline_token)
            unbind_request_id(token)

    async def _handle_parsed(
        self,
        request: ParsedRequest,
        length: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_id: str,
    ) -> Tuple[int, Union[Dict, bytes], bool, bool]:
        """Body read + dispatch + respond, inside the request's root span.

        Returns ``(status, payload, keep_alive, sent)``.
        """
        rid_header = (("X-Request-ID", request_id),)
        if length > self.max_body_bytes:
            # The body is never read, so the stream is desynchronized: close.
            # Mapped through the shared protocol table so the payload carries
            # error_type like every other error response.
            status, payload, extra = error_response(
                PayloadTooLargeError(
                    f"request body of {length} bytes exceeds {self.max_body_bytes}"
                )
            )
            payload["request_id"] = request_id
            sent = await self._respond(writer, status, payload, False, tuple(extra) + rid_header)
            return status, payload, False, sent
        body = b""
        if length:
            try:
                with get_tracer().span("gateway.read_body", {"content_length": length}):
                    body = await asyncio.wait_for(
                        reader.readexactly(length), timeout=self.body_timeout
                    )
            except (asyncio.IncompleteReadError, ConnectionError):
                return 0, {}, False, False
            except asyncio.TimeoutError:
                payload = {"error": "timed out reading body", "request_id": request_id}
                sent = await self._respond(writer, 408, payload, False, rid_header)
                return 408, payload, False, sent

        # Admission gate for the deadline: a budget that is already spent is
        # refused here — after the body read keeps the connection in sync, but
        # before any cache, admission, or executor work happens.
        deadline = current_deadline()
        if deadline is not None and deadline.expired() and request.method == "POST":
            self._m_deadline_rejected.inc()
            status, payload, extra = error_response(
                DeadlineExceededError("deadline expired before admission")
            )
            payload["request_id"] = request_id
            keep_alive = request.keep_alive
            sent = await self._respond(
                writer, status, payload, keep_alive, tuple(extra) + rid_header
            )
            return status, payload, keep_alive, sent

        status, payload, extra = await self._dispatch(request, body)
        if status >= 400 and isinstance(payload, dict):
            payload.setdefault("request_id", request_id)
        keep_alive = request.keep_alive and status < 500
        with get_tracer().span("gateway.respond"):
            sent = await self._respond(
                writer, status, payload, keep_alive, tuple(extra) + rid_header
            )
        return status, payload, keep_alive, sent

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict, bytes],
        keep_alive: bool,
        extra_headers: Sequence[Tuple[str, str]] = (),
    ) -> bool:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        # An extra Content-Type header (the Prometheus text endpoint) replaces
        # the JSON default rather than duplicating it.
        has_content_type = any(name.lower() == "content-type" for name, _ in extra_headers)
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if not has_content_type:
            lines.insert(1, "Content-Type: application/json")
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self._m_responses.get(status // 100, self._m_responses[5]).inc()
        try:
            writer.write(head + body)
            # Bounded drain: a peer that stops reading (slow loris on the
            # response path) costs at most write_timeout, not a pinned
            # connection with a full kernel buffer forever.
            await asyncio.wait_for(writer.drain(), timeout=self.write_timeout)
        except (ConnectionError, asyncio.TimeoutError):
            return False
        return True

    # -- routing --------------------------------------------------------------------

    async def _dispatch(
        self, request: ParsedRequest, body: bytes
    ) -> Tuple[int, Union[Dict, bytes], Sequence[Tuple[str, str]]]:
        raw_path, _, query = request.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        try:
            if request.method == "GET":
                return await self._dispatch_get(path, query, request.headers)
            if request.method == "POST":
                return await self._dispatch_post(path, body, request.headers)
            return 405, {"error": f"method {request.method} not allowed"}, ()
        except Exception as error:  # noqa: BLE001 - mapped to a status, keep serving
            if isinstance(error, ServiceSaturatedError):
                self._m_shed.inc()
            elif isinstance(error, DeadlineExceededError):
                self._m_deadline_rejected.inc()
            return error_response(error)

    async def _dispatch_get(
        self, path: str, query: str, headers: Dict[str, str]
    ) -> Tuple[int, Union[Dict, bytes], Sequence[Tuple[str, str]]]:
        if path == "/health":
            models = await self._run_blocking(self.pool.registered_models)
            return 200, {"status": "ok", "models": models}, ()
        if path == "/healthz":
            # Answered on the loop from in-memory health state (no executor
            # hop, cannot be shed): "ok" / "degraded" / "unavailable", with
            # only a fully-quarantined pool failing the probe's status code.
            payload = self._healthz_payload()
            return (503 if payload["status"] == "unavailable" else 200), payload, ()
        if path == "/debug/traces":
            return 200, get_tracer().debug_payload(), ()
        if path == "/models":
            records = await self._run_blocking(self.pool.records)
            return 200, {"models": records}, ()
        if path == "/stats":
            # Replica stats list the registry directory — executor work.
            return 200, await self._run_blocking(self._stats_payload), ()
        if path == "/metrics":
            if wants_text_metrics(query, headers.get("accept")):
                text = self._metrics_text()
                return 200, text.encode("utf-8"), (
                    ("Content-Type", "text/plain; version=0.0.4; charset=utf-8"),
                )
            return 200, self._metrics_payload(), ()
        if path == "/monitor":
            refresh = any(
                piece in ("refresh=1", "refresh=true") for piece in query.split("&")
            )
            # Refresh evaluates drift windows (a batched kernel per model) —
            # executor work, never loop work.
            snapshot = await self._run_blocking(
                lambda: self.pool.monitor_snapshot(refresh=refresh)
            )
            return 200, snapshot, ()
        return 404, {"error": f"unknown path {path!r}"}, ()

    async def _dispatch_post(
        self, path: str, body: bytes, headers: Dict[str, str]
    ) -> Tuple[int, Union[Dict, bytes], Sequence[Tuple[str, str]]]:
        if path == "/diagnose":
            # Codec negotiation first: an unknown Content-Type/Accept is a 415
            # before any cache or admission work (negotiate_codecs raises).
            request_codec, response_codec = negotiate_codecs(
                headers, default=self.default_codec
            )
            # The response cache answers byte-identical repeats on the loop
            # itself — no admission slot, no executor hop, no recomputation.
            tracer = get_tracer()
            with tracer.span("gateway.cache_lookup") as cache_span:
                body_key, entry = self._response_cache.lookup_body(
                    request_codec.content_type, body
                )
                cache_span.set_attribute("hit", entry is not None)
            if entry is not None:
                self._m_response_hits.inc()
                return 200, entry.encoded(response_codec), (
                    ("X-Response-Cache", "hit"),
                    ("Content-Type", response_codec.content_type),
                )
            # Admission happens here on the loop — a saturated pool sheds the
            # request before any executor slot or body decoding is spent on it.
            # (pool.acquire opens its own "replicas.route" span.)
            lease = self.pool.acquire()
            with tracer.span("gateway.dispatch", {"body_bytes": len(body)}):
                status, payload, extra = await self._run_blocking(
                    self._diagnose_blocking, lease, body, request_codec, body_key
                )
            if status != 200:
                return status, payload, extra
            if body_key is None:
                encoded, cache_state = response_codec.encode_report(payload), "off"
            else:
                self._m_response_misses.inc()
                encoded, cache_state = payload.encoded(response_codec), "miss"
            return 200, encoded, (
                ("X-Response-Cache", cache_state),
                ("Content-Type", response_codec.content_type),
            )
        return 404, {"error": f"unknown path {path!r}"}, ()

    async def _run_blocking(self, fn, *args):
        # run_in_executor does NOT propagate contextvars to the worker thread;
        # carrying a copy over keeps the active span and request id visible to
        # the blocking diagnosis path (service spans, structured logs).
        context = contextvars.copy_context()
        return await self._loop.run_in_executor(self._executor, context.run, fn, *args)

    def _diagnose_blocking(
        self, lease, body: bytes, codec: Codec, body_key: Optional[str]
    ) -> Tuple[int, Union[Dict, ResponseEntry], Sequence[Tuple[str, str]]]:
        """Decode, diagnose, and admit the response under its body key.

        The request is decoded once here and validated once, inside the
        replica's service.  Returns ``(status, payload, extra headers)``; a
        200 payload is the stored :class:`~repro.serve.cache.ResponseEntry`
        when the cache is on (``body_key`` set, so the loop side reuses its
        memoized encodings) and a plain document when it is off.
        """
        started = time.perf_counter()
        try:
            request = codec.decode_request(body)
            report = lease.service.diagnose(
                request.model,
                request.inputs,
                request.labels,
                version=request.version,
                metadata=request.metadata,
            ).as_dict()
            lease.release(latency_seconds=time.perf_counter() - started)
            if body_key is not None:
                return 200, self._response_cache.store(body_key, report), ()
            return 200, report, ()
        except Exception as error:  # noqa: BLE001 - mapped to a status, keep serving
            # The outcome feeds replica health: infrastructure faults count
            # toward ejection, a client's bad request does not (classified
            # inside the pool).
            lease.release(error=error, latency_seconds=time.perf_counter() - started)
            if isinstance(error, DeadlineExceededError):
                self._m_deadline_rejected.inc()
            return error_response(error)

    # -- payload builders -------------------------------------------------------------

    def _stats_payload(self) -> Dict:
        return {
            "gateway": {
                "url": self.url,
                "executor_workers": self._executor_threads,
                "max_body_bytes": self.max_body_bytes,
                "requests_total": self._m_requests.value,
                "shed_total": self._m_shed.value,
                "open_connections": self._m_connections.value,
                "response_cache": {
                    "maxsize": self._response_cache.maxsize,
                    "ttl_seconds": self.response_cache_ttl,
                    "size": len(self._response_cache),
                    "hits": self._m_response_hits.value,
                    "misses": self._m_response_misses.value,
                },
            },
            "pool": self.pool.stats(),
        }

    def _metrics_payload(self) -> Dict:
        snapshot = self.pool.metrics_snapshot()
        snapshot["gateway"] = self.metrics.as_dict()
        return snapshot

    def _metrics_text(self) -> str:
        """Prometheus text exposition: gateway + pool + per-replica registries.

        Replica registries share metric names, so each snapshot is labelled
        (``component``, plus ``replica`` for the shards) instead of being
        merged — HELP/TYPE are emitted once per name, samples per label set.
        """
        snapshot = self.pool.metrics_snapshot()
        pairs = [
            (self.metrics.as_dict(), {"component": "gateway"}),
            (snapshot["pool"], {"component": "pool"}),
        ]
        pairs.extend(
            (replica_snapshot, {"component": "replica", "replica": str(index)})
            for index, replica_snapshot in enumerate(snapshot["replicas"])
        )
        return render_registries_text(pairs)

    def _healthz_payload(self) -> Dict:
        health = self.pool.health_snapshot()
        return {
            "status": health["status"],
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
            "tracing": get_tracer().enabled,
            "replicas": self.pool.num_replicas,
            "quarantined": health["quarantined"],
            "replica_health": health["replicas"],
        }

    def __enter__(self) -> "DiagnosisGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"DiagnosisGateway(url={self.url}, pool={self.pool!r})"


def serve_gateway_forever(
    pool: ReplicaPool,
    host: str = "127.0.0.1",
    port: int = 8421,
    verbose: bool = False,
    **gateway_kwargs,
) -> None:
    """Convenience wrapper: bind, announce, and serve until interrupted."""
    gateway = DiagnosisGateway(pool, host=host, port=port, verbose=verbose, **gateway_kwargs)
    gateway.start()
    print(
        f"repro-serve gateway listening on {gateway.url} "
        f"({pool.num_replicas} replicas, max {pool.max_inflight} in flight; "
        f"models: {', '.join(pool.registered_models()) or 'none registered'})"
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        gateway.shutdown()
        pool.shutdown()
