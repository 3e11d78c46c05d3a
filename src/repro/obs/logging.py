"""Structured JSON logging stamped with trace/span/request identity.

Every record formatted by :class:`JsonLogFormatter` is one JSON object with
the active ``trace_id``/``span_id``/``request_id`` (when bound in the
emitting context) plus any extras passed via ``logger.info(..., extra={
"fields": {...}})``.  That makes log lines joinable against exported spans:
grep a request id in the JSONL trace and the log stream and you see the same
request from both sides.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import IO, Dict, Optional

from .trace import current_request_id, current_span

__all__ = ["JsonLogFormatter", "get_logger", "configure_logging"]

_LOGGER_PREFIX = "repro"


class JsonLogFormatter(logging.Formatter):
    """Formats records as one JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, object] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        span = current_span()
        if span is not None and span.is_recording:
            payload["trace_id"] = span.trace_id
            payload["span_id"] = span.span_id
        request_id = current_request_id()
        if request_id is not None:
            payload["request_id"] = request_id
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict):
            for key, value in fields.items():
                payload.setdefault(str(key), value)
        if record.exc_info and record.exc_info[1] is not None:
            error = record.exc_info[1]
            payload["error"] = f"{type(error).__name__}: {error}"
        return json.dumps(payload, sort_keys=True, default=str)


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``get_logger("serve.gateway")``)."""
    if name.startswith(_LOGGER_PREFIX):
        return logging.getLogger(name)
    return logging.getLogger(f"{_LOGGER_PREFIX}.{name}")


def configure_logging(
    level: int = logging.INFO, stream: Optional[IO[str]] = None
) -> logging.Logger:
    """Install the JSON formatter on the ``repro`` root logger (idempotent).

    Replaces any handler this function previously installed rather than
    stacking duplicates, so tests and repeated CLI invocations stay clean.
    """
    root = logging.getLogger(_LOGGER_PREFIX)
    root.setLevel(level)
    root.propagate = False
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLogFormatter())
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    return root


def log_event(
    logger: logging.Logger, message: str, level: int = logging.INFO, **fields: object
) -> None:
    """Emit a record (info by default) with structured ``fields`` (joinable on request id)."""
    logger.log(level, message, extra={"fields": dict(fields)})


__all__.append("log_event")
