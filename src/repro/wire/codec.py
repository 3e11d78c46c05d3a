"""The codec layer: one place a diagnosis document becomes wire bytes.

Before this package, serialization logic was smeared across four layers —
``api.schema``'s ``to_dict``/``from_dict``, ``serve.protocol``'s body
parsing, ``RemoteDiagnoser``'s hand-rolled encode, and the two HTTP front
ends — so no single component could negotiate or swap an encoding.  A
:class:`Codec` owns the whole bytes↔document boundary for one content type:

* :class:`JsonCodec` — the ``v1`` JSON format, extracted verbatim from the
  pre-codec stack.  It remains the default and the compatibility path; a
  payload it produces today is byte-compatible with every pre-codec client
  and server.
* :class:`~repro.wire.binary.BinaryCodec` — a framed binary encoding whose
  array payloads cross the wire as raw C-contiguous bytes (dtype/shape
  header + buffer), skipping the float→text→float round-trip that dominates
  thin-payload request latency.

Both codecs are **bitwise-interchangeable**: for the same
:class:`~repro.api.schema.DiagnosisRequest` they decode to equal documents,
so a server answers a JSON and a binary client with identical reports.  The
gateway's response cache keys on the raw body, so the two forms of one
request are two entries.

Codecs are resolved by name (:func:`get_codec`) or by HTTP media type
(:func:`codec_for_content_type` / :func:`codec_for_accept`) — the latter two
raise :class:`~repro.exceptions.UnsupportedMediaTypeError`, which the front
ends surface as 415.
"""

from __future__ import annotations

import abc
import json
from typing import Dict, Mapping, Optional, Tuple, Union

from ..api.schema import DiagnosisReport, DiagnosisRequest, JsonDict
from ..exceptions import CodecError, ConfigurationError, UnsupportedMediaTypeError

__all__ = [
    "Codec",
    "JsonCodec",
    "ReportLike",
    "get_codec",
    "codec_for_content_type",
    "codec_for_accept",
    "default_codec",
    "negotiate",
]

#: What the encode side accepts for a report: the typed object or its ``v1``
#: document (the serving layer already holds the dict form).
ReportLike = Union[DiagnosisReport, JsonDict]


class Codec(abc.ABC):
    """One wire encoding of the ``v1`` diagnosis documents.

    A codec is stateless and cheap to share; the registry below holds one
    instance per encoding.  ``encode_*`` never mutates its argument;
    ``decode_*`` validates everything it touches and raises only typed
    :class:`~repro.exceptions.ReproError` subclasses (so HTTP front ends map
    a malformed payload to a 4xx, never a 500).
    """

    #: Registry name (``"json"``/``"binary"``) — what config knobs name.
    name: str = ""
    #: The HTTP media type this codec owns (``Content-Type``/``Accept``).
    content_type: str = ""

    # -- requests -----------------------------------------------------------------

    @abc.abstractmethod
    def encode_request(self, request: DiagnosisRequest) -> bytes:
        """The request as wire bytes."""

    @abc.abstractmethod
    def decode_request(self, data: bytes) -> DiagnosisRequest:
        """Parse and validate wire bytes into a request."""

    # -- reports ------------------------------------------------------------------

    @abc.abstractmethod
    def encode_report(self, report: ReportLike) -> bytes:
        """The report (typed or already in ``v1`` dict form) as wire bytes."""

    @abc.abstractmethod
    def decode_report(self, data: bytes, cache_state: Optional[str] = None) -> DiagnosisReport:
        """Parse and validate wire bytes into a typed report."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(content_type={self.content_type!r})"


def _report_document(report: ReportLike) -> JsonDict:
    """Normalize the encode-side report argument to its ``v1`` document."""
    if isinstance(report, DiagnosisReport):
        return report.to_dict()
    if isinstance(report, dict):
        return report
    raise ConfigurationError(
        f"encode_report takes a DiagnosisReport or its v1 dict, got {type(report).__name__}"
    )


def _parse_json_object(data: bytes, kind: str) -> JsonDict:
    """Decode bytes into the JSON object every document kind requires."""
    if not data:
        raise CodecError(f"{kind} body required")
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: nesting deeper than the parser's stack, from a few
        # kilobytes of brackets.  Still the client's bad body, so a 400.
        raise CodecError(f"invalid JSON {kind}: {error}") from error
    if not isinstance(payload, dict):
        raise CodecError(f"JSON {kind} must be an object")
    return payload


class JsonCodec(Codec):
    """The ``v1`` JSON wire format (the default and the compatibility path).

    Extracted verbatim from the pre-codec stack: requests/reports are the
    ``to_dict``/``from_dict`` documents of :mod:`repro.api.schema`, arrays
    ride as nested JSON lists, and the bytes are plain UTF-8 JSON — any
    pre-codec client or server interoperates unchanged.
    """

    name = "json"
    content_type = "application/json"

    def encode_request(self, request: DiagnosisRequest) -> bytes:
        return json.dumps(request.to_dict()).encode("utf-8")

    def decode_request(self, data: bytes) -> DiagnosisRequest:
        return DiagnosisRequest.from_dict(_parse_json_object(data, "request"))

    def encode_report(self, report: ReportLike) -> bytes:
        # A NaN or infinite ratio raises here rather than leave as a bare
        # ``NaN`` token, which is not JSON.
        return json.dumps(_report_document(report), allow_nan=False).encode("utf-8")

    def decode_report(self, data: bytes, cache_state: Optional[str] = None) -> DiagnosisReport:
        return DiagnosisReport.from_dict(
            _parse_json_object(data, "report"), cache_state=cache_state
        )


# -- the registry --------------------------------------------------------------------


_BY_NAME: Dict[str, Codec] = {}
_BY_CONTENT_TYPE: Dict[str, Codec] = {}


def _registry() -> Dict[str, Codec]:
    # Built lazily: BinaryCodec subclasses Codec from this module, so an
    # import-time registry would be a circular import.
    if not _BY_NAME:
        from .binary import BinaryCodec

        for codec in (JsonCodec(), BinaryCodec()):
            _BY_NAME[codec.name] = codec
            _BY_CONTENT_TYPE[codec.content_type] = codec
    return _BY_NAME


def default_codec() -> Codec:
    """The codec used when a request names no media type: JSON."""
    return _registry()["json"]


def get_codec(codec: Union[str, Codec, None]) -> Codec:
    """Resolve a codec by registry name (``None`` → the JSON default).

    A :class:`Codec` instance passes through, so internal plumbing can take
    either form.  Unknown names raise
    :class:`~repro.exceptions.ConfigurationError` — this is the config-knob
    resolver; media-type strings go through :func:`codec_for_content_type`.
    """
    if codec is None:
        return default_codec()
    if isinstance(codec, Codec):
        return codec
    resolved = _registry().get(str(codec).lower())
    if resolved is None:
        raise ConfigurationError(
            f"unknown wire codec {codec!r}; registered codecs: {', '.join(sorted(_registry()))}"
        )
    return resolved


def _media_type(value: str) -> str:
    """The bare media type of one ``Content-Type``/``Accept`` item (no params)."""
    return value.partition(";")[0].strip().lower()


def codec_for_content_type(value: Optional[str]) -> Codec:
    """The codec owning a ``Content-Type`` header value (``None``/empty → JSON).

    Parameters after ``;`` (``charset=...``) are ignored.  An unregistered
    media type raises :class:`~repro.exceptions.UnsupportedMediaTypeError`,
    which the gateway maps to a 415 response.
    """
    if value is None or not value.strip():
        return default_codec()
    _registry()
    codec = _BY_CONTENT_TYPE.get(_media_type(value))
    if codec is None:
        raise UnsupportedMediaTypeError(
            f"unsupported content type {value!r}; this server speaks "
            f"{', '.join(sorted(_BY_CONTENT_TYPE))}"
        )
    return codec


def codec_for_accept(value: Optional[str], default: Union[str, Codec, None] = None) -> Codec:
    """The response codec an ``Accept`` header selects.

    ``None``/empty picks ``default`` (the server's configured default
    response codec; JSON when unset), as does a wildcard (``*/*`` or
    ``application/*``).  Items are honored in client order; the first
    registered media type wins.  An ``Accept`` that names only media types
    no codec owns raises :class:`~repro.exceptions.UnsupportedMediaTypeError`
    (→ 415): silently answering in a format the client declared it cannot
    read would be worse than refusing.
    """
    fallback = get_codec(default)
    if value is None or not value.strip():
        return fallback
    _registry()
    for item in value.split(","):
        media = _media_type(item)
        if media in ("*/*", "application/*"):
            return fallback
        codec = _BY_CONTENT_TYPE.get(media)
        if codec is not None:
            return codec
    raise UnsupportedMediaTypeError(
        f"no registered codec satisfies Accept: {value!r}; this server speaks "
        f"{', '.join(sorted(_BY_CONTENT_TYPE))}"
    )


def negotiate(
    headers: Mapping[str, str], default: Union[str, Codec, None] = None
) -> Tuple[Codec, Codec]:
    """``(request codec, response codec)`` for one request's headers.

    ``headers`` must be lower-cased keys (the gateway already normalizes).
    The request body is decoded per ``Content-Type`` (absent → JSON), the
    response encoded per ``Accept`` (absent/wildcard → ``default``, itself
    defaulting to JSON).  Unknown media types on either side raise
    :class:`~repro.exceptions.UnsupportedMediaTypeError` (→ 415).
    """
    request_codec = codec_for_content_type(headers.get("content-type"))
    response_codec = codec_for_accept(headers.get("accept"), default=default)
    return request_codec, response_codec
