"""``BinaryCodec``: framed binary transport for the ``v1`` documents.

The JSON wire format pays a float→text→float round-trip on every array
element — for a thin request whose payload is a few thousand floats, that
serialization tax dominates the whole HTTP exchange.  This codec frames the
same ``v1`` documents so arrays cross the wire as raw machine bytes:

.. code-block:: text

    offset  size  field
    ------  ----  ------------------------------------------------------
    0       4     magic  b"RPWB"
    4       1     frame version  (currently 1)
    5       1     kind   (1=request, 2=report)
    6       4     header length N, unsigned little-endian
    10      N     header: compact UTF-8 JSON
                  {"doc": {...non-array fields, incl. "schema": "v1"...},
                   "arrays": [{"name", "dtype", "shape"}, ...]}
    10+N    ...   one record per header descriptor, in order:
                  the array's raw C-contiguous little-endian bytes

Everything *about* the arrays (name, dtype, shape) lives in the JSON header;
everything *inside* them is a single contiguous buffer copy.  Scalars,
metadata, and report fields stay JSON — they are tiny, and reusing the
``v1`` document validation of :mod:`repro.api.schema` means a binary request
is checked by exactly the code that checks a JSON one.

Decoding is defensive end to end: wrong magic, an unknown frame version or
kind, undecodable header JSON, dtypes outside the allow-list, negative or
absurdly-ranked shapes, and any disagreement between the declared byte count
and the bytes actually present raise
:class:`~repro.exceptions.CodecError` — a typed 4xx at the HTTP boundary,
never a 500 and never an allocation sized by an attacker's shape field.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.schema import DiagnosisReport, DiagnosisRequest, JsonDict
from ..exceptions import CodecError
from .codec import Codec, ReportLike, _report_document

__all__ = ["BinaryCodec", "MAGIC", "FRAME_VERSION"]

MAGIC = b"RPWB"
FRAME_VERSION = 1

#: Prelude layout: magic, frame version, kind, header length.
_PRELUDE = struct.Struct("<4sBBI")

_KIND_REQUEST = 1
_KIND_REPORT = 2
_KIND_NAMES = {_KIND_REQUEST: "request", _KIND_REPORT: "report"}

#: Dtypes an array record may declare.  Always little-endian on the wire
#: (the encoder byte-swaps on big-endian hosts); anything outside this set —
#: object, complex, structured — is rejected before any buffer is touched.
_ALLOWED_DTYPES = frozenset(
    np.dtype(name).newbyteorder("<").str if np.dtype(name).itemsize > 1 else np.dtype(name).str
    for name in (
        "bool", "int8", "int16", "int32", "int64",
        "uint8", "uint16", "uint32", "uint64",
        "float16", "float32", "float64",
    )
)

#: Hard caps on header-declared structure, far above any real payload.
_MAX_ARRAYS = 64
_MAX_NDIM = 32


def _wire_array(value: object, name: str) -> np.ndarray:
    """Coerce one array field to its C-contiguous little-endian wire form."""
    array = np.ascontiguousarray(value)
    wire_dtype = array.dtype.newbyteorder("<") if array.dtype.itemsize > 1 else array.dtype
    if wire_dtype.str not in _ALLOWED_DTYPES:
        raise CodecError(
            f"array {name!r} has dtype {array.dtype.str!r}, which the binary codec "
            f"does not transport"
        )
    if array.dtype != wire_dtype:
        array = array.astype(wire_dtype)
    return array


def _encode_frame(kind: int, doc: JsonDict, arrays: Sequence[Tuple[str, np.ndarray]]) -> bytes:
    descriptors: List[JsonDict] = []
    buffers: List[bytes] = []
    for name, array in arrays:
        wire = _wire_array(array, name)
        descriptors.append(
            {"name": name, "dtype": wire.dtype.str, "shape": list(wire.shape)}
        )
        buffers.append(wire.tobytes())
    # Strict JSON, as the JSON codec's reports: a NaN raises rather than
    # leave as a bare ``NaN`` token.
    header = json.dumps(
        {"doc": doc, "arrays": descriptors}, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    prelude = _PRELUDE.pack(MAGIC, FRAME_VERSION, kind, len(header))
    return b"".join([prelude, header, *buffers])


def _decode_frame(
    data: bytes, expected_kind: int
) -> Tuple[JsonDict, Dict[str, np.ndarray]]:
    if len(data) < _PRELUDE.size:
        raise CodecError(
            f"truncated binary frame: {len(data)} byte(s) is smaller than the "
            f"{_PRELUDE.size}-byte prelude"
        )
    magic, version, kind, header_length = _PRELUDE.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != FRAME_VERSION:
        raise CodecError(
            f"unsupported binary frame version {version}; this library speaks "
            f"version {FRAME_VERSION}"
        )
    if kind != expected_kind:
        got = _KIND_NAMES.get(kind, f"unknown kind {kind}")
        raise CodecError(
            f"frame is a {got}, expected a {_KIND_NAMES[expected_kind]}"
        )
    body_offset = _PRELUDE.size + header_length
    if body_offset > len(data):
        raise CodecError(
            f"truncated binary frame: header declares {header_length} byte(s) but "
            f"only {len(data) - _PRELUDE.size} follow the prelude"
        )
    try:
        header = json.loads(data[_PRELUDE.size:body_offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise CodecError(f"undecodable frame header: {error}") from error
    if not isinstance(header, dict):
        raise CodecError("frame header must be a JSON object")
    doc = header.get("doc")
    descriptors = header.get("arrays")
    if not isinstance(doc, dict) or not isinstance(descriptors, list):
        raise CodecError("frame header must carry a 'doc' object and an 'arrays' list")
    if len(descriptors) > _MAX_ARRAYS:
        raise CodecError(
            f"frame declares {len(descriptors)} arrays (limit {_MAX_ARRAYS})"
        )

    remaining = len(data) - body_offset
    parsed: List[Tuple[str, np.dtype, Tuple[int, ...], int]] = []
    declared_total = 0
    for index, descriptor in enumerate(descriptors):
        if not isinstance(descriptor, dict):
            raise CodecError(f"array descriptor {index} must be an object")
        name = descriptor.get("name")
        dtype_str = descriptor.get("dtype")
        shape = descriptor.get("shape")
        if not isinstance(name, str) or not name:
            raise CodecError(f"array descriptor {index} lacks a name")
        if dtype_str not in _ALLOWED_DTYPES:
            raise CodecError(
                f"array {name!r} declares dtype {dtype_str!r}, which the binary "
                f"codec does not transport"
            )
        if (
            not isinstance(shape, list)
            or len(shape) > _MAX_NDIM
            or not all(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0
                       for dim in shape)
        ):
            raise CodecError(f"array {name!r} declares an invalid shape {shape!r}")
        dtype = np.dtype(dtype_str)
        nbytes = dtype.itemsize * math.prod(shape)
        declared_total += nbytes
        if declared_total > remaining:
            # Checked inside the loop so a hostile shape like [2**60] is
            # refused before any sum or allocation grows with it.
            raise CodecError(
                f"array {name!r} (shape {tuple(shape)}, dtype {dtype_str}) declares "
                f"more data than the frame carries: {declared_total} byte(s) "
                f"declared, {remaining} present"
            )
        parsed.append((name, dtype, tuple(shape), nbytes))
    if declared_total != remaining:
        raise CodecError(
            f"frame carries {remaining} byte(s) of array data but the header "
            f"declares {declared_total}: truncated or trailing bytes"
        )

    arrays: Dict[str, np.ndarray] = {}
    view = memoryview(data)
    offset = body_offset
    for name, dtype, shape, nbytes in parsed:
        if name in arrays:
            raise CodecError(f"duplicate array {name!r} in frame")
        # .copy() detaches from the request buffer: the array is writable and
        # does not pin the (possibly large) body bytes alive via a view.
        arrays[name] = np.frombuffer(
            view[offset:offset + nbytes], dtype=dtype
        ).reshape(shape).copy()
        offset += nbytes
    return doc, arrays


class BinaryCodec(Codec):
    """The framed binary wire format (see the module docstring for the layout)."""

    name = "binary"
    content_type = "application/x-repro-binary"

    # -- requests -----------------------------------------------------------------

    def encode_request(self, request: DiagnosisRequest) -> bytes:
        doc: JsonDict = {"schema": request.schema, "model": request.model}
        if request.version is not None:
            doc["version"] = request.version
        if request.metadata is not None:
            doc["metadata"] = dict(request.metadata)
        return _encode_frame(
            _KIND_REQUEST,
            doc,
            [("inputs", np.asarray(request.inputs)), ("labels", np.asarray(request.labels))],
        )

    def decode_request(self, data: bytes) -> DiagnosisRequest:
        doc, arrays = _decode_frame(data, _KIND_REQUEST)
        payload: JsonDict = dict(doc)
        overlap = set(payload) & set(arrays)
        if overlap:
            raise CodecError(
                f"frame carries {', '.join(sorted(overlap))} both as doc field(s) "
                f"and as array record(s)"
            )
        payload.update(arrays)
        # The merged document goes through the same v1 validation a JSON body
        # does: unknown fields, missing model/inputs/labels, and schema-version
        # mismatches fail with exactly the JSON path's errors.
        return DiagnosisRequest.from_dict(payload)

    # -- reports ------------------------------------------------------------------

    def encode_report(self, report: ReportLike) -> bytes:
        return _encode_frame(_KIND_REPORT, _report_document(report), [])

    def decode_report(self, data: bytes, cache_state: Optional[str] = None) -> DiagnosisReport:
        doc, arrays = _decode_frame(data, _KIND_REPORT)
        if arrays:
            raise CodecError("report frames carry no array records")
        return DiagnosisReport.from_dict(doc, cache_state=cache_state)
