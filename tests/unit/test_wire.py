"""Unit tests for :mod:`repro.wire` — codecs, negotiation, binary frames.

Covers the codec registry and HTTP media-type negotiation, JSON↔binary
interchangeability (property-based: 1e-12 agreement through JSON, bitwise
through binary, the same validated arrays from both), the gateway's
body-keyed response cache, and — most importantly — that every malformed binary
frame fails with a typed :class:`~repro.exceptions.CodecError` (a 4xx at the
HTTP boundary), never an unhandled exception or an attacker-sized allocation.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.schema import DiagnosisReport, DiagnosisRequest
from repro.exceptions import (
    CodecError,
    ConfigurationError,
    SchemaVersionError,
    ServeError,
    UnsupportedMediaTypeError,
)
from repro.serve.cache import ResponseCache
from repro.wire import (
    FRAME_VERSION,
    MAGIC,
    BinaryCodec,
    JsonCodec,
    codec_for_accept,
    codec_for_content_type,
    default_codec,
    get_codec,
    negotiate,
)
from repro.wire.binary import _PRELUDE

JSON = JsonCodec()
BINARY = BinaryCodec()


def make_request(dtype=np.float64, metadata=None, version=None) -> DiagnosisRequest:
    rng = np.random.default_rng(7)
    inputs = rng.standard_normal((3, 1, 4, 4)).astype(dtype)
    labels = np.array([0, 1, 2], dtype=np.int64)
    return DiagnosisRequest(
        model="tiny", inputs=inputs, labels=labels, version=version, metadata=metadata
    )


def make_report() -> DiagnosisReport:
    return DiagnosisReport(
        num_cases=5,
        ratios={"itd": 0.5, "utd": 0.3, "sd": 0.2},
        counts={"itd": 3, "utd": 1, "sd": 1},
        metadata={"model": "tiny", "request_id": "req-1"},
        context={
            "error_concentration": 0.4,
            "pattern_overlap": 0.1,
            "feature_quality": 0.8,
            "training_inconsistency": 0.2,
        },
    )


class TestRegistry:
    def test_registered_codecs(self):
        assert get_codec("json").name == "json"
        assert get_codec("binary").name == "binary"
        assert get_codec("json").content_type == "application/json"
        assert get_codec("binary").content_type == "application/x-repro-binary"

    def test_default_is_json(self):
        assert default_codec().name == "json"
        assert get_codec(None).name == "json"

    def test_get_codec_by_name_and_instance(self):
        assert get_codec("binary").name == "binary"
        assert get_codec("JSON").name == "json"  # case-insensitive
        instance = BinaryCodec()
        assert get_codec(instance) is instance

    def test_unknown_name_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown wire codec"):
            get_codec("msgpack")

    def test_repr_names_content_type(self):
        assert "application/json" in repr(JSON)


class TestNegotiation:
    def test_content_type_default_and_params(self):
        assert codec_for_content_type(None).name == "json"
        assert codec_for_content_type("").name == "json"
        assert codec_for_content_type("application/json; charset=utf-8").name == "json"
        assert codec_for_content_type("APPLICATION/X-REPRO-BINARY").name == "binary"

    def test_unknown_content_type_is_415(self):
        with pytest.raises(UnsupportedMediaTypeError, match="unsupported content type"):
            codec_for_content_type("text/plain")

    def test_accept_absent_and_wildcards_pick_default(self):
        assert codec_for_accept(None).name == "json"
        assert codec_for_accept("*/*").name == "json"
        assert codec_for_accept("application/*", default="binary").name == "binary"
        assert codec_for_accept(None, default=BINARY).name == "binary"

    def test_accept_honors_client_order(self):
        value = "application/x-repro-binary, application/json"
        assert codec_for_accept(value).name == "binary"
        assert codec_for_accept("text/html, application/json;q=0.9").name == "json"

    def test_accept_with_no_known_type_is_415(self):
        with pytest.raises(UnsupportedMediaTypeError, match="Accept"):
            codec_for_accept("text/html, image/png")

    def test_negotiate_both_sides(self):
        headers = {
            "content-type": "application/x-repro-binary",
            "accept": "application/json",
        }
        request_codec, response_codec = negotiate(headers)
        assert request_codec.name == "binary"
        assert response_codec.name == "json"

    def test_negotiate_empty_headers_is_json_both_ways(self):
        request_codec, response_codec = negotiate({})
        assert request_codec.name == "json"
        assert response_codec.name == "json"
        _, response_codec = negotiate({}, default="binary")
        assert response_codec.name == "binary"


class TestJsonCodec:
    def test_wire_bytes_are_the_v1_document(self):
        request = make_request(metadata={"source": "test"}, version="3")
        assert json.loads(JSON.encode_request(request)) == request.to_dict()
        report = make_report()
        assert json.loads(JSON.encode_report(report)) == report.to_dict()

    def test_round_trip(self):
        request = make_request(metadata={"k": 1})
        decoded = JSON.decode_request(JSON.encode_request(request))
        assert decoded.to_dict() == request.to_dict()
        report = make_report()
        assert JSON.decode_report(JSON.encode_report(report)).to_dict() == report.to_dict()

    def test_decode_report_carries_cache_state(self):
        data = JSON.encode_report(make_report())
        assert JSON.decode_report(data, cache_state="hit").cache_state == "hit"

    def test_invalid_json_is_codec_error(self):
        with pytest.raises(CodecError, match="invalid JSON"):
            JSON.decode_request(b"{not json")
        with pytest.raises(CodecError, match="must be an object"):
            JSON.decode_request(b"[1, 2]")
        with pytest.raises(CodecError, match="body required"):
            JSON.decode_request(b"")
        with pytest.raises(CodecError, match="invalid JSON"):
            JSON.decode_request(b'{"inputs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")


class TestBinaryCodec:
    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.float64, np.int32, np.uint8, np.bool_]
    )
    def test_round_trip_is_bitwise(self, dtype):
        request = make_request(dtype=dtype, metadata={"batch": "a"}, version="2")
        decoded = BINARY.decode_request(BINARY.encode_request(request))
        assert isinstance(decoded.inputs, np.ndarray)
        assert decoded.inputs.dtype == np.dtype(dtype)
        assert decoded.inputs.shape == np.asarray(request.inputs).shape
        assert decoded.inputs.tobytes() == np.asarray(request.inputs).tobytes()
        assert np.array_equal(decoded.labels, request.labels)
        assert decoded.model == request.model
        assert decoded.version == request.version
        assert decoded.metadata == request.metadata

    def test_encode_is_deterministic(self):
        request = make_request(metadata={"k": 1})
        assert BINARY.encode_request(request) == BINARY.encode_request(request)

    def test_non_contiguous_and_big_endian_inputs_encode(self):
        base = np.arange(32, dtype=np.float64).reshape(4, 8)
        request = DiagnosisRequest(
            model="tiny",
            inputs=base[:, ::2].astype(">f8"),  # non-contiguous, big-endian
            labels=np.array([0, 1, 0, 1]),
        )
        decoded = BINARY.decode_request(BINARY.encode_request(request))
        assert decoded.inputs.dtype == np.dtype("<f8")
        assert np.array_equal(decoded.inputs, base[:, ::2])

    def test_object_dtype_is_refused(self):
        request = DiagnosisRequest(
            model="tiny", inputs=np.array([[None, 1]], dtype=object), labels=[0]
        )
        with pytest.raises(CodecError, match="does not transport"):
            BINARY.encode_request(request)

    def test_decoded_arrays_are_writable_copies(self):
        data = BINARY.encode_request(make_request())
        decoded = BINARY.decode_request(data)
        decoded.inputs[0] = 0.0  # must not raise: detached from the body buffer
        assert decoded.inputs.flags.writeable

    def test_report_round_trip(self):
        report = make_report()
        assert BINARY.decode_report(BINARY.encode_report(report)).to_dict() == report.to_dict()
        assert BINARY.decode_report(BINARY.encode_report(report.to_dict())).to_dict() == (
            report.to_dict()
        )

    def test_binary_body_reuses_v1_validation(self):
        # The merged doc goes through DiagnosisRequest.from_dict: schema
        # violations fail exactly like a JSON body's.
        frame = _frame(
            1, {"model": "tiny", "typo_field": 1}, [("inputs", _F2), ("labels", _I1)]
        )
        with pytest.raises(ServeError, match="unknown request field"):
            BINARY.decode_request(frame)
        frame = _frame(1, {"model": "tiny", "schema": "v9"}, [("inputs", _F2), ("labels", _I1)])
        with pytest.raises(SchemaVersionError, match="v9"):
            BINARY.decode_request(frame)


# -- hand-built frames for malformation tests ------------------------------------------

_F2 = np.ones((2, 3), dtype=np.float64)
_I1 = np.array([0, 1], dtype=np.int64)


def _frame(kind: int, doc: dict, arrays, header_override: bytes = None) -> bytes:
    """Assemble a frame by hand so tests can corrupt any individual field."""
    if header_override is None:
        descriptors = [
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape)}
            for name, array in arrays
        ]
        header = json.dumps(
            {"doc": doc, "arrays": descriptors}, separators=(",", ":")
        ).encode("utf-8")
    else:
        header = header_override
    body = b"".join(np.ascontiguousarray(array).tobytes() for _, array in arrays)
    return struct.pack("<4sBBI", MAGIC, FRAME_VERSION, kind, len(header)) + header + body


def _request_frame() -> bytes:
    return BINARY.encode_request(make_request())


class TestMalformedFrames:
    """Every corruption decodes to a typed CodecError — never a crash or hang."""

    def test_empty_and_truncated_prelude(self):
        for data in (b"", b"RPW", MAGIC + b"\x01"):
            with pytest.raises(CodecError, match="truncated binary frame"):
                BINARY.decode_request(data)

    def test_wrong_magic(self):
        data = b"NOPE" + _request_frame()[4:]
        with pytest.raises(CodecError, match="bad frame magic"):
            BINARY.decode_request(data)

    def test_json_body_sent_as_binary(self):
        with pytest.raises(CodecError, match="bad frame magic|truncated"):
            BINARY.decode_request(JSON.encode_request(make_request()))

    def test_unknown_frame_version(self):
        data = bytearray(_request_frame())
        data[4] = 99
        with pytest.raises(CodecError, match="unsupported binary frame version 99"):
            BINARY.decode_request(bytes(data))

    def test_kind_mismatch(self):
        with pytest.raises(CodecError, match="frame is a request, expected a report"):
            BINARY.decode_report(_request_frame())
        # 3 and 4 were the retired error and document frames.
        for kind in (3, 4, 42):
            data = bytearray(_request_frame())
            data[5] = kind
            with pytest.raises(CodecError, match=f"unknown kind {kind}"):
                BINARY.decode_request(bytes(data))

    def test_header_longer_than_frame(self):
        data = bytearray(_request_frame())
        struct.pack_into("<I", data, 6, 2**31)
        with pytest.raises(CodecError, match="header declares"):
            BINARY.decode_request(bytes(data))

    def test_undecodable_header(self):
        frame = _frame(1, {}, [], header_override=b"{broken json")
        with pytest.raises(CodecError, match="undecodable frame header"):
            BINARY.decode_request(frame)
        frame = _frame(1, {}, [], header_override=b"\xff\xfe not utf8")
        with pytest.raises(CodecError, match="undecodable frame header"):
            BINARY.decode_request(frame)
        frame = _frame(1, {}, [], header_override=b"[" * 100_000 + b"]" * 100_000)
        with pytest.raises(CodecError, match="undecodable frame header"):
            BINARY.decode_request(frame)

    def test_header_not_an_object(self):
        frame = _frame(1, {}, [], header_override=b"[1, 2]")
        with pytest.raises(CodecError, match="header must be a JSON object"):
            BINARY.decode_request(frame)
        frame = _frame(1, {}, [], header_override=b'{"doc": 3, "arrays": []}')
        with pytest.raises(CodecError, match="'doc' object and an 'arrays' list"):
            BINARY.decode_request(frame)

    def test_too_many_arrays(self):
        descriptors = [
            {"name": f"a{i}", "dtype": "<f8", "shape": [0]} for i in range(65)
        ]
        header = json.dumps({"doc": {}, "arrays": descriptors}).encode()
        frame = _frame(1, {}, [], header_override=header)
        with pytest.raises(CodecError, match="declares 65 arrays"):
            BINARY.decode_request(frame)

    def test_bad_descriptors(self):
        for descriptor, message in [
            (3, "must be an object"),
            ({"dtype": "<f8", "shape": [1]}, "lacks a name"),
            ({"name": "", "dtype": "<f8", "shape": [1]}, "lacks a name"),
            ({"name": "x", "dtype": "<c16", "shape": [1]}, "does not transport"),
            ({"name": "x", "dtype": "|O", "shape": [1]}, "does not transport"),
            ({"name": "x", "dtype": "<f8", "shape": [-1]}, "invalid shape"),
            ({"name": "x", "dtype": "<f8", "shape": [True]}, "invalid shape"),
            ({"name": "x", "dtype": "<f8", "shape": "2"}, "invalid shape"),
            ({"name": "x", "dtype": "<f8", "shape": [1] * 33}, "invalid shape"),
        ]:
            header = json.dumps({"doc": {}, "arrays": [descriptor]}).encode()
            frame = _frame(1, {}, [], header_override=header)
            with pytest.raises(CodecError, match=message):
                BINARY.decode_request(frame)

    def test_hostile_shape_is_refused_before_allocation(self):
        # Declares ~2**63 bytes; must fail on byte accounting, not allocate.
        descriptor = {"name": "x", "dtype": "<f8", "shape": [2**60]}
        header = json.dumps({"doc": {}, "arrays": [descriptor]}).encode()
        frame = _frame(1, {}, [], header_override=header) + b"\x00" * 8
        with pytest.raises(CodecError, match="declares more data than the frame carries"):
            BINARY.decode_request(frame)

    def test_truncated_record(self):
        frame = _request_frame()
        with pytest.raises(CodecError, match="truncated or trailing|declares more data"):
            BINARY.decode_request(frame[:-5])

    def test_trailing_garbage(self):
        with pytest.raises(CodecError, match="truncated or trailing"):
            BINARY.decode_request(_request_frame() + b"\x00\x01")

    def test_shape_dtype_disagreement_with_payload(self):
        # Descriptor says (3, 3) float64 but the body carries (2, 3).
        header = json.dumps({
            "doc": {"model": "tiny"},
            "arrays": [
                {"name": "inputs", "dtype": "<f8", "shape": [3, 3]},
                {"name": "labels", "dtype": "<i8", "shape": [2]},
            ],
        }).encode()
        frame = _frame(1, {}, [("inputs", _F2), ("labels", _I1)], header_override=header)
        with pytest.raises(CodecError, match="truncated or trailing|declares more data"):
            BINARY.decode_request(frame)

    def test_duplicate_array_names(self):
        header = json.dumps({
            "doc": {"model": "tiny"},
            "arrays": [
                {"name": "inputs", "dtype": "<i8", "shape": [2]},
                {"name": "inputs", "dtype": "<i8", "shape": [2]},
            ],
        }).encode()
        frame = _frame(1, {}, [("a", _I1), ("b", _I1)], header_override=header)
        with pytest.raises(CodecError, match="duplicate array"):
            BINARY.decode_request(frame)

    def test_doc_and_array_field_collision(self):
        frame = _frame(
            1,
            {"model": "tiny", "inputs": [[1.0]], "labels": [0]},
            [("inputs", _F2), ("labels", _I1)],
        )
        with pytest.raises(CodecError, match="both as doc field"):
            BINARY.decode_request(frame)

    def test_report_frame_with_array_records(self):
        frame = _frame(2, make_report().to_dict(), [("stray", _I1)])
        with pytest.raises(CodecError, match="report frames carry no array records"):
            BINARY.decode_report(frame)

    def test_prelude_size_is_stable(self):
        # The wire layout is a published contract; catch accidental repacking.
        assert _PRELUDE.size == 10


# -- cross-codec interchangeability (property-based) -----------------------------------


@st.composite
def wire_requests(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=4))
    inputs = draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.floats(-1e9, 1e9, allow_nan=False, width=64),
        )
    )
    labels = draw(hnp.arrays(np.int64, (shape[0],), elements=st.integers(0, 9)))
    metadata = draw(
        st.none()
        | st.dictionaries(
            st.text(min_size=1, max_size=6), st.integers(-5, 5), max_size=3
        )
    )
    return DiagnosisRequest(model="m", inputs=inputs, labels=labels, metadata=metadata)


class TestCrossCodecInterchangeability:
    @pytest.mark.parametrize("codec", [JSON, BINARY], ids=["json", "binary"])
    def test_a_nan_report_is_refused_not_written_as_bare_nan(self, codec):
        document = make_report().to_dict()
        document["ratios"] = dict(document["ratios"], itd=float("nan"))
        with pytest.raises(ValueError, match="not JSON compliant"):
            codec.encode_report(document)

    @given(req=wire_requests())
    @settings(max_examples=40, deadline=None)
    def test_json_and_binary_agree(self, req):
        via_json = JSON.decode_request(JSON.encode_request(req))
        via_binary = BINARY.decode_request(BINARY.encode_request(req))
        # Binary is bitwise; JSON must agree to 1e-12 (float64 repr is exact,
        # so in practice both are bitwise — the tolerance is the contract).
        assert via_binary.inputs.tobytes() == np.asarray(req.inputs).tobytes()
        np.testing.assert_allclose(
            np.asarray(via_json.inputs, dtype=np.float64),
            np.asarray(req.inputs),
            rtol=0.0,
            atol=1e-12,
        )
        assert np.array_equal(np.asarray(via_json.labels), req.labels)
        assert np.array_equal(via_binary.labels, req.labels)
        assert via_json.model == via_binary.model == req.model
        assert via_json.metadata == via_binary.metadata == req.metadata

    @given(req=wire_requests())
    @settings(max_examples=40, deadline=None)
    def test_codecs_decode_to_the_same_validated_arrays(self, req):
        via_json = JSON.decode_request(JSON.encode_request(req)).arrays()
        via_binary = BINARY.decode_request(BINARY.encode_request(req)).arrays()
        for from_json, from_binary in zip(via_json, via_binary):
            assert from_json.dtype == from_binary.dtype
            assert from_json.shape == from_binary.shape
            assert from_json.tobytes() == from_binary.tobytes()


class TestSchemaDelegation:
    def test_request_encode_decode(self):
        request = make_request(metadata={"k": 1})
        for codec in (None, "json", "binary", BINARY):
            decoded = DiagnosisRequest.decode(request.encode(codec), codec)
            assert decoded.to_dict() == request.to_dict()

    def test_report_encode_decode(self):
        report = make_report()
        data = report.encode("binary")
        decoded = DiagnosisReport.decode(data, "binary", cache_state="miss")
        assert decoded.to_dict() == report.to_dict()
        assert decoded.cache_state == "miss"


class TestResponseCache:
    def make_cache(self, **kwargs):
        self.now = 0.0
        kwargs.setdefault("maxsize", 8)
        kwargs.setdefault("ttl_seconds", 10.0)
        return ResponseCache(clock=lambda: self.now, **kwargs)

    def test_only_a_byte_identical_repeat_hits(self):
        cache = self.make_cache()
        request = make_request()
        json_body = JSON.encode_request(request)
        key, entry = cache.lookup_body(JSON.content_type, json_body)
        assert key is not None and entry is None
        stored = cache.store(key, make_report().to_dict())

        assert cache.lookup_body(JSON.content_type, json_body) == (key, stored)
        # The same request under the other codec, or in another JSON
        # spelling, is a different body: a miss.
        _, entry = cache.lookup_body(BINARY.content_type, BINARY.encode_request(request))
        assert entry is None
        respelled = json.dumps(request.to_dict(), indent=1).encode("utf-8")
        assert JSON.decode_request(respelled).to_dict() == request.to_dict()
        _, entry = cache.lookup_body(JSON.content_type, respelled)
        assert entry is None
        assert len(cache) == 1

    def test_body_key_separates_distinct_requests(self):
        base = make_request()
        other_model = DiagnosisRequest(model="other", inputs=base.inputs, labels=base.labels)
        with_meta = DiagnosisRequest(
            model="tiny", inputs=base.inputs, labels=base.labels, metadata={"k": 1}
        )
        with_version = DiagnosisRequest(
            model="tiny", inputs=base.inputs, labels=base.labels, version="2"
        )
        for codec in (JSON, BINARY):
            keys = [
                ResponseCache.body_key(codec.content_type, codec.encode_request(request))
                for request in (base, make_request(), other_model, with_meta, with_version)
            ]
            assert keys[0] == keys[1]  # same request, same bytes, same key
            assert len(set(keys)) == 4

    def test_body_key_separates_dtypes(self):
        # Same values, different extraction precision → different responses.
        f32 = make_request(dtype=np.float32)
        f64 = DiagnosisRequest(
            model="tiny", inputs=np.asarray(f32.inputs, dtype=np.float64), labels=f32.labels
        )
        assert ResponseCache.body_key(BINARY.content_type, BINARY.encode_request(f32)) != (
            ResponseCache.body_key(BINARY.content_type, BINARY.encode_request(f64))
        )

    def test_entry_encodings_are_memoized(self):
        cache = self.make_cache()
        entry = cache.store("k", make_report().to_dict())
        json_bytes = entry.encoded(JSON)
        assert entry.encoded(JSON) is json_bytes  # bitwise-identical replay
        assert entry.encoded(BINARY) != json_bytes
        assert JSON.decode_report(json_bytes).to_dict() == (
            BINARY.decode_report(entry.encoded(BINARY)).to_dict()
        )

    def test_same_body_different_codec_does_not_collide(self):
        body = b"same bytes"
        assert ResponseCache.body_key("application/json", body) != (
            ResponseCache.body_key("application/x-repro-binary", body)
        )

    def test_ttl_expiry(self):
        cache = self.make_cache(ttl_seconds=5.0)
        key, _ = cache.lookup_body("application/json", b"x")
        cache.store(key, {"num_cases": 1})
        self.now = 4.9
        assert cache.lookup_body("application/json", b"x")[1] is not None
        self.now = 5.1
        assert cache.lookup_body("application/json", b"x") == (key, None)
        # The next store replaces the expired entry.
        fresh = cache.store(key, {"num_cases": 2})
        assert cache.lookup_body("application/json", b"x") == (key, fresh)
        assert len(cache) == 1

    def test_disabled_cache(self):
        cache = self.make_cache(maxsize=0)
        assert not cache.enabled
        assert cache.lookup_body("application/json", b"x") == (None, None)
        cache.store("k", {})
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = self.make_cache(maxsize=2)
        keys = [cache.lookup_body("application/json", b"%d" % i)[0] for i in range(3)]
        cache.store(keys[0], {"i": 0})
        cache.store(keys[1], {"i": 1})
        # A hit makes body 0 the most recent, so body 1 is evicted next.
        assert cache.lookup_body("application/json", b"0")[1] is not None
        cache.store(keys[2], {"i": 2})
        assert len(cache) == 2
        assert cache.lookup_body("application/json", b"1")[1] is None
        assert cache.lookup_body("application/json", b"0")[1].document == {"i": 0}
        assert cache.lookup_body("application/json", b"2")[1].document == {"i": 2}

    def test_clear(self):
        cache = self.make_cache()
        key, _ = cache.lookup_body("application/json", b"x")
        cache.store(key, {})
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup_body("application/json", b"x") == (key, None)
