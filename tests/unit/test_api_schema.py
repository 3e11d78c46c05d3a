"""Unit tests for the repro.api v1 schema, config, and error mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import DiagnoserConfig
from repro.api.schema import (
    CONTEXT_KEYS,
    DEFECT_KEYS,
    SCHEMA_VERSION,
    DiagnosisReport,
    DiagnosisRequest,
    validate_arrays,
)
from repro.core.classifier import DefectCaseClassifier, DiagnosisContext
from repro.core.specifics import FootprintSpecifics
from repro.defects import DefectType
from repro.exceptions import (
    ArtifactNotFoundError,
    ConfigurationError,
    NoFaultyCasesError,
    PayloadTooLargeError,
    RemoteTransportError,
    SchemaVersionError,
    ServeError,
    ServiceSaturatedError,
    ServiceUnavailableError,
    exception_from_wire,
)
from repro.serve.protocol import error_response, error_status


def make_specifics(true_label: int = 0) -> FootprintSpecifics:
    return FootprintSpecifics(
        predicted=1,
        true_label=true_label,
        final_confidence=0.7,
        commitment=0.5,
        match_predicted=0.7,
        match_true=0.6,
        best_match=0.75,
        best_match_class=1,
        atypicality_true=0.8,
        mean_entropy=0.5,
        early_entropy=0.6,
        divergence_point=0.2,
        stability=0.9,
        late_entropy=0.4,
        feature_quality=0.95,
        nn_typicality_predicted=0.3,
        nn_typicality_true=0.2,
    )


class TestDiagnosisRequestSchema:
    def test_round_trip_identity(self):
        request = DiagnosisRequest(
            model="prod",
            inputs=[[0.0, 1.0], [2.0, 3.0]],
            labels=[0, 1],
            version="v3",
            metadata={"source": "monitoring"},
        )
        wire = request.to_dict()
        assert wire["schema"] == SCHEMA_VERSION
        rebuilt = DiagnosisRequest.from_dict(wire)
        assert rebuilt == request
        assert rebuilt.to_dict() == wire

    def test_arrays_become_lists(self):
        request = DiagnosisRequest(
            model="m", inputs=np.ones((2, 3)), labels=np.array([0, 1])
        )
        wire = request.to_dict()
        assert wire["inputs"] == [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
        assert wire["labels"] == [0, 1]
        assert "version" not in wire and "metadata" not in wire

    def test_unknown_schema_version_rejected(self):
        payload = {"schema": "v999", "model": "m", "inputs": [[0.0]], "labels": [0]}
        with pytest.raises(SchemaVersionError):
            DiagnosisRequest.from_dict(payload)

    def test_missing_schema_field_means_v1(self):
        request = DiagnosisRequest.from_dict({"model": "m", "inputs": [[0.0]], "labels": [0]})
        assert request.schema == SCHEMA_VERSION

    @pytest.mark.parametrize("missing", ["model", "inputs", "labels"])
    def test_missing_required_field(self, missing):
        payload = {"model": "m", "inputs": [[0.0]], "labels": [0]}
        del payload[missing]
        with pytest.raises(ServeError):
            DiagnosisRequest.from_dict(payload)

    def test_mistyped_and_unknown_fields(self):
        base = {"model": "m", "inputs": [[0.0]], "labels": [0]}
        with pytest.raises(ServeError):
            DiagnosisRequest.from_dict({**base, "model": 7})
        with pytest.raises(ServeError):
            DiagnosisRequest.from_dict({**base, "version": 3})
        with pytest.raises(ServeError):
            DiagnosisRequest.from_dict({**base, "metadata": "nope"})
        # The report carries the metadata back, and a report is strict JSON.
        for value in (float("nan"), float("inf"), [1.0, float("-inf")]):
            with pytest.raises(ServeError, match="'metadata' must not hold NaN or infinity"):
                DiagnosisRequest.from_dict({**base, "metadata": {"note": {"value": value}}})
        with pytest.raises(ServeError):
            DiagnosisRequest.from_dict({**base, "surprise": True})
        with pytest.raises(ServeError):
            DiagnosisRequest.from_dict([1, 2, 3])

    def test_validate_arrays_rules(self):
        inputs, labels = validate_arrays([[1, 2], [3, 4]], [0, 1])
        assert inputs.dtype == np.float64
        assert labels.dtype == np.int64
        with pytest.raises(ConfigurationError):
            validate_arrays([1.0, 2.0], [0, 1])  # ndim < 2
        with pytest.raises(ConfigurationError):
            validate_arrays(np.zeros((0, 2)), [])  # empty batch
        with pytest.raises(ConfigurationError):
            validate_arrays([[1.0], [2.0]], [0])  # length mismatch
        # Non-numeric, beyond-float and ragged inputs: a client's 400, not a 500.
        for inputs in ([[{}]], {}, [[10**400]], [["x"]], [[1.0, 2.0], [3.0]]):
            with pytest.raises(ConfigurationError, match="inputs must be a numeric array"):
                validate_arrays(inputs, [0])

    def test_validate_arrays_names_the_first_non_finite_row(self):
        inputs = np.zeros((6, 2, 2))
        inputs[5, 1, 1] = np.nan
        inputs[2, 0, 1] = -np.inf
        with pytest.raises(ConfigurationError, match="row 2 holds NaN or infinity"):
            validate_arrays(inputs, [0] * 6)
        # A float32 batch skips the dtype cast, not the check.
        batch = np.zeros((3, 4), dtype=np.float32)
        batch[1, 3] = np.inf
        with pytest.raises(ConfigurationError, match="row 1 holds NaN or infinity"):
            validate_arrays(batch, [0] * 3)
        # Finite values at the edges of float32 pass.
        edge = np.full((1, 2), np.finfo(np.float32).max, dtype=np.float32)
        assert validate_arrays(edge, [0])[0].dtype == np.float32
        assert validate_arrays(-edge.astype(np.float64), [0])[0].dtype == np.float64

    @pytest.mark.parametrize("value", [1e300, -1e39])
    def test_validate_arrays_names_the_first_row_beyond_float32(self, value):
        # Finite in float64, but the float32 cast of extraction would overflow.
        inputs = np.zeros((4, 3))
        inputs[1, 2] = value
        inputs[3, 0] = np.nan
        with pytest.raises(ConfigurationError, match="row 1 holds a value beyond float32's range"):
            validate_arrays(inputs, [0] * 4)
        with pytest.raises(ConfigurationError, match="row 1 holds a value beyond float32's range"):
            validate_arrays(inputs.tolist(), [0] * 4)


class TestDiagnosisReportSchema:
    def make_report(self) -> DiagnosisReport:
        classifier = DefectCaseClassifier()
        defect_report = classifier.aggregate(
            [make_specifics(), make_specifics(true_label=2)],
            DiagnosisContext(),
            metadata={"model": "m", "version": "v1"},
        )
        return DiagnosisReport.from_defect_report(defect_report)

    def test_round_trip_identity(self):
        report = self.make_report()
        wire = report.to_dict()
        assert wire["schema"] == SCHEMA_VERSION
        rebuilt = DiagnosisReport.from_dict(wire)
        assert rebuilt.to_dict() == wire
        assert set(wire["ratios"]) <= set(DEFECT_KEYS)
        assert set(wire["context"]) == set(CONTEXT_KEYS)

    def test_defect_report_as_dict_is_the_v1_document(self):
        classifier = DefectCaseClassifier()
        defect_report = classifier.aggregate([make_specifics()], DiagnosisContext())
        assert defect_report.as_dict() == DiagnosisReport.from_defect_report(
            defect_report
        ).to_dict()

    def test_unknown_schema_version_rejected(self):
        wire = self.make_report().to_dict()
        wire["schema"] = "v2"
        with pytest.raises(SchemaVersionError):
            DiagnosisReport.from_dict(wire)

    def test_malformed_documents_rejected(self):
        wire = self.make_report().to_dict()
        with pytest.raises(ServeError):
            DiagnosisReport.from_dict({**wire, "ratios": {"bogus": 1.0}})
        with pytest.raises(ServeError):
            # Empty ratios must fail typed here, not later in dominant_defect.
            DiagnosisReport.from_dict({**wire, "ratios": {}})
        with pytest.raises(ServeError):
            DiagnosisReport.from_dict({**wire, "context": {"bogus": 1.0}})
        with pytest.raises(ServeError):
            DiagnosisReport.from_dict({**wire, "extra_field": 1})
        broken = dict(wire)
        del broken["ratios"]
        with pytest.raises(ServeError):
            DiagnosisReport.from_dict(broken)

    def test_views_match_defect_report(self):
        classifier = DefectCaseClassifier()
        defect_report = classifier.aggregate([make_specifics()], DiagnosisContext())
        report = DiagnosisReport.from_defect_report(defect_report)
        assert report.dominant_defect == defect_report.dominant_defect.value
        assert report.ratio("itd") == defect_report.ratio("itd")
        assert report.ratio(DefectType.UTD) == defect_report.ratio(DefectType.UTD)
        assert report.format_row() == defect_report.format_row()
        assert "dominant defect" in report.summary()

    def test_to_defect_report_round_trip(self):
        report = self.make_report()
        defect_report = report.to_defect_report()
        assert DiagnosisReport.from_defect_report(defect_report).to_dict() == report.to_dict()

    def test_cache_state_never_serialized(self):
        report = self.make_report()
        report.cache_state = "hit"
        assert "cache_state" not in report.to_dict()


class TestDiagnoserConfig:
    def test_deepmorph_kwargs_match_facade_defaults(self):
        morph = DiagnoserConfig().build_deepmorph(rng=0)
        assert morph.probe_epochs == 12
        assert morph.probe_batch_size == 64
        assert morph.inference_dtype == "float32"  # facade default preserved

    def test_inference_dtype_override_flows_through(self):
        morph = DiagnoserConfig(inference_dtype="float64").build_deepmorph()
        assert morph.inference_dtype == "float64"

    def test_service_kwargs_keys_are_accepted_by_service(self):
        from inspect import signature

        from repro.serve.service import DiagnosisService

        accepted = set(signature(DiagnosisService.__init__).parameters)
        assert set(DiagnoserConfig().service_kwargs()) <= accepted

    def test_every_service_knob_is_configurable(self):
        from inspect import signature

        from repro.serve.service import DiagnosisService

        # Not knobs: the registry is the backend's, metrics are owned per service.
        knobs = set(signature(DiagnosisService.__init__).parameters) - {
            "self", "registry", "metrics",
        }
        assert knobs == set(DiagnoserConfig().service_kwargs())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiagnoserConfig(probe_epochs=0)
        with pytest.raises(ConfigurationError):
            DiagnoserConfig(request_timeout=0)
        with pytest.raises(ConfigurationError):
            DiagnoserConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            DiagnoserConfig(inference_dtype="float16")

    def test_with_overrides_revalidates(self):
        config = DiagnoserConfig().with_overrides(max_batch_cases=32)
        assert config.max_batch_cases == 32
        with pytest.raises(ConfigurationError):
            config.with_overrides(max_batch_cases=0)


class TestWireErrorMapping:
    @pytest.mark.parametrize("error,status", [
        (ServiceSaturatedError("full", retry_after=2.0), 503),
        (ArtifactNotFoundError("ghost"), 404),
        (PayloadTooLargeError("big"), 413),
        (NoFaultyCasesError("clean"), 400),
        (ServeError("bad"), 400),
        (ValueError("odd"), 400),
        (RuntimeError("boom"), 500),
        (ServiceUnavailableError("engine stopped"), 503),
    ])
    def test_error_status_table(self, error, status):
        assert error_status(error) == status

    def test_error_response_round_trips_through_exception_from_wire(self):
        for original in [
            ServiceSaturatedError("full", retry_after=3.0),
            ArtifactNotFoundError("ghost"),
            PayloadTooLargeError("big"),
            NoFaultyCasesError("clean"),
            SchemaVersionError("v999"),
            ServeError("bad"),
            ServiceUnavailableError("engine stopped"),
        ]:
            status, payload, headers = error_response(original)
            retry_after = dict(headers).get("Retry-After")
            rebuilt = exception_from_wire(
                status,
                payload["error"],
                error_type=payload["error_type"],
                retry_after=float(retry_after) if retry_after is not None else None,
            )
            assert type(rebuilt) is type(original)
        saturated = exception_from_wire(503, "full", "ServiceSaturatedError", retry_after=3.0)
        assert saturated.retry_after == 3.0

    def test_unknown_error_type_falls_back_to_status(self):
        assert isinstance(exception_from_wire(404, "x", "NotAClass"), ArtifactNotFoundError)
        assert isinstance(exception_from_wire(503, "x", None), ServiceSaturatedError)
        assert isinstance(exception_from_wire(418, "x", None), ServeError)
        # Non-repro names never resolve (no arbitrary class lookup).
        assert isinstance(exception_from_wire(400, "x", "Exception"), ServeError)

    def test_remote_transport_error_is_a_serve_error(self):
        assert issubclass(RemoteTransportError, ServeError)

    def test_every_public_exception_exported(self):
        import repro.exceptions as exceptions_module

        classes = {
            name
            for name, value in vars(exceptions_module).items()
            if isinstance(value, type)
            and issubclass(value, exceptions_module.ReproError)
            and not name.startswith("_")
        }
        assert classes <= set(exceptions_module.__all__)
