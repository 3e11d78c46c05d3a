"""The versioned ``v1`` diagnosis schema: one format for library and wire.

:class:`DiagnosisRequest` and :class:`DiagnosisReport` are the typed objects
every :class:`~repro.api.Diagnoser` backend consumes and produces.  Their
``to_dict``/``from_dict`` forms ARE the HTTP wire format of the serving front
ends (:mod:`repro.serve.protocol` derives its request parsing from
:meth:`DiagnosisRequest.from_dict`, and ``DefectReport.as_dict`` delegates to
:meth:`DiagnosisReport.from_defect_report`), so an embedded caller and a
remote caller exchange exactly the same documents.

Every payload carries a ``"schema"`` field (currently ``"v1"``; absent means
``v1`` for backward compatibility).  Unknown versions are rejected with
:class:`~repro.exceptions.SchemaVersionError` instead of being half-parsed,
and unknown *fields* are rejected too: schema evolution happens by bumping
the version, not by smuggling loose keys past validation, so a client typo
(``"lables"``) fails loudly instead of silently diagnosing garbage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.footprint import validate_labels
from ..defects.spec import DefectType
from ..exceptions import ConfigurationError, SchemaVersionError, ServeError
from ..nn.dtype import policy_float

__all__ = [
    "SCHEMA_VERSION",
    "REQUEST_ID_METADATA_KEY",
    "DEFECT_KEYS",
    "CONTEXT_KEYS",
    "REQUEST_FIELDS",
    "REPORT_FIELDS",
    "DiagnosisRequest",
    "DiagnosisReport",
    "validate_arrays",
    "batch_slices",
]

#: The schema version this library speaks.
SCHEMA_VERSION = "v1"

#: Metadata key carrying the request id end to end.  ``metadata`` is the
#: schema's free-form extension point, so request identity rides in-band
#: through every backend (and into the report, whose metadata merges the
#: request's) without a v2 schema bump.
REQUEST_ID_METADATA_KEY = "request_id"

#: Canonical defect keys, in report order (ITD, UTD, SD — the paper's Table I order).
DEFECT_KEYS: Tuple[str, ...] = (
    DefectType.ITD.value,
    DefectType.UTD.value,
    DefectType.SD.value,
)

#: Canonical context keys of a ``v1`` report.
CONTEXT_KEYS: Tuple[str, ...] = (
    "error_concentration",
    "pattern_overlap",
    "feature_quality",
    "training_inconsistency",
)

#: Top-level fields of a ``v1`` request document.
REQUEST_FIELDS: Tuple[str, ...] = ("schema", "model", "inputs", "labels", "version", "metadata")

#: Top-level fields of a ``v1`` report document.
REPORT_FIELDS: Tuple[str, ...] = (
    "schema",
    "num_cases",
    "ratios",
    "counts",
    "dominant_defect",
    "metadata",
    "context",
)

ArrayLike = Union[np.ndarray, Sequence[object]]
Metadata = Dict[str, object]
JsonDict = Dict[str, object]


def _check_schema_version(payload: JsonDict, kind: str) -> None:
    declared = payload.get("schema", SCHEMA_VERSION)
    if declared != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported {kind} schema version {declared!r}; this library speaks "
            f"{SCHEMA_VERSION!r}"
        )


_FLOAT32_MAX = float(np.finfo(np.float32).max)


def validate_arrays(
    inputs: ArrayLike, labels: ArrayLike, num_classes: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce and validate a diagnosis batch into ``(float inputs, int64 labels)``.

    The single validation every backend shares — local, in-process service,
    and the HTTP front ends all funnel request payloads through here, so the
    accepted shapes (and the rejection messages) cannot drift apart.

    Input dtype follows the :mod:`repro.nn.dtype` policy: float32 and float64
    arrays pass through untouched (a float32 batch from a binary-codec client
    is served as float32, no silent up-then-down round-trip), anything else —
    including JSON nested lists, which numpy reads as float64 — is cast to the
    active compute dtype (float64 unless overridden).  Inputs must be finite
    after that cast and no larger in magnitude than float32's largest value,
    since extraction runs in float32 by default: one NaN or infinite value,
    or one that overflows the float32 cast, would turn every ratio of the
    report into NaN, which is not JSON, so the error names the first such row.

    Labels must be class ids (:func:`repro.core.footprint.validate_labels`):
    integers, or integral finite floats such as ``3.0``.  With
    ``num_classes`` they must also lie in ``[0, num_classes)``.  Every
    rejection is a :class:`~repro.exceptions.ConfigurationError` (HTTP 400),
    non-numeric or ragged inputs included: a client's bad body must never
    surface as a 500, which the replica pool counts against the replica.
    """
    try:
        inputs_arr = policy_float(np.asarray(inputs))
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(f"inputs must be a numeric array: {error}") from error
    if inputs_arr.ndim < 2:
        raise ConfigurationError(
            f"inputs must be a batch of examples (ndim >= 2), got shape {inputs_arr.shape}"
        )
    if inputs_arr.shape[0] == 0:
        raise ConfigurationError("cannot diagnose an empty batch of production cases")
    # NaN compares false, so this one pass also catches NaN and infinity.
    in_range = np.abs(inputs_arr) <= _FLOAT32_MAX
    if not in_range.all():
        row = int(np.argmin(in_range.reshape(inputs_arr.shape[0], -1).all(axis=1)))
        held = ("NaN or infinity" if not np.isfinite(inputs_arr[row]).all()
                else f"a value beyond float32's range (|x| > {_FLOAT32_MAX:.4g})")
        raise ConfigurationError(
            f"inputs must be finite and within float32's range: row {row} holds {held}"
        )
    labels_arr = validate_labels(labels, num_classes)
    if labels_arr.ndim != 1 or labels_arr.shape[0] != inputs_arr.shape[0]:
        raise ConfigurationError(
            f"labels must be 1-D with one entry per input, got shape {labels_arr.shape} "
            f"for {inputs_arr.shape[0]} inputs"
        )
    return inputs_arr, labels_arr


def _as_jsonable(values: ArrayLike) -> object:
    """Arrays become nested lists; everything else passes through unchanged."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    return values


@dataclass
class DiagnosisRequest:
    """One diagnosis request: a labeled production batch for a named model.

    Attributes
    ----------
    model:
        Registered artifact name the batch should be diagnosed against.
    inputs:
        Batch of model inputs — an array or nested lists, shape ``(n, ...)``.
    labels:
        Ground-truth labels, length ``n``.
    version:
        Pinned artifact version (``None`` resolves to the latest).
    metadata:
        Free-form request context merged into the report's metadata.
    schema:
        Schema version of this document; always ``"v1"`` today.
    """

    model: str
    inputs: ArrayLike
    labels: ArrayLike
    version: Optional[str] = None
    metadata: Optional[Metadata] = None
    schema: str = SCHEMA_VERSION

    def arrays(self, num_classes: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """The validated ``(inputs, labels)`` arrays (see :func:`validate_arrays`)."""
        return validate_arrays(self.inputs, self.labels, num_classes)

    @property
    def request_id(self) -> Optional[str]:
        """The request id riding in metadata, if any (see the module note)."""
        value = (self.metadata or {}).get(REQUEST_ID_METADATA_KEY)
        return str(value) if value is not None else None

    def with_request_id(self, request_id: str) -> "DiagnosisRequest":
        """A copy carrying ``request_id`` in its metadata (self if already set)."""
        if self.request_id is not None:
            return self
        metadata = dict(self.metadata or {})
        metadata[REQUEST_ID_METADATA_KEY] = str(request_id)
        return DiagnosisRequest(
            model=self.model,
            inputs=self.inputs,
            labels=self.labels,
            version=self.version,
            metadata=metadata,
            schema=self.schema,
        )

    def to_dict(self) -> JsonDict:
        """The request as its ``v1`` wire document (arrays become lists)."""
        payload: JsonDict = {
            "schema": self.schema,
            "model": self.model,
            "inputs": _as_jsonable(self.inputs),
            "labels": _as_jsonable(self.labels),
        }
        if self.version is not None:
            payload["version"] = self.version
        if self.metadata is not None:
            payload["metadata"] = dict(self.metadata)
        return payload

    @classmethod
    def from_dict(cls, payload: JsonDict) -> "DiagnosisRequest":
        """Parse and validate a ``v1`` request document.

        Raises :class:`~repro.exceptions.SchemaVersionError` on an unknown
        ``schema`` and :class:`~repro.exceptions.ServeError` on any other
        schema violation (missing/mistyped/unknown fields) — the same errors
        the HTTP front ends turn into 400 responses.
        """
        if not isinstance(payload, dict):
            raise ServeError("JSON body must be an object")
        _check_schema_version(payload, "request")
        unknown = sorted(set(payload) - set(REQUEST_FIELDS))
        if unknown:
            raise ServeError(f"unknown request field(s): {', '.join(unknown)}")
        for required in ("model", "inputs", "labels"):
            if required not in payload:
                raise ServeError(f"missing required field {required!r}")
        model = payload["model"]
        if not isinstance(model, str):
            raise ServeError("'model' must be a string")
        version = payload.get("version")
        if version is not None and not isinstance(version, str):
            raise ServeError("'version' must be a string when given")
        metadata = payload.get("metadata")
        if metadata is not None and not isinstance(metadata, dict):
            raise ServeError("'metadata' must be an object when given")
        try:
            # The report carries the metadata back, and reports are strict JSON.
            json.dumps(metadata, allow_nan=False)
        except ValueError:
            raise ServeError("'metadata' must not hold NaN or infinity") from None
        return cls(
            model=model,
            inputs=payload["inputs"],
            labels=payload["labels"],
            version=version,
            metadata=metadata,
            schema=str(payload.get("schema", SCHEMA_VERSION)),
        )

    # -- wire forms (delegated to the codec layer) ---------------------------------

    def encode(self, codec: Union[str, "object", None] = None) -> bytes:
        """This request as wire bytes under ``codec`` (name/instance; ``None`` → JSON)."""
        from .. import wire

        return wire.get_codec(codec).encode_request(self)  # type: ignore[arg-type]

    @classmethod
    def decode(cls, data: bytes, codec: Union[str, "object", None] = None) -> "DiagnosisRequest":
        """Parse wire bytes produced by :meth:`encode` under the same codec."""
        from .. import wire

        return wire.get_codec(codec).decode_request(data)  # type: ignore[arg-type]


@dataclass
class DiagnosisReport:
    """The result of one diagnosis, in the canonical ``v1`` shape.

    The typed counterpart of the wire document every backend returns:
    defect keys are plain strings (``"itd"``/``"utd"``/``"sd"``) so the
    object round-trips through JSON unchanged.  Use :meth:`to_defect_report`
    when the richer :class:`~repro.core.DefectReport` (typed enums, per-case
    verdicts) is needed.

    Attributes
    ----------
    num_cases:
        Number of faulty cases the diagnosis aggregated.
    ratios:
        Fraction of defect evidence per defect key (sums to 1).
    counts:
        Hard per-case verdict counts per defect key.
    metadata:
        Free-form context (model, version, num_production_cases, ...).
    context:
        Model-level diagnosis signals (see :data:`CONTEXT_KEYS`), if known.
    schema:
        Schema version of this document; always ``"v1"`` today.
    cache_state:
        Transport annotation (``"hit"``/``"miss"``/``"off"``) from the
        gateway's ``X-Response-Cache`` header; never serialized.
    """

    num_cases: int
    ratios: Dict[str, float]
    counts: Dict[str, int]
    metadata: Metadata = field(default_factory=dict)
    context: Optional[Dict[str, float]] = None
    schema: str = SCHEMA_VERSION
    cache_state: Optional[str] = None

    # -- views -------------------------------------------------------------------

    @property
    def dominant_defect(self) -> str:
        """The defect key with the highest ratio (the paper's reported diagnosis)."""
        return max(self.ratios, key=lambda key: self.ratios[key])

    @property
    def request_id(self) -> Optional[str]:
        """The originating request's id, when it rode the request metadata."""
        value = self.metadata.get(REQUEST_ID_METADATA_KEY)
        return str(value) if value is not None else None

    def ratio(self, defect: Union[str, DefectType]) -> float:
        """The ratio of one defect type (by key or :class:`DefectType`)."""
        key = defect.value if isinstance(defect, DefectType) else str(defect)
        return float(self.ratios.get(key, 0.0))

    def format_row(self) -> str:
        """The report as a Table-I-style row: ``ITD  UTD  SD`` ratios."""
        return "  ".join(
            f"{key.upper()}={self.ratios.get(key, 0.0):.3f}" for key in DEFECT_KEYS
        )

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"Diagnosed {self.num_cases} faulty case(s)",
            f"  ratios: {self.format_row()}",
            f"  dominant defect: {self.dominant_defect.upper()}",
        ]
        if self.metadata:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
            lines.append(f"  context: {pairs}")
        return "\n".join(lines)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> JsonDict:
        """The report as its ``v1`` wire document."""
        payload: JsonDict = {
            "schema": self.schema,
            "num_cases": int(self.num_cases),
            "ratios": {key: float(value) for key, value in self.ratios.items()},
            "counts": {key: int(value) for key, value in self.counts.items()},
            "dominant_defect": self.dominant_defect,
            "metadata": dict(self.metadata),
        }
        if self.context is not None:
            payload["context"] = {key: float(value) for key, value in self.context.items()}
        return payload

    def as_dict(self) -> JsonDict:
        """Alias of :meth:`to_dict` (matches ``DefectReport.as_dict``)."""
        return self.to_dict()

    @classmethod
    def from_dict(cls, payload: JsonDict, cache_state: Optional[str] = None) -> "DiagnosisReport":
        """Parse and validate a ``v1`` report document."""
        if not isinstance(payload, dict):
            raise ServeError("report document must be an object")
        _check_schema_version(payload, "report")
        unknown = sorted(set(payload) - set(REPORT_FIELDS))
        if unknown:
            raise ServeError(f"unknown report field(s): {', '.join(unknown)}")
        for required in ("num_cases", "ratios", "counts"):
            if required not in payload:
                raise ServeError(f"missing required report field {required!r}")
        ratios = payload["ratios"]
        counts = payload["counts"]
        if not isinstance(ratios, dict) or not isinstance(counts, dict):
            raise ServeError("'ratios' and 'counts' must be objects")
        if not ratios:
            # dominant_defect (and thus to_dict) reduces over the ratios; an
            # empty mapping must fail here, typed, not later in max().
            raise ServeError("'ratios' must be a non-empty object")
        for mapping in (ratios, counts):
            bad = sorted(set(mapping) - set(DEFECT_KEYS))
            if bad:
                raise ServeError(f"unknown defect key(s): {', '.join(bad)}")
        context = payload.get("context")
        if context is not None:
            if not isinstance(context, dict):
                raise ServeError("'context' must be an object when given")
            bad = sorted(set(context) - set(CONTEXT_KEYS))
            if bad:
                raise ServeError(f"unknown context key(s): {', '.join(bad)}")
        metadata = payload.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise ServeError("'metadata' must be an object when given")
        return cls(
            num_cases=int(payload["num_cases"]),  # type: ignore[call-overload]
            ratios={key: float(value) for key, value in ratios.items()},
            counts={key: int(value) for key, value in counts.items()},
            metadata=dict(metadata),
            context=(
                {key: float(value) for key, value in context.items()}
                if context is not None
                else None
            ),
            schema=str(payload.get("schema", SCHEMA_VERSION)),
            cache_state=cache_state,
        )

    # -- wire forms (delegated to the codec layer) ---------------------------------

    def encode(self, codec: Union[str, "object", None] = None) -> bytes:
        """This report as wire bytes under ``codec`` (name/instance; ``None`` → JSON)."""
        from .. import wire

        return wire.get_codec(codec).encode_report(self)  # type: ignore[arg-type]

    @classmethod
    def decode(
        cls,
        data: bytes,
        codec: Union[str, "object", None] = None,
        cache_state: Optional[str] = None,
    ) -> "DiagnosisReport":
        """Parse wire bytes produced by :meth:`encode` under the same codec."""
        from .. import wire

        return wire.get_codec(codec).decode_report(data, cache_state=cache_state)  # type: ignore[arg-type]

    # -- bridges to the core pipeline ----------------------------------------------

    @classmethod
    def from_defect_report(
        cls, report: object, cache_state: Optional[str] = None
    ) -> "DiagnosisReport":
        """Build the schema object from a :class:`~repro.core.DefectReport`.

        This is THE report-dict assembly of the library: ``DefectReport.as_dict``
        delegates here, so the service layer, the HTTP front ends, and the
        typed API cannot disagree on field names or defect-key spelling.
        """
        context: Optional[Dict[str, float]] = None
        report_context = getattr(report, "context", None)
        if report_context is not None:
            context = {key: float(getattr(report_context, key)) for key in CONTEXT_KEYS}
        ratios: Dict[DefectType, float] = getattr(report, "ratios")
        counts: Dict[DefectType, int] = getattr(report, "counts")
        return cls(
            num_cases=int(getattr(report, "num_cases")),
            ratios={defect.value: float(value) for defect, value in ratios.items()},
            counts={defect.value: int(value) for defect, value in counts.items()},
            metadata=dict(getattr(report, "metadata", {}) or {}),
            context=context,
            cache_state=cache_state,
        )

    def to_defect_report(self) -> object:
        """Rebuild a :class:`~repro.core.DefectReport` view (without per-case verdicts)."""
        from ..core.classifier import DefectReport, DiagnosisContext

        context = None
        if self.context is not None:
            context = DiagnosisContext(**{key: self.context[key] for key in self.context})
        return DefectReport(
            ratios={DefectType(key): float(value) for key, value in self.ratios.items()},
            counts={DefectType(key): int(value) for key, value in self.counts.items()},
            num_cases=int(self.num_cases),
            verdicts=[],
            context=context,
            metadata=dict(self.metadata),
        )


def batch_slices(total: int, batch_size: int) -> Iterable[slice]:
    """Slices covering ``range(total)`` in chunks of ``batch_size`` (streaming helper)."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    return (slice(start, min(start + batch_size, total)) for start in range(0, total, batch_size))
