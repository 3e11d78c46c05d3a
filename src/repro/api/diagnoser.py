"""The ``Diagnoser`` interface and its embedded backends.

One abstract surface — ``diagnose(DiagnosisRequest) -> DiagnosisReport`` plus
array/dataset/streaming conveniences — with interchangeable implementations:

* :class:`LocalDiagnoser` — wraps one fitted :class:`~repro.core.DeepMorph`
  (optionally loaded from an artifact registry); zero serving machinery.
* :class:`ServiceDiagnoser` — routes through an in-process
  :class:`~repro.serve.DiagnosisService` or
  :class:`~repro.serve.ReplicaPool` (batching engine, replica sharding).
* :class:`~repro.api.remote.RemoteDiagnoser` — HTTP client for a
  ``repro-serve`` gateway (its own module; no server-side imports here).

All three funnel requests through the shared ``v1`` schema and the same
array validation, and extraction runs through the same coalesced code path
with the same chunk size, so a request that is extracted alone gets a
**bitwise-identical** report from each backend.  A served request that shares
an extraction batch with other traffic can move by about 3e-8 in float32 (see
the dtype paragraph of the README); ``inference_dtype="float64"`` shrinks that
to ~1e-16.
"""

from __future__ import annotations

import abc
import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import TracebackType
from typing import Iterator, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..core.classifier import DefectReport
from ..core.diagnosis import DeepMorph, _dataset_batches
from ..core.footprint import FootprintExtractor
from ..core.specifics import SpecificsBatch, compute_specifics_batch
from ..data.dataset import Dataset
from ..exceptions import (
    ArtifactNotFoundError,
    ConfigurationError,
    NoFaultyCasesError,
    NotFittedError,
    SchemaVersionError,
)
from ..nn.dtype import resolve_dtype
from ..obs import bind_request_id, current_request_id, get_tracer, new_request_id, unbind_request_id
from ..obs import span as obs_span
from ..serve.registry import ArtifactRegistry
from ..serve.replicas import ReplicaPool
from ..serve.service import DiagnosisService
from .config import DiagnoserConfig
from .schema import (
    SCHEMA_VERSION,
    ArrayLike,
    DiagnosisReport,
    DiagnosisRequest,
    Metadata,
    batch_slices,
)

__all__ = ["Diagnoser", "LocalDiagnoser", "ServiceDiagnoser"]

RegistryLike = Union[str, Path, ArtifactRegistry]


class Diagnoser(abc.ABC):
    """A backend that turns :class:`DiagnosisRequest` into :class:`DiagnosisReport`.

    Subclasses implement :meth:`_diagnose`; the base class owns schema-version
    enforcement, the array/dataset conveniences, and the streaming iterator,
    so every backend behaves identically at the surface.
    """

    #: Model name used when a convenience call omits ``model=``.
    default_model: Optional[str] = None

    # -- the one entry point -----------------------------------------------------

    def diagnose(self, request: DiagnosisRequest) -> DiagnosisReport:
        """Diagnose one request (the single abstract operation of the API).

        With tracing enabled (see :mod:`repro.obs`) the call runs under a
        client-side span and the request is stamped with a request id in its
        metadata, so the id travels through any backend — including the wire
        to a remote gateway — and back in the report.  With tracing disabled
        (the default) the request passes through **unmodified**, so a request
        extracted alone keeps bitwise report parity across backends.
        """
        if request.schema != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"unsupported request schema version {request.schema!r}; this library "
                f"speaks {SCHEMA_VERSION!r}"
            )
        tracer = get_tracer()
        if not tracer.enabled:
            return self._diagnose(request)
        request_id = request.request_id or current_request_id() or new_request_id()
        request = request.with_request_id(request_id)
        token = bind_request_id(request_id)
        try:
            with tracer.span(
                "diagnoser.request",
                {"backend": type(self).__name__, "model": str(request.model)},
            ):
                return self._diagnose(request)
        finally:
            unbind_request_id(token)

    @abc.abstractmethod
    def _diagnose(self, request: DiagnosisRequest) -> DiagnosisReport:
        """Backend-specific diagnosis of an already schema-checked request."""

    def diagnose_many(self, requests: Sequence[DiagnosisRequest]) -> List[DiagnosisReport]:
        """Diagnose several independent requests, reports in request order.

        A sequential loop over :meth:`diagnose` on every backend, so each
        request keeps the contract of a single call (on ``RemoteDiagnoser``:
        the circuit breaker, retries and deadline), and the first failing
        request raises its typed exception.
        """
        return [self.diagnose(request) for request in requests]

    # -- conveniences -------------------------------------------------------------

    def _resolve_model(self, model: Optional[str]) -> str:
        name = model if model is not None else self.default_model
        if name is None:
            raise ConfigurationError(
                "no model name given and this diagnoser has no default_model"
            )
        return name

    def diagnose_arrays(
        self,
        inputs: ArrayLike,
        labels: ArrayLike,
        model: Optional[str] = None,
        version: Optional[str] = None,
        metadata: Optional[Metadata] = None,
    ) -> DiagnosisReport:
        """Diagnose a labeled production batch given as plain arrays/lists."""
        return self.diagnose(DiagnosisRequest(
            model=self._resolve_model(model),
            inputs=inputs,
            labels=labels,
            version=version,
            metadata=metadata,
        ))

    def diagnose_dataset(
        self,
        dataset: Dataset,
        model: Optional[str] = None,
        version: Optional[str] = None,
        metadata: Optional[Metadata] = None,
    ) -> DiagnosisReport:
        """Diagnose a whole production dataset (the paper's end-to-end scenario).

        The full set is submitted; the backend's misclassification filter
        selects the faulty cases, exactly as the serving layer does for HTTP
        batches.
        """
        inputs, labels = _dataset_arrays(dataset)
        return self.diagnose_arrays(
            inputs, labels, model=model, version=version, metadata=metadata
        )

    def diagnose_iter(
        self,
        inputs: Union[Dataset, ArrayLike],
        labels: Optional[ArrayLike] = None,
        batch_size: int = 256,
        model: Optional[str] = None,
        version: Optional[str] = None,
        metadata: Optional[Metadata] = None,
    ) -> Iterator[DiagnosisReport]:
        """Stream per-batch reports over a production set too large to hold.

        ``inputs`` may be a :class:`~repro.data.Dataset` (labels come from
        the dataset) or an array with a matching ``labels`` array.  Batches
        of ``batch_size`` cases are diagnosed independently and their reports
        yielded as they complete; batches in which the model misclassifies
        nothing are skipped (there is no defect evidence to report).  Memory
        stays bounded by one batch regardless of the production set's size.
        """
        for batch_inputs, batch_labels in _iter_batches(inputs, labels, batch_size):
            try:
                yield self.diagnose_arrays(
                    batch_inputs,
                    batch_labels,
                    model=model,
                    version=version,
                    metadata=metadata,
                )
            except NoFaultyCasesError:
                continue

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (idempotent; a no-op for stateless backends)."""

    def __enter__(self) -> "Diagnoser":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def _dataset_arrays(dataset: Dataset) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize a dataset's ``(inputs, labels)`` arrays."""
    arrays = getattr(dataset, "arrays", None)
    if callable(arrays):
        inputs, labels = arrays()
        return np.asarray(inputs), np.asarray(labels)
    batches = list(_dataset_batches(dataset, batch_size=max(1, len(dataset))))
    return (
        np.concatenate([b for b, _ in batches], axis=0),
        np.concatenate([lab for _, lab in batches], axis=0),
    )


def _iter_batches(
    inputs: Union[Dataset, ArrayLike],
    labels: Optional[ArrayLike],
    batch_size: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    if isinstance(inputs, Dataset):
        if labels is not None:
            raise ConfigurationError(
                "pass either a Dataset or (inputs, labels) arrays, not both"
            )
        yield from _dataset_batches(inputs, batch_size=int(batch_size))
        return
    if labels is None:
        raise ConfigurationError("labels are required when inputs is not a Dataset")
    inputs_arr = np.asarray(inputs)
    labels_arr = np.asarray(labels)
    for piece in batch_slices(int(inputs_arr.shape[0]), int(batch_size)):
        yield inputs_arr[piece], labels_arr[piece]


class LocalDiagnoser(Diagnoser):
    """Embedded backend over one fitted :class:`~repro.core.DeepMorph`.

    Runs the exact pipeline the serving layer runs — shared request
    validation, the coalesced extraction path with the configured chunk
    size, the batched specifics/scoring core, and the same metadata shape —
    so a report from this backend is bitwise-identical to one served by
    :class:`ServiceDiagnoser` or a remote gateway for the same artifact when
    the served request is extracted alone (co-batched, it moves by about
    3e-8 in float32).

    A request of two or more extraction chunks
    (``config.extraction_batch_size`` rows each) is cut into
    ``min(usable cores, chunks)`` contiguous, chunk-aligned row shards.  The
    shards' extraction and specifics run at once, the first on the calling
    thread and the others on a call-scoped thread pool, and the context and
    report are built once from the shards' specifics joined in row order.
    Extraction runs every probe head per chunk, so the report does not
    depend on the core count: it is bitwise the one-shard report.  A
    one-chunk request runs inline.

    Parameters
    ----------
    morph:
        A fitted DeepMorph instance.
    name, version:
        The identity reported in (and checked against) request/report
        metadata; :meth:`from_registry` fills these from the registry.
    config:
        Shared :class:`DiagnoserConfig`; only the extraction knobs apply here.
    """

    def __init__(
        self,
        morph: DeepMorph,
        name: str = "local",
        version: str = "v1",
        config: Optional[DiagnoserConfig] = None,
    ) -> None:
        if not morph.is_fitted:
            raise NotFittedError(
                "LocalDiagnoser requires a fitted DeepMorph; call fit(model, train_data) first"
            )
        self.config = config if config is not None else DiagnoserConfig()
        if self.config.inference_dtype is not None:
            # The config is the single source of pipeline knobs: an explicit
            # dtype applies however the diagnoser was constructed (wrapped
            # instance or from_registry), matching DiagnosisService.
            morph.instrumented.inference_dtype = resolve_dtype(self.config.inference_dtype)
        self.morph = morph
        self.default_model = str(name)
        self.version = str(version)
        self._extractor = FootprintExtractor(
            morph.instrumented, batch_size=self.config.extraction_batch_size
        )
        # Fixed once fitted — precomputed exactly like the service's LoadedModel.
        self._pattern_overlap = morph.patterns.pattern_overlap()
        self._feature_quality = morph.patterns.feature_quality()
        self._training_inconsistency = morph.patterns.training_inconsistency()

    @classmethod
    def from_registry(
        cls,
        registry: RegistryLike,
        name: str,
        version: Optional[str] = None,
        config: Optional[DiagnoserConfig] = None,
    ) -> "LocalDiagnoser":
        """Load a registered artifact and serve it embedded.

        ``registry`` may be a path or an :class:`~repro.serve.ArtifactRegistry`;
        ``version=None`` resolves to the latest, mirroring the serving layer.
        """
        registry = (
            registry if isinstance(registry, ArtifactRegistry) else ArtifactRegistry(registry)
        )
        resolved = registry.resolve(name, version)
        morph = registry.load(name, resolved)
        return cls(morph, name=name, version=resolved, config=config)

    def _check_identity(self, request: DiagnosisRequest) -> None:
        if request.model != self.default_model:
            raise ArtifactNotFoundError(request.model)
        if request.version is not None and request.version != self.version:
            raise ArtifactNotFoundError(f"{request.model}@{request.version}")

    def _diagnose(self, request: DiagnosisRequest) -> DiagnosisReport:
        self._check_identity(request)
        inputs, labels = request.arrays(num_classes=self.morph.model.num_classes)
        shards = _row_shards(inputs.shape[0], self._extractor.batch_size, _usable_cores())
        if len(shards) == 1:
            specifics = self._faulty_specifics(inputs, labels)
        else:
            specifics = self._sharded_specifics(inputs, labels, shards)
        if not len(specifics):
            raise NoFaultyCasesError(
                "none of the supplied cases is misclassified by the model; nothing to diagnose"
            )
        context = self.morph.case_classifier.build_context(
            specifics,
            num_classes=self.morph.model.num_classes,
            pattern_overlap=self._pattern_overlap,
            feature_quality=self._feature_quality,
            training_inconsistency=self._training_inconsistency,
        )
        meta: Metadata = {
            "num_production_cases": int(inputs.shape[0]),
            "model": self.default_model,
            "version": self.version,
        }
        meta.update(request.metadata or {})
        report: DefectReport = self.morph.case_classifier.aggregate(
            specifics, context=context, metadata=meta
        )
        return DiagnosisReport.from_defect_report(report)

    def _faulty_specifics(self, inputs: np.ndarray, labels: np.ndarray) -> SpecificsBatch:
        """Extract one shard's rows and derive the specifics of its misclassified cases."""
        with obs_span("diagnoser.shard", {"num_cases": int(inputs.shape[0])}):
            # Same coalesced-extraction entry point the batching engine uses, so
            # the arrays (and everything derived from them) match the served path.
            (trajectories, final_probs), = self._extractor.extract_coalesced([inputs])
            faulty = self._extractor.from_arrays(trajectories, final_probs, labels)
            return compute_specifics_batch(faulty.misclassified(), self.morph.patterns)

    def _sharded_specifics(
        self, inputs: np.ndarray, labels: np.ndarray, shards: List[slice]
    ) -> SpecificsBatch:
        """:meth:`_faulty_specifics` of all row shards at once, joined in row order.

        The calling thread runs the first shard and a pool that lives for the
        call runs the others, one thread each; a thread fewer also means one
        allocator arena and BLAS buffer fewer at the memory peak.  A chunk's
        distributions depend on its rows alone and a case's specifics on its
        footprint alone, so the join is bitwise the one-shard result.  What
        the shards share is settled before the fan-out: the model's eval mode
        (each extraction would otherwise toggle it) and the lazily built
        pattern index.  A pool shard runs in its own copy of the caller's
        context, so its spans join the request's trace.  Every shard finishes
        before the first failure, in row order, is raised.
        """
        model = self._extractor.instrumented.model
        was_training = model.training
        model.eval()
        self.morph.patterns._batch_index()
        try:
            with ThreadPoolExecutor(max_workers=len(shards) - 1) as pool:
                futures = [
                    pool.submit(
                        contextvars.copy_context().run,
                        self._faulty_specifics, inputs[rows], labels[rows],
                    )
                    for rows in shards[1:]
                ]
                first = self._faulty_specifics(inputs[shards[0]], labels[shards[0]])
        finally:
            model.train(was_training)
        return SpecificsBatch.concatenate([first] + [future.result() for future in futures])


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_shards(rows: int, chunk: int, cores: int) -> List[slice]:
    """``min(cores, chunks)`` contiguous row ranges that start on chunk boundaries.

    Shard sizes differ by at most one chunk; the later shards take the extra
    chunks, because the last one ends with the (possibly short) last chunk.
    """
    chunks = -(-rows // chunk)
    count = max(1, min(cores, chunks))
    per_shard, extra = divmod(chunks, count)
    shards, start = [], 0
    for index in range(count):
        stop = start + (per_shard + (index >= count - extra)) * chunk
        shards.append(slice(start, min(stop, rows)))
        start = stop
    return shards


class ServiceDiagnoser(Diagnoser):
    """In-process backend over a :class:`DiagnosisService` or :class:`ReplicaPool`.

    Wrap an existing service/pool (left open on :meth:`close`), or build an
    owned one from a registry with :meth:`from_registry` (closed with the
    diagnoser).
    """

    def __init__(
        self,
        service: Union[DiagnosisService, ReplicaPool],
        default_model: Optional[str] = None,
        owns_service: bool = False,
    ) -> None:
        self._service = service
        self.default_model = default_model
        self._owns_service = bool(owns_service)

    @classmethod
    def from_registry(
        cls,
        registry: RegistryLike,
        config: Optional[DiagnoserConfig] = None,
        default_model: Optional[str] = None,
        replicas: int = 1,
    ) -> "ServiceDiagnoser":
        """Build an owned service (``replicas == 1``) or replica pool over a registry."""
        config = config if config is not None else DiagnoserConfig()
        if int(replicas) < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        backend: Union[DiagnosisService, ReplicaPool]
        if int(replicas) == 1:
            backend = DiagnosisService(registry, **config.service_kwargs())  # type: ignore[arg-type]
        else:
            backend = ReplicaPool.from_registry(
                registry, num_replicas=int(replicas), **config.service_kwargs()
            )
        return cls(backend, default_model=default_model, owns_service=True)

    @property
    def service(self) -> Union[DiagnosisService, ReplicaPool]:
        """The wrapped service or pool (for stats/metrics drill-down)."""
        return self._service

    def _diagnose(self, request: DiagnosisRequest) -> DiagnosisReport:
        report = self._service.diagnose(
            self._resolve_model(request.model),
            request.inputs,
            request.labels,
            version=request.version,
            metadata=request.metadata,
        )
        return DiagnosisReport.from_defect_report(report)

    def close(self) -> None:
        if self._owns_service:
            self._service.close()
