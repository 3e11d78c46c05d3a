"""repro.serve — a batched, scale-out diagnosis service over DeepMorph.

The paper's pipeline runs one-shot: ``fit`` then ``diagnose``.  This package
turns it into a long-lived service for production traffic:

* :mod:`~repro.serve.registry` — persist/load fitted DeepMorph artifacts by
  name and version on top of :mod:`repro.serialize`.
* :mod:`~repro.serve.batching` — coalesce concurrent diagnosis requests into
  single vectorized instrumented passes.
* :mod:`~repro.serve.metrics` — counters/gauges/histograms shared by every
  layer and exposed at ``GET /metrics``.
* :mod:`~repro.serve.service` — :class:`DiagnosisService`, the facade tying
  the pieces together.
* :mod:`~repro.serve.replicas` — :class:`ReplicaPool`: N service replicas
  with queue-depth-aware routing and admission control.
* :mod:`~repro.serve.gateway` — :class:`DiagnosisGateway`, the asyncio HTTP
  front end over a replica pool (what ``repro-serve`` runs).
* :mod:`~repro.serve.cache` — the gateway's response cache (whole-payload
  repeats are answered there, before any replica) over a thread-safe LRU.

There is one way to ask for a diagnosis: :meth:`DiagnosisService.diagnose`,
served over HTTP as ``POST /diagnose``.  It validates the batch, honours the
caller's deadline and answers synchronously.  Stream a production set too
large for one request in chunks with :meth:`repro.api.Diagnoser.diagnose_iter`.

Quickstart::

    from repro.serve import ArtifactRegistry, DiagnosisService

    registry = ArtifactRegistry("./registry")
    registry.register("prod-lenet", fitted_morph)

    with DiagnosisService(registry) as service:
        report = service.diagnose("prod-lenet", inputs, labels)
        print(report.summary())

Over HTTP::

    from repro.serve import DiagnosisGateway, ReplicaPool

    pool = ReplicaPool.from_registry("./registry", num_replicas=4)
    gateway = DiagnosisGateway(pool, port=8421).start()

An embedder with a single service wraps it in a one-replica pool:
``DiagnosisGateway(ReplicaPool(lambda _: service, num_replicas=1))``.
"""

from .batching import BatchingEngine, ExtractionRequest
from .cache import LRUCache
from .gateway import DiagnosisGateway, parse_request_head, serve_gateway_forever
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, merge_counters
from .registry import ArtifactRecord, ArtifactRegistry
from .replicas import ReplicaLease, ReplicaPool
from .service import DiagnosisService, LoadedModel

__all__ = [
    "ArtifactRecord",
    "ArtifactRegistry",
    "BatchingEngine",
    "Counter",
    "DiagnosisGateway",
    "DiagnosisService",
    "ExtractionRequest",
    "Gauge",
    "Histogram",
    "LRUCache",
    "LoadedModel",
    "MetricsRegistry",
    "ReplicaLease",
    "ReplicaPool",
    "merge_counters",
    "parse_request_head",
    "serve_gateway_forever",
]
