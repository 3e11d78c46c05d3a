#!/usr/bin/env python3
"""One pipeline, three interchangeable backends (the repro.api tour).

Fits a small DeepMorph artifact, registers it, and then diagnoses the same
production batch through all three ``Diagnoser`` backends:

* ``LocalDiagnoser``   — embedded, no serving machinery;
* ``ServiceDiagnoser`` — in-process batched service;
* ``RemoteDiagnoser``  — HTTP client against an asyncio gateway.

Each request here is extracted alone, so the three reports are
bitwise-identical, which is the point: code written against the API moves
from a notebook to a service to a fleet without its numbers changing.  (A
served request co-batched with other traffic moves by about 3e-8 in
float32; see the README's dtype paragraph.)  The remote backend is then
repeated over the binary wire codec
(``DiagnoserConfig(wire_codec="binary")``) — raw array bytes instead of
JSON text on the wire.  Its body differs from the JSON one, so the
gateway's response cache misses and the server diagnoses it again; the
report must still be the same.  The script ends with the streaming
``diagnose_iter``, which bounds memory on production sets too large to hold.
It exits with status 1 when the reports differ.

    python examples/api_backends.py
"""

import sys
import tempfile

from repro import DeepMorph
from repro.api import DiagnoserConfig, LocalDiagnoser, RemoteDiagnoser, ServiceDiagnoser
from repro.data import SyntheticMNIST
from repro.defects import UnreliableTrainingData
from repro.models import LeNet
from repro.optim import Adam
from repro.serve import ArtifactRegistry, DiagnosisGateway, ReplicaPool
from repro.training import Trainer


def main() -> int:
    # ---------------------------------------------------------------- artifact
    generator = SyntheticMNIST()
    train_data, production = generator.splits(n_train_per_class=60, n_test_per_class=30, rng=0)
    injector = UnreliableTrainingData(source_class=3, target_class=5, fraction=0.45)
    corrupted, injection = injector.apply(train_data, rng=1)
    print(f"injected defect : {injection.description}")

    model = LeNet(input_shape=generator.input_shape, num_classes=10, rng=7)
    Trainer(model, Adam(model.parameters(), lr=0.01), rng=2).fit(
        corrupted, epochs=12, batch_size=32
    )
    morph = DeepMorph(rng=3).fit(model, corrupted)

    inputs, labels = production.arrays()
    config = DiagnoserConfig()

    with tempfile.TemporaryDirectory() as root:
        registry = ArtifactRegistry(root)
        registry.register("demo", morph)

        # ------------------------------------------------------------ backends
        local = LocalDiagnoser.from_registry(registry, "demo", config=config)
        reports = {"local": local.diagnose_arrays(inputs, labels)}

        with ServiceDiagnoser.from_registry(registry, config=config) as service:
            reports["service"] = service.diagnose_arrays(inputs, labels, model="demo")

        pool = ReplicaPool.from_registry(registry, num_replicas=2, **config.service_kwargs())
        gateway = DiagnosisGateway(pool, port=0).start()
        try:
            with RemoteDiagnoser(gateway.url, config=config, default_model="demo") as remote:
                reports["remote"] = remote.diagnose_arrays(inputs.tolist(), labels.tolist())
                print(f"remote cache    : {reports['remote'].cache_state}")

            # Binary wire codec: same request, same report, but the arrays
            # cross the wire as raw bytes instead of JSON text — the fast
            # choice for clients that already hold numpy batches.  The server
            # needs no flag: codecs are negotiated per request.  The response
            # cache keys on the raw body, so this is a miss and a second full
            # diagnosis, compared below with the JSON client's report.
            binary_config = config.with_overrides(wire_codec="binary")
            with RemoteDiagnoser(gateway.url, config=binary_config, default_model="demo") as remote:
                reports["binary"] = remote.diagnose_arrays(inputs, labels)
                print(f"binary cache    : {reports['binary'].cache_state} "
                      f"(another body than the JSON request's, diagnosed again)")
        finally:
            gateway.shutdown()
            pool.close()

        for backend, report in reports.items():
            print(f"[{backend:7s}] {report.format_row()}  "
                  f"->  dominant: {report.dominant_defect.upper()}")
        documents = [report.to_dict() for report in reports.values()]
        identical = all(document == documents[0] for document in documents)
        print(f"bitwise-identical across backends and codecs: {identical}")

        # ----------------------------------------------------------- streaming
        print("\nstreaming diagnose_iter (batches of 64 production cases):")
        for i, report in enumerate(local.diagnose_iter(production, batch_size=64)):
            print(f"  batch {i}: {report.num_cases:3d} faulty -> {report.format_row()}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
