"""``repro-serve``: run the batched diagnosis service over HTTP.

Typical flow: train a model and fit DeepMorph (``repro-train`` + the library
API), register the fitted instance in an artifact registry directory, then::

    repro-serve --registry ./registry --port 8421

and POST production batches to ``/diagnose``.  Requests are served by the
asyncio gateway over ``--replicas`` service shards, with ``--max-inflight``
admission control and ``GET /metrics``.  The gateway's response cache answers
byte-identical repeats; every other request is extracted by a replica.
``--list`` prints the registry's contents without starting a server, and
``--bootstrap-demo`` fits and registers a small demo model first so the
quickstart works from an empty directory.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .. import obs
from ..api import DiagnoserConfig
from ..serve import (
    ArtifactRegistry,
    MetricsRegistry,
    ReplicaPool,
    serve_gateway_forever,
)
from .common import add_settings_arguments, run_main, settings_from_args

__all__ = ["main"]

DEMO_MODEL_NAME = "demo"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve DeepMorph diagnoses for registered models over JSON/HTTP.",
    )
    add_settings_arguments(parser)
    parser.add_argument("--registry", required=True, help="artifact registry directory")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8421, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--max-batch-cases", type=int, default=512,
        help="cap on the queued cases coalesced into one extraction batch",
    )
    parser.add_argument(
        "--replicas", type=int, default=2,
        help="service replicas behind the gateway (each with its own "
             "engine thread and resident models)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None,
        help="pool-wide in-flight request cap before the gateway sheds with 503 "
             "(default: replicas * max-queue-per-replica)",
    )
    parser.add_argument(
        "--max-queue-per-replica", type=int, default=8,
        help="in-flight requests one replica accepts before admission skips it",
    )
    parser.add_argument(
        "--inference-dtype", choices=("float32", "float64"), default=None,
        help="override the extraction precision of every loaded model "
             "(default: each artifact's own policy, float32 unless saved otherwise)",
    )
    parser.add_argument(
        "--monitor", action="store_true",
        help="enable online drift monitoring: sliding-window drift scores and "
             "alert states on GET /metrics and GET /monitor",
    )
    parser.add_argument(
        "--drift-threshold", type=float, default=2.0,
        help="warn-level normalized-divergence threshold of the drift "
             "detector (critical fires at twice this value)",
    )
    parser.add_argument(
        "--monitor-window", type=int, default=2048,
        help="served cases kept per model in the drift window",
    )
    parser.add_argument(
        "--monitor-update-cases", type=int, default=0,
        help="labeled cases buffered before an incremental partial_fit update "
             "is applied and snapshotted to the registry (0 = observe-only)",
    )
    parser.add_argument(
        "--wire-codec", choices=("json", "binary"), default="json",
        help="default response encoding when a client sends no Accept header; "
             "per-request Content-Type/Accept negotiation always works, and "
             "json stays the compatibility default",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_only",
        help="print the registry contents and exit",
    )
    parser.add_argument(
        "--bootstrap-demo", action="store_true",
        help=f"train + fit + register a {DEMO_MODEL_NAME!r} model before serving "
             f"(uses the experiment preset flags)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="enable request tracing: per-stage spans feed GET /debug/traces, "
             "per-stage latency histograms in GET /metrics, and structured "
             "JSON logs on stderr",
    )
    parser.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="also append every finished span to PATH as JSON lines "
             "(render with repro-trace; implies --trace)",
    )
    parser.add_argument("--verbose", action="store_true", help="log every HTTP request")
    return parser


def _bootstrap_demo(registry: ArtifactRegistry, args: argparse.Namespace) -> None:
    from ..experiments.runner import make_dataset, make_model, train_model

    settings = settings_from_args(args)
    print(f"bootstrapping demo artifact: {settings.model} on synthetic {settings.dataset} ...")
    _, train_data, _ = make_dataset(settings)
    model = make_model(settings)
    train_model(model, train_data, settings)
    morph = DiagnoserConfig(probe_epochs=settings.probe_epochs).build_deepmorph(
        rng=settings.seed
    )
    morph.fit(model, train_data)
    record = registry.register(
        DEMO_MODEL_NAME, morph,
        metadata={"dataset": settings.dataset, "model": settings.model, "seed": settings.seed},
    )
    print(f"registered {record.key} ({record.model_kind}, {record.num_classes} classes)")


def _main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    registry = ArtifactRegistry(args.registry)

    if args.bootstrap_demo:
        _bootstrap_demo(registry, args)

    if args.list_only:
        records = registry.records()
        if not records:
            print(f"registry {args.registry} is empty")
            return 0
        for record in records:
            print(f"{record.key:30s} kind={record.model_kind:10s} "
                  f"classes={record.num_classes}  {record.path}")
        return 0

    # One consolidated config object: the flags project onto the same
    # DiagnoserConfig every repro.api backend uses, so the served pipeline
    # and an embedded LocalDiagnoser run with identical knobs.
    config = DiagnoserConfig(
        max_batch_cases=args.max_batch_cases,
        inference_dtype=args.inference_dtype,
        wire_codec=args.wire_codec,
        monitor=args.monitor,
        monitor_window=args.monitor_window,
        drift_threshold=args.drift_threshold,
        monitor_update_cases=args.monitor_update_cases,
    )
    service_kwargs = config.service_kwargs()

    # Observability: one shared registry so the span-derived per-stage
    # histograms land next to the front end's own instruments at /metrics.
    front_end_metrics = MetricsRegistry()
    tracing = args.trace or args.trace_jsonl is not None
    if tracing:
        obs.configure(
            enabled=True,
            jsonl_path=args.trace_jsonl,
            metrics=front_end_metrics,
            logs=True,
        )
        sink = args.trace_jsonl or "in-memory ring (GET /debug/traces)"
        print(f"tracing enabled; spans -> {sink}")

    pool = ReplicaPool.from_registry(
        registry,
        num_replicas=args.replicas,
        max_queue_per_replica=args.max_queue_per_replica,
        max_inflight=args.max_inflight,
        **service_kwargs,
    )
    try:
        serve_gateway_forever(
            pool,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            metrics=front_end_metrics,
            default_codec=config.wire_codec,
        )
    finally:
        # serve_gateway_forever already drained; this is the idempotent
        # backstop for failures before the serve loop started.
        pool.shutdown()
        obs.get_tracer().flush()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point."""
    return run_main(_main, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
