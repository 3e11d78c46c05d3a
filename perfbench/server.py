"""Server launcher: a 2-replica ``DiagnosisGateway`` in its own process.

Run as ``python3 perfbench/server.py <registry-dir>`` with
``src`` on ``PYTHONPATH``.  Once the gateway is bound it prints
``READY <host> <port>`` and then obeys one command per stdin line, answering
``OK`` on stdout:

* ``trace on`` — wrap the layers' public calls on the objects built here;
* ``trace off`` — restore the originals;
* ``dump <path>`` — write the recorded spans to ``path`` and forget them;
* ``quit`` (or end of input) — shut the gateway and pool down and exit.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, install_core  # noqa: E402

#: Deployment knobs.  Hot entries must outlive a whole benchmark run.
REPLICAS = 2
RESPONSE_CACHE_TTL = 600.0


def install_serving(recorder: SpanRecorder, gateway, pool) -> None:
    from repro.serve import gateway as gateway_module
    from repro.serve.service import DiagnosisService
    from repro.wire.binary import BinaryCodec
    from repro.wire.codec import JsonCodec

    recorder.patch(gateway_module, "parse_request_head", "gateway.parse")
    recorder.patch(gateway._response_cache, "lookup_body", "gateway.cache_lookup")
    recorder.patch(pool, "acquire", "replicas.acquire")
    recorder.patch(DiagnosisService, "_validate_request", "api.validate")
    recorder.patch(JsonCodec, "decode_request", "wire.decode.json")
    recorder.patch(BinaryCodec, "decode_request", "wire.decode.binary")
    recorder.patch(JsonCodec, "encode_report", "wire.encode")
    recorder.patch(BinaryCodec, "encode_report", "wire.encode")
    for index, service in enumerate(pool.replicas):
        tag = str(index)
        recorder.patch(service, "diagnose", "service.diagnose", tag)
        recorder.patch(service.engine, "extract", "engine.extract", tag)
        recorder.patch(service.engine, "extract_fn", "engine.extract_fn", tag,
                       extra=lambda a, k: sum(int(g.shape[0]) for g in a[1]))


def main(registry: str) -> int:
    from repro.serve import DiagnosisGateway, ReplicaPool

    pool = ReplicaPool.from_registry(registry, num_replicas=REPLICAS)
    gateway = DiagnosisGateway(pool, port=0, response_cache_ttl=RESPONSE_CACHE_TTL).start()
    recorder = SpanRecorder()
    print(f"READY {gateway.host} {gateway.port}", flush=True)
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "trace":
                recorder.uninstall()
                if argument == "on":
                    install_core(recorder)
                    install_serving(recorder, gateway, pool)
            elif command == "dump":
                recorder.dump(argument)
                recorder.clear()
            elif command == "quit":
                break
            print("OK", flush=True)
    finally:
        gateway.shutdown()
        pool.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
