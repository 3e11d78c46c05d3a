"""Per-layer metrics of a traced window: spans, ``/metrics`` deltas and ``/proc``."""

from __future__ import annotations

import bisect

from loadgen import median, tail
from spans import END, EXTRA, ID, LAYER_OF, LAYERS, NAME, START, TAG, format_table, layer_table


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def engine_waits(spans) -> dict:
    """``engine.extract`` span id -> seconds not spent in its own extraction.

    The extraction that answers a request runs on its replica's drain thread;
    it is the last ``engine.extract_fn`` span of the same replica that ended
    inside the request's ``engine.extract`` span.
    """
    ends = {}
    for record in spans:
        if record[NAME] == "engine.extract_fn":
            ends.setdefault(record[TAG], []).append((record[END], record[END] - record[START]))
    for values in ends.values():
        values.sort()
    waits = {}
    for record in spans:
        if record[NAME] != "engine.extract":
            continue
        duration = record[END] - record[START]
        values = ends.get(record[TAG], [])
        index = bisect.bisect_right(values, (record[END], float("inf"))) - 1
        work = values[index][1] if index >= 0 and values[index][0] >= record[START] else 0.0
        waits[record[ID]] = max(0.0, duration - work)
    return waits


def per_layer(spans, *, title: str, root: str, requests: int, library, bodies: list,
              counters: dict, cpu_ms_per_req: float, overhead_frac: float) -> dict:
    """The per-layer metrics of one traced window; prints its self-time table.

    ``bodies`` are the ``(body, content type)`` pairs the window sent, and
    ``counters`` the window's ``/metrics`` counter deltas (empty offline).
    """
    waits = engine_waits(spans)
    rows = layer_table(spans, waits)
    print(format_table(rows, title))
    by = {row["span"]: row for row in rows}

    def incl(name):
        return by[name]["incl_ms_total"] if name in by else 0.0

    def self_ms(name):
        return by[name]["self_ms_total"] if name in by else 0.0

    def calls(name):
        return by[name]["count"] if name in by else 0

    def extras(name):
        return [r[EXTRA] for r in spans if r[NAME] == name]

    faulty = sum(extras("specifics.batch"))
    submitted = sum(extras("footprint.from_arrays"))
    nn_bytes = [e[1] for e in extras("patterns.nn_typicality")]
    members = [
        0 if p.member_trajectories is None else p.member_trajectories.shape[0]
        for p in library.patterns.values()
    ]
    root_ms = sum(r[END] - r[START] for r in spans if r[NAME] == root) * 1e3
    wait_ms = sorted(w * 1e3 for w in waits.values())
    sizes = {"json": [], "binary": []}
    for body, content_type in bodies:
        sizes["binary" if "binary" in content_type else "json"].append(len(body))
    fp_hits = counters.get("cache.hits_total", 0.0)
    fp_misses = counters.get("cache.misses_total", 0.0)
    resp_hits = counters.get("gateway.response_cache_hits_total", 0.0)
    resp_misses = counters.get("gateway.response_cache_misses_total", 0.0)
    assigned = counters.get("_assigned", [])

    out = {
        "patterns.matches_ms": (ratio(incl("patterns.matches"), calls("patterns.matches")), "ms"),
        "patterns.matches_ms_per_faulty_case": (ratio(incl("patterns.matches"), faulty), "ms"),
        "patterns.nn_typicality_ms": (
            ratio(incl("patterns.nn_typicality"), calls("patterns.nn_typicality")), "ms"),
        "patterns.nn_typicality_ms_per_faulty_case": (
            ratio(incl("patterns.nn_typicality"), faulty), "ms"),
        "patterns.js_bytes_per_call": (ratio(sum(nn_bytes), len(nn_bytes)), "bytes"),
        "patterns.members": (ratio(sum(members), len(members)), "count"),
        "specifics.self_ms": (ratio(self_ms("specifics.batch"), calls("specifics.batch")), "ms"),
        "specifics.faulty_ratio": (ratio(faulty, submitted), "ratio"),
        "specifics.share_of_self": (
            ratio(incl("specifics.batch"), sum(row["self_ms_total"] for row in rows)), "ratio"),
        "footprint.from_arrays_us_per_case": (
            ratio(incl("footprint.from_arrays") * 1e3, submitted), "us"),
        "classifier.ms": (ratio(incl("classifier.build_context") + incl("classifier.aggregate"),
                                calls("classifier.aggregate")), "ms"),
        "extract.ms_per_case": (ratio(incl("extract.coalesced"), sum(extras("extract.coalesced"))),
                                "ms"),
        "extract.probe_share": (ratio(incl("extract.probe"), incl("extract.coalesced")), "ratio"),
        "engine.cases_per_batch": (ratio(counters.get("engine.cases_extracted_total", 0.0),
                                         counters.get("engine.batches_total", 0.0)), "cases"),
        "engine.wait_ms_p50": (median(wait_ms), "ms"),
        "engine.wait_ms_tail": (tail(wait_ms)[1], "ms"),
        "engine.extract_ms_per_case": (
            ratio(incl("engine.extract_fn"), sum(extras("engine.extract_fn"))), "ms"),
        "fpcache.hit_ratio": (ratio(fp_hits, fp_hits + fp_misses), "ratio"),
        "fpcache.evictions": (counters.get("cache.evictions_total", 0.0), "count"),
        "gateway.resp_cache_hit_ratio": (ratio(resp_hits, resp_hits + resp_misses), "ratio"),
        "gateway.shed": (counters.get("gateway.shed_total", 0.0), "count"),
        "wire.decode_ms.json": (ratio(incl("wire.decode.json"), calls("wire.decode.json")), "ms"),
        "wire.decode_ms.binary": (
            ratio(incl("wire.decode.binary"), calls("wire.decode.binary")), "ms"),
        "wire.encode_ms": (ratio(incl("wire.encode"), calls("wire.encode")), "ms"),
        "wire.req_bytes.json": (ratio(sum(sizes["json"]), len(sizes["json"])), "bytes"),
        "wire.req_bytes.binary": (ratio(sum(sizes["binary"]), len(sizes["binary"])), "bytes"),
        "replicas.assigned_max_over_min": (
            ratio(max(assigned, default=0.0), min(assigned, default=0.0)), "ratio"),
        "pool.shed": (counters.get("pool.shed_total", 0.0), "count"),
        "service.diagnose_ms_p50": (median(
            [(r[END] - r[START]) * 1e3 for r in spans if r[NAME] == "service.diagnose"]), "ms"),
        "service.errors": (counters.get("service.errors_total", 0.0), "count"),
        "api.validate_ms": (ratio(incl("api.validate"), calls("api.validate")), "ms"),
        "api.report_ms": (ratio(incl("api.report"), calls("api.report")), "ms"),
        "server.cpu_ms_per_req": (cpu_ms_per_req, "ms"),
        # The share of the root span's time its descendant layers account for.
        "trace.coverage": (1.0 - ratio(self_ms(root), root_ms) if root_ms else 0.0, "ratio"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    metrics = {name: metric(value, unit) for name, (value, unit) in out.items()}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for row in rows:
        layer_self[LAYER_OF[row["span"]]] += row["self_ms_total"]
    for layer, total in layer_self.items():
        metrics[f"layer_ms.{layer}"] = metric(ratio(total, requests), "ms")
    return metrics


def closed_rate(blocks) -> float:
    """Closed-loop calls per second over all of a window's closed-loop blocks."""
    return sum(b.count for b in blocks) / sum(b.wall for b in blocks)
