"""``repro-trace``: render JSONL trace files exported by :mod:`repro.obs`.

Given a file produced by ``repro-serve --trace-jsonl`` (or a
:class:`~repro.obs.JsonlSpanExporter`), prints

* a per-stage **aggregate table** — count, total/mean/max wall time, and CPU
  time per span name — answering "where does a request's time go" across the
  whole file, and
* per-trace **span trees** (``--tree``) — each trace's spans indented under
  their parents with durations and attributes, answering it for one request.

Typical flow when chasing a latency regression::

    repro-serve --registry ./registry --trace-jsonl spans.jsonl
    # ... send traffic ...
    repro-trace spans.jsonl                 # aggregate: which stage dominates
    repro-trace spans.jsonl --tree --slowest 3   # drill into the outliers
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.export import load_jsonl
from .common import run_main

__all__ = ["main", "render_aggregate", "render_trace_tree"]

SpanRecord = Dict[str, object]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Render span trees and per-stage timing tables from a JSONL trace file.",
    )
    parser.add_argument("path", help="JSONL trace file (one span object per line)")
    parser.add_argument(
        "--tree", action="store_true",
        help="print per-trace span trees in addition to the aggregate table",
    )
    parser.add_argument(
        "--trace-id", default=None,
        help="print only the span tree of this trace id (implies --tree)",
    )
    parser.add_argument(
        "--slowest", type=int, default=None, metavar="N",
        help="with --tree, print only the N slowest traces (by root duration)",
    )
    parser.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="maximum traces printed with --tree (default 20)",
    )
    return parser


def _fmt_seconds(value: Optional[object]) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    if value >= 1.0:
        return f"{value:8.3f}s "
    return f"{value * 1e3:8.3f}ms"


def render_aggregate(records: Sequence[SpanRecord]) -> str:
    """The per-stage table: one row per span name, sorted by total wall time."""
    stages: Dict[str, Dict[str, float]] = {}
    for record in records:
        name = record.get("name")
        duration = record.get("duration_seconds")
        if not isinstance(name, str) or not isinstance(duration, (int, float)):
            continue
        stage = stages.setdefault(
            name, {"count": 0, "total": 0.0, "max": 0.0, "cpu": 0.0, "errors": 0}
        )
        stage["count"] += 1
        stage["total"] += float(duration)
        stage["max"] = max(stage["max"], float(duration))
        cpu = record.get("cpu_seconds")
        if isinstance(cpu, (int, float)):
            stage["cpu"] += float(cpu)
        if record.get("status") == "error":
            stage["errors"] += 1

    name_width = max([len(name) for name in stages] + [5])
    lines = [
        f"{'stage':<{name_width}}  {'count':>6}  {'total':>10}  {'mean':>10}  "
        f"{'max':>10}  {'cpu':>10}  {'errors':>6}",
    ]
    for name, stage in sorted(stages.items(), key=lambda item: -item[1]["total"]):
        count = int(stage["count"])
        lines.append(
            f"{name:<{name_width}}  {count:>6}  {_fmt_seconds(stage['total'])}  "
            f"{_fmt_seconds(stage['total'] / count)}  {_fmt_seconds(stage['max'])}  "
            f"{_fmt_seconds(stage['cpu'])}  {int(stage['errors']):>6}"
        )
    return "\n".join(lines)


def _group_traces(records: Sequence[SpanRecord]) -> "Dict[str, List[SpanRecord]]":
    traces: Dict[str, List[SpanRecord]] = {}
    for record in records:
        trace_id = record.get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            traces.setdefault(trace_id, []).append(record)
    return traces


def _trace_root(spans: Sequence[SpanRecord]) -> SpanRecord:
    """The root-most span: no parent, or a parent not exported in this file."""
    span_ids = {span.get("span_id") for span in spans}
    for span in spans:
        if span.get("parent_id") is None:
            return span
    for span in spans:
        if span.get("parent_id") not in span_ids:
            return span
    return spans[0]


def render_trace_tree(trace_id: str, spans: Sequence[SpanRecord]) -> str:
    """One trace's spans as an indented tree with durations and attributes."""
    children: Dict[object, List[SpanRecord]] = {}
    span_ids = {span.get("span_id") for span in spans}
    root = _trace_root(spans)
    for span in spans:
        parent = span.get("parent_id")
        if span is not root and parent in span_ids:
            children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: float(span.get("start_monotonic") or 0.0))

    request_id = (root.get("attributes") or {}).get("request_id")  # type: ignore[union-attr]
    header = f"trace {trace_id}"
    if request_id:
        header += f"  request_id={request_id}"
    lines = [header]

    def emit(span: SpanRecord, depth: int) -> None:
        attributes = span.get("attributes") or {}
        shown = {
            key: value
            for key, value in attributes.items()  # type: ignore[union-attr]
            if key != "request_id"
        }
        attr_text = (
            " " + " ".join(f"{key}={value}" for key, value in sorted(shown.items()))
            if shown
            else ""
        )
        status = span.get("status")
        marker = " !" if status == "error" else ""
        lines.append(
            f"{'  ' * depth}{span.get('name')}  "
            f"{_fmt_seconds(span.get('duration_seconds')).strip()}{marker}{attr_text}"
        )
        if status == "error" and span.get("error"):
            lines.append(f"{'  ' * (depth + 1)}error: {span.get('error')}")
        for child in children.get(span.get("span_id"), []):
            emit(child, depth + 1)

    emit(root, 1)
    # Spans whose parents are missing from the file (dropped lines) still
    # deserve printing rather than silent omission.
    reachable = {id(root)}

    def collect(span: SpanRecord) -> None:
        for child in children.get(span.get("span_id"), []):
            reachable.add(id(child))
            collect(child)

    collect(root)
    orphans = [span for span in spans if id(span) not in reachable]
    for orphan in orphans:
        lines.append(
            f"  (orphan) {orphan.get('name')}  "
            f"{_fmt_seconds(orphan.get('duration_seconds')).strip()}"
        )
    return "\n".join(lines)


def _root_duration(spans: Sequence[SpanRecord]) -> float:
    duration = _trace_root(spans).get("duration_seconds")
    return float(duration) if isinstance(duration, (int, float)) else 0.0


def _main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    records = load_jsonl(args.path)
    if not records:
        print(f"no spans found in {args.path}")
        return 1
    traces = _group_traces(records)
    print(f"{len(records)} span(s) across {len(traces)} trace(s) in {args.path}")
    print()
    print(render_aggregate(records))

    if args.trace_id is not None:
        spans = traces.get(args.trace_id)
        if spans is None:
            print(f"\nunknown trace id {args.trace_id!r}")
            return 1
        print()
        print(render_trace_tree(args.trace_id, spans))
        return 0

    if args.tree:
        ordered: List[Tuple[str, List[SpanRecord]]] = sorted(
            traces.items(), key=lambda item: -_root_duration(item[1])
        )
        limit = args.slowest if args.slowest is not None else args.limit
        shown = ordered[: max(0, int(limit))]
        for trace_id, spans in shown:
            print()
            print(render_trace_tree(trace_id, spans))
        if len(ordered) > len(shown):
            print(f"\n... {len(ordered) - len(shown)} more trace(s); raise --limit to see them")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point."""
    return run_main(_main, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
