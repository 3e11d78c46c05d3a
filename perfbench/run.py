"""Benchmark of DeepMorph diagnosis: offline and served, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload offline-lenet --seed 1 --seconds 20 --trace 0

Workloads, rates, ladders and SLOs live in ``perfbench/workloads.json``, with
phase lengths for a run of ``run_seconds`` (``BENCHMARK.json``); other
``--seconds`` scale them.  A run loads the target model (stored weights, see
``models.py``), draws its payloads from ``--seed``, sets the system up
several times (timing each set-up), then measures blocks of a closed loop
alternating with open-loop blocks at the fixed ``low`` and ``high`` rates,
checks every output, and prints one JSON line last.  ``--trace 0`` reports
the end-to-end metrics.  ``--trace 1`` first repeats the blocks untraced
together with the rate ladder, then runs the blocks again with every layer
traced, prints the per-layer self-time table and reports the per-layer
metrics.

``offline-lenet`` calls an in-process ``LocalDiagnoser``; the gateway
workloads drive a 2-replica ``DiagnosisGateway`` that ``perfbench/server.py``
runs in its own process, over at most ``nproc`` keep-alive connections.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# One BLAS thread per process, children included: the gateway's two replicas
# (or the one offline caller) use the two cores, and no BLAS worker threads
# spin against them.  It made a 1024-case diagnosis steadier in a tight loop.
# Set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from layers import metric  # noqa: E402
from server import REPLICAS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = json.loads((HERE / "workloads.json").read_text())
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
PROBE_EPOCHS = 8  # the quick preset's probe budget
#: Each run measures this many blocks of [closed loop, low rate, high rate],
#: and a traced run this many passes up the rate ladder.
BLOCKS = 5
LADDER_PASSES = 2
RATIO_TOLERANCE = 1e-6


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def reports_agree(got, want) -> bool:
    """Served report vs reference: equal counts and dominant defect, ratios to 1e-6.

    Not bitwise: the server coalesces requests, and float32 extraction of a
    row moves by ~1e-8 with the rows it is batched with.
    """
    return (
        got.counts == want.counts
        and got.dominant_defect == want.dominant_defect
        and got.ratios.keys() == want.ratios.keys()
        and all(abs(got.ratios[d] - want.ratios[d]) <= RATIO_TOLERANCE for d in want.ratios)
    )


def median_ms(blocks) -> dict:
    """The median latency over all of the blocks' samples, in ms.

    At the low rates a block holds about ten samples, too few for a steady
    per-block median.
    """
    return metric(statistics.median([x for block in blocks for x in block.latency]) * 1e3, "ms")


def best_tail(blocks) -> dict:
    """The lowest per-block tail latency, in ms.

    The percentile is the highest with ten samples beyond it among all the
    blocks' samples together; each block is read at that percentile.
    """
    from loadgen import tail

    percentile, _ = tail([x for block in blocks for x in block.latency])
    values = []
    for block in blocks:
        ordered = sorted(block.latency)
        values.append(ordered[max(0, math.ceil(percentile * len(ordered)) - 1)])
    return metric(min(values) * 1e3, "ms")


class Run:
    """One benchmark run of one workload; subclasses bind the target."""

    #: Fresh payloads each set-up sends before it counts as done.
    warmups_per_setup = 0

    def __init__(self, args: argparse.Namespace, spec: dict, workdir: Path):
        import numpy as np

        import models
        from inputs import Payloads, Stream

        self.args, self.spec, self.workdir = args, spec, workdir
        self.scale = args.seconds / RUN_SECONDS
        self.rng = np.random.default_rng(args.seed)
        self.model, self.train_data, production = models.load(spec["model"])
        self.payloads = Payloads(self.model, production, self.rng)

        closed, opened = spec["closed"], spec["open"]
        self.open_stream = Stream(opened["stream"], "o", self.rng)
        self.closed_stream = (
            self.open_stream if closed["stream"] == opened["stream"]
            else Stream(closed["stream"], "c", self.rng)
        )
        self.plan = self.make_plan()
        # A traced run measures the blocks untraced, with the ladder, and
        # then again traced, with payloads of their own so that the first
        # pass cannot warm any cache for the second.
        self.ladders = [
            [self.open_phase(f"rung-{rate}", rate, opened["rung_seconds"])
             for rate in opened["ladder"]]
            for _ in range(LADDER_PASSES if args.trace else 0)
        ]
        self.traced_plan = self.make_plan() if args.trace else None
        self.warm_keys = [
            self.open_stream.fresh_key()
            for _ in range(spec["setup_repeats"] * self.warmups_per_setup)
        ]
        for stream in {id(s): s for s in (self.closed_stream, self.open_stream)}.values():
            fresh = [key for key in self.all_keys() + self.warm_keys
                     if key[0] == stream.prefix + ".fresh"]
            self.payloads.make(stream.hot_keys() + fresh, stream.cases)
        self.references = {}

    def make_plan(self) -> dict:
        """Payload keys of each closed-loop block, and the open-loop blocks in order."""
        closed, opened = self.spec["closed"], self.spec["open"]
        seconds = closed["seconds"] * self.scale / BLOCKS
        blocks = [
            self.open_phase(level, opened[level], level_seconds)
            for _ in range(BLOCKS)
            for level, level_seconds in zip(("low", "high"), opened["level_seconds"])
        ]
        return {
            "closed_seconds": seconds,
            "closed": [self.closed_stream.draw(int(seconds * closed["max_rps"]) + 1)
                       for _ in range(BLOCKS)],
            "blocks": blocks,
        }

    def open_phase(self, name: str, rate: float, seconds: float) -> tuple:
        """``(name, rate, seconds, arrival schedule, payload keys)`` of one open-loop phase."""
        from loadgen import poisson_schedule

        seconds *= self.scale
        schedule = poisson_schedule(rate, seconds, self.rng)
        return name, rate, seconds, schedule, self.open_stream.draw(len(schedule))

    def all_keys(self) -> list:
        keys = []
        for plan in filter(None, (self.plan, self.traced_plan)):
            for closed_keys in plan["closed"]:
                keys.extend(closed_keys)
            for *_, phase_keys in plan["blocks"]:
                keys.extend(phase_keys)
        for ladder in self.ladders:
            for *_, rung_keys in ladder:
                keys.extend(rung_keys)
        return keys

    # -- the measured windows ---------------------------------------------------------

    async def window(self, send, plan: dict, ladders: list = ()) -> dict:
        """Closed-loop blocks alternating with low/high blocks, and any ladder passes.

        The passes are spread evenly between the blocks.  A pass ascends the
        ladder until two rungs in a row fail.  A rung passes with every
        response a 200, its tail latency within the SLO and its last request
        sent within the SLO of the rung's end (no growing backlog);
        ``max_rps`` is the highest rung any pass passed.
        """
        from loadgen import closed_loop, open_loop

        slots = self.spec["slots"]
        blocks = {"closed": [], "low": [], "high": []}
        passes = iter(ladders)
        rungs, max_rps, passes_done = [], 0.0, 0
        for index in range(BLOCKS):
            cursor = iter(plan["closed"][index])
            blocks["closed"].append(await closed_loop(
                send, slots, plan["closed_seconds"], lambda: next(cursor, None), "closed"))
            for name, _, seconds, schedule, keys in plan["blocks"][2 * index:2 * index + 2]:
                blocks[name].append(await open_loop(send, slots, seconds, schedule, keys, name))
            while passes_done < (index + 1) * len(ladders) // BLOCKS:
                max_rps = max(max_rps, await self.ladder_pass(send, next(passes), rungs))
                passes_done += 1
        return {"blocks": blocks, "rungs": rungs, "max_rps": max_rps}

    async def ladder_pass(self, send, ladder: list, rungs: list) -> float:
        from loadgen import open_loop, tail

        slo, highest, failures = self.spec["open"]["slo_ms"] / 1e3, 0.0, 0
        for name, rate, seconds, schedule, rung_keys in ladder:
            phase = await open_loop(send, self.spec["slots"], seconds, schedule, rung_keys, name)
            rungs.append(phase)
            if (
                all(self.status_ok(result) for result in phase.results)
                and tail(phase.latency)[1] <= slo
                and max(phase.started) <= seconds + slo
            ):
                highest, failures = rate, 0
            else:
                failures += 1
                if failures == 2:
                    break
        return highest

    @staticmethod
    def phases(*windows) -> list:
        return [
            phase for window in windows
            for phase in [*window["blocks"]["closed"], *window["blocks"]["low"],
                          *window["blocks"]["high"], *window["rungs"]]
        ]

    def count_failures(self, *windows) -> tuple:
        attempted = failed = 0
        for phase in self.phases(*windows):
            for key, result in zip(phase.items, phase.results):
                attempted += 1
                if not (self.status_ok(result) and self.matches(key, result)):
                    failed += 1
        return attempted, failed

    def cases_per_request(self, blocks) -> float:
        return statistics.mean(self.payloads.arrays[key][1].shape[0] for key in blocks[0].items)

    def end_to_end(self, window: dict, setup_times: list, peak_rss_mb: float) -> dict:
        """Throughput and tail latency are taken per block, and the best block is reported.

        The blocks are spread over the whole run, and contention from other
        tenants of the shared host comes in bursts (the same 1024-case
        diagnosis measured 178-373 ms within one minute), so the best block
        is the figure least moved by anything but the program.  Median
        latency is taken over all blocks together.
        """
        closed = window["blocks"]["closed"]
        return {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "cases_per_s": metric(
                self.cases_per_request(closed) * max(b.count / b.wall for b in closed), "cases/s"),
            "batch_ms_tail": best_tail(closed),
            "p50_ms.low": median_ms(window["blocks"]["low"]),
            "p50_ms.high": median_ms(window["blocks"]["high"]),
        }

    def trace_metrics(self, untraced: dict, traced: dict, spans: list, failed: int, **layer):
        """Per-layer metrics of the traced window, plus figures of the untraced one."""
        from layers import closed_rate, per_layer
        from loadgen import tail

        requests = sum(phase.count for phase in self.phases(traced))
        overhead = 1.0 - (closed_rate(traced["blocks"]["closed"])
                          / closed_rate(untraced["blocks"]["closed"]))
        metrics = per_layer(
            spans, title=f"per-layer self time, traced {self.args.workload} window",
            requests=requests, library=self.local.morph.patterns,
            overhead_frac=overhead, **layer,
        )
        metrics["batch_ms_p50"] = median_ms(untraced["blocks"]["closed"])
        metrics["tail_ms.low"] = best_tail(untraced["blocks"]["low"])
        metrics["tail_ms.high"] = best_tail(untraced["blocks"]["high"])
        metrics["max_rps_at_slo"] = metric(untraced["max_rps"], "req/s")
        lags, sent, backlog = [], 0, 0
        for phase in self.phases(untraced, traced):
            sent += phase.count
            if phase.name != "closed":
                lags.extend(phase.lag())
                backlog += phase.backlog()
        metrics.update({
            "loadgen.lag_ms_tail": metric(tail(lags)[1] * 1e3, "ms"),
            "loadgen.sent": metric(sent, "count"),
            "loadgen.ok": metric(sent - failed, "count"),
            "loadgen.failed": metric(failed, "count"),
            "loadgen.backlog": metric(backlog, "count"),
        })
        return metrics

    def describe(self, *windows) -> None:
        """One line per phase on stderr: sample count, percentile used, backlog."""
        from loadgen import median, tail

        for phase in self.phases(*windows):
            pct, value = tail(phase.latency)
            print(
                f"[{self.args.workload}] {phase.name:10s} n={phase.count:5d} "
                f"p50={median(phase.latency) * 1e3:8.2f}ms p{pct * 100:.1f}={value * 1e3:8.2f}ms "
                f"backlog={phase.backlog()}",
                file=sys.stderr,
            )


# -- offline: in-process LocalDiagnoser ------------------------------------------------


class OfflineRun(Run):
    def setup_once(self, index: int):
        from inputs import MODEL_NAME
        from repro.api import LocalDiagnoser
        from repro.core import DeepMorph
        from repro.serve import ArtifactRegistry

        start = time.perf_counter()
        morph = DeepMorph(probe_epochs=PROBE_EPOCHS, rng=0).fit(self.model, self.train_data)
        registry = ArtifactRegistry(self.workdir / f"registry-{index}")
        registry.register(MODEL_NAME, morph)
        local = LocalDiagnoser.from_registry(registry, MODEL_NAME)
        return time.perf_counter() - start, local

    def status_ok(self, result) -> bool:
        return not isinstance(result, Exception)

    def matches(self, key, result) -> bool:
        return result.to_dict() == self.references[key].to_dict()

    def run(self) -> dict:
        from spans import SpanRecorder, install_core

        repeats = 1 if self.args.trace else self.spec["setup_repeats"]
        setups = [self.setup_once(i) for i in range(repeats)]
        self.local = setups[-1][1]
        # Reference reports, computed before the clock; timed reports must
        # equal them bit for bit.
        for key in self.closed_stream.hot_keys() + self.open_stream.hot_keys():
            self.references[key] = self.local.diagnose_arrays(*self.payloads.arrays[key])
        parity_ok = self.check_deepmorph_parity()
        executor = ThreadPoolExecutor(max_workers=1)

        async def send(slot, key):
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    executor, self.local.diagnose_arrays, *self.payloads.arrays[key]
                )
            except Exception as error:  # noqa: BLE001 - counted as a failure
                return error

        recorder = SpanRecorder()
        try:
            cpu_before = cpu_seconds(os.getpid())
            windows = [asyncio.run(self.window(send, self.plan, self.ladders))]
            cpu_ms_per_req = ((cpu_seconds(os.getpid()) - cpu_before) * 1e3
                              / sum(phase.count for phase in self.phases(windows[0])))
            if self.args.trace:
                install_core(recorder)
                recorder.patch(self.local, "diagnose", "api.diagnose")
                try:
                    windows.append(asyncio.run(self.window(send, self.traced_plan)))
                finally:
                    recorder.uninstall()
        finally:
            executor.shutdown(wait=True)
        self.describe(*windows)
        attempted, failed = self.count_failures(*windows)
        if self.args.trace:
            metrics = self.trace_metrics(
                *windows, recorder.spans, failed, root="api.diagnose", bodies=[],
                counters={}, cpu_ms_per_req=cpu_ms_per_req,
            )
        else:
            metrics = self.end_to_end(windows[0], [s for s, _ in setups], vm_hwm_mb(os.getpid()))
        return {"correct": parity_ok and failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    def check_deepmorph_parity(self) -> bool:
        """Once per run: the diagnoser agrees with ``DeepMorph.diagnose`` to 1e-6."""
        key = self.closed_stream.hot_keys()[0]
        inputs, labels = self.payloads.arrays[key]
        direct = self.local.morph.diagnose(inputs, labels)
        served = self.references[key]
        return (
            {d.value: c for d, c in direct.counts.items()} == served.counts
            and all(abs(direct.ratios[d] - served.ratios[d.value]) <= RATIO_TOLERANCE
                    for d in direct.ratios)
        )


# -- served: DiagnosisGateway in its own process ----------------------------------------


class Server:
    """A ``perfbench/server.py`` child process and its stdin control channel."""

    def __init__(self, registry: Path, log: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(registry)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            env=env, text=True,
        )
        ready = self.proc.stdout.readline().split()
        if not ready or ready[0] != "READY":
            self.stop()
            raise RuntimeError(f"server did not start (see {log})")
        self.host, self.port = ready[1], int(ready[2])

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "OK":
            raise RuntimeError(f"server did not acknowledge {text!r}")

    def get(self, path: str):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def post(self, body: bytes, content_type: str):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("POST", "/diagnose", body=body,
                               headers={"Content-Type": content_type, "Accept": content_type})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def counters(self) -> dict:
        """Gateway, pool and per-replica counters summed, from ``GET /metrics``."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        snapshot = json.loads(body)
        totals = {}
        for registry in [snapshot["gateway"], snapshot["pool"]] + snapshot["replicas"]:
            for name, record in registry.items():
                if record.get("type") == "counter":
                    totals[name] = totals.get(name, 0.0) + float(record["value"])
        totals["_assigned"] = [
            float(replica.get("replica.assigned_total", {}).get("value", 0.0))
            for replica in snapshot["replicas"]
        ]
        return totals

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()


def counter_deltas(start: dict, end: dict) -> dict:
    deltas = {name: end[name] - start.get(name, 0.0) for name in end if name != "_assigned"}
    deltas["_assigned"] = [b - a for a, b in zip(start["_assigned"], end["_assigned"])]
    return deltas


class GatewayRun(Run):
    # One warm-up per replica: idle replicas take sequential requests in turn.
    warmups_per_setup = REPLICAS

    def setup_once(self, index: int):
        from inputs import MODEL_NAME, encode
        from repro.core import DeepMorph
        from repro.serve import ArtifactRegistry

        warm = self.warm_keys[index * REPLICAS:(index + 1) * REPLICAS]
        bodies = [encode(key, *self.payloads.arrays[key]) for key in warm]
        start = time.perf_counter()
        morph = DeepMorph(probe_epochs=PROBE_EPOCHS, rng=0).fit(self.model, self.train_data)
        registry_dir = self.workdir / f"registry-{index}"
        ArtifactRegistry(registry_dir).register(MODEL_NAME, morph)
        server = Server(registry_dir, self.workdir / "server.log")
        try:
            status, _ = server.get("/health")
            statuses = [status] + [server.post(*body)[0] for body in bodies]
        except (OSError, http.client.HTTPException):
            server.stop()
            raise
        if set(statuses) != {200}:
            server.stop()
            raise RuntimeError(f"server set-up answered {statuses}")
        return time.perf_counter() - start, server, registry_dir

    def status_ok(self, result) -> bool:
        return result[0] == 200

    def matches(self, key, result) -> bool:
        from repro.wire import codec_for_content_type

        codec = codec_for_content_type(self.bodies[key][1])
        return reports_agree(codec.decode_report(result[2]), self.references[key])

    def compute_references(self, *windows) -> None:
        """``LocalDiagnoser`` on every request sent, exactly as the server decoded it.

        Two diagnosers, one per thread, share the work once the server is idle.
        """
        from inputs import MODEL_NAME
        from repro.api import LocalDiagnoser
        from repro.wire import codec_for_content_type

        keys = sorted({key for phase in self.phases(*windows) for key in phase.items})
        diagnosers = [self.local, LocalDiagnoser.from_registry(self.registry_dir, MODEL_NAME)]

        def diagnose(local, part):
            return {
                key: local.diagnose(codec_for_content_type(self.bodies[key][1])
                                    .decode_request(self.bodies[key][0]))
                for key in part
            }

        with ThreadPoolExecutor(max_workers=len(diagnosers)) as pool:
            for done in pool.map(diagnose, diagnosers, [keys[0::2], keys[1::2]]):
                self.references.update(done)

    def run(self) -> dict:
        from inputs import MODEL_NAME, encode
        from repro.api import LocalDiagnoser

        repeats = 1 if self.args.trace else self.spec["setup_repeats"]
        setup_times, server = [], None
        try:
            for index in range(repeats):
                if server is not None:
                    server.stop()
                seconds, server, self.registry_dir = self.setup_once(index)
                setup_times.append(seconds)
            self.server = server
            self.local = LocalDiagnoser.from_registry(self.registry_dir, MODEL_NAME)
            keys = set(self.all_keys()) | set(self.open_stream.hot_keys())
            self.bodies = {key: encode(key, *self.payloads.arrays[key]) for key in keys}
            result = asyncio.run(self.drive())
        finally:
            if server is not None:
                server.stop()
        windows, counters = result["windows"], result["counters"]
        self.describe(*windows)
        self.compute_references(*windows)
        attempted, failed = self.count_failures(*windows)
        guards_ok = all([self.guards(w, c) for w, c in zip(windows, counters)])
        if self.args.trace:
            sent = {key for phase in self.phases(windows[-1]) for key in phase.items}
            metrics = self.trace_metrics(
                *windows, result["spans"], failed, root="service.diagnose",
                bodies=[self.bodies[key] for key in sent], counters=counters[-1],
                cpu_ms_per_req=result["cpu_ms_per_req"],
            )
        else:
            metrics = self.end_to_end(windows[0], setup_times, result["peak_rss_mb"])
        return {"correct": guards_ok and failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    async def drive(self) -> dict:
        from loadgen import HttpSender

        server = self.server
        sender = await HttpSender(server.host, server.port, self.spec["slots"]).open()

        async def send(slot, key):
            return await sender(slot, self.bodies[key])

        try:
            # The hot pool is in the response cache before any clock starts.
            for key in self.open_stream.hot_keys():
                status, _, _ = await send(0, key)
                if status != 200:
                    raise RuntimeError(f"pre-warming a hot payload answered {status}")
            out = {"spans": [], "windows": [], "counters": []}
            # The untraced window (with the ladder in a traced run), then in
            # a traced run the traced one; /metrics deltas around each.
            passes = [(self.plan, self.ladders)]
            if self.args.trace:
                passes.append((self.traced_plan, []))
            for index, (plan, ladders) in enumerate(passes):
                if index:
                    server.command("trace on")
                cpu_before, start = cpu_seconds(server.proc.pid), server.counters()
                window = await self.window(send, plan, ladders)
                out["counters"].append(counter_deltas(start, server.counters()))
                out["windows"].append(window)
                if not index:
                    requests = sum(phase.count for phase in self.phases(window))
                    out["cpu_ms_per_req"] = (
                        (cpu_seconds(server.proc.pid) - cpu_before) * 1e3 / requests)
            if self.args.trace:
                path = self.workdir / "spans.json"
                server.command(f"dump {path}")
                server.command("trace off")
                out["spans"] = json.loads(path.read_text())
            out["peak_rss_mb"] = vm_hwm_mb(server.proc.pid)
        finally:
            await sender.close()
        return out

    def guards(self, window: dict, counters: dict) -> bool:
        """The traffic had the shape the workload was designed for."""
        hot = sum(
            1 for phase in self.phases(window) for key in phase.items if key[0].endswith(".hot")
        )
        hits = counters.get("gateway.response_cache_hits_total", 0.0)
        fp_hits = counters.get("cache.hits_total", 0.0)
        ok = hits == hot and (hot > 0 or fp_hits == 0)
        if not ok:
            print(f"[{self.args.workload}] traffic guard failed: {hot} hot requests, "
                  f"{hits} response-cache hits, {fp_hits} footprint-cache hits", file=sys.stderr)
        return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = CONFIG["workloads"][args.workload]
    workdir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = OfflineRun if spec["target"] == "local" else GatewayRun
        result = runner(args, spec, workdir).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
