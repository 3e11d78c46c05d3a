"""Closed- and open-loop load generation over one asyncio loop.

A *sender* is an async callable ``send(slot, item) -> result`` bound to one
of ``slots`` concurrent channels (a keep-alive HTTP connection, or the one
thread that calls an in-process diagnoser).  A closed loop keeps every slot
busy back to back.  An open loop follows a fixed arrival schedule: a request
whose due time has come waits in the client until a slot frees, and its
latency is measured from the due time, so a stall is charged to every
request queued behind it.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

Sender = Callable[[int, object], Awaitable[object]]


@dataclass
class PhaseResult:
    """What one phase sent and observed; times in seconds, relative to its start."""

    name: str
    duration: float
    wall: float = 0.0
    items: List[object] = field(default_factory=list)
    results: List[object] = field(default_factory=list)
    due: List[float] = field(default_factory=list)
    started: List[float] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.latency)

    def backlog(self) -> int:
        """Requests due before the phase ended that had not been sent by then."""
        return sum(1 for d, s in zip(self.due, self.started) if d <= self.duration < s)

    def lag(self) -> List[float]:
        """How late each request was sent after it was due."""
        return [s - d for d, s in zip(self.due, self.started)]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with ten samples beyond it.

    With fewer than eleven samples there is no such percentile; the maximum
    is returned with percentile 1.0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return 1.0, ordered[-1]
    return (n - 10) / n, ordered[n - 11]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def poisson_schedule(rate: float, seconds: float, rng: "numpy.random.Generator") -> List[float]:
    """Arrival times of a Poisson process conditioned on ``round(rate*seconds)`` arrivals."""
    count = max(1, int(round(rate * seconds)))
    return sorted(rng.uniform(0.0, seconds, count).tolist())


async def closed_loop(
    send: Sender, slots: int, seconds: float, next_item: Callable[[], Optional[object]], name: str
) -> PhaseResult:
    """Each slot sends its next item as soon as the previous one completes."""
    phase = PhaseResult(name=name, duration=seconds)
    start = time.perf_counter()
    stop_at = start + seconds

    async def worker(slot: int) -> None:
        while time.perf_counter() < stop_at:
            item = next_item()
            if item is None:
                return
            sent = time.perf_counter()
            result = await send(slot, item)
            done = time.perf_counter()
            phase.items.append(item)
            phase.results.append(result)
            phase.due.append(sent - start)
            phase.started.append(sent - start)
            phase.latency.append(done - sent)

    await asyncio.gather(*(worker(slot) for slot in range(slots)))
    phase.wall = time.perf_counter() - start
    return phase


async def open_loop(
    send: Sender, slots: int, seconds: float, schedule: Sequence[float],
    items: Sequence[object], name: str,
) -> PhaseResult:
    """Send ``items[i]`` at ``schedule[i]`` seconds, over ``slots`` channels."""
    phase = PhaseResult(name=name, duration=seconds)
    start = time.perf_counter()
    cursor = iter(range(len(schedule)))
    records: List[Tuple[int, float, float, object]] = []

    async def worker(slot: int) -> None:
        for index in cursor:
            due = start + schedule[index]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            result = await send(slot, items[index])
            records.append((index, sent, time.perf_counter(), result))

    await asyncio.gather(*(worker(slot) for slot in range(slots)))
    phase.wall = time.perf_counter() - start
    for index, sent, done, result in sorted(records, key=lambda r: r[0]):
        phase.items.append(items[index])
        phase.results.append(result)
        phase.due.append(schedule[index])
        phase.started.append(sent - start)
        phase.latency.append(done - (start + schedule[index]))
    return phase


class HttpSender:
    """``slots`` keep-alive HTTP/1.1 connections posting pre-encoded bodies.

    An item is ``(body, content_type)``; the result is ``(status, headers,
    body)`` or ``(0, {}, repr(error))`` when the connection failed.
    """

    def __init__(self, host: str, port: int, slots: int, path: str = "/diagnose"):
        self.host, self.port, self.slots, self.path = host, port, slots, path
        self._streams: List[Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]] = []

    async def open(self) -> "HttpSender":
        self._streams = [
            await asyncio.open_connection(self.host, self.port) for _ in range(self.slots)
        ]
        return self

    async def close(self) -> None:
        for stream in self._streams:
            if stream is not None:
                stream[1].close()
                try:
                    await stream[1].wait_closed()
                except ConnectionError:
                    pass
        self._streams = []

    async def __call__(self, slot: int, item) -> tuple:
        body, content_type = item
        head = (
            f"POST {self.path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: {content_type}\r\nAccept: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        try:
            if self._streams[slot] is None:
                self._streams[slot] = await asyncio.open_connection(self.host, self.port)
            reader, writer = self._streams[slot]
            writer.write(head + body)
            await writer.drain()
            return await read_response(reader)
        except (ConnectionError, asyncio.IncompleteReadError, ValueError) as error:
            self._streams[slot] = None
            return 0, {}, repr(error).encode()


async def read_response(reader: asyncio.StreamReader) -> tuple:
    raw = await reader.readuntil(b"\r\n\r\n")
    lines = raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        if line:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body
