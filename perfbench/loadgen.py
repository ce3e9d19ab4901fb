"""Closed-loop and open-loop load on one event loop.

Both loops drive an ``execute(req) -> bool`` coroutine that sends one
generated request and reports whether its answer was correct (an exception
counts as incorrect).  The load shares the event loop of the in-process
deployment, so generator stalls are the program's stalls; the open loop
reports how late it ran.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

import arith

Execute = Callable[[tuple], Awaitable[bool]]

#: How long an open loop waits for stragglers after its last arrival.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class ClosedResult:
    attempted: int
    failed: int
    seconds: float

    @property
    def throughput_rps(self) -> float:
        return (self.attempted - self.failed) / self.seconds


@dataclass
class OpenResult:
    attempted: int
    failed: int
    completed: int
    cpu_s: float
    latencies_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    inflight_at_send: list[int] = field(default_factory=list)
    backlog_end: int = 0


async def closed_loop(
    streams: Sequence[Sequence[tuple]], execute: Execute, seconds: float
) -> ClosedResult:
    """One caller per stream, each sending its next request on a reply.

    Callers stop sending after ``seconds``; the phase ends when the last
    reply is in, and throughput is correct replies over that whole span.
    """
    attempted = failed = 0
    start = time.perf_counter()
    stop_at = start + seconds

    async def caller(stream: Sequence[tuple]) -> None:
        nonlocal attempted, failed
        i = 0
        while time.perf_counter() < stop_at:
            req = stream[i % len(stream)]
            i += 1
            attempted += 1
            if not await execute(req):
                failed += 1

    await asyncio.gather(*(caller(s) for s in streams))
    return ClosedResult(attempted, failed, time.perf_counter() - start)


async def open_loop(arrivals: Sequence[tuple[float, tuple]], execute: Execute) -> OpenResult:
    """Send each request when due, regardless of replies (Poisson schedule).

    Latency is measured from when a request was due, so a stall that delays
    sending also counts against the requests it delayed.
    """
    loop = asyncio.get_running_loop()
    result = OpenResult(attempted=len(arrivals), failed=0, completed=0, cpu_s=0.0)
    inflight = 0
    tasks: set[asyncio.Task] = set()

    async def one(req: tuple, due: float) -> None:
        nonlocal inflight
        try:
            ok = await execute(req)
        finally:
            inflight -= 1
        if ok:
            result.completed += 1
            result.latencies_s.append(time.perf_counter() - due)
        else:
            result.failed += 1

    cpu0 = time.process_time()
    t0 = time.perf_counter() + 0.01
    for offset, req in arrivals:
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lateness_s.append(time.perf_counter() - due)
        result.inflight_at_send.append(inflight)
        inflight += 1
        task = loop.create_task(one(req, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    result.backlog_end = inflight
    if tasks:
        _, stuck = await asyncio.wait(set(tasks), timeout=DRAIN_TIMEOUT_S)
        for task in stuck:
            task.cancel()
        result.failed += len(stuck)
    result.cpu_s = time.process_time() - cpu0
    return result


def split_schedule(
    arrivals: Sequence[tuple[float, tuple]], parts: int, seconds: float
) -> list[list[tuple[float, tuple]]]:
    """Cut one schedule into ``parts`` equal spans, each re-based to start at 0."""
    span = seconds / parts
    blocks: list[list[tuple[float, tuple]]] = [[] for _ in range(parts)]
    for offset, req in arrivals:
        j = min(parts - 1, int(offset // span))
        blocks[j].append((offset - j * span, req))
    return blocks


def open_summary(results: Sequence[OpenResult]) -> dict:
    """Pooled latency percentiles with sample counts, and generator health."""
    latencies = [x for r in results for x in r.latencies_s]
    p50, n, _ = arith.percentile(latencies, 0.50)
    p99, _, beyond = arith.percentile(latencies, 0.99)
    late99, _, _ = arith.percentile([x for r in results for x in r.lateness_s], 0.99)
    return {
        "p50_ms": p50 * 1e3,
        "p99_ms": p99 * 1e3,
        "samples": n,
        "samples_beyond_p99": beyond,
        "cpu_us_per_req": arith.cpu_per_request_us(
            0.0, sum(r.cpu_s for r in results), sum(r.completed for r in results)
        ),
        "lateness_p99_ms": late99 * 1e3,
        "backlog_end": max(r.backlog_end for r in results),
        "blocks_backlog_grew": sum(arith.backlog_grew(r.inflight_at_send) for r in results),
    }
