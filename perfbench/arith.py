"""The benchmark's own arithmetic: percentiles, self time, per-request ratios.

Pure functions with no dependency on the program under test, so
``selftest.py`` can check them on synthetic inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> tuple[float, int, int]:
    """Nearest-rank ``q`` percentile (0 < q <= 1) of ``values``.

    Returns ``(value, sample_count, samples_beyond)``: the value is the
    smallest sample with at least ``q`` of the samples at or below it, and
    ``samples_beyond`` counts the samples ranked above it, which says how
    well the sample supports that percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank {q} is outside (0, 1]")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[rank - 1], n, n - rank


def union_length(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[tuple[int, int, int]]) -> tuple[list[int], list[int]]:
    """Self time of every span in a single-threaded timeline.

    ``spans`` are ``(layer, start, end)``.  A span's children are the spans
    whose interval lies inside it with no closer enclosing span; its self
    time is its duration minus the union of its children's intervals, so
    children that overlap each other are not subtracted twice.

    Returns ``(self_time, parent)`` indexed like ``spans``; ``parent`` is
    the index of the enclosing span, or -1 for a top-level span.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
    parent = [-1] * len(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    stack: list[int] = []
    for i in order:
        _, start, end = spans[i]
        while stack:
            top = spans[stack[-1]]
            if top[1] <= start and end <= top[2]:
                break
            stack.pop()
        if stack:
            parent[i] = stack[-1]
            children.setdefault(stack[-1], []).append((start, end))
        stack.append(i)
    own = [end - start for _, start, end in spans]
    for i, kids in children.items():
        own[i] -= union_length(kids)
    return own, parent


def top_ancestor(parent: Sequence[int]) -> list[int]:
    """For each span, the index of its outermost enclosing span (or itself)."""
    root = list(range(len(parent)))
    for i in range(len(parent)):
        j = i
        while parent[j] != -1:
            j = parent[j]
        root[i] = j
    return root


def cpu_per_request_us(cpu_start_s: float, cpu_end_s: float, completed: int) -> float:
    """Process CPU microseconds per completed request over one phase."""
    if completed <= 0:
        raise ValueError("no requests completed in the phase")
    return (cpu_end_s - cpu_start_s) / completed * 1e6


def unattributed_us(request_us: float, layer_self_us_per_request: Iterable[float]) -> float:
    """Per-request time that no layer's self time accounts for."""
    return request_us - sum(layer_self_us_per_request)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, reading 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def backlog_grew(inflight_at_send: Sequence[int]) -> bool:
    """Whether an open loop's in-flight count trended up over the phase.

    Compares the mean in-flight count over the last quarter of arrivals
    with the second quarter (the first is left for the queue to settle).
    A stall makes a short spike that barely moves a quarter's mean; a rate
    above capacity makes the queue grow for the whole phase.
    """
    n = len(inflight_at_send)
    if n < 8:
        return False
    quarter = n // 4
    early = sum(inflight_at_send[quarter : 2 * quarter]) / quarter
    late = sum(inflight_at_send[n - quarter :]) / quarter
    return late > 2.0 * early + 8.0
