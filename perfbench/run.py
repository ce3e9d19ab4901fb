"""The repository's trajectory benchmark: one command, every metric, checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload echo --seed 1 --seconds 24 --trace 0

Workloads: ``echo``, ``boutique-read``, ``boutique-write`` and
``boutique-colocated`` (see ``manifest.json`` for why each exists, its
placement and its fixed open-loop rate).  Each run deploys the real
runtime in this process (``deploy_multiprocess(mode="inproc")``: loopback
sockets, registration, routing, full telemetry, proclets sharing one event
loop) and checks every response against a reference.

``--trace 0`` measures the end-to-end metrics: set-up time, closed-loop
throughput with 32 callers, open-loop latency and CPU per request at the
fixed rate, and peak memory.  ``--trace 1`` wraps each layer's entry
points (``layers.py``) and reports per-layer self times, counts and
ratios instead.

Every line but the last is a human-readable report.  The last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The end-to-end run measures this many fresh deployments, one after the
#: other, and pools them.  Connection write modes (direct or coalesced)
#: settle differently in each deployment and stay settled for its lifetime,
#: so one deployment is one sample of that state, not of the program.
BLOCKS = 6
#: Extra deploy-and-first-request cycles that only time set-up.
SETUP_ONLY = 9
#: Untimed closed-loop load on each fresh deployment before it is measured.
WARMUP_S = 0.25
#: Share of --seconds spent in the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.5
#: Measured and printed, but not gated by BENCHMARK.json.  On a shared
#: two-core machine the run-to-run spread of open-loop latency (p50 up to
#: a third of its median, p99 several times that) is wider than any allowed
#: bound, and error_rate reads 0 on a correct program (``correct`` and
#: ``failed`` in the result line gate failures instead).
REPORTED_ONLY = {"p50_ms": "ms", "p99_ms": "ms", "error_rate": "ratio"}
#: Failures whose details are printed (the rest are only counted).
REPORTED_FAILURES = 5


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist it is used."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported repro from {where}, not from {src}")


def declared_metrics() -> dict[str, dict[str, str]]:
    """Units of the metrics BENCHMARK.json declares, by trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


class Checker:
    """Sends generated requests and checks each answer against the reference."""

    def __init__(self) -> None:
        import inputs

        self._inputs = inputs
        self.reference = inputs.Reference()
        self.entry: Any = None
        #: When set, each call into the entry stub is noted as a request span.
        self.request_recorder: Any = None
        self.failures = 0
        self.messages: list[str] = []

    async def execute(self, req: tuple) -> bool:
        want = self.reference.expect(req)
        rec = self.request_recorder
        t0 = time.perf_counter_ns()
        try:
            got = await self._inputs.call(self.entry, req)
        except Exception as exc:  # any failure of the program is a failed request
            self._fail(req, f"raised {type(exc).__name__}: {exc}")
            return False
        finally:
            if rec is not None:
                rec.note(rec.REQUEST, t0, time.perf_counter_ns())
        if not self.reference.check(req, want, got):
            self._fail(req, f"wrong answer {got!r:.300}")
            return False
        return True

    def _fail(self, req: tuple, what: str) -> None:
        self.failures += 1
        if len(self.messages) < REPORTED_FAILURES:
            self.messages.append(f"{req[0]}: {what}")


async def set_up(
    workload: str, checker: Checker, probe: tuple, state_dir: str
) -> tuple[Any, float]:
    """Deploy and answer the first request; return the app and the wall time."""
    import inputs

    checker.reference = inputs.Reference()  # a fresh deployment holds no carts
    t0 = time.perf_counter()
    app, checker.entry = await inputs.deploy(workload, state_dir)
    if not await checker.execute(probe):
        raise SystemExit(f"perfbench: first request failed: {checker.messages}")
    return app, time.perf_counter() - t0


async def measure_end_to_end(workload: str, plan: Any, seconds: float, tmp: str) -> dict:
    import loadgen

    checker = Checker()
    setup_times = []
    for i in range(SETUP_ONLY):
        app, took = await set_up(workload, checker, plan.probe, os.path.join(tmp, f"setup-{i}"))
        setup_times.append(took)
        await app.shutdown()
    closed_s = seconds * CLOSED_SHARE / BLOCKS
    schedules = loadgen.split_schedule(plan.arrivals, BLOCKS, seconds * (1 - CLOSED_SHARE))
    warm, closed, opened = [], [], []
    for i, schedule in enumerate(schedules):
        app, took = await set_up(workload, checker, plan.probe, os.path.join(tmp, f"block-{i}"))
        setup_times.append(took)
        try:
            warm.append(await loadgen.closed_loop(plan.streams, checker.execute, WARMUP_S))
            closed.append(await loadgen.closed_loop(plan.streams, checker.execute, closed_s))
            opened.append(await loadgen.open_loop(schedule, checker.execute))
        finally:
            await app.shutdown()
    summary = loadgen.open_summary(opened)
    completed = sum(c.attempted - c.failed for c in closed)
    attempted = sum(c.attempted for c in closed) + sum(o.attempted for o in opened)
    failed = sum(c.failed for c in closed) + sum(o.failed for o in opened)
    metrics = {
        "throughput_rps": completed / sum(c.seconds for c in closed),
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
        "cpu_us_per_req": summary["cpu_us_per_req"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / attempted,
    }
    notes = {
        "closed_requests": sum(c.attempted for c in closed),
        "open_samples": summary["samples"],
        "samples_beyond_p99": summary["samples_beyond_p99"],
        "generator_lateness_p99_ms": summary["lateness_p99_ms"],
        "open_backlog_end_max": summary["backlog_end"],
        "open_blocks_backlog_grew": summary["blocks_backlog_grew"],
        "setup_runs": len(setup_times),
        "warmup_failed": sum(w.failed for w in warm),
    }
    # One stalled block can look like growth; a rate above capacity grows
    # the queue in every block.
    backlog_grew = summary["blocks_backlog_grew"] > BLOCKS // 2
    problems = list(checker.messages)
    if backlog_grew:
        problems.append("open-loop backlog grew in most blocks: latency is not valid")
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "correct": checker.failures == 0 and not backlog_grew,
        "problems": problems,
    }


async def measure_layers(workload: str, plan: Any, seconds: float, tmp: str) -> dict:
    import layers
    import loadgen

    checker = Checker()
    instr = layers.Instrumentation()
    instr.track_connections()
    app = None
    try:
        app, _ = await set_up(workload, checker, plan.probe, os.path.join(tmp, "state"))
        await loadgen.closed_loop(plan.streams, checker.execute, 2 * WARMUP_S)
        third = seconds / 3
        untraced = await loadgen.closed_loop(plan.streams, checker.execute, third)
        instr.install(app)
        before = instr.connection_counters()
        t0 = time.perf_counter()
        traced = await loadgen.closed_loop(plan.streams, checker.execute, third)
        wall = time.perf_counter() - t0
        after = instr.connection_counters()
        counted = layers.counted_metrics(
            instr.recorder,
            traced.attempted,
            wall,
            tuple(b - a for a, b in zip(before, after)),
        )
        instr.recorder = checker.request_recorder = layers.Recorder(keep_spans=True)
        single = await loadgen.closed_loop(plan.streams[:1], checker.execute, third)
        checker.request_recorder = None
    finally:
        instr.uninstall()
        if app is not None:
            await app.shutdown()
    metrics = dict(counted)
    metrics.update(layers.self_time_metrics(instr.recorder))
    metrics["tracing_overhead"] = traced.throughput_rps / untraced.throughput_rps
    attempted = untraced.attempted + traced.attempted + single.attempted
    failed = untraced.failed + traced.failed + single.failed
    return {
        "metrics": metrics,
        "notes": {
            "untraced_rps": untraced.throughput_rps,
            "traced_rps": traced.throughput_rps,
            "single_caller_requests": single.attempted,
            "spans": len(instr.recorder.spans or []),
        },
        "attempted": attempted,
        "failed": failed,
        "correct": checker.failures == 0,
        "problems": list(checker.messages),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    import inputs
    import selftest

    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    if args.workload not in manifest["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}")
    declared = declared_metrics()[args.trace]
    selftest.run_all()

    spec = manifest["workloads"][args.workload]
    plan = inputs.make_plan(
        args.workload,
        args.seed,
        callers=spec["closed_concurrency"],
        open_rate=spec["open_rate_per_s"],
        open_seconds=args.seconds * (1 - CLOSED_SHARE),
    )
    # The inputs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()

    tmp = os.path.join(ROOT, ".perfbench-tmp", str(os.getpid()))
    os.makedirs(tmp)
    tempfile.tempdir = tmp
    measure = measure_layers if args.trace == "1" else measure_end_to_end
    try:
        result = asyncio.run(measure(args.workload, plan, args.seconds, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    metrics = result["metrics"]
    units = {**REPORTED_ONLY, **declared}
    if not set(declared) <= set(metrics) <= set(units):
        raise SystemExit(
            f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(declared)}"
        )
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:14.4f} {units[name]}")
    for name, value in result["notes"].items():
        print(f"  {name:32s} {value}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": declared[name]}
                    for name in sorted(declared)
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
