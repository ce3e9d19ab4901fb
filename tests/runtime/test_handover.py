"""Live shard handover end to end: drain, crash recovery, stale routing.

The repro.state acceptance story at deployment scale:

* planned retirement (shrink / re-placement) hands flushed shards to the
  survivors through the drain path — zero acknowledged-write loss, eager
  replay (bounded stall);
* an unplanned kill loses nothing either: the replacement replica
  replays the shared WAL directory lazily;
* a caller holding a stale assignment gets a retryable wrong-owner
  rejection and transparently re-resolves — never a silent write to the
  old owner (the routed-cache invalidation satellite).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.codegen.compiler import idempotent, routed
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.registry import Registry
from repro.runtime.deployers.multi import deploy_multiprocess


class Ledger(Component):
    """Routed, stateful demo component: per-key counters in ctx.state."""

    @routed(by="key")
    async def bump(self, key: str) -> int: ...

    @idempotent
    @routed(by="key")
    async def read(self, key: str) -> int: ...


class LedgerImpl:
    async def init(self, ctx) -> None:
        self._state = ctx.state

    async def bump(self, key: str) -> int:
        return await self._state.update(key, lambda v: v + 1, default=0)

    async def read(self, key: str) -> int:
        return await self._state.get(key, default=0)


def ledger_registry() -> Registry:
    registry = Registry()
    registry.register(Ledger, LedgerImpl)
    return registry


async def deployed(replicas: int = 2, **config_kwargs):
    config = AppConfig(
        name="handover-t",
        replicas={Ledger: replicas},
        **config_kwargs,
    )
    return await deploy_multiprocess(config, registry=ledger_registry())


KEYS = [f"user-{i}" for i in range(40)]


class TestDrainHandover:
    async def test_shrink_preserves_every_acknowledged_write(self):
        app = await deployed(replicas=2)
        ledger = app.get(Ledger)
        for key in KEYS:
            await ledger.bump(key)
            await ledger.bump(key)

        group = next(iter(app.manager.group_states().values()))
        assert len(group.proclets) == 2
        app.manager.want_replicas(group.group_id, 1, owner="autoscaler")
        await app.manager.reconcile()
        assert len(group.proclets) == 1

        # Every acknowledged increment survives on the survivor.
        for key in KEYS:
            assert await ledger.read(key) == 2
        # The handover went through the drain path, not lazy recovery.
        shards = app.manager.metrics.counter("state_handover_shards").get()
        assert shards.value > 0
        await app.shutdown()

    async def test_replacement_retires_old_proclets_with_state(self):
        app = await deployed(replicas=1)
        ledger = app.get(Ledger)
        for key in KEYS[:10]:
            await ledger.bump(key)
        # Re-placement to an identical plan still cycles through retire
        # (old proclets adopt into the new groups), state intact.
        await app.replace_placement([("tests.runtime.test_handover.Ledger",)])
        await asyncio.sleep(0.1)
        for key in KEYS[:10]:
            assert await ledger.read(key) == 1
        await app.shutdown()


class TestCrashRecovery:
    async def test_killed_replica_recovers_from_wal(self):
        app = await deployed(replicas=1)
        ledger = app.get(Ledger)
        for key in KEYS[:10]:
            await ledger.bump(key)

        (proclet_id,) = list(app.envelopes)
        app.kill_replica(proclet_id)
        # The sweep loop notices the death and relaunches; the new replica
        # replays the shared WAL directory on first touch.
        deadline = asyncio.get_running_loop().time() + 10.0
        while not app.manager.replica_addresses(
            "tests.runtime.test_handover.Ledger"
        ):
            assert asyncio.get_running_loop().time() < deadline
            await app.manager.control_tick()
            await asyncio.sleep(0.05)

        for key in KEYS[:10]:
            assert await ledger.read(key) == 1
        await app.shutdown()


class TestStaleAssignmentRedirect:
    async def test_wrong_owner_reject_redirects_not_silently_writes(self):
        # One replica first: the driver caches a generation-1 assignment
        # that maps every key to replica A.
        app = await deployed(replicas=1)
        ledger = app.get(Ledger)
        for key in KEYS:
            await ledger.bump(key)

        component = "tests.runtime.test_handover.Ledger"
        table = app.driver._table
        stale = table.assignment(component)
        assert stale is not None and stale.generation >= 1
        addr_a = stale.replicas[0]

        # The ring changes: scale to 2.  The manager pushes generation-2
        # to the group's proclets (ownership checks update), but the
        # driver is no proclet of the group — its cache stays stale.
        group = next(iter(app.manager.group_states().values()))
        app.manager.want_replicas(group.group_id, 2, owner="autoscaler")
        await app.manager.reconcile()
        await asyncio.sleep(0.2)  # let routing pushes land

        fresh = app.manager._assignments[component]
        assert fresh.generation > stale.generation
        moved = [k for k in KEYS if fresh.replica_for(k) != addr_a]
        assert moved  # consistent hashing moved ~half the keys

        assert table.assignment(component) is stale  # still the old view
        # Writing a moved key through the stale cache: replica A rejects
        # with WrongOwner, the stub invalidates + re-resolves, the retry
        # lands on the new owner — the caller just sees success.
        assert await ledger.bump(moved[0]) == 2

        # The stale entry was dropped and re-resolved to generation 2.
        refreshed = table.assignment(component)
        assert refreshed is not None and refreshed.generation == fresh.generation

        # Replica A took no breaker penalty: it is healthy, only the
        # caller's map was old.
        breakers = app.driver.breakers
        assert breakers.open_count(component) == 0

        # And the rejection is observable on A's side.
        (envelope_a,) = [
            e for e in app.envelopes.values() if e.address == addr_a
        ]
        rejects = envelope_a.proclet.metrics.counter("state_wrong_owner").get(
            component=component
        )
        assert rejects.value >= 1
        await app.shutdown()
