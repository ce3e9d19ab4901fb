"""The multiprocess deployer (in-process envelope mode)."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import AppConfig
from repro.core.errors import RemoteApplicationError
from repro.runtime.deployers.multi import deploy_multiprocess

from tests.conftest import Adder, Flaky, Greeter, KVStore


async def deployed(demo_registry, **kwargs):
    config = kwargs.pop("config", AppConfig(name="t"))
    return await deploy_multiprocess(config, registry=demo_registry, **kwargs)


class TestBasics:
    async def test_remote_call_through_driver(self, demo_registry):
        app = await deployed(demo_registry)
        assert await app.get(Adder).add(2, 3) == 5
        await app.shutdown()

    async def test_cross_component_dependency_is_remote(self, demo_registry):
        app = await deployed(demo_registry)
        assert await app.get(Greeter).greet("Ana") == "Hello, Ana! (4)"
        # Greeter and Adder live in different proclets: the greeter's
        # proclet must have recorded a remote call to Adder.
        greeter_name = app.build.by_iface(Greeter).name
        edges = [
            e
            for e in app.manager.call_graph.edges()
            if e.caller == greeter_name and e.callee.endswith("Adder")
        ]
        # Heartbeats are asynchronous; poll briefly.
        for _ in range(30):
            if edges:
                break
            await asyncio.sleep(0.1)
            edges = [
                e
                for e in app.manager.call_graph.edges()
                if e.caller == greeter_name and e.callee.endswith("Adder")
            ]
        assert edges and edges[0].remote_calls >= 1
        await app.shutdown()

    async def test_one_proclet_per_group(self, demo_registry):
        app = await deployed(demo_registry)
        assert app.manager.total_replicas() == 4  # four singleton groups
        await app.shutdown()

    async def test_colocated_components_share_proclet(self, demo_registry):
        from repro.core.component import component_name

        config = AppConfig(name="t", colocate=((Adder, Greeter),))
        app = await deployed(demo_registry, config=config)
        assert app.manager.total_replicas() == 3
        assert await app.get(Greeter).greet("Bo") == "Hello, Bo! (3)"
        # The co-located dependency call is local (no Adder remote edge).
        greeter_proclet = next(
            e.proclet
            for e in app.envelopes.values()
            if component_name(Greeter) in e.proclet.hosted
        )
        assert component_name(Adder) in greeter_proclet.hosted
        await app.shutdown()

    async def test_lazy_start(self, demo_registry):
        app = await deployed(demo_registry, eager=False)
        assert app.manager.total_replicas() == 0
        assert await app.get(Adder).add(1, 1) == 2  # triggers StartComponent
        assert app.manager.total_replicas() == 1
        await app.shutdown()

    async def test_retry_budget_exhaustion_surfaces_unavailable(self, demo_registry):
        from repro.core.errors import Unavailable

        app = await deployed(demo_registry)
        flaky = app.get(Flaky)
        # Fails with retryable Unavailable 10 times; max_retries=2, so the
        # caller sees the failure after the budget is spent.
        with pytest.raises(Unavailable):
            await flaky.work(10)
        await app.shutdown()


class TestReplication:
    async def test_replicated_component(self, demo_registry):
        config = AppConfig(name="t", replicas={KVStore: 3})
        app = await deployed(demo_registry, config=config)
        name = app.build.by_iface(KVStore).name
        assert len(app.manager.replica_addresses(name)) == 3
        await app.shutdown()

    async def test_routed_affinity_across_replicas(self, demo_registry):
        config = AppConfig(name="t", replicas={KVStore: 3})
        app = await deployed(demo_registry, config=config)
        kv = app.get(KVStore)
        # Writes land on the replica that owns each key; reads of the same
        # key go to the same replica, so every value is found.
        for i in range(30):
            await kv.put(f"key-{i}", f"value-{i}")
        for i in range(30):
            assert await kv.get(f"key-{i}") == f"value-{i}"
        # Different keys actually spread across replicas.
        owners = {await kv.which_replica(f"key-{i}") for i in range(30)}
        assert len(owners) > 1
        await app.shutdown()

    async def test_retryable_component_errors_retry(self, demo_registry):
        app = await deployed(demo_registry)
        flaky = app.get(Flaky)
        # Fails twice with Unavailable, succeeds on the third attempt;
        # max_retries=2 means exactly enough retries.
        assert await flaky.work(2) == "done"
        await app.shutdown()


class TestFailureRecovery:
    async def test_kill_and_restart(self, demo_registry):
        app = await deployed(demo_registry)
        adder = app.get(Adder)
        assert await adder.add(1, 1) == 2

        name = app.build.by_iface(Adder).name
        victim = next(
            proclet_id
            for proclet_id, env in app.envelopes.items()
            if name in env.proclet.hosted
        )
        app.kill_replica(victim)
        await app.manager.reconcile()
        await asyncio.sleep(0.05)

        # The manager restarted the group; calls work again.
        assert await adder.add(2, 2) == 4
        await app.shutdown()

    async def test_version_is_consistent_everywhere(self, demo_registry):
        app = await deployed(demo_registry)
        versions = {env.proclet.build.version for env in app.envelopes.values()}
        assert versions == {app.version}
        await app.shutdown()
