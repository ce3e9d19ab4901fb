"""Real child-process deployments (the paper's multiprocess runtime, §4.3).

These are the heaviest tests in the suite: every proclet is a forked
Python interpreter, envelopes talk to children over UNIX control sockets,
and the data plane crosses real process boundaries.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.boutique import ALL_COMPONENTS, Address, CreditCard, Frontend
from repro.core.config import AppConfig
from repro.runtime.deployers.multi import deploy_multiprocess

ADDRESS = Address("1 Hacker Way", "Menlo Park", "CA", "US", 94025)
CARD = CreditCard("4432-8015-6152-0454", 672, 2030, 1)


async def subprocess_boutique(colocate=(), name="subproc"):
    config = AppConfig(name=name, colocate=colocate)
    return await deploy_multiprocess(
        config, components=ALL_COMPONENTS, mode="subprocess"
    )


class TestSubprocessDeployment:
    async def test_full_order_across_eleven_processes(self):
        app = await subprocess_boutique()
        try:
            assert app.manager.total_replicas() == 11
            pids = {e.pid for e in app.envelopes.values()}
            assert len(pids) == 11  # truly distinct OS processes
            fe = app.get(Frontend)
            await fe.add_to_cart("u1", "OLJCESPC7Z", 2)
            order = await fe.checkout("u1", "USD", ADDRESS, "u@x.com", CARD)
            assert order.items
        finally:
            await app.shutdown()

    async def test_children_reaped_on_shutdown(self):
        app = await subprocess_boutique(name="reap")
        envelopes = list(app.envelopes.values())
        await app.shutdown()
        assert all(e.returncode is not None for e in envelopes)

    async def test_colocated_subprocess_groups(self):
        groups = (
            tuple(n for n in (
                "repro.boutique.cart.Cart",
                "repro.boutique.cartstore.CartStore",
                "repro.boutique.frontend.Frontend",
                "repro.boutique.checkout.Checkout",
            )),
        )
        app = await subprocess_boutique(colocate=groups, name="coloc")
        try:
            assert app.manager.total_replicas() == 8  # 4 merged + 7 singles
            fe = app.get(Frontend)
            await fe.add_to_cart("u1", "OLJCESPC7Z", 1)
            order = await fe.checkout("u1", "EUR", ADDRESS, "u@x.com", CARD)
            assert order.shipping_cost.currency_code == "EUR"
        finally:
            await app.shutdown()

    async def test_kill_child_process_and_recover(self):
        app = await subprocess_boutique(name="kill")
        try:
            fe = app.get(Frontend)
            await fe.add_to_cart("u1", "OLJCESPC7Z", 1)

            victim = next(
                proclet_id
                for proclet_id, env in app.envelopes.items()
                if "catalog" in str(env._spec.get("components", "")).lower()
                or True  # any victim works; pick the first
            )
            app.kill_replica(victim)
            await app.manager.reconcile()
            await asyncio.sleep(0.3)

            # The group was relaunched as a fresh child; the app serves.
            home = await fe.home("u1", "USD")
            assert home.products
        finally:
            await app.shutdown()
