"""Seeded inputs, reference answers and deployments for each workload.

Everything a run sends is generated here from ``(workload, seed)`` before
any timed phase; the program under test only ever sees these inputs.
Expected answers come from :mod:`repro.boutique.data` and a per-user cart
model kept by the benchmark, never from the components being measured.

Requests are plain tuples ``(kind, user, product_id, quantity, currency)``
(echo requests are ``("echo", payload)``).  A user's requests are never in
flight together: each closed-loop caller owns its users, and open-loop
arrivals cycle through a pool large enough that a user recurs only
seconds later.  Expectations are taken from the model when a request is
sent, so the model sees each user's requests in the order they run.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.boutique import ALL_COMPONENTS, Frontend
from repro.boutique.data import ADS_BY_CATEGORY, CURRENCY_RATES, PRODUCTS
from repro.boutique.types import Address, CreditCard
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.registry import Registry, global_registry
from repro.runtime.deployers.multi import MultiProcessApp, deploy_multiprocess
from repro.sim.workload import BOUTIQUE_MIX_WEIGHTS

WORKLOADS = ("echo", "boutique-read", "boutique-write", "boutique-colocated")

#: Request kinds of each boutique workload, with their Locust weights.
MIXES: dict[str, dict[str, float]] = {
    "boutique-read": {k: BOUTIQUE_MIX_WEIGHTS[k] for k in ("home", "browse", "view_cart")},
    "boutique-write": {k: BOUTIQUE_MIX_WEIGHTS[k] for k in ("add_to_cart", "checkout")},
    "boutique-colocated": dict(BOUTIQUE_MIX_WEIGHTS),
}

PAYLOAD_BYTES = 128
PAYLOAD_POOL = 256
USERS_PER_CALLER = 8
OPEN_USER_POOL = 2048
STREAM_LENGTH = 1024

NANOS = 1_000_000_000
PRODUCT_IDS = [p.id for p in PRODUCTS]
CATALOG = {p.id: p for p in PRODUCTS}
CURRENCIES = sorted(CURRENCY_RATES)
ALL_ADS = {(url, text) for entries in ADS_BY_CATEGORY.values() for url, text in entries}
ADDRESSES = [
    Address("1600 Amphitheatre Pkwy", "Mountain View", "CA", "US", 94043),
    Address("1 Main St", "Springfield", "IL", "US", 62701),
    Address("221B Baker St", "London", "LDN", "GB", 10001),
]
CARDS = [
    CreditCard("4432-8015-6152-0454", 672, 2030, 1),
    CreditCard("5555-5555-5555-4444", 123, 2031, 6),
]
SHIPPING_FLAT_NANOS = 8 * NANOS + 990_000_000
SHIPPING_PER_EXTRA_ITEM_NANOS = 500_000_000


class Echo(Component):
    async def echo(self, payload: bytes) -> bytes: ...


class EchoImpl:
    async def echo(self, payload: bytes) -> bytes:
        return payload


@dataclass
class Plan:
    """One run's inputs: closed-loop streams, open-loop arrivals, probe."""

    workload: str
    probe: tuple
    streams: list[list[tuple]]
    arrivals: list[tuple[float, tuple]]


def make_plan(
    workload: str, seed: int, *, callers: int, open_rate: float, open_seconds: float
) -> Plan:
    """Generate every input of a run from ``(workload, seed)``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "echo":
        pool = [rng.randbytes(PAYLOAD_BYTES) for _ in range(PAYLOAD_POOL)]

        def draw(_user: str) -> tuple:
            return ("echo", rng.choice(pool))

        probe = ("echo", pool[0])
    else:
        kinds = list(MIXES[workload])
        weights = [MIXES[workload][k] for k in kinds]

        def draw(user: str) -> tuple:
            kind = rng.choices(kinds, weights)[0]
            return (kind, user, rng.choice(PRODUCT_IDS), rng.randint(1, 3), rng.choice(CURRENCIES))

        probe = ("home", f"probe-{seed}", PRODUCT_IDS[0], 1, "USD")

    def new_user() -> str:
        return f"u{rng.getrandbits(48):012x}"

    streams = []
    for _ in range(callers):
        users = [new_user() for _ in range(USERS_PER_CALLER)]
        streams.append([draw(users[i % len(users)]) for i in range(STREAM_LENGTH)])
    open_users = [new_user() for _ in range(OPEN_USER_POOL)]
    arrivals = []
    t = rng.expovariate(open_rate)
    while t < open_seconds:
        arrivals.append((t, draw(open_users[len(arrivals) % OPEN_USER_POOL])))
        t += rng.expovariate(open_rate)
    return Plan(workload, probe, streams, arrivals)


# -- reference answers ---------------------------------------------------------


def convert_nanos(units: int, nanos: int, from_code: str, to_code: str) -> int:
    """Catalog price in ``to_code`` nanos, by the demo's EUR-pivot rule."""
    total = units * NANOS + nanos
    if from_code == to_code:
        return total
    return round(total / CURRENCY_RATES[from_code] * CURRENCY_RATES[to_code])


def price_nanos(product_id: str, currency: str) -> int:
    price = CATALOG[product_id].price
    return convert_nanos(price.units, price.nanos, price.currency_code, currency)


def money_nanos(money: Any, currency: str) -> Optional[int]:
    """A returned Money as signed nanos, or None if it is malformed."""
    if money.currency_code != currency or abs(money.nanos) >= NANOS:
        return None
    if (money.units > 0 and money.nanos < 0) or (money.units < 0 and money.nanos > 0):
        return None
    return money.units * NANOS + money.nanos


def product_matches(got: Any, product_id: str, currency: str) -> bool:
    want = CATALOG[product_id]
    return (
        got.id == want.id
        and got.name == want.name
        and got.description == want.description
        and got.picture == want.picture
        and list(got.categories) == list(want.categories)
        and money_nanos(got.price, currency) == price_nanos(product_id, currency)
    )


class Reference:
    """Per-user cart model and the answer each request must produce."""

    def __init__(self) -> None:
        self.carts: dict[str, dict[str, int]] = {}

    def expect(self, req: tuple) -> Any:
        """The expected answer of ``req``; applies its writes to the model."""
        kind = req[0]
        if kind == "echo":
            return req[1]
        _, user, product, qty, currency = req
        cart = self.carts.setdefault(user, {})
        if kind in ("home", "view_cart"):
            return sorted(cart.items()) if kind == "view_cart" else sum(cart.values())
        if kind == "browse":
            return product
        cart[product] = cart.get(product, 0) + qty
        total = sum(cart.values())
        if kind == "add_to_cart":
            return total
        lines = sorted(cart.items())
        cart.clear()
        return total, lines

    def check(self, req: tuple, want: Any, got: Any) -> bool:
        kind = req[0]
        if kind == "echo":
            return bytes(got) == want
        currency = req[4]
        if kind == "home":
            return (
                len(got.products) == len(PRODUCTS)
                and all(
                    product_matches(p, want_p.id, currency)
                    for p, want_p in zip(got.products, PRODUCTS)
                )
                and got.cart_size == want
                and (got.ad.redirect_url, got.ad.text) in ALL_ADS
                and list(got.currency_codes) == CURRENCIES
            )
        if kind == "browse":
            return product_matches(got, want, currency)
        if kind == "view_cart":
            return [(i.product_id, i.quantity) for i in got] == want
        if kind == "add_to_cart":
            return got == want
        added, order = got
        total, lines = want
        if added != total or [
            (oi.item.product_id, oi.item.quantity) for oi in order.items
        ] != lines:
            return False
        if any(
            money_nanos(oi.cost, currency) != price_nanos(oi.item.product_id, currency)
            for oi in order.items
        ):
            return False
        extra = max(0, total - 5)
        ship = convert_nanos(
            0, SHIPPING_FLAT_NANOS + extra * SHIPPING_PER_EXTRA_ITEM_NANOS, "USD", currency
        )
        charged = ship + sum(price_nanos(p, currency) * q for p, q in lines)
        shown = money_nanos(order.shipping_cost, currency)
        if shown is None:
            return False
        for oi in order.items:
            shown += money_nanos(oi.cost, currency) * oi.item.quantity
        return (
            shown == charged
            and bool(order.order_id)
            and bool(order.shipping_tracking_id)
            and order.shipping_address == ADDRESSES[_pick(req[1]) % len(ADDRESSES)]
        )


def _pick(user: str) -> int:
    """A user's fixed choice of address and card (stable across processes)."""
    return zlib.crc32(user.encode())


async def call(fe: Any, req: tuple) -> Any:
    """Send one generated request through the workload's entry stub."""
    kind = req[0]
    if kind == "echo":
        return await fe.echo(req[1])
    _, user, product, qty, currency = req
    if kind == "home":
        return await fe.home(user, currency)
    if kind == "browse":
        return await fe.browse_product(user, product, currency)
    if kind == "view_cart":
        return await fe.view_cart(user, currency)
    added = await fe.add_to_cart(user, product, qty)
    if kind == "add_to_cart":
        return added
    pick = _pick(user)
    order = await fe.checkout(
        user,
        currency,
        ADDRESSES[pick % len(ADDRESSES)],
        f"{user}@example.com",
        CARDS[pick % len(CARDS)],
    )
    return added, order


# -- deployments -----------------------------------------------------------------


async def deploy(workload: str, state_dir: str) -> tuple[MultiProcessApp, Any]:
    """Deploy the workload's application in-process; return it and its entry stub.

    The split workloads enter through ``app.get``'s remote stub (one client
    connection to the Frontend or Echo proclet).  ``boutique-colocated``
    puts all eleven components in one group and enters through that
    proclet's own stub, so every call on the request path is local.
    """
    config = AppConfig(name=f"perfbench-{workload}", state_dir=state_dir)
    if workload == "echo":
        registry = Registry()
        registry.register(Echo, EchoImpl)
        app = await deploy_multiprocess(config, registry=registry, mode="inproc")
        return app, app.get(Echo)
    if workload == "boutique-colocated":
        names = global_registry().freeze(components=ALL_COMPONENTS).names()
        config = config.colocate_all(names)
    app = await deploy_multiprocess(config, components=ALL_COMPONENTS, mode="inproc")
    if workload != "boutique-colocated":
        return app, app.get(Frontend)
    frontend = app.build.by_iface(Frontend).name
    for envelope in app.envelopes.values():
        if frontend in envelope.proclet.hosted:
            return app, envelope.proclet.get(Frontend)
    await app.shutdown()
    raise RuntimeError("no proclet hosts the Frontend")
