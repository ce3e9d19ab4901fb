"""Random interleavings against the manager's one reconcile step.

A hypothesis state machine drives a real :class:`Manager` over a fake
launcher and an injected clock — no sockets, no sleeps.  Its rules are the
events the control plane must absorb: kills the manager hears about,
silent kills it must detect from missed heartbeats, load steps for the
HPA, anomaly signals firing and resolving for the remediation controller,
placement requests, and control ticks.  After every step it checks:

* convergence — after a reconcile every started group runs exactly its
  clamped desired count: ``min(ceiling, max(want, unexpired floor))``;
* no oscillation — under a constant load, with no signal firing and no
  failed replica still pending, a group's replica count never reverses
  direction;
* blast radius — remediation never retires more of a group inside one
  cooldown window than the guardrail's fraction allows;
* the journal — every launch, stop, and dropped dead replica has exactly
  one journal entry naming a known intent owner.

Runs derandomized, so a failure replays identically.
"""

from __future__ import annotations

import asyncio

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import AppConfig, AutoscaleConfig
from repro.core.registry import Registry
from repro.observability.signals import Signal
from repro.runtime.manager import Manager

from tests.conftest import DEMO_PAIRS

TICK_S = 0.5
SUSPECT_AFTER_S = 1.0
DEAD_AFTER_S = 2.5
COOLDOWN_S = 2.0
BLAST = 1 / 3
CEILING = 5
OWNERS = {"health", "autoscaler", "remediation", "placement", "start"}


class SimLauncher:
    """Proclets that register as they start; the test heartbeats them."""

    def __init__(self) -> None:
        self.manager: Manager | None = None
        self.starts = 0
        self.stopped: set[str] = set()
        self.registered: set[str] = set()
        self._seq = 0

    async def start_replica(self, group_id: int, replica_index: int) -> None:
        self.starts += 1
        self._seq += 1
        proclet_id = f"p{self._seq}"
        self.registered.add(proclet_id)
        await self.manager.register_replica(
            proclet_id, f"tcp://10.0.0.1:{self._seq}", group_id
        )

    async def stop_replica(self, proclet_id: str) -> None:
        self.stopped.add(proclet_id)

    async def drain_replica(self, proclet_id: str, deadline_s: float) -> None:
        return None

    async def update_hosting(self, proclet_id: str, components: list[str]) -> None:
        pass

    async def push_routing(self, proclet_id: str, component: str, info: dict) -> None:
        pass

    async def push_state(self, proclet_id: str, shards: list) -> int:
        return 0


class ScriptedBoard:
    """A signal board whose firing set the state machine scripts."""

    def __init__(self) -> None:
        self.signals: list[Signal] = []

    def evaluate(self, now: float) -> None:
        pass

    def firing(self) -> list[Signal]:
        return list(self.signals)


class ReconcilerMachine(RuleBasedStateMachine):
    @initialize()
    def deploy(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.now = 1000.0
        registry = Registry()
        for iface, impl in DEMO_PAIRS:
            registry.register(iface, impl)
        build = registry.freeze()
        self.components = sorted(build.names())
        config = AppConfig(
            name="reconcile",
            remediation="on",
            remediation_cooldown_s=COOLDOWN_S,
            remediation_blast_fraction=BLAST,
            remediation_journal_size=100_000,
            autoscale=AutoscaleConfig(
                max_replicas=CEILING,
                target_utilization=0.5,
                scale_down_stabilization_s=0.0,
            ),
        )
        self.launcher = SimLauncher()
        self.manager = Manager(
            build,
            config.resolve(build.names()),
            self.launcher,
            clock=lambda: self.now,
            autoscale_enabled=True,
        )
        self.launcher.manager = self.manager
        self.manager.health._suspect_after_s = SUSPECT_AFTER_S
        self.manager.health._dead_after_s = DEAD_AFTER_S
        self.board = ScriptedBoard()
        self.manager.signals = self.board
        #: Killed proclets (reported or silent): they stop heartbeating.
        self.quiet: set[str] = set()
        self.load = 0.4  # cores offered to every group
        self.reconciled = False
        self.history: dict[int, list[int]] = {}
        self.remediation_retires: list[tuple[float, int]] = []
        self.peak_live: list[tuple[float, int, int]] = []
        self.journal_seen = 0
        self._run(self.manager.start_all())
        self.reconciled = True

    def teardown(self) -> None:
        loop = getattr(self, "loop", None)
        if loop is None:
            return
        for task in asyncio.all_tasks(loop):
            task.cancel()
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()

    # -- helpers -------------------------------------------------------------

    def _run(self, coro) -> None:
        self.loop.run_until_complete(coro)
        self._observe()

    def _disturb(self) -> None:
        self.history.clear()
        self.reconciled = False

    def _serving(self) -> list[str]:
        return sorted(
            p.proclet_id
            for g in self.manager.group_states().values()
            for p in self.manager.live_replicas(g)
            if p.proclet_id not in self.quiet
        )

    def _observe(self) -> None:
        """Fold this step's journal entries and live counts into the model."""
        journal = list(self.manager.journal)
        for entry in journal[self.journal_seen :]:
            if entry["owner"] == "remediation" and entry["action"] == "retire":
                self.remediation_retires.append((self.now, entry["group"]))
        self.journal_seen = len(journal)
        for group in self.manager.group_states().values():
            live = len(self.manager.live_replicas(group))
            self.peak_live.append((self.now, group.group_id, live))

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: self._serving())
    @rule(pick=st.integers(min_value=0, max_value=50))
    def kill(self, pick: int) -> None:
        victims = self._serving()
        victim = victims[pick % len(victims)]
        self.manager.health.mark_dead(victim)
        self.quiet.add(victim)
        self._disturb()

    @precondition(lambda self: self._serving())
    @rule(pick=st.integers(min_value=0, max_value=50))
    def silent_kill(self, pick: int) -> None:
        victims = self._serving()
        victim = victims[pick % len(victims)]
        self.quiet.add(victim)
        self._disturb()

    @rule(load=st.sampled_from([0.1, 0.4, 0.9, 1.8, 3.0]))
    def load_step(self, load: float) -> None:
        self.load = load
        self._disturb()

    @rule(
        pick=st.integers(min_value=0, max_value=3),
        name=st.sampled_from(["p99_ms", "error_rate"]),
    )
    def fire_signal(self, pick: int, name: str) -> None:
        scope = self.components[pick % len(self.components)]
        self.board.signals.append(
            Signal(kind="anomaly", name=name, scope=scope, firing=True,
                   value=1.0, baseline=0.0, detail="scripted")
        )
        self._disturb()

    @precondition(lambda self: self.board.signals)
    @rule()
    def resolve_signals(self) -> None:
        self.board.signals = []
        self._disturb()

    @rule(shape=st.sampled_from(["merge_all", "split_all", "pairs"]))
    def place(self, shape: str) -> None:
        names = self.components
        if shape == "merge_all":
            groups = [tuple(names)]
        elif shape == "split_all":
            groups = [(n,) for n in names]
        else:
            groups = [tuple(names[:2]), tuple(names[2:])]
        self.manager.apply_placement(groups)
        self._disturb()
        self._run(self.manager.reconcile())
        self.reconciled = True

    @rule(gap=st.sampled_from([0.0, 0.0, 0.0, 60.0]), ticks=st.integers(1, 6))
    def tick(self, gap: float, ticks: int) -> None:
        """``ticks`` control passes, the first after ``gap`` extra seconds
        (long enough for floors and cooldowns to expire)."""
        manager = self.manager

        async def heartbeats_then_control() -> None:
            for group in manager.group_states().values():
                senders = [
                    p for p in manager.live_replicas(group)
                    if p.proclet_id not in self.quiet
                ]
                for p in senders:
                    await manager.heartbeat(p.proclet_id, self.load / len(senders))
            await manager.control_tick(health=True, telemetry=True)

        if gap:
            self.history.clear()  # floors may expire: a new era
        self.now += gap
        for _ in range(ticks):
            self.now += TICK_S
            self._run(heartbeats_then_control())
            self.reconciled = True
            self.converged_to_clamped_desired()
            if self.board.signals or any(
                manager.health.state(pid) is not None for pid in self.quiet
            ):
                self.history.clear()
                continue
            for group in manager.group_states().values():
                self.history.setdefault(group.group_id, []).append(
                    len(manager.live_replicas(group))
                )

    # -- invariants ----------------------------------------------------------

    @invariant()
    def converged_to_clamped_desired(self) -> None:
        if not getattr(self, "reconciled", False):
            return
        for group in self.manager.group_states().values():
            desired = group.want.replicas
            floor = group.floor
            if floor is not None and floor.until > self.now:
                desired = max(desired, floor.replicas)
            desired = min(desired, CEILING)
            assert group.target_replicas == desired, (group.group_id, group)
            live = len(self.manager.live_replicas(group))
            assert live == desired, (group.group_id, live, desired)

    @invariant()
    def no_oscillation_under_constant_load(self) -> None:
        for gid, counts in getattr(self, "history", {}).items():
            steps = [b - a for a, b in zip(counts, counts[1:]) if b != a]
            assert all(s > 0 for s in steps) or all(s < 0 for s in steps), (
                f"group {gid} replica count reversed direction: {counts}"
            )

    @invariant()
    def blast_radius_never_exceeded(self) -> None:
        for t, gid in getattr(self, "remediation_retires", []):
            window = [
                r for r in self.remediation_retires
                if r[1] == gid and t - COOLDOWN_S <= r[0] <= t
            ]
            peak = max(
                (n for (ts, g, n) in self.peak_live
                 if g == gid and t - COOLDOWN_S - TICK_S <= ts <= t),
                default=0,
            )
            allowed = max(1, int(peak * BLAST))
            assert len(window) <= allowed, (gid, t, window, peak)

    @invariant()
    def every_change_journaled_once(self) -> None:
        if not hasattr(self, "manager"):
            return
        changes = [e for e in self.manager.journal if e["verdict"] == "applied"]
        assert all(e["owner"] in OWNERS for e in self.manager.journal)
        count = {a: sum(e["action"] == a for e in changes) for a in
                 ("launch", "retire", "drop")}
        launcher = self.launcher
        in_groups = {p.proclet_id for p in self.manager.proclets()}
        dropped = launcher.registered - in_groups - launcher.stopped
        assert count["launch"] == launcher.starts
        assert count["retire"] == len(launcher.stopped)
        assert count["drop"] == len(dropped)


ReconcilerMachine.TestCase.settings = settings(
    derandomize=True,
    database=None,
    max_examples=40,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestReconciler = ReconcilerMachine.TestCase
