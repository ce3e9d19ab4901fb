"""The global manager: all control-plane decisions (§4.3, Figure 3).

    "a global manager that orchestrates the execution of the proclets ...
    interacts with the envelopes to collect health and load information of
    the running components; to aggregate metrics, logs, and traces ... and
    to handle requests to start new components."

The manager owns:

* the placement plan (which components share a process, from config or
  from call-graph recommendations),
* the replica lifecycle as desired state: controllers (health, the HPA,
  remediation, placement, StartComponent) only write intents, and one
  reconcile step (:meth:`Manager.reconcile`) acts on them through a
  deployer-provided :class:`ReplicaLauncher` — the manager decides, the
  deployer does, which is how one manager drives subprocesses, threads,
  or simulated pods — journaling every replica-set change,
* routing: replica sets and sliced assignments per component, with
  generations bumped on every membership change,
* telemetry aggregation: metrics, logs, health.

It deliberately implements *no data plane*: proclets talk to each other
directly (§4.3).
"""

from __future__ import annotations

import asyncio
import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol

from repro.core.config import ResolvedConfig
from repro.core.errors import ComponentNotFound, PlacementError
from repro.core.registry import FrozenRegistry
from repro.observability.logs import LogAggregator, records_from_wire
from repro.observability.metrics import MetricsRegistry
from repro.runtime.autoscaler import Autoscaler
from repro.runtime.health import HealthState, HealthTracker
from repro.runtime.placement import GroupPlacement, PlacementPlan, plan_from_config
from repro.runtime.routing import Assignment, build_assignment

log = logging.getLogger("repro.runtime.manager")

#: Intent owners, as the action journal names them.
HEALTH = "health"
AUTOSCALER = "autoscaler"
REMEDIATION = "remediation"
PLACEMENT = "placement"
START = "start"

_LIVE = (HealthState.HEALTHY, HealthState.STARTING, HealthState.SUSPECT)


class ReplicaLauncher(Protocol):
    """Deployer-side effector for the manager's decisions."""

    async def start_replica(self, group_id: int, replica_index: int) -> None:
        """Launch a new proclet for ``group_id`` (async: it will register)."""
        ...

    async def stop_replica(self, proclet_id: str) -> None:
        """Stop a running proclet."""
        ...

    async def update_hosting(self, proclet_id: str, components: list[str]) -> None:
        """Push a new hosted-component set to a running proclet (used by
        live re-placement, §3.1/§5.1)."""
        ...

    async def drain_replica(
        self, proclet_id: str, deadline_s: float
    ) -> Optional[dict[str, Any]]:
        """Let the proclet finish in-flight RPCs before ``stop_replica``;
        returns its ``{"drained_s", "handover": [shard manifests]}``
        response, or None when the proclet is already gone."""
        ...

    async def push_routing(self, proclet_id: str, component: str, info: dict[str, Any]) -> None:
        """Push a fresh routing assignment to one of a group's proclets."""
        ...

    async def push_state(self, proclet_id: str, shards: list[dict[str, Any]]) -> int:
        """Hand a retiree's shard manifests to a survivor; returns replays."""
        ...


@dataclass
class Intent:
    """One controller's wish; only :meth:`Manager.reconcile` acts on it."""

    owner: str  # HEALTH | AUTOSCALER | REMEDIATION | PLACEMENT | START
    replicas: int = 0
    reason: str = ""
    #: Floors expire (monotonic clock); other intents hold until replaced.
    until: float = math.inf


@dataclass
class ProcletInfo:
    proclet_id: str
    group_id: int
    address: str
    replica_index: int
    load: float = 0.0
    registered_at: float = 0.0


@dataclass
class GroupState:
    group_id: int
    components: tuple[str, ...]
    #: Desired state: the count StartComponent, the HPA, or placement asked
    #: for (0 until someone asks: lazy groups start on first use), and an
    #: expiring remediation floor.  ``target_replicas`` is their clamped
    #: combination as of the last reconcile pass.
    want: Intent = field(default_factory=lambda: Intent(START))
    floor: Optional[Intent] = None
    target_replicas: int = 0
    next_replica_index: int = 0
    #: Distinct index for every launch, handed to the new proclet as its
    #: replica identity (routed components partition state by it).
    launch_seq: int = 0
    launching: int = 0  # launches not yet registered
    proclets: dict[str, ProcletInfo] = field(default_factory=dict)
    registered_event: asyncio.Event = field(default_factory=asyncio.Event)
    #: Live addresses the last routing publication carried.
    published: tuple[str, ...] = ()


class Manager:
    """The deployment's brain.  One per application version."""

    def __init__(
        self,
        build: FrozenRegistry,
        resolved: ResolvedConfig,
        launcher: ReplicaLauncher,
        *,
        plan: Optional[PlacementPlan] = None,
        clock=time.monotonic,
        autoscale_enabled: bool = False,
    ) -> None:
        self.build = build
        self.resolved = resolved
        self.launcher = launcher
        self.clock = clock
        self.plan = plan or plan_from_config(resolved)
        self.plan.validate(build.names())
        self.autoscale_enabled = autoscale_enabled

        # Manager-side telemetry is split: proclets ship *cumulative*
        # snapshots on every heartbeat, which we store per proclet (latest
        # wins — merging cumulative data additively every heartbeat would
        # double-count), while the manager's own counters (drain, state
        # handover) live in a private registry.  ``self.metrics`` exposes
        # the merged deployment-wide view.
        self._own_metrics = MetricsRegistry()
        self._proclet_metrics: dict[str, dict[str, Any]] = {}
        self._merged_metrics: Optional[MetricsRegistry] = None
        self.logs = LogAggregator()
        self.health = HealthTracker()
        # The bird's-eye call graph (merged from every proclet, §5.1).
        from repro.core.call_graph import CallGraph
        from repro.observability.signals import SignalBoard, default_slos
        from repro.observability.timeseries import TelemetryPipeline, TimeSeriesStore
        from repro.observability.tracestore import TraceStore

        self.call_graph = CallGraph()
        # Cross-proclet traces, merged from every proclet's spans: the
        # tail-sampling store (Tracer-compatible query surface).
        app = resolved.app
        self.tracer = TraceStore(
            max_traces=app.trace_max_traces, sample_rate=app.trace_sample_rate
        )
        # Live pipeline: per-second series from snapshot deltas, and the
        # anomaly/SLO signal board evaluated on every telemetry tick.
        self.timeseries = TimeSeriesStore()
        self.pipeline = TelemetryPipeline(
            self.timeseries, slow_threshold_s=app.slo_latency_ms / 1000.0
        )
        self.signals = SignalBoard(
            self.timeseries,
            slos=default_slos(
                error_budget=app.slo_error_budget,
                latency_budget=app.slo_latency_budget,
            ),
        )
        #: Every replica-set change and every remediation decision, newest
        #: last (``repro actions``).
        self.journal: deque[dict[str, Any]] = deque(maxlen=app.remediation_journal_size)
        # The closed-loop remediation controller: consumes the signal
        # board + health/breaker evidence on the telemetry tick and writes
        # intents, bounded by guardrails.
        from repro.runtime.remediation import RemediationController

        self.remediation = RemediationController(self, app)

        self._install_plan(self.plan)
        self._assignments: dict[str, Assignment] = {}
        self._generations: dict[str, int] = {}
        #: Retirement intents: proclet id -> intent.
        self._retiring: dict[str, Intent] = {}
        #: A pending re-grouping intent.
        self._grouping: Optional[tuple[PlacementPlan, Intent]] = None
        #: Fire-and-forget routing pushes in flight (the loop holds tasks weakly).
        self._pushes: set[asyncio.Task] = set()

    # -- Table 1 API (called by envelopes on behalf of proclets) --------------

    async def register_replica(self, proclet_id: str, address: str, group_id: int) -> None:
        """RegisterReplica: a proclet is alive and serving at ``address``
        (the reconcile step that launched it publishes the membership)."""
        group = self._group(group_id)
        group.proclets[proclet_id] = ProcletInfo(
            proclet_id=proclet_id,
            group_id=group_id,
            address=address,
            replica_index=group.next_replica_index,
            registered_at=self.clock(),
        )
        group.next_replica_index += 1
        if group.launching > 0:
            group.launching -= 1
        self.health.heartbeat(proclet_id, self.clock())
        group.registered_event.set()
        log.debug("registered %s at %s (group %d)", proclet_id, address, group_id)

    async def components_to_host(self, proclet_id: str) -> list[str]:
        """ComponentsToHost: what should this proclet run?"""
        info = self._find_proclet(proclet_id)
        if info is None:
            raise ComponentNotFound(f"unknown proclet {proclet_id!r}")
        return sorted(self._groups[info.group_id].components)

    async def start_all(self) -> None:
        """Eager start: each group asks for its configured replica count."""
        for gp in self.plan.groups:
            self.want_replicas(gp.group_id, gp.replicas, owner=START, reason="eager start")
        await self.reconcile()

    async def start_component(self, component: str) -> None:
        """StartComponent: ensure at least one replica serves ``component``."""
        group = self._group_for_component(component)
        if group.want.replicas < 1:
            group.want = Intent(START, 1, f"StartComponent {component}")
        await self.reconcile(group.group_id)

    async def routing_info(self, component: str) -> dict[str, Any]:
        """Current replica set and (for routed components) the assignment."""
        group = self._group_for_component(component)
        addresses = [p.address for p in self.live_replicas(group)]
        info: dict[str, Any] = {"component": component, "replicas": addresses}
        if self._is_routed(component) and addresses:
            assignment = self._assignments.get(component)
            if assignment is None or set(assignment.replicas) != set(addresses):
                assignment = self._rebuild_assignment(component, addresses)
            info["assignment"] = assignment.to_wire()
        return info

    async def heartbeat(self, proclet_id: str, load: float) -> None:
        info = self._find_proclet(proclet_id)
        if info is None:
            return
        info.load = load
        self.health.heartbeat(proclet_id, self.clock())

    async def export_metrics(self, proclet_id: str, snapshot: dict[str, Any]) -> None:
        # Latest cumulative snapshot per proclet; retained after death so
        # deployment-wide counters stay monotonic for delta computation.
        self._proclet_metrics[proclet_id] = snapshot
        self._merged_metrics = None

    async def export_logs(self, proclet_id: str, records: list[dict[str, Any]]) -> None:
        self.logs.ingest(records_from_wire(records))

    async def export_call_graph(self, proclet_id: str, edges: list[dict[str, Any]]) -> None:
        self.call_graph.replace_from_wire(proclet_id, edges)

    async def export_traces(self, proclet_id: str, spans: list[dict[str, Any]]) -> None:
        from repro.observability.tracing import spans_from_wire

        self.tracer.ingest(spans_from_wire(spans))

    def ingest_spans(self, spans: list[Any]) -> None:
        """Ingest already-materialized Span objects (same-process envelopes)."""
        self.tracer.ingest(spans)

    # -- intents (the controllers' only way to change replica sets) -------------

    def want_replicas(self, group_id: int, replicas: int, *, owner: str, reason: str = "") -> None:
        """Ask for ``replicas`` replicas of a group (the HPA's target)."""
        self._group(group_id).want = Intent(owner, replicas, reason)

    def hold_floor(self, group_id: int, replicas: int, *, until: float, reason: str = "") -> None:
        """Keep at least ``replicas`` until ``until`` (monotonic), whatever
        the HPA wants meanwhile: a remediation scale-up must stick until
        the incident resolves."""
        self._group(group_id).floor = Intent(REMEDIATION, replicas, reason, until)

    def retire(self, proclet_id: str, *, owner: str, reason: str = "") -> None:
        """Take one replica out of routing, drain it, and stop it.  The
        group refills to its desired count, so a retirement below target
        is a restart and one above it an ejection."""
        if self._find_proclet(proclet_id) is not None:
            self._retiring[proclet_id] = Intent(owner, reason=reason)

    def apply_placement(self, groups: list[tuple[str, ...]], *, owner: str = PLACEMENT) -> None:
        """Ask to re-place components across the *running* deployment
        (§3.1, §5.1): "The runtime may also move component replicas
        around, e.g., to co-locate two chatty components in the same OS
        process."

        ``groups`` is a new, complete co-location partition (typically from
        :func:`repro.runtime.placement.recommend_groups`); an invalid one
        raises here and changes nothing.  The next reconcile step carries
        it out (see :meth:`_apply_grouping`).  Components with in-memory
        state lose it when they move — the same contract as a replica
        restart, which applications must already tolerate (§8.3).
        """
        replicas = self.resolved.replicas
        plan = PlacementPlan(
            groups=tuple(
                GroupPlacement(i, tuple(members), max(replicas[n] for n in members))
                for i, members in enumerate(groups)
            )
        )
        plan.validate(self.build.names())
        self._grouping = (plan, Intent(owner, reason=f"{len(groups)} groups"))

    def autoscale(self) -> None:
        """The HPA: write each group's target from its mean load per replica."""
        if not self.autoscale_enabled:
            return
        now = self.clock()
        for group in self._groups.values():
            live = self.live_replicas(group)
            if not live:
                continue
            utilization = sum(p.load for p in live) / len(live)
            decision = self._autoscalers[group.group_id].decide(
                now=now, current_replicas=len(live), utilization=utilization
            )
            if decision.desired != len(live):
                group.want = Intent(AUTOSCALER, decision.desired, decision.reason)

    # -- the control loop ---------------------------------------------------------

    async def control_tick(self, *, health: bool = True, telemetry: bool = False) -> None:
        """One control pass: controllers write intents, then one reconcile.

        ``health`` sweeps heartbeat ages (replicas turn SUSPECT, then DEAD);
        ``telemetry`` runs :meth:`telemetry_tick`, then the HPA and the
        remediation controller, which must see this tick's fresh verdicts.
        """
        if health:
            self.health.sweep(self.clock())
        if telemetry:
            self.telemetry_tick()
            self.autoscale()
            self.remediation.tick()
        await self.reconcile()

    async def reconcile(self, group_id: Optional[int] = None) -> None:
        """The one actuator: drive actual replica sets to the desired state.

        Applies a pending grouping, then per group (or only ``group_id``)
        drops replicas health declared dead, retires retirees and any
        surplus, and launches up to the desired count: ``want`` raised to
        an unexpired floor, clamped to ``autoscale.max_replicas``.  Only
        this step calls :meth:`_ensure_replicas`, :meth:`_retire_replica`,
        :meth:`_publish_routing`, and :meth:`_apply_grouping`; each change
        it makes is one journal entry.
        """
        if self._grouping is not None:
            await self._apply_grouping()
            group_id = None
        for group in list(self._groups.values()):
            if group_id is None or group.group_id == group_id:
                await self._reconcile_group(group)

    # -- telemetry ---------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The merged deployment-wide registry (own + every proclet's latest)."""
        merged = self._merged_metrics
        if merged is None:
            merged = MetricsRegistry()
            merged.merge_snapshot(self._own_metrics.snapshot())
            for snapshot in self._proclet_metrics.values():
                merged.merge_snapshot(snapshot)
            self._merged_metrics = merged
        return merged

    def telemetry_tick(self, now: Optional[float] = None) -> None:
        """One pass of the live pipeline (the deployer calls this at ~1 Hz).

        Diffs the merged registry into per-second series, records control
        plane gauges, evaluates the anomaly/SLO signal board, and lets the
        trace store finalize quiescent traces.
        """
        now = time.time() if now is None else now
        self.pipeline.tick(self.metrics, now)
        for group in self._groups.values():
            live = self.live_replicas(group)
            scope = f"group{group.group_id}"
            self.timeseries.record("replicas", scope, now, float(len(live)))
            if live:
                self.timeseries.record(
                    "utilization", scope, now, sum(p.load for p in live) / len(live)
                )
        self.signals.evaluate(now)
        self.tracer.maintain()

    # -- queries ------------------------------------------------------------------

    def replica_addresses(self, component: str) -> list[str]:
        return [p.address for p in self.live_replicas(self._group_for_component(component))]

    def proclets(self) -> list[ProcletInfo]:
        return [p for g in self._groups.values() for p in g.proclets.values()]

    def group_states(self) -> dict[int, GroupState]:
        return dict(self._groups)

    def total_replicas(self) -> int:
        return sum(len(g.proclets) for g in self._groups.values())

    def live_replicas(self, group: GroupState) -> list[ProcletInfo]:
        """A group's serving replicas (not DEAD), oldest first."""
        return sorted(
            (p for p in group.proclets.values() if self.health.state(p.proclet_id) in _LIVE),
            key=lambda p: p.replica_index,
        )

    # -- internals -------------------------------------------------------------------

    def _install_plan(self, plan: PlacementPlan) -> None:
        self.plan = plan
        self._groups: dict[int, GroupState] = {}
        self._component_group: dict[str, int] = {}
        for gp in plan.groups:
            self._groups[gp.group_id] = GroupState(gp.group_id, gp.components)
            for name in gp.components:
                self._component_group[name] = gp.group_id
        self._autoscalers: dict[int, Autoscaler] = {
            gid: Autoscaler(self.resolved.app.autoscale) for gid in self._groups
        }

    def _group(self, group_id: int) -> GroupState:
        try:
            return self._groups[group_id]
        except KeyError:
            raise PlacementError(f"unknown group {group_id}") from None

    def _group_for_component(self, component: str) -> GroupState:
        try:
            return self._groups[self._component_group[component]]
        except KeyError:
            raise ComponentNotFound(f"component {component!r} is not placed") from None

    def _find_proclet(self, proclet_id: str) -> Optional[ProcletInfo]:
        for group in self._groups.values():
            info = group.proclets.get(proclet_id)
            if info is not None:
                return info
        return None

    def _is_routed(self, component: str) -> bool:
        reg = self.build.by_name(component)
        return any(m.routing_key is not None for m in reg.spec.methods)

    def _rebuild_assignment(self, component: str, addresses: list[str]) -> Assignment:
        generation = self._generations.get(component, 0) + 1
        self._generations[component] = generation
        assignment = build_assignment(component, addresses, generation)
        self._assignments[component] = assignment
        return assignment

    def _journal(
        self,
        intent: Intent,
        action: str,
        target: str,
        group: Optional[GroupState],
        started: float,
        outcome: str = "ok",
    ) -> None:
        """One entry per replica-set change, in the remediation journal's shape."""
        self.journal.append(
            {
                "ts": time.time(),
                "owner": intent.owner,
                "action": action,
                "target": target,
                "group": group.group_id if group else -1,
                "scope": group.components[0] if group and group.components else "_total",
                "reason": intent.reason,
                "verdict": "applied",
                "outcome": outcome,
                "duration_ms": round((self.clock() - started) * 1000.0, 3),
            }
        )

    def _desired(self, group: GroupState) -> tuple[int, Intent]:
        """The group's clamped desired count, and the intent that sets it."""
        floor = group.floor
        if floor is not None and floor.until <= self.clock():
            group.floor = floor = None
        want = group.want
        binding = floor if floor is not None and floor.replicas > want.replicas else want
        group.target_replicas = min(binding.replicas, self.resolved.app.autoscale.max_replicas)
        return group.target_replicas, binding

    async def _reconcile_group(self, group: GroupState) -> None:
        now = self.clock()
        desired, _ = self._desired(group)

        # Departures: dead replicas leave routing; retirees and any surplus
        # leave routing *first*, so new picks steer to the survivors while
        # they drain their in-flight requests.
        dead: list[ProcletInfo] = []
        leaving: list[tuple[ProcletInfo, Intent]] = []
        staying: list[ProcletInfo] = []
        for info in sorted(group.proclets.values(), key=lambda p: p.replica_index):
            retiring = self._retiring.pop(info.proclet_id, None)
            if self.health.state(info.proclet_id) is HealthState.DEAD:
                dead.append(info)
            elif retiring is not None:
                leaving.append((info, retiring))
            else:
                staying.append(info)
        if desired and len(staying) > desired:
            leaving.extend((info, group.want) for info in staying[desired:])
        for info in dead + [info for info, _ in leaving]:
            group.proclets.pop(info.proclet_id, None)
            self.health.remove(info.proclet_id)
        self._publish_routing(group)
        for info in dead:
            log.warning("proclet %s (group %d) died", info.proclet_id, group.group_id)
            dropped = Intent(HEALTH, reason="declared dead")
            self._journal(dropped, "drop", info.proclet_id, group, now)
        for info, intent in leaving:
            await self._retire_replica(info.proclet_id, intent, group)
        if self._groups.get(group.group_id) is not group:
            return  # re-grouped while draining: the next pass sees the new groups

        # Arrivals: refill to the desired count (intents may have changed
        # while draining).  A refill right after a departure is the
        # departure owner's doing: a health repair, a remediation restart.
        desired, binding = self._desired(group)
        if dead:
            binding = Intent(HEALTH, reason="replace dead replica")
        elif leaving and leaving[0][1] is not group.want:
            binding = leaving[0][1]
        await self._ensure_replicas(group, desired, binding)
        if self._groups.get(group.group_id) is group:
            self._publish_routing(group)

    def _publish_routing(self, group: GroupState) -> None:
        """Rebuild and push routed assignments when live membership changed."""
        live = self.live_replicas(group)
        addresses = [p.address for p in live]
        if tuple(addresses) == group.published:
            return
        group.published = tuple(addresses)
        if not addresses:
            return
        for component in group.components:
            if not self._is_routed(component):
                continue
            assignment = self._rebuild_assignment(component, addresses)
            # Proactively push the fresh assignment to the group's own
            # proclets: their per-key ownership checks (repro.state) must
            # see ring changes promptly, not on the next cache miss.
            # Fire-and-forget — the pushes only touch envelopes/proclets.
            info = {
                "component": component,
                "replicas": addresses,
                "assignment": assignment.to_wire(),
            }
            for p in live:
                task = asyncio.ensure_future(self._push_routing(p.proclet_id, component, info))
                self._pushes.add(task)
                task.add_done_callback(self._pushes.discard)

    async def _push_routing(
        self, proclet_id: str, component: str, info: dict[str, Any]
    ) -> None:
        try:
            await self.launcher.push_routing(proclet_id, component, info)
        except Exception:
            log.debug(
                "routing push of %s to %s failed", component, proclet_id, exc_info=True
            )

    async def _ensure_replicas(self, group: GroupState, minimum: int, intent: Intent) -> None:
        """Launch up to ``minimum`` replicas and wait for them to register."""
        deficit = minimum - len(self.live_replicas(group)) - group.launching
        if deficit <= 0:
            return
        first = group.launch_seq
        group.launch_seq += deficit
        group.launching += deficit
        started = self.clock()
        outcome = "ok"

        async def registered() -> None:
            while group.launching > 0:
                group.registered_event.clear()
                await group.registered_event.wait()

        try:
            await asyncio.gather(
                *(self.launcher.start_replica(group.group_id, first + i) for i in range(deficit))
            )
            if group.launching > 0:
                await asyncio.wait_for(registered(), 30.0)
        except Exception as exc:
            # Presume unregistered launches lost; a later pass retires any
            # surplus if they register after all.
            group.launching = 0
            outcome = f"failed: {type(exc).__name__}: {exc}"
            if isinstance(exc, asyncio.TimeoutError):
                raise PlacementError(
                    f"no replica of group {group.group_id} registered in time"
                ) from None
            raise
        finally:
            for i in range(deficit):
                target = f"group{group.group_id}#{first + i}"
                self._journal(intent, "launch", target, group, started, outcome)

    async def _retire_replica(
        self, proclet_id: str, intent: Intent, group: Optional[GroupState]
    ) -> None:
        """Planned removal: drain in-flight work, stop, and journal it.

        Routing must already exclude the replica (callers steer new
        traffic elsewhere while it finishes what it has).  With drain
        disabled (``drain_deadline_s = 0``) the replica is hard-stopped.
        The group's components label the drain-event counters the
        telemetry pipeline turns into per-component series.
        """
        started = self.clock()
        components = group.components if group else ()
        for comp in components:
            self._own_metrics.counter("replica_drains").inc(component=comp)
        if components:
            self._merged_metrics = None
        deadline_s = self.resolved.app.drain_deadline_s
        if deadline_s > 0:
            response: Optional[dict[str, Any]] = None
            try:
                response = await self.launcher.drain_replica(proclet_id, deadline_s)
            except Exception:
                log.exception("drain of %s failed; hard-stopping", proclet_id)
            # Recorded manager-side: the proclet's own histogram dies with
            # it before its next metrics export.
            self._own_metrics.histogram("replica_drain_s").observe(
                self.clock() - started
            )
            self._merged_metrics = None
            if isinstance(response, dict):
                # The retiring proclet flushed and exported its owned
                # state shards; re-home them before it exits so the new
                # owners replay eagerly (bounded rebalance stall) instead
                # of on first request.
                await self._distribute_handover(
                    proclet_id, response.get("handover") or []
                )
        outcome = "ok"
        try:
            await self.launcher.stop_replica(proclet_id)
        except Exception as exc:
            log.exception("stopping %s failed", proclet_id)
            outcome = f"failed: {exc!r}"
        self._journal(intent, "retire", proclet_id, group, started, outcome)

    async def _distribute_handover(
        self, retiring_id: str, manifests: list[dict[str, Any]]
    ) -> None:
        """Push a retiree's flushed shard manifests to its surviving peers.

        Every live proclet of the shard's group gets the manifest: a
        shard's keys can span several ring owners (vnode arcs are dense),
        so there is no single successor.  Replay is max-merge by per-key
        version — adopting a shard you only partially own is harmless.
        Best-effort by design: a survivor that misses the push recovers
        lazily from the shared WAL directory on first touch.
        """
        if not manifests:
            return
        by_group: dict[int, list[dict[str, Any]]] = {}
        for manifest in manifests:
            gid = self._component_group.get(manifest.get("component"))
            if gid is not None:
                by_group.setdefault(gid, []).append(manifest)
        started = self.clock()
        replayed = 0
        for gid, shards in by_group.items():
            group = self._groups.get(gid)
            if group is None:
                continue
            for info in self.live_replicas(group):
                if info.proclet_id == retiring_id:
                    continue
                try:
                    replayed += int(
                        await self.launcher.push_state(info.proclet_id, shards) or 0
                    )
                except Exception:
                    log.exception(
                        "state handover push to %s failed", info.proclet_id
                    )
        self._own_metrics.counter("state_handover_shards").inc(len(manifests))
        self._own_metrics.counter("state_handover_replayed").inc(replayed)
        self._own_metrics.histogram("state_handover_s").observe(self.clock() - started)
        self._merged_metrics = None

    async def _apply_grouping(self) -> None:
        """Re-group the running proclets per the pending grouping intent."""
        plan, intent = self._grouping
        self._grouping = None
        started = self.clock()
        old_infos = self.proclets()
        old_components_of = {
            info.proclet_id: set(self._groups[info.group_id].components)
            for info in old_infos
        }
        self._install_plan(plan)

        to_stop: list[str] = []
        pushes: list[tuple[str, list[str]]] = []
        for info in old_infos:
            old_set = old_components_of[info.proclet_id]
            # Prefer max overlap; break ties toward emptier groups so
            # merged groups don't stack every old proclet.
            best = max(
                self._groups.values(),
                key=lambda g: (len(old_set & set(g.components)), -len(g.proclets)),
            )
            if not old_set & set(best.components):
                to_stop.append(info.proclet_id)
                continue
            info.group_id = best.group_id
            best.proclets[info.proclet_id] = info
            pushes.append((info.proclet_id, sorted(best.components)))

        # Each group wants the replicas it adopted; one without any stays
        # dormant until StartComponent.
        for group in self._groups.values():
            group.want = Intent(intent.owner, len(self.live_replicas(group)), intent.reason)
            self._publish_routing(group)
        self._journal(intent, "regroup", f"{len(self._groups)} groups", None, started)

        # Effectful steps last: pushes and stops go through the deployer,
        # which may call back into the manager.
        for proclet_id, components in pushes:
            await self.launcher.update_hosting(proclet_id, components)
        for proclet_id in to_stop:
            # Routing was rebuilt without these proclets above; retire
            # gracefully so their in-flight requests complete.
            self.health.remove(proclet_id)
            await self._retire_replica(proclet_id, intent, None)
