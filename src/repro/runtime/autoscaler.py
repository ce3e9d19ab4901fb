"""Horizontal autoscaling, HPA-style (§6.1).

The paper's evaluation configures both deployments to "auto-scale the
number of container replicas in response to load" using Kubernetes
Horizontal Pod Autoscalers.  This module is a faithful HPA core:

    desired = ceil(current * observed_utilization / target_utilization)

with a tolerance band around 1.0 (no action for small ratios), an optional
scale-down stabilization window (use the *maximum* desired over the window,
so transient dips don't flap replicas away), and min/max clamps.

The same :class:`Autoscaler` drives both the real multiprocess runtime
(wall-clock time) and the simulator (simulated time): time is always passed
in, never read from a clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import AutoscaleConfig


@dataclass
class ScalingDecision:
    desired: int
    reason: str


class Autoscaler:
    """Per-component (or per-group) HPA control loop."""

    def __init__(self, config: AutoscaleConfig) -> None:
        self.config = config
        #: (time, desired) observations within the stabilization window.
        self._window: list[tuple[float, int]] = []

    def decide(
        self, *, now: float, current_replicas: int, utilization: float
    ) -> ScalingDecision:
        """One control-loop tick.

        ``utilization`` is the mean busy fraction per replica, normalized
        to one core (i.e. 0.65 means each replica burns 0.65 cores).
        """
        cfg = self.config
        current = max(1, current_replicas)
        ratio = utilization / cfg.target_utilization
        raw_desired = math.ceil(current * ratio) if ratio > 0 else cfg.min_replicas

        if abs(ratio - 1.0) <= cfg.scale_up_tolerance:
            raw_desired = current  # inside the tolerance band: hold

        raw_desired = min(cfg.max_replicas, max(cfg.min_replicas, raw_desired))

        # Scale-down stabilization: remember recent desires; only shrink to
        # the max desired seen within the window.
        self._window.append((now, raw_desired))
        cutoff = now - cfg.scale_down_stabilization_s
        self._window = [(t, d) for t, d in self._window if t >= cutoff]

        if raw_desired < current:
            stabilized = max(d for _, d in self._window)
            desired = min(current, max(raw_desired, stabilized))
            if desired == current:
                return ScalingDecision(current, "scale-down held by stabilization window")
            return ScalingDecision(desired, f"scale down (ratio={ratio:.2f})")
        if raw_desired > current:
            return ScalingDecision(raw_desired, f"scale up (ratio={ratio:.2f})")
        return ScalingDecision(current, "steady")


def steady_state_replicas(
    offered_cores: float, config: AutoscaleConfig
) -> int:
    """The replica count the HPA converges to for a constant load.

    With per-replica demand ``offered_cores / n`` the loop settles at the
    smallest n with utilization <= target, i.e. ``ceil(offered / target)``.
    Exposed for the simulator's fast-forward mode and for benchmark
    assertions.
    """
    if offered_cores <= 0:
        return config.min_replicas
    n = math.ceil(offered_cores / config.target_utilization)
    return min(config.max_replicas, max(config.min_replicas, n))
