"""Deterministic chaos injection for the broker.

The Figure-5 architecture routes *every* measurement through the broker, so
a benchmark that never fails the broker is measuring an idealised fixture —
the critique Karimov et al. and ESPBench level at driver-side benchmarks.
This module makes the broker failable without giving up reproducibility:

* :class:`NodeOutage` — a broker node crashes at a simulated instant and
  (optionally) comes back; :class:`repro.broker.broker.BrokerCluster`
  fails partitions over to surviving replicas where the replication factor
  allows, and reports :class:`BrokerUnavailableError` otherwise;
* transient per-request errors (:class:`NotLeaderForPartitionError`,
  :class:`BrokerUnavailableError`) raised *before* the request takes
  effect, and ack-lost timeouts (:class:`RequestTimedOutError`) raised
  *after* an append took effect — the ambiguous case that only idempotent
  producers survive without duplicates;
* latency jitter, charged to the shared :class:`Simulator` so chaos shows
  up in the broker-timestamp-derived execution times.

Everything draws from a :class:`repro.simtime.RandomSource` tree seeded by
the plan's own seed: the same :class:`FaultPlan` replays bit-identically,
independent of the benchmark's noise seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.broker.errors import (
    BrokerUnavailableError,
    NotLeaderForPartitionError,
    RequestTimedOutError,
)
from repro.simtime.randomness import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.broker.broker import BrokerCluster


@dataclass(frozen=True)
class NodeOutage:
    """One broker node down for ``[start, start + duration)`` of sim time.

    ``duration=None`` is a permanent crash: the node never recovers, and
    partitions it led are served again only if they failed over to a
    replica.
    """

    node_id: int
    start: float
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {self.node_id}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seed-reproducible description of broker chaos.

    ``error_rate`` is the per-request probability of a transient pre-request
    error (alternating between leader-moved and briefly-unavailable);
    ``timeout_rate`` is the per-append probability that the append succeeds
    but its acknowledgement is lost; ``latency_jitter`` is the mean of an
    exponential extra delay charged per request.  ``outages`` are scheduled
    node crashes.  All stochastic draws derive from ``seed`` alone.
    """

    seed: int = 0
    outages: tuple[NodeOutage, ...] = ()
    error_rate: float = 0.0
    timeout_rate: float = 0.0
    latency_jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {self.error_rate}")
        if not 0.0 <= self.timeout_rate < 1.0:
            raise ValueError(
                f"timeout_rate must be in [0, 1), got {self.timeout_rate}"
            )
        if self.latency_jitter < 0:
            raise ValueError(
                f"latency_jitter must be >= 0, got {self.latency_jitter}"
            )


class ChaosSchedule:
    """The runtime half of a :class:`FaultPlan`, bound to one cluster.

    The cluster consults the schedule on every client request
    (:meth:`BrokerCluster.guard_request` / :meth:`BrokerCluster.post_append`):
    due outage transitions are applied first, then transient faults are
    drawn.  Counters record everything injected, for benchmark reports.
    """

    def __init__(self, plan: FaultPlan, cluster: "BrokerCluster") -> None:
        self.plan = plan
        self.cluster = cluster
        source = RandomSource(plan.seed, path="broker/chaos")
        self._error_rng = source.stream("errors")
        self._timeout_rng = source.stream("timeouts")
        self._jitter_rng = source.stream("jitter")
        # (time, tie-breaker, kind, node_id); kind "down" sorts before "up"
        # at equal times so a zero-length window is still a transition pair.
        self._events: list[tuple[float, int, str, int]] = []
        self._event_seq = 0
        for outage in plan.outages:
            self._push_outage(outage)
        # counters for reporting
        self.errors_injected = 0
        self.timeouts_injected = 0
        self.jitter_charged = 0.0
        self.crashes_applied = 0
        self.recoveries_applied = 0

    # ------------------------------------------------------------------
    # schedule management
    # ------------------------------------------------------------------
    def schedule_outage(
        self, node_id: int, after: float = 0.0, duration: float | None = None
    ) -> NodeOutage:
        """Add an outage starting ``after`` seconds from *now* (sim time).

        Lets experiments place crash windows relative to a phase boundary
        (e.g. "0.2 s into the engine run") without knowing absolute
        timestamps up front.  Returns the concrete :class:`NodeOutage`.
        """
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        outage = NodeOutage(
            node_id=node_id,
            start=self.cluster.simulator.now() + after,
            duration=duration,
        )
        self._push_outage(outage)
        return outage

    def _push_outage(self, outage: NodeOutage) -> None:
        node_ids = [node.node_id for node in self.cluster.nodes]
        if outage.node_id not in node_ids:
            raise ValueError(
                f"outage names unknown node id {outage.node_id} "
                f"(cluster has nodes {node_ids})"
            )
        heapq.heappush(
            self._events, (outage.start, self._next_seq(), "down", outage.node_id)
        )
        if outage.duration is not None:
            heapq.heappush(
                self._events,
                (outage.start + outage.duration, self._next_seq(), "up", outage.node_id),
            )

    def _next_seq(self) -> int:
        self._event_seq += 1
        return self._event_seq

    # ------------------------------------------------------------------
    # hooks called by the cluster
    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Apply every outage transition due at the current simulated time."""
        now = self.cluster.simulator.now()
        while self._events and self._events[0][0] <= now:
            _, _, kind, node_id = heapq.heappop(self._events)
            if kind == "down":
                self.cluster.fail_node(node_id)
                self.crashes_applied += 1
            else:
                self.cluster.recover_node(node_id)
                self.recoveries_applied += 1

    def before_request(self, topic: str, partition: int, node_id: int) -> None:
        """Charge latency jitter, then maybe raise a transient pre-error."""
        if self.plan.latency_jitter > 0.0:
            extra = self._jitter_rng.expovariate(1.0 / self.plan.latency_jitter)
            self.cluster.simulator.charge(extra)
            self.jitter_charged += extra
        if self.plan.error_rate > 0.0 and self._error_rng.random() < self.plan.error_rate:
            self.errors_injected += 1
            if self._error_rng.random() < 0.5:
                raise NotLeaderForPartitionError(topic, partition, node_id)
            raise BrokerUnavailableError(topic, partition, node_id)

    def after_append(self, topic: str, partition: int) -> None:
        """Maybe lose an acknowledgement *after* the append took effect."""
        if (
            self.plan.timeout_rate > 0.0
            and self._timeout_rng.random() < self.plan.timeout_rate
        ):
            self.timeouts_injected += 1
            raise RequestTimedOutError(topic, partition)

    def __repr__(self) -> str:
        return (
            f"ChaosSchedule(errors={self.errors_injected}, "
            f"timeouts={self.timeouts_injected}, crashes={self.crashes_applied}, "
            f"recoveries={self.recoveries_applied}, "
            f"jitter={self.jitter_charged:.6f}s)"
        )
