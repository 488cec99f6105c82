"""Broker nodes and the broker cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.broker.errors import (
    BrokerUnavailableError,
    ReplicationError,
    TopicAlreadyExistsError,
    UnknownTopicError,
)
from repro.broker.topic import Topic, TopicConfig
from repro.simtime import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.broker.faults import ChaosSchedule, FaultPlan
    from repro.broker.log import PartitionLog
    from repro.broker.retry import RetryPolicy


@dataclass(frozen=True)
class BrokerNode:
    """One broker process in the cluster (identity and host only)."""

    node_id: int
    host: str

    def __repr__(self) -> str:
        return f"BrokerNode(id={self.node_id}, host={self.host!r})"


@dataclass(frozen=True)
class BrokerCosts:
    """Simulated-time costs of broker interactions, in seconds.

    These are intentionally small relative to engine processing costs: the
    paper's methodology makes broker overhead identical for every system
    under test, so it shifts all measurements equally without changing any
    comparison.  ``acks_all_factor`` scales the append cost when a producer
    requests acknowledgement from all replicas.
    """

    request_overhead: float = 2e-4
    append_per_record: float = 1e-7
    fetch_per_record: float = 5e-8
    acks_all_factor: float = 2.0


@dataclass
class _TopicState:
    topic: Topic
    leaders: list[BrokerNode] = field(default_factory=list)


class BrokerCluster:
    """A cluster of broker nodes hosting partitioned topic logs.

    Mirrors the paper's three-node Kafka cluster by default.  Partition
    leadership is assigned round-robin over nodes; the replication factor
    bounds at cluster size, scales acknowledgement costs, and — when a node
    fails — determines whether a partition's leadership can move to a
    surviving node (:meth:`fail_node`) or the partition goes unavailable
    until the node recovers, as in Kafka.

    Nodes fail only through :meth:`fail_node` (usually driven by an
    attached :class:`~repro.broker.faults.ChaosSchedule`); without chaos the
    cluster behaves exactly like the perfectly reliable fixture it used to
    be.
    """

    def __init__(self, simulator: Simulator, num_nodes: int = 3) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.simulator = simulator
        self.nodes = [
            BrokerNode(node_id=i, host=f"kafka-{i}.sim") for i in range(num_nodes)
        ]
        self.costs = BrokerCosts()
        self._topics: dict[str, _TopicState] = {}
        self._next_leader = 0
        self._down: set[int] = set()
        self.failovers = 0
        #: Chaos injection, attached via :meth:`attach_chaos` (None = the
        #: perfectly reliable broker every earlier benchmark assumed).
        self.chaos: "ChaosSchedule | None" = None
        #: Client defaults picked up by producers/consumers that are not
        #: constructed with an explicit policy; set by :meth:`attach_chaos`
        #: so the whole Figure-5 pipeline becomes resilient at once.
        self.default_retry_policy: "RetryPolicy | None" = None
        self.default_idempotence = False
        self._next_producer_id = 0
        self._next_client_id = 0

    # ------------------------------------------------------------------
    # topic management (the AdminClient delegates here)
    # ------------------------------------------------------------------
    def create_topic(self, name: str, config: TopicConfig | None = None) -> Topic:
        """Create a topic; raises :class:`TopicAlreadyExistsError` if present."""
        if name in self._topics:
            raise TopicAlreadyExistsError(name)
        config = config or TopicConfig()
        if config.replication_factor > len(self.nodes):
            raise ReplicationError(
                f"replication factor {config.replication_factor} exceeds "
                f"cluster size {len(self.nodes)}"
            )
        topic = Topic(name, config, self.simulator.clock)
        leaders = [self._pick_leader() for _ in range(config.num_partitions)]
        self._topics[name] = _TopicState(topic=topic, leaders=leaders)
        return topic

    def delete_topic(self, name: str) -> None:
        """Delete a topic and its data; raises if the topic is unknown."""
        if name not in self._topics:
            raise UnknownTopicError(name)
        del self._topics[name]

    def topic(self, name: str) -> Topic:
        """Look up a topic; raises :class:`UnknownTopicError` if missing."""
        try:
            return self._topics[name].topic
        except KeyError:
            raise UnknownTopicError(name) from None

    def has_topic(self, name: str) -> bool:
        """Whether a topic with ``name`` exists."""
        return name in self._topics

    def list_topics(self) -> list[str]:
        """Names of all topics, sorted."""
        return sorted(self._topics)

    def partition_leader(self, topic: str, partition: int) -> BrokerNode:
        """The broker node leading ``topic``'s ``partition``."""
        state = self._topics.get(topic)
        if state is None:
            raise UnknownTopicError(topic)
        state.topic.partition(partition)  # range check
        return state.leaders[partition]

    def partition_log(self, topic: str, partition: int) -> "PartitionLog":
        """The log of ``topic``'s ``partition``.

        Raises :class:`UnknownTopicError` or
        :class:`~repro.broker.errors.PartitionOutOfRangeError`.  Failover
        moves leadership, not the log: the promoted replica already holds
        the data, so the same log object serves before and after.
        """
        return self.topic(topic).partition(partition)

    def _pick_leader(self) -> BrokerNode:
        node = self.nodes[self._next_leader % len(self.nodes)]
        self._next_leader += 1
        return node

    # ------------------------------------------------------------------
    # node liveness and failover
    # ------------------------------------------------------------------
    def node_is_up(self, node_id: int) -> bool:
        """Whether the node is currently serving requests."""
        return node_id not in self._down

    def alive_nodes(self) -> list[BrokerNode]:
        """The nodes currently up, in id order."""
        return [n for n in self.nodes if n.node_id not in self._down]

    def fail_node(self, node_id: int) -> None:
        """Mark a node down and fail its partitions over where possible.

        Partitions of topics with ``replication_factor > 1`` elect the next
        alive node (deterministic: smallest id after the failed leader's,
        wrapping) as their new leader, mirroring Kafka's ISR failover.
        Partitions of unreplicated topics keep their dead leader and raise
        :class:`BrokerUnavailableError` until the node recovers.  Idempotent
        if the node is already down.
        """
        if node_id in self._down:
            return
        if not any(n.node_id == node_id for n in self.nodes):
            raise ValueError(f"unknown node id {node_id}")
        self._down.add(node_id)
        for state in self._topics.values():
            if state.topic.config.replication_factor < 2:
                continue
            for index, leader in enumerate(state.leaders):
                if leader.node_id == node_id:
                    successor = self._elect_leader(after=node_id)
                    if successor is not None:
                        state.leaders[index] = successor
                        self.failovers += 1

    def recover_node(self, node_id: int) -> None:
        """Mark a node up again (idempotent).

        Leadership moved by failover stays where it is — like Kafka without
        preferred-leader election — but partitions that could not fail over
        become available again immediately.
        """
        self._down.discard(node_id)

    def _elect_leader(self, after: int) -> BrokerNode | None:
        alive = self.alive_nodes()
        if not alive:
            return None
        for node in alive:
            if node.node_id > after:
                return node
        return alive[0]

    # ------------------------------------------------------------------
    # the guarded request path (chaos + liveness checks)
    # ------------------------------------------------------------------
    def guard_request(self, topic: str, partition: int) -> None:
        """Pre-flight for one client request against a partition.

        Applies due chaos transitions, verifies the partition leader is
        alive, and lets the chaos schedule charge latency jitter or raise a
        transient error.  Without chaos attached this is just a liveness
        check, and nodes never go down on their own — the historical
        always-reliable behaviour.
        """
        if self.chaos is not None:
            self.chaos.advance()
        leader = self.partition_leader(topic, partition)
        if leader.node_id in self._down:
            raise BrokerUnavailableError(topic, partition, leader.node_id)
        if self.chaos is not None:
            self.chaos.before_request(topic, partition, leader.node_id)

    def post_append(self, topic: str, partition: int) -> None:
        """Post-flight for one append: maybe lose the acknowledgement.

        Raised *after* the records hit the log, so a non-idempotent retry
        re-appends them — the duplicate path idempotent producers close.
        """
        if self.chaos is not None:
            self.chaos.after_append(topic, partition)

    def direct_log(
        self,
        topic: str,
        partition: int,
        retry_policy: "RetryPolicy | None" = None,
        idempotent: bool = False,
    ) -> "PartitionLog | None":
        """The partition's log when a single request to it cannot branch.

        A request branches only through :meth:`guard_request` (chaos
        transitions, jitter and transient errors, a leader that is down),
        :meth:`post_append` (a lost acknowledgement), the client's
        ``retry_policy`` (which re-attempts a retriable error, a full
        queue's included) and an ``idempotent`` producer's sequence
        check.  With no chaos attached, the leader up, no retry policy and
        a non-idempotent client none of them can fire, and nodes never go
        down on their own, so the request can go straight to the log.  A
        bounded log's flow control stays in the log's own capacity check.
        ``None`` otherwise, and for an unknown topic or partition, whose
        error the guarded path raises.  A new failure mode of the guarded
        path must be ruled out here too.
        """
        if self.chaos is not None or retry_policy is not None or idempotent:
            return None
        state = self._topics.get(topic)
        if state is None:
            return None
        partitions = state.topic.partitions
        if not 0 <= partition < len(partitions):
            return None
        if state.leaders[partition].node_id in self._down:
            return None
        return partitions[partition]

    def reliable_log(self, topic: str, partition: int) -> "PartitionLog | None":
        """The partition's log when no produce request to it can fail.

        :meth:`direct_log`'s rule on an unbounded log: without flow
        control no request can raise, so a run of requests can skip the
        per-request checks, whatever the client's retry policy.
        """
        log = self.direct_log(topic, partition)
        return log if log is not None and log.max_queue is None else None

    # ------------------------------------------------------------------
    # chaos attachment and client registration
    # ------------------------------------------------------------------
    def attach_chaos(
        self,
        plan: "FaultPlan",
        retry_policy: "RetryPolicy | None" = None,
        idempotence: bool = True,
    ) -> "ChaosSchedule":
        """Bind a :class:`FaultPlan` to this cluster and harden its clients.

        Besides instantiating the :class:`ChaosSchedule`, this installs a
        cluster-wide default :class:`RetryPolicy` and (by default) default
        idempotence, so every producer/consumer created afterwards — the
        data sender, engine Kafka writers, the result calculator — rides
        out the injected faults without each call site opting in.
        """
        from repro.broker.faults import ChaosSchedule
        from repro.broker.retry import RetryPolicy

        self.chaos = ChaosSchedule(plan, self)
        self.default_retry_policy = retry_policy or RetryPolicy()
        self.default_idempotence = idempotence
        return self.chaos

    def register_producer(self) -> int:
        """Allocate a producer id (idempotent-produce identity)."""
        pid = self._next_producer_id
        self._next_producer_id += 1
        return pid

    def register_client(self) -> int:
        """Allocate a generic client id (names deterministic RNG streams)."""
        cid = self._next_client_id
        self._next_client_id += 1
        return cid
