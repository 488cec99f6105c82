"""The consumer: offset-tracked fetching, seeks, and consumer groups."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

from repro.broker.broker import BrokerCluster
from repro.broker.errors import ConsumerClosedError, UnknownTopicError
from repro.broker.records import ConsumerRecord, RecordSlice
from repro.broker.retry import RetryPolicy, run_with_retries


@dataclass(frozen=True, order=True)
class TopicPartition:
    """A (topic, partition) pair, the unit of consumer assignment."""

    topic: str
    partition: int


class ConsumerGroupCoordinator:
    """Assigns the partitions of subscribed topics across group members.

    Implements range assignment (Kafka's default): partitions of each topic
    are split into contiguous ranges, one per member, with earlier members
    receiving the remainder.  Rebalancing happens eagerly whenever a member
    joins or leaves.
    """

    def __init__(self, group_id: str) -> None:
        self.group_id = group_id
        self._members: dict[int, "Consumer"] = {}
        self._next_member_id = 0
        self.committed: dict[TopicPartition, int] = {}

    def join(self, consumer: "Consumer") -> int:
        """Add a member and rebalance; returns the member id."""
        member_id = self._next_member_id
        self._next_member_id += 1
        self._members[member_id] = consumer
        self._rebalance()
        return member_id

    def leave(self, member_id: int) -> None:
        """Remove a member and rebalance (idempotent)."""
        if member_id in self._members:
            del self._members[member_id]
            self._rebalance()

    def commit(self, assignments: dict[TopicPartition, int]) -> None:
        """Store committed offsets for the group."""
        self.committed.update(assignments)

    def _rebalance(self) -> None:
        if not self._members:
            return
        members = [self._members[mid] for mid in sorted(self._members)]
        topics = sorted({t for m in members for t in m.subscription})
        assignment: dict[int, list[TopicPartition]] = {
            i: [] for i in range(len(members))
        }
        for topic_name in topics:
            interested = [
                i for i, m in enumerate(members) if topic_name in m.subscription
            ]
            if not interested:
                continue
            count = members[interested[0]].cluster.topic(topic_name).num_partitions
            per_member, remainder = divmod(count, len(interested))
            start = 0
            for rank, member_index in enumerate(interested):
                take = per_member + (1 if rank < remainder else 0)
                for partition in range(start, start + take):
                    assignment[member_index].append(
                        TopicPartition(topic_name, partition)
                    )
                start += take
        for index, member in enumerate(members):
            member._set_assignment(assignment[index])


class Consumer:
    """Fetches records from broker partitions, tracking its position.

    Supports both Kafka usage styles: ``subscribe`` (group-managed
    assignment via :class:`ConsumerGroupCoordinator`) and ``assign``
    (explicit partitions).  ``poll`` returns up to ``max_records`` records
    across the assignment, round-robin over partitions, charging simulated
    fetch costs.

    ``retry_policy`` (defaulting to the cluster-wide policy installed by
    :meth:`BrokerCluster.attach_chaos`) makes each per-partition fetch ride
    out transient broker faults with backoff charged in simulated time.  A
    fetch has no broker-side effect, so retrying it can never duplicate or
    skip records — the position only advances on success.

    ``retry_rng`` lets a caller that already owns a seeded retry stream
    (e.g. :class:`~repro.engines.common.io.BoundedKafkaReader`) hand it
    over instead of registering a new client with the cluster — keeping
    both the client-id sequence and the chaos draw streams exactly as they
    were when that caller fetched directly.
    """

    def __init__(
        self,
        cluster: BrokerCluster,
        group: ConsumerGroupCoordinator | None = None,
        retry_policy: RetryPolicy | None = None,
        retry_rng=None,
    ) -> None:
        self.cluster = cluster
        self.subscription: set[str] = set()
        self._group = group
        self._member_id: int | None = None
        self._assignment: list[TopicPartition] = []
        self._positions: dict[TopicPartition, int] = {}
        self._closed = False
        self.records_fetched = 0
        self.retry_policy = (
            retry_policy if retry_policy is not None else cluster.default_retry_policy
        )
        # The client id is registered now, keeping the id sequence; the
        # stream it names is derived when a retry policy first runs.
        self._retry_rng = retry_rng
        self._client_id = None if retry_rng is not None else cluster.register_client()
        self.retries_performed = 0

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def subscribe(self, topics: list[str] | set[str]) -> None:
        """Subscribe to topics; requires a consumer group."""
        self._ensure_open()
        if self._group is None:
            raise ValueError("subscribe() requires a consumer group; use assign()")
        for name in topics:
            if not self.cluster.has_topic(name):
                raise UnknownTopicError(name)
        self.subscription = set(topics)
        if self._member_id is None:
            self._member_id = self._group.join(self)
        else:
            self._group._rebalance()

    def assign(self, partitions: list[TopicPartition]) -> None:
        """Explicitly take ownership of ``partitions`` (no group)."""
        self._ensure_open()
        for tp in partitions:
            self.cluster.topic(tp.topic).partition(tp.partition)  # existence check
        self._set_assignment(list(partitions))

    def assignment(self) -> list[TopicPartition]:
        """The partitions currently assigned to this consumer."""
        return list(self._assignment)

    def _set_assignment(self, partitions: list[TopicPartition]) -> None:
        self._assignment = sorted(partitions)
        # Positions of revoked partitions are dropped: if a partition comes
        # back after a later rebalance, consumption resumes from the group's
        # committed offset, not from this member's stale local position.
        retained = set(self._assignment)
        for tp in list(self._positions):
            if tp not in retained:
                del self._positions[tp]
        for tp in self._assignment:
            if tp not in self._positions:
                committed = (
                    self._group.committed.get(tp) if self._group is not None else None
                )
                self._positions[tp] = committed if committed is not None else 0

    # ------------------------------------------------------------------
    # positions
    # ------------------------------------------------------------------
    def position(self, tp: TopicPartition) -> int:
        """Next offset this consumer will fetch from ``tp``."""
        self._check_assigned(tp)
        return self._positions[tp]

    def seek(self, tp: TopicPartition, offset: int) -> None:
        """Move the fetch position of ``tp`` to ``offset``."""
        self._check_assigned(tp)
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self._positions[tp] = offset

    def seek_to_beginning(self) -> None:
        """Rewind every assigned partition to offset 0."""
        for tp in self._assignment:
            self._positions[tp] = 0

    def seek_to_end(self) -> None:
        """Fast-forward every assigned partition to its log end."""
        for tp in self._assignment:
            log = self.cluster.partition_log(tp.topic, tp.partition)
            self._positions[tp] = log.end_offset

    def commit(self) -> None:
        """Commit current positions to the group coordinator."""
        if self._group is not None:
            self._group.commit({tp: self._positions[tp] for tp in self._assignment})

    def acknowledge(self) -> None:
        """Advance every assigned partition's consumption watermark.

        Flow-control counterpart of :meth:`commit`: tells the broker that
        everything fetched so far is fully processed, freeing queue
        capacity on bounded partitions (and letting them trim, keeping
        broker memory O(bound)).  A no-op on unbounded partitions beyond
        bookkeeping — the closed-loop measurement path never calls this.
        A single partition that :meth:`BrokerCluster.direct_log` resolves
        is marked without the per-partition lookups.
        """
        if len(self._assignment) == 1:
            tp = self._assignment[0]
            log = self.cluster.direct_log(tp.topic, tp.partition, self.retry_policy)
            if log is not None:
                log.mark_consumed(self._positions[tp])
                return
        for tp in self._assignment:
            log = self.cluster.partition_log(tp.topic, tp.partition)
            log.mark_consumed(self._positions[tp])

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------
    def poll(self, max_records: int = 500) -> list[ConsumerRecord]:
        """Fetch up to ``max_records`` available records, round-robin.

        Returns an empty list when every assigned partition is fully
        consumed (there is no blocking in simulated time).  The records
        are built from :meth:`poll_columns`' slices, so requests, charges,
        retries and positions are exactly that method's.
        """
        records: list[ConsumerRecord] = []
        for piece in self.poll_columns(max_records):
            records.extend(piece.records())
        return records

    def poll_columns(self, max_records: int = 500) -> list[RecordSlice]:
        """Fetch up to ``max_records`` available records as column slices.

        One :class:`RecordSlice` per partition that had records, visited
        round-robin over the assignment; an empty list when every assigned
        partition is fully consumed.  Each fetch is one guarded request
        (with retries); the call charges one request overhead plus the
        per-record fetch cost.  Builds no per-record object.
        """
        self._ensure_open()
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        fetched: list[RecordSlice] = []
        budget = max_records
        for tp in self._assignment:
            if budget <= 0:
                break
            piece = self._guarded_read(
                tp, lambda log, position: log.read_columns(position, budget)
            )
            if len(piece):
                self._positions[tp] += len(piece)
                budget -= len(piece)
                fetched.append(piece)
        count = max_records - budget
        costs = self.cluster.costs
        self.cluster.simulator.charge(
            costs.request_overhead + costs.fetch_per_record * count
        )
        self.records_fetched += count
        return fetched

    def poll_values(
        self, max_records: int | None = None, with_timestamps: bool = False
    ):
        """Bulk poll without materializing :class:`ConsumerRecord` objects.

        Returns the bare values — or, ``with_timestamps``, a
        ``(values, timestamps)`` pair where ``timestamps`` is a compact
        ``array('d')`` slab aligned with ``values``.  The values are what
        the partition's log read returned — a ``list``, or a
        :class:`~repro.dataflow.kernels.SlabColumn` over an adopted value
        column — when one partition supplied them all; records from
        several partitions are joined into a fresh list.
        ``max_records=None`` drains every assigned partition in one
        request.  Charges, retry draws and position advancement are
        identical to :meth:`poll` for the same fetched count: one request
        overhead per call plus the per-record fetch cost.  This is the
        pump's ingest fast path — the per-record object layer exists only
        for callers that need offsets and keys.  A single partition whose
        fetch cannot branch (:meth:`BrokerCluster.direct_log`) is read
        without the guarded request's closure.
        """
        self._ensure_open()
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        # Zero-copy is safe only for an uncapped single-partition drain
        # from offset 0: the returned values are the log's live column, and
        # nothing below may extend or reorder them.
        zero_copy = (
            max_records is None
            and not with_timestamps
            and len(self._assignment) == 1
            and self._positions.get(self._assignment[0]) == 0
        )
        if len(self._assignment) == 1:
            tp = self._assignment[0]
            log = self.cluster.direct_log(tp.topic, tp.partition, self.retry_policy)
            if log is not None:
                return self._poll_direct(
                    tp, log, max_records, with_timestamps, not zero_copy
                )
        parts = []
        timestamps = array("d") if with_timestamps else None
        budget = max_records

        def read(log, position):
            chunk = log.read_values(position, budget, copy=not zero_copy)
            if not with_timestamps:
                return chunk, None
            return chunk, log.read_timestamps(position, len(chunk))

        for tp in self._assignment:
            if budget is not None and budget <= 0:
                break
            chunk, stamps = self._guarded_read(tp, read)
            if chunk:
                self._positions[tp] += len(chunk)
                if budget is not None:
                    budget -= len(chunk)
                parts.append(chunk)
                if timestamps is not None:
                    if len(timestamps):
                        timestamps.extend(stamps)
                    else:
                        timestamps = stamps
        # One partition's batch is handed out as read; several are joined
        # into a fresh list (never into the first one, which may be the
        # log's live column).
        values = parts[0] if len(parts) == 1 else list(chain.from_iterable(parts))
        costs = self.cluster.costs
        self.cluster.simulator.charge(
            costs.request_overhead + costs.fetch_per_record * len(values)
        )
        self.records_fetched += len(values)
        if with_timestamps:
            return values, timestamps
        return values

    def _poll_direct(self, tp, log, max_records, with_timestamps, copy):
        """:meth:`poll_values` from one partition whose fetch cannot branch
        (:meth:`BrokerCluster.direct_log`): the same read, position,
        charge and count as the guarded request, without its closure."""
        position = self._positions[tp]
        values = log.read_values(position, max_records, copy=copy)
        count = len(values)
        if count:
            self._positions[tp] = position + count
            if with_timestamps:
                stamps = log.read_timestamps(position, count)
        else:
            values, stamps = [], array("d")
        costs = self.cluster.costs
        self.cluster.simulator.charge(
            costs.request_overhead + costs.fetch_per_record * count
        )
        self.records_fetched += count
        if with_timestamps:
            return values, stamps
        return values

    def close(self) -> None:
        """Leave the group (if any) and mark the consumer closed."""
        if self._closed:
            return
        if self._group is not None and self._member_id is not None:
            self._group.leave(self._member_id)
        self._closed = True

    def __enter__(self) -> "Consumer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _guarded_read(self, tp: TopicPartition, read):
        """One guarded fetch request against ``tp``'s log, with retries.

        ``read(log, position)`` runs inside each attempt, so everything it
        reads comes from one attempt: a retry can never observe a log
        grown between two column reads.
        """

        def attempt():
            self.cluster.guard_request(tp.topic, tp.partition)
            log = self.cluster.partition_log(tp.topic, tp.partition)
            return read(log, self._positions[tp])

        if self.retry_policy is None:
            return attempt()
        if self._retry_rng is None:
            self._retry_rng = self.cluster.simulator.random.stream(
                f"broker/retry/consumer-{self._client_id}"
            )
        return run_with_retries(
            self.cluster.simulator,
            self.retry_policy,
            self._retry_rng,
            attempt,
            on_retry=self._count_retry,
        )

    def _count_retry(self, _err: Exception) -> None:
        self.retries_performed += 1

    def _check_assigned(self, tp: TopicPartition) -> None:
        if tp not in self._positions:
            raise ValueError(f"{tp} is not assigned to this consumer")

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConsumerClosedError("consumer is closed")
