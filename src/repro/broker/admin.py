"""Administrative client: topic lifecycle and descriptions."""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker.broker import BrokerCluster
from repro.broker.records import TimestampType
from repro.broker.topic import Topic, TopicConfig


@dataclass(frozen=True)
class TopicDescription:
    """A summary of a topic's layout, as returned by :meth:`describe_topic`."""

    name: str
    num_partitions: int
    replication_factor: int
    timestamp_type: TimestampType
    total_records: int
    partition_leaders: tuple[int, ...]


class AdminClient:
    """Thin admin facade over a :class:`BrokerCluster`.

    Mirrors the operational steps of the paper's benchmark process: topics
    are created fresh (single partition, replication factor one,
    LogAppendTime) before each phase and deleted afterwards.
    """

    def __init__(self, cluster: BrokerCluster) -> None:
        self.cluster = cluster

    def create_topic(
        self,
        name: str,
        num_partitions: int = 1,
        replication_factor: int = 1,
        timestamp_type: TimestampType = TimestampType.LOG_APPEND_TIME,
        max_queue: int | None = None,
    ) -> Topic:
        """Create a topic with the paper's defaults.

        ``max_queue`` bounds each partition's in-flight record count
        (flow control); ``None`` keeps partitions unbounded.
        """
        config = TopicConfig(
            num_partitions=num_partitions,
            replication_factor=replication_factor,
            timestamp_type=timestamp_type,
            max_queue=max_queue,
        )
        return self.cluster.create_topic(name, config)

    def recreate_topic(
        self,
        name: str,
        num_partitions: int = 1,
        replication_factor: int = 1,
        timestamp_type: TimestampType = TimestampType.LOG_APPEND_TIME,
        max_queue: int | None = None,
    ) -> Topic:
        """Delete ``name`` if it exists, then create it fresh."""
        if self.cluster.has_topic(name):
            self.cluster.delete_topic(name)
        return self.create_topic(
            name, num_partitions, replication_factor, timestamp_type, max_queue
        )

    def delete_topic(self, name: str) -> None:
        """Delete a topic and its records."""
        self.cluster.delete_topic(name)

    def describe_topic(self, name: str) -> TopicDescription:
        """Return a :class:`TopicDescription` for ``name``."""
        topic = self.cluster.topic(name)
        leaders = tuple(
            self.cluster.partition_leader(name, p).node_id
            for p in range(topic.num_partitions)
        )
        return TopicDescription(
            name=name,
            num_partitions=topic.num_partitions,
            replication_factor=topic.config.replication_factor,
            timestamp_type=topic.config.timestamp_type,
            total_records=topic.total_records(),
            partition_leaders=leaders,
        )
