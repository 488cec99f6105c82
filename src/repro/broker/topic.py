"""Topics: named collections of partition logs plus configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker.errors import PartitionOutOfRangeError
from repro.broker.log import PartitionLog
from repro.broker.records import TimestampType
from repro.simtime import SimClock


@dataclass(frozen=True)
class TopicConfig:
    """Creation-time configuration of a topic.

    The paper creates both the input and the output topic with
    ``num_partitions=1`` and ``replication_factor=1`` to guarantee global
    record ordering (Kafka orders only within a partition) — these are the
    defaults here for the same reason.  ``timestamp_type`` defaults to
    ``LogAppendTime``, the paper's measurement mechanism.

    ``max_queue`` bounds each partition's in-flight (un-consumed) record
    count for flow control; ``None`` (the default) keeps partitions
    unbounded, preserving the closed-loop benchmark's full-history reads.
    """

    num_partitions: int = 1
    replication_factor: int = 1
    timestamp_type: TimestampType = TimestampType.LOG_APPEND_TIME
    max_queue: int | None = None

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {self.num_partitions}")
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")


class Topic:
    """A named topic with one :class:`PartitionLog` per partition."""

    def __init__(self, name: str, config: TopicConfig, clock: SimClock) -> None:
        self.name = name
        self.config = config
        self.partitions: list[PartitionLog] = [
            PartitionLog(
                name, index, clock, config.timestamp_type, max_queue=config.max_queue
            )
            for index in range(config.num_partitions)
        ]

    @property
    def num_partitions(self) -> int:
        """Number of partitions in this topic."""
        return len(self.partitions)

    def partition(self, index: int) -> PartitionLog:
        """Return the partition log at ``index`` or raise if out of range."""
        if index < 0 or index >= len(self.partitions):
            raise PartitionOutOfRangeError(self.name, index, len(self.partitions))
        return self.partitions[index]

    def total_records(self) -> int:
        """Total record count across all partitions."""
        return sum(len(log) for log in self.partitions)

    def __repr__(self) -> str:
        return (
            f"Topic({self.name!r}, partitions={self.num_partitions}, "
            f"records={self.total_records()})"
        )
