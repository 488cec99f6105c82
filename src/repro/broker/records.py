"""Record types exchanged with the broker."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Sequence


class TimestampType(enum.Enum):
    """How the timestamp stored with a record was assigned.

    The paper configures Kafka to use ``LogAppendTime`` so that execution
    times can be derived purely from broker-side timestamps (Section
    III-A-3).  ``CreateTime`` (producer-assigned) is also supported so tests
    can demonstrate the difference.
    """

    CREATE_TIME = "CreateTime"
    LOG_APPEND_TIME = "LogAppendTime"


@dataclass(frozen=True, slots=True)
class ProducerRecord:
    """A record as handed to a producer: destination plus key/value.

    ``partition`` may be set to pin the record to a partition; otherwise the
    producer's partitioner chooses one.  ``timestamp`` is the producer-side
    create time; it is preserved only when the topic uses ``CreateTime``.
    """

    topic: str
    value: Any
    key: Any = None
    partition: int | None = None
    timestamp: float | None = None


@dataclass(frozen=True, slots=True)
class ConsumerRecord:
    """A record as returned from a fetch: position plus key/value/timestamp.

    Benchmark runs materialise millions of these; ``slots=True`` keeps each
    instance to a fixed-size struct (no per-record ``__dict__``).
    """

    topic: str
    partition: int
    offset: int
    timestamp: float
    timestamp_type: TimestampType
    key: Any
    value: Any

    def __repr__(self) -> str:  # compact, logs are full of these
        return (
            f"ConsumerRecord({self.topic}-{self.partition}@{self.offset}, "
            f"t={self.timestamp:.6f}, key={self.key!r}, value={self.value!r})"
        )


@dataclass(frozen=True, slots=True)
class RecordSlice:
    """Consecutive records of one partition, kept as column slices.

    What a columnar fetch returns (:meth:`PartitionLog.read_columns`,
    :meth:`Consumer.poll_columns`).  ``values``, ``keys`` and
    ``timestamps`` are aligned and record ``i`` has offset ``offset + i``;
    ``keys`` is ``None`` when every key is ``None`` (a log whose value
    column adopted a keyless slab window stores no key column).  No
    per-record object exists until :meth:`records` builds them.
    """

    topic: str
    partition: int
    offset: int
    timestamp_type: TimestampType
    values: Sequence[Any]
    keys: Sequence[Any] | None
    timestamps: Sequence[float]

    def __len__(self) -> int:
        return len(self.values)

    def window(self, lo: int, hi: int) -> "RecordSlice":
        """Rows ``[lo, hi)`` as a slice of their own."""
        keys = self.keys
        return RecordSlice(
            self.topic,
            self.partition,
            self.offset + lo,
            self.timestamp_type,
            self.values[lo:hi],
            None if keys is None else keys[lo:hi],
            self.timestamps[lo:hi],
        )

    def records(self) -> list[ConsumerRecord]:
        """The slice as :class:`ConsumerRecord` objects, in offset order."""
        topic = self.topic
        partition = self.partition
        timestamp_type = self.timestamp_type
        keys = repeat(None) if self.keys is None else self.keys
        return [
            ConsumerRecord(topic, partition, offset, timestamp, timestamp_type, key, value)
            for offset, timestamp, key, value in zip(
                range(self.offset, self.offset + len(self.values)),
                self.timestamps,
                keys,
                self.values,
            )
        ]
