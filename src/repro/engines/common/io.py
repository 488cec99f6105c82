"""Broker IO helpers shared by engine-specific sources and sinks.

Each engine exposes Kafka connectors under its native names (Flink's
``KafkaSource``, Spark's ``KafkaUtils``, Apex Malhar's
``KafkaInputOperator``); they all delegate to these two helpers so broker
semantics — offset handling, LogAppendTime stamping via the producer — are
identical across engines, as they are in reality.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.broker import BrokerCluster, Consumer, Producer, TopicPartition


class BoundedKafkaReader:
    """Reads everything currently in a topic, across all partitions.

    The paper fully ingests the input data set before the query runs, so
    engine sources see a bounded prefix of an (in principle) unbounded
    stream.  Records are returned in offset order per partition,
    partition-major — with the paper's single-partition topics this is the
    exact global insertion order.
    """

    def __init__(self, cluster: BrokerCluster, topic: str) -> None:
        self.cluster = cluster
        self.topic = topic
        self._retry_rng = cluster.simulator.random.stream(
            f"broker/retry/reader-{cluster.register_client()}"
        )

    def read_values(self) -> Sequence[Any]:
        """Fetch all record values currently in the topic (fast path).

        Delegates to :meth:`Consumer.poll_values` — one unbounded bulk
        poll over all partitions, skipping :class:`ConsumerRecord`
        allocation entirely.  The reader's own retry stream is handed to
        the consumer, so charges, guard order and chaos retry draws are
        exactly those of the direct per-partition fetches this replaced.
        """
        topic = self.cluster.topic(self.topic)
        consumer = Consumer(self.cluster, retry_rng=self._retry_rng)
        consumer.assign(
            [TopicPartition(self.topic, p) for p in range(topic.num_partitions)]
        )
        values = consumer.poll_values()
        consumer.close()
        return values


class KafkaWriter:
    """Chunk-wise writer used as the pump's emit callback.

    Each chunk is flushed immediately so the broker stamps it with the
    current simulated clock — that is what makes the result calculator's
    LogAppendTime measurement track the engine's processing timeline.
    """

    def __init__(self, cluster: BrokerCluster, topic: str, acks: int | str = 1) -> None:
        self.cluster = cluster
        self.topic = topic
        self.producer = Producer(cluster, acks=acks, batch_size=100_000)
        self.records_written = 0

    def write_chunk(self, values: Sequence[Any]) -> None:
        """Send one chunk of values and flush it to the log.

        A :class:`~repro.dataflow.kernels.SlabColumn` chunk reaches the
        log as a column, which adopts it without decoding a record.
        """
        self.producer.send_values(self.topic, values)
        self.records_written += len(values)

    def close(self) -> None:
        """Flush and close the underlying producer."""
        self.producer.close()


class CollectingWriter:
    """In-memory sink for tests and examples."""

    def __init__(self) -> None:
        self.values: list[Any] = []

    def write_chunk(self, values: Sequence[Any]) -> None:
        """Append one chunk of values."""
        self.values.extend(values)

    def close(self) -> None:
        """No-op, for interface symmetry."""
