"""Flink-style source and sink functions."""

from __future__ import annotations

from typing import Any, Sequence

from repro.broker import BrokerCluster
from repro.engines.common.io import BoundedKafkaReader, CollectingWriter, KafkaWriter


class SourceFunction:
    """Base class for Flink sources; ``run`` returns the bounded input."""

    #: Label shown in execution plans (Figure 12: "Source: Custom Source").
    plan_label = "Custom Source"

    def run(self) -> list[Any]:
        """Produce the records this source emits."""
        raise NotImplementedError


class KafkaSource(SourceFunction):
    """Reads every record currently in a broker topic (FlinkKafkaConsumer)."""

    def __init__(self, cluster: BrokerCluster, topic: str) -> None:
        self.reader = BoundedKafkaReader(cluster, topic)
        self.topic = topic

    def run(self) -> list[Any]:
        """Fetch all values from the topic."""
        return self.reader.read_values()


class FromCollectionSource(SourceFunction):
    """Emits a fixed collection (``env.from_collection``), for tests."""

    plan_label = "Collection Source"

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = list(values)

    def run(self) -> list[Any]:
        """Return a copy of the collection."""
        return list(self.values)


class SinkFunction:
    """Base class for Flink sinks."""

    #: Label shown in execution plans (Figure 12: "Sink: Unnamed").
    plan_label = "Unnamed"

    def write(self, values: Sequence[Any]) -> None:
        """Consume one chunk of records."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush any buffered output."""


class KafkaSink(SinkFunction):
    """Writes records to a broker topic (FlinkKafkaProducer)."""

    def __init__(self, cluster: BrokerCluster, topic: str) -> None:
        self.writer = KafkaWriter(cluster, topic)
        self.topic = topic

    def write(self, values: Sequence[Any]) -> None:
        """Send one chunk to the output topic."""
        self.writer.write_chunk(values)

    def close(self) -> None:
        """Close the underlying producer."""
        self.writer.close()


class CollectSink(SinkFunction):
    """Collects records in memory, for tests and examples."""

    plan_label = "Collect"

    def __init__(self) -> None:
        self.writer = CollectingWriter()

    @property
    def values(self) -> list[Any]:
        """Everything written so far."""
        return self.writer.values

    def write(self, values: Sequence[Any]) -> None:
        """Append one chunk."""
        self.writer.write_chunk(values)
