"""Tests for the shared broker IO helpers."""

import pytest

from repro.broker import Producer, TopicConfig
from repro.engines.common.io import BoundedKafkaReader, CollectingWriter, KafkaWriter


class TestBoundedKafkaReader:
    def test_reads_all_values_in_order(self, broker, admin):
        admin.create_topic("t")
        with Producer(broker) as producer:
            producer.send_values("t", [f"v{i}" for i in range(100)])
        reader = BoundedKafkaReader(broker, "t")
        assert reader.read_values() == [f"v{i}" for i in range(100)]

    def test_reads_across_partitions(self, broker):
        broker.create_topic("multi", TopicConfig(num_partitions=3))
        with Producer(broker) as producer:
            for i in range(9):
                producer.send("multi", i)
        values = BoundedKafkaReader(broker, "multi").read_values()
        assert sorted(values) == list(range(9))

    def test_charges_simulated_time(self, sim, broker, admin):
        admin.create_topic("t")
        with Producer(broker) as producer:
            producer.send_values("t", list(range(1000)))
        before = sim.now()
        BoundedKafkaReader(broker, "t").read_values()
        assert sim.now() > before

    def test_empty_topic(self, broker, admin):
        admin.create_topic("t")
        assert BoundedKafkaReader(broker, "t").read_values() == []


class TestKafkaWriter:
    def test_chunks_get_increasing_timestamps(self, sim, broker, admin):
        admin.create_topic("t")
        writer = KafkaWriter(broker, "t")
        writer.write_chunk(["a", "b"])
        sim.charge(2.0)
        writer.write_chunk(["c"])
        writer.close()
        log = broker.topic("t").partition(0)
        assert log.last_timestamp() - log.first_timestamp() >= 2.0
        assert writer.records_written == 3

    def test_empty_chunk_is_noop(self, broker, admin):
        admin.create_topic("t")
        writer = KafkaWriter(broker, "t")
        writer.write_chunk([])
        writer.close()
        assert broker.topic("t").total_records() == 0


class TestCollectingWriter:
    def test_collects_in_order(self):
        writer = CollectingWriter()
        writer.write_chunk([1, 2])
        writer.write_chunk([3])
        writer.close()
        assert writer.values == [1, 2, 3]
