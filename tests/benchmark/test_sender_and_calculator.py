"""Tests for the data sender and the result calculator (Figure 5 phases)."""

import pytest

from repro.benchmark import DataSender, ResultCalculator
from repro.broker import AdminClient, BrokerCluster, Producer
from repro.broker.records import TimestampType
from repro.simtime import Simulator


@pytest.fixture
def world():
    sim = Simulator(seed=2)
    broker = BrokerCluster(sim)
    return sim, broker, AdminClient(broker)


class TestDataSender:
    def test_sends_all_records_in_order(self, world):
        sim, broker, admin = world
        sender = DataSender(broker, "in", ingestion_rate=1000)
        report = sender.send([f"r{i}" for i in range(500)])
        assert report.records_sent == 500
        assert broker.topic("in").partition(0).read_values(0) == [
            f"r{i}" for i in range(500)
        ]

    def test_rate_pacing_spreads_timestamps(self, world):
        sim, broker, admin = world
        sender = DataSender(broker, "in", ingestion_rate=100, batch_size=10)
        report = sender.send([str(i) for i in range(100)])
        assert report.duration == pytest.approx(1.0, rel=0.05)
        log = broker.topic("in").partition(0)
        assert log.last_timestamp() > log.first_timestamp()

    def test_achieved_rate(self, world):
        sim, broker, admin = world
        sender = DataSender(broker, "in", ingestion_rate=1000, batch_size=100)
        report = sender.send([str(i) for i in range(1000)])
        assert report.achieved_rate == pytest.approx(1000, rel=0.1)

    def test_recreates_topic(self, world):
        sim, broker, admin = world
        admin.create_topic("in")
        with Producer(broker) as producer:
            producer.send_values("in", ["old"])
        DataSender(broker, "in").send(["new"])
        assert broker.topic("in").partition(0).read_values(0) == ["new"]

    def test_single_partition_topic(self, world):
        sim, broker, admin = world
        DataSender(broker, "in").send(["a"])
        assert broker.topic("in").num_partitions == 1

    def test_invalid_rate(self, world):
        sim, broker, admin = world
        with pytest.raises(ValueError):
            DataSender(broker, "in", ingestion_rate=0)

    def test_invalid_batch_size_leaves_the_topic_and_clock_alone(self, world):
        sim, broker, admin = world
        DataSender(broker, "in").send(["a", "b", "c"])
        now = sim.now()
        with pytest.raises(ValueError):
            DataSender(broker, "in", batch_size=0).send(["x"])
        assert broker.topic("in").partition(0).read_values(0) == ["a", "b", "c"]
        assert sim.now() == now

    def test_acks_all_supported(self, world):
        sim, broker, admin = world
        report = DataSender(broker, "in", acks="all").send(["a", "b"])
        assert report.records_sent == 2


class TestResultCalculator:
    def test_execution_time_is_first_to_last_append(self, world):
        sim, broker, admin = world
        admin.create_topic("out")
        calculator = ResultCalculator(broker)
        with Producer(broker, batch_size=1) as producer:
            producer.send("out", "first")
            sim.charge(4.0)
            producer.send("out", "middle")
            sim.charge(3.5)
            producer.send("out", "last")
        measurement = calculator.measure("out")
        assert measurement.records == 3
        assert measurement.execution_time == pytest.approx(7.5, abs=0.01)

    def test_empty_topic_zero_time(self, world):
        sim, broker, admin = world
        admin.create_topic("out")
        measurement = ResultCalculator(broker).measure("out")
        assert measurement.records == 0
        assert measurement.execution_time == 0.0

    def test_single_record_zero_time(self, world):
        sim, broker, admin = world
        admin.create_topic("out")
        with Producer(broker) as producer:
            producer.send("out", "only")
        assert ResultCalculator(broker).measure("out").execution_time == 0.0

    def test_rejects_create_time_topics(self, world):
        sim, broker, admin = world
        admin.create_topic("out", timestamp_type=TimestampType.CREATE_TIME)
        with pytest.raises(ValueError):
            ResultCalculator(broker).measure("out")

    def test_spans_partitions(self, world):
        sim, broker, admin = world
        admin.create_topic("out", num_partitions=2)
        topic = broker.topic("out")
        topic.partition(0).append("a")
        sim.charge(2.0)
        topic.partition(1).append("b")
        measurement = ResultCalculator(broker).measure("out")
        assert measurement.records == 2
        assert measurement.execution_time == pytest.approx(2.0)
