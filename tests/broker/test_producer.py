"""Tests for repro.broker.producer."""

import pytest

from repro.broker import BrokerCluster, Producer, TopicConfig
from repro.broker.errors import ProducerClosedError, TimestampTypeError
from repro.broker.records import TimestampType
from repro.simtime import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


@pytest.fixture
def cluster(sim):
    c = BrokerCluster(sim)
    c.create_topic("t")
    return c


class TestProducerBasics:
    def test_send_and_flush(self, cluster):
        producer = Producer(cluster)
        producer.send("t", "a")
        producer.flush()
        assert cluster.topic("t").total_records() == 1

    def test_batching_defers_append(self, cluster):
        producer = Producer(cluster, batch_size=10)
        for i in range(5):
            producer.send("t", i)
        assert cluster.topic("t").total_records() == 0
        producer.flush()
        assert cluster.topic("t").total_records() == 5

    def test_full_batch_autoflushes(self, cluster):
        producer = Producer(cluster, batch_size=3)
        for i in range(3):
            producer.send("t", i)
        assert cluster.topic("t").total_records() == 3

    def test_close_flushes(self, cluster):
        producer = Producer(cluster)
        producer.send("t", "a")
        producer.close()
        assert cluster.topic("t").total_records() == 1

    def test_context_manager_closes(self, cluster):
        with Producer(cluster) as producer:
            producer.send("t", "a")
        assert cluster.topic("t").total_records() == 1

    def test_context_manager_closes_on_exception(self, cluster):
        with pytest.raises(RuntimeError):
            with Producer(cluster) as producer:
                producer.send("t", "a")
                raise RuntimeError("boom")
        # the buffered record was still flushed on the way out
        assert cluster.topic("t").total_records() == 1
        with pytest.raises(ProducerClosedError):
            producer.send("t", "b")

    def test_send_values_requires_log_append_time(self, cluster):
        cluster.create_topic(
            "ct", TopicConfig(timestamp_type=TimestampType.CREATE_TIME)
        )
        with Producer(cluster) as producer:
            with pytest.raises(TimestampTypeError) as excinfo:
                producer.send_values("ct", ["a"])
        assert "ct" in str(excinfo.value)
        assert "LogAppendTime" in str(excinfo.value)

    def test_paced_send_values_requires_log_append_time(self, cluster):
        cluster.create_topic(
            "ct", TopicConfig(timestamp_type=TimestampType.CREATE_TIME)
        )
        with Producer(cluster) as producer:
            with pytest.raises(TimestampTypeError):
                producer.send_values("ct", ["a", "b"], rate=1_000.0)
        assert cluster.topic("ct").total_records() == 0

    def test_send_after_close_raises(self, cluster):
        producer = Producer(cluster)
        producer.close()
        with pytest.raises(ProducerClosedError):
            producer.send("t", "a")

    def test_invalid_acks(self, cluster):
        with pytest.raises(ValueError):
            Producer(cluster, acks=2)

    def test_invalid_batch_size(self, cluster):
        with pytest.raises(ValueError):
            Producer(cluster, batch_size=0)

    def test_records_sent_counter(self, cluster):
        with Producer(cluster) as producer:
            for i in range(7):
                producer.send("t", i)
        assert producer.records_sent == 7


class TestPartitioning:
    def test_explicit_partition(self, cluster):
        cluster.create_topic("multi", TopicConfig(num_partitions=3))
        with Producer(cluster) as producer:
            producer.send("multi", "x", partition=2)
        assert len(cluster.topic("multi").partition(2)) == 1

    def test_keyed_records_stay_in_one_partition(self, cluster):
        cluster.create_topic("multi", TopicConfig(num_partitions=3))
        with Producer(cluster) as producer:
            for _ in range(10):
                producer.send("multi", "v", key="same-key")
        counts = [len(p) for p in cluster.topic("multi").partitions]
        assert sorted(counts) == [0, 0, 10]

    def test_keyless_round_robin_spreads(self, cluster):
        cluster.create_topic("multi", TopicConfig(num_partitions=2))
        with Producer(cluster) as producer:
            for i in range(10):
                producer.send("multi", i)
        counts = [len(p) for p in cluster.topic("multi").partitions]
        assert counts == [5, 5]

    def test_single_partition_preserves_global_order(self, cluster):
        with Producer(cluster, batch_size=4) as producer:
            for i in range(10):
                producer.send("t", i)
        values = [r.value for r in cluster.topic("t").partition(0).iter_all()]
        assert values == list(range(10))


class TestCostsAndTime:
    def test_acks_zero_charges_less_than_acks_one(self, sim):
        def run(acks):
            local_sim = Simulator(seed=1)
            cluster = BrokerCluster(local_sim)
            cluster.create_topic("t")
            with Producer(cluster, acks=acks) as producer:
                producer.send_values("t", list(range(100)))
            return local_sim.now()

        assert run(0) < run(1)

    def test_acks_all_charges_more_than_acks_one(self):
        def run(acks):
            local_sim = Simulator(seed=1)
            cluster = BrokerCluster(local_sim)
            cluster.create_topic("t")
            with Producer(cluster, acks=acks) as producer:
                producer.send_values("t", list(range(1000)))
            return local_sim.now()

        assert run("all") > run(1)

    def test_send_values_equivalent_to_send_loop(self):
        def world():
            local_sim = Simulator(seed=1)
            cluster = BrokerCluster(local_sim)
            cluster.create_topic("t")
            return local_sim, cluster

        sim_a, cluster_a = world()
        with Producer(cluster_a, batch_size=50) as producer:
            for i in range(50):
                producer.send("t", i)
        sim_b, cluster_b = world()
        with Producer(cluster_b, batch_size=50) as producer:
            producer.send_values("t", list(range(50)))
        values_a = cluster_a.topic("t").partition(0).read_values(0)
        values_b = cluster_b.topic("t").partition(0).read_values(0)
        assert values_a == values_b
        assert sim_a.now() == pytest.approx(sim_b.now())
