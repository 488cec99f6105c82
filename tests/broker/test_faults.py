"""Tests for repro.broker.faults: chaos injection and failover."""

import pytest

from repro.broker import (
    BrokerCluster,
    BrokerUnavailableError,
    Consumer,
    FaultPlan,
    NodeOutage,
    Producer,
    RequestTimedOutError,
    RetryPolicy,
    TopicConfig,
    TopicPartition,
)
from repro.broker.errors import RetriableBrokerError
from repro.simtime import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


@pytest.fixture
def cluster(sim):
    return BrokerCluster(sim)


class TestPlanValidation:
    def test_bad_error_rate(self):
        with pytest.raises(ValueError):
            FaultPlan(error_rate=1.0)

    def test_bad_timeout_rate(self):
        with pytest.raises(ValueError):
            FaultPlan(timeout_rate=-0.1)

    def test_bad_jitter(self):
        with pytest.raises(ValueError):
            FaultPlan(latency_jitter=-1.0)

    def test_bad_outage_duration(self):
        with pytest.raises(ValueError):
            NodeOutage(node_id=0, start=0.0, duration=0.0)


class TestNodeFailover:
    def test_fail_node_moves_replicated_leadership(self, cluster):
        cluster.create_topic("r3", TopicConfig(num_partitions=3, replication_factor=3))
        dead = cluster.partition_leader("r3", 0).node_id
        cluster.fail_node(dead)
        new_leader = cluster.partition_leader("r3", 0)
        assert new_leader.node_id != dead
        assert cluster.node_is_up(new_leader.node_id)
        assert cluster.failovers >= 1

    def test_unreplicated_partition_goes_unavailable(self, cluster):
        cluster.create_topic("r1")  # replication_factor=1
        dead = cluster.partition_leader("r1", 0).node_id
        cluster.fail_node(dead)
        with pytest.raises(BrokerUnavailableError):
            cluster.guard_request("r1", 0)

    def test_recovery_restores_unreplicated_partition(self, cluster):
        cluster.create_topic("r1")
        dead = cluster.partition_leader("r1", 0).node_id
        cluster.fail_node(dead)
        cluster.recover_node(dead)
        cluster.guard_request("r1", 0)  # does not raise

    def test_fail_node_idempotent(self, cluster):
        cluster.create_topic("r3", TopicConfig(replication_factor=3))
        dead = cluster.partition_leader("r3", 0).node_id
        cluster.fail_node(dead)
        failovers = cluster.failovers
        cluster.fail_node(dead)
        assert cluster.failovers == failovers

    def test_unknown_node_raises(self, cluster):
        with pytest.raises(ValueError):
            cluster.fail_node(99)

    def test_produce_rides_over_failover(self, cluster):
        cluster.create_topic("r3", TopicConfig(replication_factor=3))
        with Producer(cluster) as producer:
            producer.send_values("r3", ["a", "b"])
            cluster.fail_node(cluster.partition_leader("r3", 0).node_id)
            producer.send_values("r3", ["c"])
        assert cluster.topic("r3").partition(0).read_values(0) == ["a", "b", "c"]

    def test_failover_keeps_the_log_and_its_sequence_state(self, cluster, monkeypatch):
        cluster.create_topic("t", TopicConfig(num_partitions=2, replication_factor=2))
        producer = Producer(cluster, idempotent=True)
        pid = producer.producer_id
        producer.send_values("t", ["c"], partition=1)
        lost = []

        def lose_first_ack(topic, partition):
            if not lost:
                lost.append((topic, partition))
                raise RequestTimedOutError(topic, partition)

        monkeypatch.setattr(cluster, "post_append", lose_first_ack)
        with pytest.raises(RequestTimedOutError):
            producer.send_values("t", ["a", "b"], partition=0)  # landed, ack lost
        dead = cluster.partition_leader("t", 0).node_id
        cluster.fail_node(dead)
        assert cluster.partition_leader("t", 0).node_id != dead
        for p in range(2):
            assert cluster.partition_log("t", p) is cluster.topic("t").partition(p)
        # The pre-failover batch replays as a duplicate on the new leader.
        log0 = cluster.partition_log("t", 0)
        assert log0.is_replay(pid, 0)
        producer.send_values("t", ["a", "b"], partition=0)
        assert producer.duplicates_avoided == 2
        assert log0.read_values(0) == ["a", "b"]
        # Sequence numbers stay per partition.
        log1 = cluster.partition_log("t", 1)
        assert log1.is_replay(pid, 0)
        assert not log1.is_replay(pid, 1)


class TestScheduledOutages:
    def test_outage_applies_at_simulated_time(self, cluster):
        cluster.create_topic("t")
        leader = cluster.partition_leader("t", 0).node_id
        schedule = cluster.attach_chaos(
            FaultPlan(outages=(NodeOutage(node_id=leader, start=5.0, duration=2.0),))
        )
        cluster.guard_request("t", 0)  # before the outage: fine
        cluster.simulator.charge(5.5)
        with pytest.raises(RetriableBrokerError):
            cluster.guard_request("t", 0)
        cluster.simulator.charge(2.0)  # past the recovery point
        cluster.guard_request("t", 0)
        assert schedule.crashes_applied == 1
        assert schedule.recoveries_applied == 1

    def test_schedule_outage_is_relative_to_now(self, cluster):
        cluster.create_topic("t")
        leader = cluster.partition_leader("t", 0).node_id
        schedule = cluster.attach_chaos(FaultPlan())
        cluster.simulator.charge(10.0)
        outage = schedule.schedule_outage(leader, after=1.0, duration=0.5)
        assert outage.start == pytest.approx(11.0)
        cluster.simulator.charge(1.25)
        with pytest.raises(RetriableBrokerError):
            cluster.guard_request("t", 0)

    def test_permanent_crash_never_recovers(self, cluster):
        cluster.create_topic("t")
        leader = cluster.partition_leader("t", 0).node_id
        cluster.attach_chaos(
            FaultPlan(outages=(NodeOutage(node_id=leader, start=0.0),)),
            # produce against a permanently dead rf=1 leader cannot succeed;
            # keep the retry budget tiny so the test stays fast
            retry_policy=RetryPolicy(max_retries=1, delivery_timeout=1.0),
        )
        cluster.simulator.charge(1.0)
        with pytest.raises(RetriableBrokerError):
            cluster.guard_request("t", 0)


class TestOutageNodeValidation:
    def test_attach_chaos_rejects_an_unknown_node(self, cluster):
        plan = FaultPlan(
            seed=1, outages=(NodeOutage(node_id=7, start=0.0, duration=1.0),)
        )
        with pytest.raises(
            ValueError, match=r"unknown node id 7 \(cluster has nodes \[0, 1, 2\]\)"
        ):
            cluster.attach_chaos(plan)
        assert cluster.chaos is None

    def test_schedule_outage_rejects_an_unknown_node(self, cluster):
        cluster.create_topic("t")
        schedule = cluster.attach_chaos(FaultPlan())
        with pytest.raises(ValueError, match="unknown node id 9"):
            schedule.schedule_outage(9, after=0.0)
        cluster.guard_request("t", 0)  # nothing was scheduled
        assert (schedule.crashes_applied, schedule.recoveries_applied) == (0, 0)


class TestTransientFaults:
    def test_error_rate_injects_retriable_errors(self, cluster):
        cluster.create_topic("t")
        cluster.attach_chaos(FaultPlan(seed=3, error_rate=0.5))
        raised = 0
        for _ in range(200):
            try:
                cluster.guard_request("t", 0)
            except RetriableBrokerError:
                raised += 1
        assert 50 < raised < 150  # ~50% of requests

    def test_latency_jitter_charges_simulated_time(self, cluster):
        cluster.create_topic("t")
        schedule = cluster.attach_chaos(FaultPlan(seed=3, latency_jitter=0.01))
        before = cluster.simulator.now()
        for _ in range(50):
            cluster.guard_request("t", 0)
        elapsed = cluster.simulator.now() - before
        assert elapsed > 0.0
        assert elapsed == pytest.approx(schedule.jitter_charged)

    def test_ack_lost_timeouts_fire_after_append(self, cluster):
        cluster.create_topic("t")
        schedule = cluster.attach_chaos(
            FaultPlan(seed=3, timeout_rate=0.3), idempotence=True
        )
        with Producer(cluster, batch_size=1) as producer:
            for i in range(100):
                producer.send("t", i)
        # the producer retried through the lost acks and deduped every replay
        assert schedule.timeouts_injected > 0
        assert producer.retries_performed >= schedule.timeouts_injected
        assert producer.duplicates_avoided > 0
        values = [r.value for r in cluster.topic("t").partition(0).iter_all()]
        assert values == list(range(100))


class TestDeterminism:
    def _run_world(self, chaos_seed):
        sim = Simulator(seed=1)
        cluster = BrokerCluster(sim)
        cluster.create_topic("t")
        leader = cluster.partition_leader("t", 0).node_id
        schedule = cluster.attach_chaos(
            FaultPlan(
                seed=chaos_seed,
                error_rate=0.1,
                timeout_rate=0.1,
                latency_jitter=0.002,
                outages=(NodeOutage(node_id=leader, start=0.05, duration=0.2),),
            )
        )
        with Producer(cluster) as producer:
            for start in range(0, 3000, 100):
                producer.send_values("t", list(range(start, start + 100)))
        consumer = Consumer(cluster)
        consumer.assign([TopicPartition("t", 0)])
        fetched = []
        while True:
            batch = consumer.poll(max_records=500)
            if not batch:
                break
            fetched.extend(r.value for r in batch)
        return (
            sim.now(),
            fetched,
            producer.retries_performed,
            producer.duplicates_avoided,
            schedule.errors_injected,
            schedule.timeouts_injected,
            schedule.jitter_charged,
        )

    def test_same_seed_is_bit_identical(self):
        assert self._run_world(7) == self._run_world(7)

    def test_chaos_world_is_slower_and_lossless(self):
        clean = self._run_world_clean()
        chaotic = self._run_world(7)
        assert chaotic[1] == clean[1]  # same records, exactly once, in order
        assert chaotic[0] > clean[0]  # strictly more simulated time

    def _run_world_clean(self):
        sim = Simulator(seed=1)
        cluster = BrokerCluster(sim)
        cluster.create_topic("t")
        with Producer(cluster) as producer:
            for start in range(0, 3000, 100):
                producer.send_values("t", list(range(start, start + 100)))
        consumer = Consumer(cluster)
        consumer.assign([TopicPartition("t", 0)])
        fetched = []
        while True:
            batch = consumer.poll(max_records=500)
            if not batch:
                break
            fetched.extend(r.value for r in batch)
        return (sim.now(), fetched)
