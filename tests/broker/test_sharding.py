"""Partition routing over the nodes of a cluster.

A fresh cluster leads a topic's partitions round-robin over its nodes,
yet every produce and fetch resolves its :class:`PartitionLog` through
the topic itself: ``partition_log`` returns the one log object whichever
node leads the partition, failover promotes a replica without moving or
copying that log, and idempotent sequence state lives in the log.
"""

from __future__ import annotations

import pytest

from repro.broker import AdminClient, BrokerCluster, Producer


@pytest.fixture
def cluster(sim):
    return BrokerCluster(sim, num_nodes=4)


@pytest.fixture
def admin(cluster):
    return AdminClient(cluster)


class TestBrokerServingMap:
    def test_partition_log_routes_to_same_object(self, cluster, admin):
        topic = admin.create_topic("t", num_partitions=4)
        leaders = [cluster.partition_leader("t", p).node_id for p in range(4)]
        assert leaders == [0, 1, 2, 3]
        for p in range(4):
            assert cluster.partition_log("t", p) is topic.partitions[p]


class TestFailoverMovesHosting:
    def test_replicated_partition_hosting_follows_leadership(
        self, cluster, admin
    ):
        topic = admin.create_topic("t", num_partitions=2, replication_factor=2)
        assert cluster.partition_leader("t", 0).node_id == 0
        cluster.fail_node(0)
        # Leadership moved to the next alive node; the log it serves is the
        # very same object (replica promotion, not data copy).
        assert cluster.partition_leader("t", 0).node_id == 1
        assert cluster.partition_log("t", 0) is topic.partitions[0]


class TestShardedProduceConsume:
    def test_idempotent_produce_is_per_node(self, cluster, admin):
        """Sequence bookkeeping lives in the log, whichever node leads it."""
        admin.create_topic("t", num_partitions=2)
        producer = Producer(cluster, idempotent=True)
        producer.send_values("t", ["a", "b"], partition=0)
        producer.send_values("t", ["c"], partition=1)
        assert cluster.partition_leader("t", 0).node_id == 0
        assert cluster.partition_leader("t", 1).node_id == 1
        log0 = cluster.partition_log("t", 0)
        log1 = cluster.partition_log("t", 1)
        # Replays are recognised per partition log, on whichever node leads it.
        assert log0.is_replay(producer.producer_id, 0)
        assert log1.is_replay(producer.producer_id, 0)
        assert not log1.is_replay(producer.producer_id, 1)
