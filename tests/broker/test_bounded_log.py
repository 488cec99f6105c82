"""Bounded partitions: queue bounds, consumption watermarks, trimming."""

import numpy as np
import pytest

from repro.broker import (
    AdminClient,
    BrokerCluster,
    Consumer,
    Producer,
    QueueFullError,
    TopicPartition,
)
from repro.broker.errors import OffsetOutOfRangeError, RetriableBrokerError
from repro.broker.log import PartitionLog
from repro.dataflow.kernels import FieldColumn
from repro.simtime import SimClock, Simulator


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def log(clock):
    return PartitionLog("t", 0, clock, max_queue=5)


class TestQueueBound:
    def test_append_beyond_bound_raises(self, log):
        for i in range(5):
            log.append(i)
        with pytest.raises(QueueFullError) as excinfo:
            log.append(5)
        assert excinfo.value.depth == 5
        assert excinfo.value.bound == 5

    def test_queue_full_is_retryable(self):
        assert issubclass(QueueFullError, RetriableBrokerError)

    def test_batch_is_all_or_nothing(self, log):
        log.append_batch([0, 1, 2])
        with pytest.raises(QueueFullError):
            log.append_batch([3, 4, 5])  # only 2 slots free
        assert log.end_offset == 3  # nothing of the failed batch landed

    def test_remaining_capacity(self, log):
        assert log.remaining_capacity() == 5
        log.append_batch([0, 1, 2])
        assert log.remaining_capacity() == 2

    def test_unbounded_log_has_no_capacity_limit(self, clock):
        unbounded = PartitionLog("t", 0, clock)
        assert unbounded.remaining_capacity() is None
        unbounded.append_batch(list(range(1000)))

    def test_bound_validation(self, clock):
        with pytest.raises(ValueError):
            PartitionLog("t", 0, clock, max_queue=0)


class TestConsumptionWatermark:
    def test_mark_consumed_frees_capacity(self, log):
        for i in range(5):
            log.append(i)
        log.mark_consumed(3)
        assert log.queue_depth() == 2
        assert log.remaining_capacity() == 3
        log.append_batch([5, 6, 7])

    def test_watermark_is_monotonic(self, log):
        log.append_batch([0, 1, 2])
        log.mark_consumed(2)
        log.mark_consumed(1)  # going backwards is a no-op
        assert log.consumed_offset == 2

    def test_cannot_consume_beyond_end(self, log):
        log.append(0)
        with pytest.raises(OffsetOutOfRangeError):
            log.mark_consumed(2)

    def test_depth_counts_unconsumed_only(self, log):
        log.append_batch([0, 1, 2, 3])
        assert log.queue_depth() == 4
        log.mark_consumed(4)
        assert log.queue_depth() == 0


class TestTrimming:
    def test_bounded_log_memory_stays_order_bound(self, clock):
        bound = 10
        log = PartitionLog("t", 0, clock, max_queue=bound)
        for i in range(1000):
            log.append(i)
            log.mark_consumed(i + 1)
        # Offsets keep growing, storage does not.
        assert log.end_offset == 1000
        assert log.start_offset == 1000
        assert len(log._values) <= bound

    def test_reads_translate_offsets_after_trim(self, log):
        log.append_batch(["a", "b", "c", "d", "e"])
        log.mark_consumed(3)
        assert log.read_values(3) == ["d", "e"]
        assert log.record_at(4).value == "e"

    def test_reading_trimmed_offsets_raises(self, log):
        log.append_batch(["a", "b", "c"])
        log.mark_consumed(2)
        with pytest.raises(OffsetOutOfRangeError):
            log.read_values(0)

    def test_unbounded_log_never_trims(self, clock):
        log = PartitionLog("t", 0, clock)
        log.append_batch(list(range(100)))
        log.mark_consumed(100)
        assert log.start_offset == 0
        assert log.read_values(0) == list(range(100))

    def test_adopted_field_column_is_trimmed(self, clock):
        """An adopted field column narrows as records are acknowledged
        and stays adopted; its buffers stay O(bound) across doublings."""
        bound = 10
        log = PartitionLog("t", 0, clock, max_queue=bound)
        triples = []
        for step in range(40):
            values = np.arange(3, dtype=np.float64) + 3 * step
            column = FieldColumn((values, values + 0.5, values + 0.25))
            clock.advance(1.0)
            log.append_batch(column)
            triples.extend(column)
            log.mark_consumed(log.end_offset - 2)
            assert log.start_offset == log.end_offset - 2
            assert log.read_values(log.start_offset) == triples[-2:]
            assert list(log.read_timestamps(log.start_offset)) == [clock.now()] * 2
            with pytest.raises(OffsetOutOfRangeError):
                log.read_values(log.start_offset - 1)
        assert type(log._values) is FieldColumn
        assert all(len(field) <= 2 * bound for field in log._values.fields)
        log.mark_consumed(log.end_offset)
        assert len(log) == 0 and log.read_values(log.end_offset) == []

    def test_timestamps_follow_values_through_trim(self, clock, log):
        for i in range(5):
            clock.advance(1.0)
            log.append(i)
        log.mark_consumed(3)
        assert list(log.read_timestamps(3)) == [4.0, 5.0]


class TestProducerFlowControl:
    @pytest.fixture
    def cluster(self):
        sim = Simulator(seed=7)
        c = BrokerCluster(sim)
        AdminClient(c).create_topic("bounded", max_queue=10)
        return c

    def test_producer_send_raises_queue_full(self, cluster):
        producer = Producer(cluster, batch_size=5)
        with pytest.raises(QueueFullError):
            for i in range(20):
                producer.send("bounded", i)
                producer.flush()

    def test_rejected_batch_stays_replayable(self, cluster):
        """QueueFullError must hit BEFORE idempotent sequence registration.

        If the sequence were registered first, the retry after capacity
        frees would look like a duplicate and be silently dropped.
        """
        log = cluster.topic("bounded").partition(0)
        producer = Producer(cluster, batch_size=10, idempotent=True)
        producer.send_values("bounded", list(range(10)))
        with pytest.raises(QueueFullError):
            producer.send_values("bounded", list(range(10, 20)))
        log.mark_consumed(10)  # consumer catches up; capacity frees
        producer.send_values("bounded", list(range(10, 20)))
        values = [r.value for r in log.iter_all()]
        assert values == list(range(10, 20))  # landed once, not dropped
        assert log.end_offset == 20

    def test_lost_ack_replay_bypasses_flow_control(self, cluster):
        """A replayed batch whose records already landed must be
        deduplicated even when the queue is full — its records occupy the
        queue, so rejecting the replay would wedge the producer forever."""
        from repro.broker import FaultPlan, RetryPolicy

        cluster.attach_chaos(FaultPlan(seed=23, timeout_rate=0.5))
        log = cluster.topic("bounded").partition(0)
        producer = Producer(
            cluster,
            batch_size=10,
            idempotent=True,
            retry_policy=RetryPolicy(jitter=0.0),
        )
        # The batch exactly fills the queue; with a 50% lost-ack rate the
        # producer replays it until an acknowledgement arrives.
        producer.send_values("bounded", list(range(10)))
        assert [r.value for r in log.iter_all()] == list(range(10))
        assert log.queue_depth() == 10  # full, and not wedged

    def test_consumer_acknowledge_frees_capacity(self, cluster):
        log = cluster.topic("bounded").partition(0)
        producer = Producer(cluster, batch_size=10)
        producer.send_values("bounded", list(range(10)))
        consumer = Consumer(cluster)
        consumer.assign([TopicPartition("bounded", 0)])
        consumer.poll_values()
        consumer.acknowledge()
        assert log.remaining_capacity() == 10
        producer.send_values("bounded", list(range(10, 20)))

    def test_admin_passes_bound_through(self, cluster):
        AdminClient(cluster).create_topic("b2", num_partitions=2, max_queue=3)
        topic = cluster.topic("b2")
        for p in range(2):
            assert topic.partition(p).remaining_capacity() == 3
