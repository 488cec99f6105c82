"""Property-based tests of broker invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.broker import (
    AdminClient,
    BrokerCluster,
    Consumer,
    Producer,
    QueueFullError,
    TopicConfig,
    TopicPartition,
)
from repro.dataflow.kernels import SlabColumn
from repro.simtime import Simulator
from tests.slabs import slab_of

values_strategy = st.lists(
    st.one_of(st.text(max_size=20), st.integers(), st.binary(max_size=10)),
    max_size=200,
)


def make_cluster(num_partitions: int = 1) -> BrokerCluster:
    cluster = BrokerCluster(Simulator(seed=7))
    cluster.create_topic("t", TopicConfig(num_partitions=num_partitions))
    return cluster


class TestBrokerProperties:
    @given(values=values_strategy, batch_size=st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_everything_sent_is_received_in_order(self, values, batch_size):
        """Single-partition topics preserve exact global order (the paper's
        reason for using one partition)."""
        cluster = make_cluster()
        with Producer(cluster, batch_size=batch_size) as producer:
            for value in values:
                producer.send("t", value)
        consumer = Consumer(cluster)
        consumer.assign([TopicPartition("t", 0)])
        received = []
        while True:
            batch = consumer.poll(max_records=17)
            if not batch:
                break
            received.extend(r.value for r in batch)
        assert received == values

    @given(values=values_strategy, partitions=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_no_record_lost_or_duplicated_across_partitions(self, values, partitions):
        cluster = make_cluster(num_partitions=partitions)
        with Producer(cluster) as producer:
            for index, value in enumerate(values):
                producer.send("t", (index, value))
        consumer = Consumer(cluster)
        consumer.assign([TopicPartition("t", p) for p in range(partitions)])
        received = []
        while True:
            batch = consumer.poll(max_records=23)
            if not batch:
                break
            received.extend(r.value for r in batch)
        assert sorted(received) == sorted(enumerate(values))

    @given(values=values_strategy)
    @settings(max_examples=30, deadline=None)
    def test_offsets_are_dense_and_increasing(self, values):
        cluster = make_cluster()
        with Producer(cluster) as producer:
            producer.send_values("t", values)
        offsets = [r.offset for r in cluster.topic("t").partition(0).iter_all()]
        assert offsets == list(range(len(values)))

    @given(
        values=st.lists(st.integers(), min_size=1, max_size=100),
        advances=st.lists(st.floats(0, 5), min_size=1, max_size=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_log_append_timestamps_monotonic(self, values, advances):
        """LogAppendTime never decreases with offset — the property the
        paper's measurement depends on."""
        cluster = make_cluster()
        sim = cluster.simulator
        producer = Producer(cluster, batch_size=7)
        for index, value in enumerate(values):
            if advances and index % 3 == 0:
                sim.charge(advances[index % len(advances)])
            producer.send("t", value)
        producer.close()
        stamps = [r.timestamp for r in cluster.topic("t").partition(0).iter_all()]
        assert stamps == sorted(stamps)

    @given(
        keys=st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=100),
        partitions=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_key_always_same_partition(self, keys, partitions):
        cluster = make_cluster(num_partitions=partitions)
        with Producer(cluster) as producer:
            for key in keys:
                producer.send("t", "v", key=key)
                producer.send("t", "v", key=key)
        topic = cluster.topic("t")
        placements: dict[str, set[int]] = {}
        for p in range(partitions):
            for record in topic.partition(p).iter_all():
                placements.setdefault(record.key, set()).add(p)
        assert all(len(parts) == 1 for parts in placements.values())


# ---------------------------------------------------------------------------
# Direct single requests against the guarded path

#: Records a session produces from, in order (windows and row selections
#: are taken over one slab of them, so an adopting log widens its column).
LINES = [f"line {i}" for i in range(120)]

operations = st.one_of(
    st.tuples(st.just("produce"), st.integers(0, 9)),
    st.tuples(st.just("poll"), st.one_of(st.none(), st.integers(1, 12)), st.booleans()),
    st.tuples(st.just("ack")),
    st.tuples(st.just("wait"), st.sampled_from([1e-3, 0.1 + 0.2, 0.25])),
)


@st.composite
def sessions(draw):
    return {
        "bound": draw(st.sampled_from([None, 1, 4, 11])),
        "layout": draw(st.sampled_from(["list", "window", "selection"])),
        "acks": draw(st.sampled_from([0, 1, "all"])),
        "ops": draw(st.lists(operations, max_size=30)),
    }


def run_session(session, guarded: bool) -> tuple[tuple, int, int]:
    """Play ``session`` against a fresh one-partition topic; returns what
    it observed, how many produce and fetch requests it made and how many
    went through ``guard_request``.

    ``guarded`` forces every request onto the guarded path by making
    :meth:`BrokerCluster.direct_log` find none.
    """
    sim = Simulator(seed=7)
    cluster = BrokerCluster(sim)
    AdminClient(cluster).create_topic("t", max_queue=session["bound"])
    guards = []
    guard = cluster.guard_request
    cluster.guard_request = lambda *args: (guards.append(args), guard(*args))
    if guarded:
        cluster.direct_log = lambda *args, **kwargs: None
    slab = slab_of(LINES)
    producer = Producer(cluster, acks=session["acks"])
    consumer = Consumer(cluster)
    tp = TopicPartition("t", 0)
    consumer.assign([tp])
    seen: list = []
    cursor = requests = 0
    for op in session["ops"]:
        if op[0] == "produce":
            stop = min(cursor + op[1], len(LINES))
            requests += stop > cursor
            if session["layout"] == "list":
                batch = LINES[cursor:stop]
            elif session["layout"] == "window":
                batch = SlabColumn(slab, cursor, stop)
            else:
                batch = SlabColumn(slab, rows=np.arange(cursor, stop, dtype=np.int64))
            try:
                producer.send_values("t", batch)
            except QueueFullError as err:
                seen.append(("full", err.depth, err.bound, err.count, sim.now().hex()))
            else:
                cursor = stop
                seen.append(("sent", sim.now().hex()))
        elif op[0] == "poll":
            requests += 1
            result = consumer.poll_values(max_records=op[1], with_timestamps=op[2])
            values, stamps = result if op[2] else (result, None)
            seen.append(
                (
                    "poll",
                    type(values).__name__,
                    list(values),
                    None if stamps is None else (type(stamps).__name__, stamps.tobytes()),
                    sim.now().hex(),
                )
            )
        elif op[0] == "ack":
            consumer.acknowledge()
        else:
            sim.charge(op[1])
    log = cluster.partition_log("t", 0)
    observed = (
        seen,
        list(log.read_values(log.start_offset)),
        log.read_timestamps(log.start_offset).tobytes(),
        log._run_starts.tobytes(),
        log._run_stamps.tobytes(),
        (log.start_offset, log.end_offset, log.consumed_offset, log.queue_depth()),
        consumer.position(tp),
        sim.now().hex(),
        producer.records_sent,
        consumer.records_fetched,
    )
    return observed, requests, len(guards)


@settings(max_examples=150, deadline=None)
@given(session=sessions())
def test_direct_requests_equal_the_guarded_path(session):
    """Produce, poll and acknowledge sequences leave the same values,
    timestamp runs, offsets, positions, clock and counters, and raise the
    same ``QueueFullError`` at the same clock, whether each request goes
    straight to the log or through the guarded path."""
    direct, requests, direct_guards = run_session(session, guarded=False)
    guarded, _, guarded_guards = run_session(session, guarded=True)
    assert direct == guarded
    assert (direct_guards, guarded_guards) == (0, requests)
