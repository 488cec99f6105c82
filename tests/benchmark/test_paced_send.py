"""The sender's one-pass ingest against its per-request loop.

``DataSender.send`` hands the whole workload to ``Producer.send_values``
with a ``rate``, which replays the request timeline in one pass when no
request can branch.  The reference below is the loop the sender ran
before, written with the public API: one pacing charge and one
``send_values`` per request.  Both must leave the same values, timestamp
bytes and clock, and report the same ingestion.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark import DataSender
from repro.benchmark.sender import SenderReport
from repro.broker import (
    AdminClient,
    BrokerCluster,
    BrokerUnavailableError,
    FaultPlan,
    Producer,
)
from repro.broker.log import PartitionLog
from repro.dataflow.kernels import SlabColumn
from repro.simtime import Simulator
from tests.slabs import slab_of

TOPIC = "in"


def reference_send(
    cluster: BrokerCluster,
    records,
    ingestion_rate: float,
    acks,
    batch_size: int,
    create_topic: bool,
) -> SenderReport:
    """``DataSender.send`` as a per-request loop over the public API."""
    sim = cluster.simulator
    if create_topic:
        AdminClient(cluster).recreate_topic(TOPIC, replication_factor=1)
    started = sim.now()
    producer = Producer(cluster, acks=acks, batch_size=batch_size)
    for start in range(0, len(records), batch_size):
        batch = records[start : start + batch_size]
        sim.charge(len(batch) / ingestion_rate)
        producer.send_values(TOPIC, batch)
    producer.close()
    return SenderReport(
        topic=TOPIC,
        records_sent=len(records),
        started_at=started,
        finished_at=sim.now(),
        retries=producer.retries_performed,
        duplicates_avoided=producer.duplicates_avoided,
        records_offered=len(records),
    )


def state(cluster: BrokerCluster) -> tuple:
    """What the ingest left: values, stamp bytes and the clock's bits."""
    log = cluster.partition_log(TOPIC, 0)
    return (
        list(log.read_values(log.start_offset)),
        log.read_timestamps(log.start_offset).tobytes(),
        cluster.simulator.now().hex(),
    )


#: Rates in records per simulated second, integral and not.
RATES = (1, 3, 7.0, 1_000, 100_000.0, 123_456.789, 1e9)


@st.composite
def ingests(draw):
    batch_size = draw(st.integers(1, 6))
    total = draw(
        st.one_of(
            st.sampled_from([0, 1]),
            st.builds(
                lambda k, d: max(0, k * batch_size + d),
                st.integers(1, 4),
                st.integers(-1, 1),
            ),
        )
    )
    prefill = draw(st.sampled_from(["none", "list", "column"]))
    return {
        "batch_size": batch_size,
        "total": total,
        "rate": draw(st.sampled_from(RATES)),
        "acks": draw(st.sampled_from([0, 1, "all"])),
        "layout": draw(st.sampled_from(["list", "window", "selection"])),
        "prefill": prefill,
        "prefill_size": draw(st.integers(1, 5)),
        "create_topic": prefill == "none" or draw(st.booleans()),
        "start": draw(st.sampled_from([0.0, 0.1 + 0.2, 12.5])),
    }


def build_world(case) -> tuple[BrokerCluster, object]:
    """A fresh world, maybe with a pre-filled topic, and the records to send."""
    sim = Simulator(seed=7)
    cluster = BrokerCluster(sim)
    sim.charge(case["start"])
    size = case["prefill_size"] + case["total"]
    lines = [f"record {i}" for i in range(size)]
    slab = slab_of(lines)
    head, tail = case["prefill_size"], size
    if case["layout"] == "list":
        records = lines[head:tail]
    elif case["layout"] == "window":
        records = SlabColumn(slab, head, tail)
    else:  # every row of the tail, as a row selection
        records = SlabColumn(slab, rows=np.arange(head, tail, dtype=np.int64))
    if case["prefill"] != "none":
        AdminClient(cluster).create_topic(TOPIC)
        prefix = lines[:head] if case["prefill"] == "list" else SlabColumn(slab, 0, head)
        with Producer(cluster) as producer:
            producer.send_values(TOPIC, prefix)
        sim.charge(0.1 + 0.2)
    return cluster, records


@settings(max_examples=200, deadline=None)
@given(case=ingests())
def test_paced_send_equals_the_per_request_loop(case):
    options = {
        "ingestion_rate": case["rate"],
        "acks": case["acks"],
        "batch_size": case["batch_size"],
        "create_topic": case["create_topic"],
    }
    cluster, records = build_world(case)
    expected = reference_send(cluster, records, **options)
    expected_state = state(cluster)

    cluster, records = build_world(case)
    report = DataSender(cluster, TOPIC, **options).send(records)
    assert state(cluster) == expected_state
    assert report == expected
    assert report.started_at.hex() == expected.started_at.hex()
    assert report.finished_at.hex() == expected.finished_at.hex()


class TestPerRequestPath:
    """Requests that can branch keep the guarded per-request path."""

    @pytest.fixture
    def appends(self, monkeypatch):
        """Each log append made, as ``(method, record count)``."""
        calls = []
        for name in ("append_batch", "append_requests"):
            original = getattr(PartitionLog, name)

            def counted(log, values, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, len(values)))
                return _original(log, values, *args, **kwargs)

            monkeypatch.setattr(PartitionLog, name, counted)
        return calls

    @pytest.mark.parametrize("idempotence", [True, False])
    def test_chaos_ingest_retries_each_request(self, appends, idempotence):
        records = [f"r{i}" for i in range(1_001)]
        worlds = []
        for _ in range(2):
            cluster = BrokerCluster(Simulator(seed=3))
            plan = FaultPlan(seed=11, error_rate=0.3, timeout_rate=0.2)
            cluster.attach_chaos(plan, idempotence=idempotence)
            worlds.append(cluster)
        expected = reference_send(worlds[0], records, 100_000.0, 1, 100, True)
        reference_appends = list(appends)
        appends.clear()
        report = DataSender(worlds[1], TOPIC, batch_size=100).send(records)
        assert appends == reference_appends
        assert {method for method, _ in appends} == {"append_batch"}
        assert report.retries > 0
        # Lost acknowledgements: deduplicated, or appended twice.
        if idempotence:
            assert report.duplicates_avoided > 0
            assert appends == [("append_batch", 100)] * 10 + [("append_batch", 1)]
        else:
            assert len(appends) > 11
        assert report == expected
        assert state(worlds[1]) == state(worlds[0])

    def test_reliable_ingest_appends_once(self, appends):
        cluster = BrokerCluster(Simulator(seed=3))
        report = DataSender(cluster, TOPIC, batch_size=100).send(["a"] * 1_001)
        assert appends == [("append_requests", 1_001)]
        assert report.records_sent == 1_001

    @pytest.mark.parametrize("why", ["bounded", "idempotent", "leader down"])
    def test_branching_requests_take_the_loop(self, appends, why):
        cluster = BrokerCluster(Simulator(seed=3))
        admin = AdminClient(cluster)
        admin.create_topic(TOPIC, max_queue=10_000 if why == "bounded" else None)
        if why == "leader down":
            cluster.fail_node(cluster.partition_leader(TOPIC, 0).node_id)
        sender = DataSender(
            cluster,
            TOPIC,
            batch_size=100,
            create_topic=False,
            idempotent=why == "idempotent",
        )
        if why == "leader down":
            with pytest.raises(BrokerUnavailableError):
                sender.send(["a"] * 250)
            assert appends == []
        else:
            sender.send(["a"] * 250)
            assert appends == [("append_batch", 100)] * 2 + [("append_batch", 50)]


    def test_paced_send_to_a_second_partition(self, appends):
        worlds = []
        for _ in range(2):
            cluster = BrokerCluster(Simulator(seed=5))
            AdminClient(cluster).create_topic(TOPIC, num_partitions=2)
            worlds.append(cluster)
        values = [f"v{i}" for i in range(23)]
        with Producer(worlds[0], batch_size=5) as producer:
            for start in range(0, len(values), 5):
                batch = values[start : start + 5]
                worlds[0].simulator.charge(len(batch) / 7.0)
                producer.send_values(TOPIC, batch, 1)
        appends.clear()
        with Producer(worlds[1], batch_size=5) as producer:
            producer.send_values(TOPIC, values, 1, rate=7.0)
        assert appends == [("append_requests", 23)]
        for cluster in worlds:
            assert cluster.partition_log(TOPIC, 0).end_offset == 0
        logs = [cluster.partition_log(TOPIC, 1) for cluster in worlds]
        assert logs[1].read_values(0) == logs[0].read_values(0) == values
        assert logs[1].read_timestamps(0).tobytes() == logs[0].read_timestamps(0).tobytes()
        assert worlds[1].simulator.now().hex() == worlds[0].simulator.now().hex()
