"""Sharded-vs-single-node benchmark bit-identity, end to end.

Broker topology is a *host-side* knob (``REPRO_BROKER_NODES``): routing
partitions through per-node :class:`~repro.broker.broker.Broker` serving
maps must not move a single simulated quantity.  These tests pin that contract — the full 48-cell
Figure-5 grid and a chaos campaign whose single-node outage actually
bites must produce per-field identical reports on a 1-node and a 4-node
cluster — plus the exact cross-shard accounting of
:meth:`SenderReport.merge`.
"""

from __future__ import annotations

import pytest

from repro.benchmark import BenchmarkConfig, StreamBenchHarness
from repro.benchmark.sender import SenderReport
from repro.broker import FaultPlan
from repro.broker.broker import NODES_ENV
from repro.broker.faults import NodeOutage


def run_with_nodes(config, num_nodes, chaos=None):
    """Run the full matrix with the broker topology forced via the knob.

    ``run_matrix`` executes each cell in an isolated world that resolves
    its cluster size from ``REPRO_BROKER_NODES``, so the knob — not just
    the outer harness argument — must be set for the whole campaign.
    """
    mp = pytest.MonkeyPatch()
    try:
        mp.setenv(NODES_ENV, str(num_nodes))
        harness = StreamBenchHarness(config)
        assert len(harness.broker.nodes) == num_nodes
        return harness.run_matrix(parallel=False)
    finally:
        mp.undo()


class TestTopologyBitIdentity:
    """The acceptance contract: reports do not depend on the topology."""

    @pytest.fixture(scope="class")
    def reports(self):
        config = BenchmarkConfig(records=1_500, runs=2)
        return (
            run_with_nodes(config, num_nodes=1),
            run_with_nodes(config, num_nodes=4),
        )

    def test_covers_full_grid(self, reports):
        single, _ = reports
        assert len(single.runs) == 48 * 2

    def test_reports_equal_per_field(self, reports):
        single, sharded = reports
        assert single.config == sharded.config
        assert single.sender_report == sharded.sender_report
        assert single.runs == sharded.runs  # every field of every RunRecord
        assert single == sharded


class TestTopologyChaosBitIdentity:
    """A node outage among N nodes changes nothing vs the 1-node world.

    The outage targets node 0 — the input topic's leader in *every*
    topology (first topic created, round-robin from node 0) — and its
    window straddles the ingest batch times, so produce requests really
    fail and retry on both clusters.  All topics here are unreplicated,
    so the outage marks the node down without electing new leaders on
    either topology.
    """

    @pytest.fixture(scope="class")
    def reports(self):
        config = BenchmarkConfig(
            records=1_500,
            runs=2,
            systems=("flink", "spark"),
            queries=("grep", "identity"),
        )
        plan = FaultPlan(
            seed=5,
            error_rate=0.05,
            timeout_rate=0.02,
            latency_jitter=0.0005,
            outages=(NodeOutage(node_id=0, start=0.005, duration=0.010),),
        )
        mp = pytest.MonkeyPatch()
        results = []
        try:
            for num_nodes in (1, 4):
                mp.setenv(NODES_ENV, str(num_nodes))
                harness = StreamBenchHarness(config, chaos=plan)
                results.append(harness.run_matrix(parallel=False))
                mp.undo()
        finally:
            mp.undo()
        return tuple(results)

    def test_chaos_reports_equal_per_field(self, reports):
        single, sharded = reports
        assert single.sender_report == sharded.sender_report
        assert single.runs == sharded.runs
        assert single == sharded

    def test_outage_actually_bit(self, reports):
        """The outage produced retries, so the equality is not vacuous."""
        single, _ = reports
        assert single.sender_report.retries > 0


def report(topic="in", sent=10, start=0.0, end=1.0, **kwargs):
    return SenderReport(
        topic=topic,
        records_sent=sent,
        started_at=start,
        finished_at=end,
        records_offered=kwargs.pop("offered", sent),
        **kwargs,
    )


class TestSenderReportMerge:
    def test_sums_counters_exactly(self):
        merged = SenderReport.merge(
            [
                report(sent=10, retries=2, offered=12, records_shed=2),
                report(sent=20, retries=1, duplicates_avoided=3),
            ]
        )
        assert merged.records_sent == 30
        assert merged.records_offered == 32
        assert merged.records_shed == 2
        assert merged.retries == 3
        assert merged.duplicates_avoided == 3
        assert merged.records_offered == merged.records_accepted + merged.records_shed

    def test_window_spans_earliest_to_latest(self):
        merged = SenderReport.merge(
            [report(start=0.5, end=2.0), report(start=0.0, end=1.0)]
        )
        assert merged.started_at == 0.0
        assert merged.finished_at == 2.0
        assert merged.duration == 2.0

    def test_single_report_is_identity(self):
        one = report(sent=7, retries=1)
        assert SenderReport.merge([one]) == one

    def test_mixed_topics_join_names(self):
        merged = SenderReport.merge([report(topic="b"), report(topic="a")])
        assert merged.topic == "a+b"

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SenderReport.merge([])

    def test_imbalanced_accounting_rejected(self):
        """A shard that under-counts shed records cannot hide in the sum."""
        with pytest.raises(ValueError, match="does not reconcile"):
            SenderReport.merge(
                [report(), report(offered=99)]  # 99 != 10 sent + 0 shed
            )


class TestShardedSendersCompose:
    def test_two_shard_sends_merge_exactly(self, sim):
        """Real per-shard sends reconcile through merge, end to end."""
        from repro.benchmark.sender import DataSender
        from repro.broker import AdminClient, BrokerCluster

        cluster = BrokerCluster(sim, num_nodes=2)
        AdminClient(cluster).create_topic("t", num_partitions=2, num_nodes=2)
        reports = [
            DataSender(cluster, "t", create_topic=False, partition=p).send(
                [f"p{p}-{i}" for i in range(500)]
            )
            for p in range(2)
        ]
        merged = SenderReport.merge(reports)
        assert merged.records_sent == 1_000
        assert merged.records_offered == 1_000
        assert merged.records_shed == 0
        assert cluster.topic("t").total_records() == 1_000
