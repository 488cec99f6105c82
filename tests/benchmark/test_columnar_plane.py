"""Column-fed vs list-fed campaigns: bit-identity, end to end.

The harness ingests the workload as a slab column (slab-direct generation,
zero-copy broker adoption, array-based measurement).  That layout is a
host-side optimisation only: every simulated quantity — clock charges,
RNG streams, produce sequencing, LogAppendTime stamps — must equal what
sending the materialised record list gives.  The ``list_world`` fixture
builds that list-fed reference world (the sender, log and pump take their
list paths), and these tests pin the contract for the full 48-cell matrix
and for a chaos campaign whose faults actually bite, plus the unit-level
mechanics that make it hold: log slab adoption, sender window batching
and the DoFn adapter's no-copy return path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.beam.transforms.core import DoFn
from repro.beam.runners.util import DoFnAdapter
from repro.benchmark import BenchmarkConfig, StreamBenchHarness
from repro.benchmark.sender import DataSender
from repro.broker import BrokerCluster, FaultPlan
from repro.broker.faults import NodeOutage
from repro.broker.log import PartitionLog
from repro.dataflow.kernels import SlabColumn
from repro.simtime import SimClock, Simulator
from repro.workloads.columnar import ColumnarWorkload


def run_both_worlds(list_world, config, chaos=None):
    """The serial matrix fed the record list, then fed the slab column."""
    with list_world():
        lists = StreamBenchHarness(config, chaos=chaos).run_matrix()
    columns = StreamBenchHarness(config, chaos=chaos).run_matrix()
    return lists, columns


class TestMatrixBitIdentity:
    """The acceptance contract: all 48 grid cells equal per field."""

    @pytest.fixture(scope="class")
    def reports(self, list_world):
        return run_both_worlds(list_world, BenchmarkConfig(records=1_500, runs=2))

    def test_covers_full_grid(self, reports):
        objects, _ = reports
        assert len(objects.runs) == 48 * 2

    def test_reports_equal_per_field(self, reports):
        objects, columns = reports
        assert objects.config == columns.config
        assert objects.sender_report == columns.sender_report
        assert objects.runs == columns.runs  # every field of every RunRecord
        assert objects == columns


class TestChaosBitIdentity:
    """Fault-tolerant campaigns agree too — retries, dedup and all."""

    @pytest.fixture(scope="class")
    def reports(self, list_world):
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
            outages=(NodeOutage(node_id=1, start=0.01, duration=0.05),),
        )
        return run_both_worlds(list_world, config, chaos=plan)

    def test_chaos_reports_equal_per_field(self, reports):
        objects, columns = reports
        assert objects.sender_report == columns.sender_report
        assert objects.runs == columns.runs
        assert objects == columns

    def test_faults_actually_bit(self, reports):
        """The plan produced retries, so the equality is not vacuous."""
        objects, _ = reports
        assert objects.sender_report.retries > 0


class TestHarnessIngestAdoption:
    def _input_log(self, harness):
        harness.ingest()
        topic = harness.broker.topic(harness.config.input_topic)
        return topic.partitions[0]

    def test_columnar_ingest_adopts_slab(self):
        harness = StreamBenchHarness(BenchmarkConfig(records=2_000))
        log = self._input_log(harness)
        assert type(log._values) is SlabColumn
        assert len(log) == 2_000
        # Zero-copy: the no-copy read hands back the adopted column itself.
        assert log.read_values(0, None, copy=False) is log._values

    def test_object_ingest_stays_list(self, list_world):
        with list_world():
            log = self._input_log(StreamBenchHarness(BenchmarkConfig(records=2_000)))
        assert type(log._values) is list

    def test_planes_store_equal_values_and_timestamps(self, list_world):
        config = BenchmarkConfig(records=2_000)
        with list_world():
            obj = self._input_log(StreamBenchHarness(config))
        col = self._input_log(StreamBenchHarness(config))
        assert list(col._values) == obj._values
        assert col.read_timestamps(0) == obj.read_timestamps(0)
        assert col.timestamp_bounds() == obj.timestamp_bounds()


@pytest.fixture
def column():
    return ColumnarWorkload.generate(3_000).column()


@pytest.fixture
def log():
    return PartitionLog("t", 0, SimClock())


class TestLogAdoption:
    def test_adopts_fresh_window(self, column, log):
        log.append_batch(column.view(0, 100))
        assert type(log._values) is SlabColumn
        assert log._values is not column  # log-private window
        assert len(log) == 100
        assert log.read_values(0) == column[0:100]

    def test_contiguous_windows_widen_in_place(self, column, log):
        log.append_batch(column.view(0, 100))
        adopted = log._values
        log.append_batch(column.view(100, 250))
        assert log._values is adopted  # same window, grown
        assert len(log) == 250
        assert log.read_values(0) == column[0:250]

    def test_non_contiguous_window_degrades(self, column, log):
        log.append_batch(column.view(0, 100))
        log.append_batch(column.view(500, 600))
        assert type(log._values) is list
        assert log.read_values(0) == column[0:100] + column[500:600]

    def test_foreign_slab_degrades(self, column, log):
        other = ColumnarWorkload.generate(3_000, seed=9).column()
        log.append_batch(column.view(0, 100))
        log.append_batch(other.view(100, 150))
        assert type(log._values) is list
        assert log.read_values(0) == column[0:100] + other[100:150]

    def test_plain_append_after_adoption_degrades(self, column, log):
        log.append_batch(column.view(0, 50))
        log.append("tail")
        assert type(log._values) is list
        assert log.read_values(0) == column[0:50] + ["tail"]

    def test_keyed_batch_after_adoption_degrades(self, column, log):
        log.append_batch(column.view(0, 50))
        log.append_batch(["a", "b"], keys=["k1", "k2"])
        assert type(log._values) is list
        records = log.read(0)
        assert [r.key for r in records] == [None] * 50 + ["k1", "k2"]

    def test_adopted_reads_pad_keys_with_none(self, column, log):
        log.append_batch(column.view(0, 25))
        assert log._keys == []
        assert [r.key for r in log.read(0)] == [None] * 25
        assert [r.key for r in log.iter_all()] == [None] * 25

    def test_adopted_timestamps_follow_clock(self, column):
        clock = SimClock()
        log = PartitionLog("t", 0, clock)
        clock.advance(1.5)
        log.append_batch(column.view(0, 10))
        clock.advance(2.0)
        log.append_batch(column.view(10, 20))
        assert log.timestamp_bounds() == (1.5, 3.5)

    def test_truncate_resets_adopted_log(self, column, log):
        log.append_batch(column.view(0, 50))
        log.truncate()
        assert len(log) == 0
        log.append("x")
        assert log.read_values(0) == ["x"]

    def test_empty_column_batch_is_noop(self, column, log):
        log.append_batch(column.view(0, 0))
        assert len(log) == 0

    def test_adopts_selection_as_private_copy(self, column, log):
        selection = SlabColumn(column.slab, rows=np.array([3, 5, 8, 40], np.int64))
        log.append_batch(selection)
        assert type(log._values) is SlabColumn
        assert log._values is not selection
        assert not np.shares_memory(log._values.rows, selection.rows)
        assert log.read_values(0) == [column[3], column[5], column[8], column[40]]

    def test_selections_over_one_slab_append_rows(self, column, log):
        rows = list(range(0, 3_000, 7))
        for lo in range(0, len(rows), 50):
            log.append_batch(
                SlabColumn(column.slab, rows=np.array(rows[lo : lo + 50], np.int64))
            )
        assert type(log._values) is SlabColumn
        assert log.read_values(0) == [column[row] for row in rows]
        assert [r.offset for r in log.read(400, 3)] == [400, 401, 402]

    def test_window_after_selection_degrades(self, column, log):
        log.append_batch(SlabColumn(column.slab, rows=np.array([1, 2], np.int64)))
        log.append_batch(column.view(10, 12))
        assert type(log._values) is list
        assert log.read_values(0) == column[1:3] + column[10:12]

    def test_bounded_log_trims_selection(self, column):
        log = PartitionLog("t", 0, SimClock(), max_queue=100)
        log.append_batch(SlabColumn(column.slab, rows=np.arange(0, 120, 2)))
        log.mark_consumed(50)
        assert type(log._values) is SlabColumn
        assert log.start_offset == 50 and len(log) == 10
        log.append_batch(SlabColumn(column.slab, rows=np.arange(200, 260, 2)))
        expected = [column[row] for row in [*range(100, 120, 2), *range(200, 260, 2)]]
        assert log.read_values(50) == expected


class TestSenderColumnBatching:
    def _send(self, records):
        cluster = BrokerCluster(Simulator(seed=0), num_nodes=3)
        sender = DataSender(cluster, "in", ingestion_rate=50_000.0)
        report = sender.send(records)
        return report, cluster.topic("in").partitions[0]

    def test_column_send_matches_list_send(self):
        workload = ColumnarWorkload.generate(2_500)
        col_report, col_log = self._send(workload.column())
        obj_report, obj_log = self._send(list(workload.records))
        assert col_report == obj_report
        assert list(col_log._values) == obj_log._values
        assert col_log.read_timestamps(0) == obj_log.read_timestamps(0)

    def test_column_send_adopts_single_window(self):
        workload = ColumnarWorkload.generate(2_500)
        _, log = self._send(workload.column())
        # 1000-record batches over one shared slab widen one adopted window.
        assert type(log._values) is SlabColumn
        assert len(log) == 2_500


class _ListDoFn(DoFn):
    def process(self, value):
        return [value, value]


class _TupleDoFn(DoFn):
    def process(self, value):
        return (value,)


class _GenDoFn(DoFn):
    def process(self, value):
        yield value


class _NoneDoFn(DoFn):
    def process(self, value):
        return None


class TestDoFnAdapterNoCopy:
    def test_list_result_returned_uncopied(self):
        assert DoFnAdapter(_ListDoFn()).process("x") == ["x", "x"]
        # The adapter must hand back the very object the DoFn produced.
        probe = []

        class Probe(DoFn):
            def process(self, value):
                return probe

        assert DoFnAdapter(Probe()).process("x") is probe

    def test_tuple_result_returned_uncopied(self):
        probe = ("x",)

        class Probe(DoFn):
            def process(self, value):
                return probe

        assert DoFnAdapter(Probe()).process("x") is probe

    def test_generator_result_still_listed(self):
        out = DoFnAdapter(_GenDoFn()).process("x")
        assert type(out) is list
        assert out == ["x"]

    def test_none_result_is_empty(self):
        assert list(DoFnAdapter(_NoneDoFn()).process("x")) == []
