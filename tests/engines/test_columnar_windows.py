"""Slab windows stay columnar from the broker poll to the output log.

Three paths must never turn the workload slab into record strings:

* a Figure-5 cell (``StreamBenchHarness.run_setup``) of any system and
  stateless query, native or Beam — the input log's reads, the pump's
  chunks and the query's output are windows or row selections of the
  slab (projection: windows of its column slab), and the output log
  adopts them; on the Beam path KafkaIO's KV stages carry them as pair
  columns;
* a per-chunk-flush drain (``poll_values`` capped, ``_process_chunk``,
  acknowledge — the recovery path's and the drain benchmarks' loop),
  where each kernel's work must stay proportional to its window: the
  whole-slab grep scan and projection run at most once per slab;
* a checkpointed grep run (``StreamBenchHarness.run_fault_tolerant``),
  exactly-once or at-least-once, with or without an injected failure:
  each committed chunk's selection goes to the output log as it is.

Every output must still equal the reference tier's by value.  The
reference runs last, because iterating a column decodes its slab.
"""

from __future__ import annotations

import random

import pytest

from repro.benchmark import BenchmarkConfig, StreamBenchHarness
from repro.benchmark.queries import get_query
from repro.broker import AdminClient, BrokerCluster, Consumer, Producer, TopicPartition
from repro.dataflow import kernels
from repro.dataflow.kernels import SlabColumn
from repro.dataflow.metrics import JobMetrics
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.recovery import FailureInjector
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from repro.workloads.columnar import ColumnarWorkload

FIGURE5_QUERIES = ("identity", "sample", "projection", "grep")
#: One workload seed per system, used by no other test, so no earlier
#: test can have decoded the shared slab.
SYSTEM_SEEDS = {"flink": 7101, "spark": 7102, "apex": 7103}


def output_log(harness: StreamBenchHarness):
    return harness.broker.topic(harness.config.output_topic).partitions[0]


def check_cells_decode_nothing(system, kind, seed, monkeypatch):
    """Run every stateless cell of ``kind`` at P=1 and P=2 (Spark
    micro-batched): the input slab stays undecoded, the output log holds
    a column, and its values and LogAppendTimes are the reference
    tier's."""
    config = BenchmarkConfig(records=20_000, runs=1, seed=seed)
    harness = StreamBenchHarness(config)
    harness.ingest()
    slab = harness.workload.columnar().to_slab()
    assert slab.records is None
    outputs = {}
    for query in FIGURE5_QUERIES:
        for parallelism in (1, 2):
            harness.run_setup(system, query, kind, parallelism)
            log = output_log(harness)
            assert slab.records is None, (query, parallelism)
            assert type(log._values) is SlabColumn, (query, parallelism)
            outputs[query, parallelism] = (log.read_values(0), log.read_timestamps(0))

    monkeypatch.setattr(StreamPump, "vectorized", False)
    reference = StreamBenchHarness(config)
    for (query, parallelism), (values, times) in outputs.items():
        reference.run_setup(system, query, kind, parallelism)
        log = output_log(reference)
        assert values == log.read_values(0), (query, parallelism)
        assert times == log.read_timestamps(0), (query, parallelism)
    assert outputs["identity", 1][0] == harness.workload.columnar().records


@pytest.mark.parametrize("system", sorted(SYSTEM_SEEDS))
def test_figure5_cells_decode_nothing(system, monkeypatch):
    """Every native cell stays columnar from the poll to the output log."""
    check_cells_decode_nothing(system, "native", SYSTEM_SEEDS[system], monkeypatch)


#: One workload seed per system, used by no other test.
BEAM_SEEDS = {"flink": 7131, "spark": 7132, "apex": 7133}


@pytest.mark.parametrize("system", sorted(BEAM_SEEDS))
def test_beam_figure5_cells_decode_nothing(system, monkeypatch):
    """Every Beam cell builds no KV pair or record string from the
    KafkaIO read to the sink."""
    check_cells_decode_nothing(system, "beam", BEAM_SEEDS[system], monkeypatch)


def _stages(function):
    return [
        PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
        PhysicalStage(
            "op", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=function
        ),
        PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-6)),
    ]


DRAIN_QUERIES = ("grep", "projection", "sample", "statistics")


@pytest.mark.parametrize("query", DRAIN_QUERIES)
def test_per_chunk_drain_is_linear_and_decode_free(query, monkeypatch):
    """Capped polls of a 50k-row adopted column through ``_process_chunk``:
    each chunk is a window, the slab is never decoded, grep scans every
    byte at most once, projection runs once, and the outputs and owner
    state equal the reference loop's."""
    scanned: list[int] = []
    projected: list = []
    scan, project = kernels.GrepKernel._scan, kernels.ColumnKernel._project_slab

    def counting_scan(self, data, size):
        scanned.append(size)
        return scan(self, data, size)

    def counting_project(self, slab):
        projected.append(slab)
        return project(self, slab)

    monkeypatch.setattr(kernels.GrepKernel, "_scan", counting_scan)
    monkeypatch.setattr(kernels.ColumnKernel, "_project_slab", counting_project)

    workload = ColumnarWorkload.generate(50_000, seed=7104)
    slab = workload.to_slab()
    simulator = Simulator(seed=5)
    cluster = BrokerCluster(simulator)
    AdminClient(cluster).create_topic("in", max_queue=50_000)
    with Producer(cluster) as producer:
        producer.send_values("in", workload.column())
    consumer = Consumer(cluster)
    consumer.assign([TopicPartition("in", 0)])
    rng = random.Random(9)
    function = get_query(query).make_function(rng)
    pump = StreamPump(simulator, _stages(function), RunVariance(), random.Random(0))
    metrics = JobMetrics("drain")
    outputs = []
    while True:
        values = consumer.poll_values(max_records=4_096)
        if not values:
            break
        assert type(values) is SlabColumn and values.rows is None
        cost, out = pump._process_chunk(values, metrics)
        simulator.charge(cost)
        consumer.acknowledge()
        outputs.append(out)
    assert len(outputs) == 13
    assert slab.records is None
    assert bool(scanned) is (query == "grep")
    assert sum(scanned) <= slab.size
    assert projected == ([slab] if query == "projection" else [])

    reference_rng = random.Random(9)
    reference = get_query(query).make_function(reference_rng)
    expected: list = []
    for line in workload.records:
        expected.extend(reference.process(line))
    assert [value for out in outputs for value in out] == expected
    assert rng.getstate() == reference_rng.getstate()
    if query == "statistics":
        fields = ("minimum", "maximum", "total", "count")
        assert [getattr(function, f) for f in fields] == [
            getattr(reference, f) for f in fields
        ]


def test_fault_tolerant_run_decodes_nothing():
    """The exactly-once sink commits each chunk's selection without
    buffering it in a list."""
    harness = StreamBenchHarness(BenchmarkConfig(records=20_000, seed=8101))
    harness.run_fault_tolerant("flink", "grep")
    assert harness.workload.columnar().to_slab().records is None


#: One workload seed per system, used by no other test.
FAULT_SEEDS = {"flink": 8111, "spark": 8112, "apex": 8113}


@pytest.mark.parametrize("system", sorted(FAULT_SEEDS))
def test_fault_tolerant_outputs_match_the_reference_tier(system, monkeypatch):
    """Exactly-once and at-least-once, with and without a failure: the
    slab stays undecoded, and ``records_out``, the output log's values and
    its LogAppendTimes equal the reference tier's."""
    config = BenchmarkConfig(records=20_000, runs=1, seed=FAULT_SEEDS[system])
    modes = [
        (exactly_once, failure)
        for exactly_once in (True, False)
        for failure in (None, FailureInjector(at_fraction=0.55))
    ]

    def run_all(harness):
        results = []
        for exactly_once, failure in modes:
            record = harness.run_fault_tolerant(
                system, "grep", failure=failure, exactly_once=exactly_once
            )
            log = output_log(harness)
            results.append(
                (record.records_out, record.failures, log.read_values(0), log.read_timestamps(0))
            )
        return results

    harness = StreamBenchHarness(config)
    results = run_all(harness)
    assert harness.workload.columnar().to_slab().records is None
    assert [failures for _, failures, _, _ in results] == [0, 1, 0, 1]
    assert results[3][0] > results[2][0]  # at-least-once replays duplicate
    monkeypatch.setattr(StreamPump, "vectorized", False)
    assert results == run_all(StreamBenchHarness(config))
