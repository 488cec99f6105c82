"""The columnar KafkaIO read: identity with the record-by-record path.

``KafkaRead.read_records`` returns a :class:`KafkaRecordColumn` over the
per-partition slices of ``Consumer.poll_columns`` and builds a
``KafkaRecord`` only when an element is indexed or iterated.  These tests
pin that nothing observable moved: the columnar poll leaves the simulated
world exactly as the record poll does (under chaos whose fetch errors
bite), the column holds exactly the records the old rewrap built, its
sequence surface matches a plain list over random slice layouts, and
Beam pipelines that read metadata or drop it produce the DirectRunner's
output on every engine and pump tier.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.beam as beam
from repro.beam.io import kafka
from repro.beam.io.kafka import (
    KafkaRead,
    KafkaRecord,
    KafkaRecordColumn,
    _DropMetadataDoFn,
    _EnsureKvDoFn,
)
from repro.beam.runners import ApexRunner, DirectRunner, FlinkRunner, SparkRunner
from repro.beam.runners.util import extract_kv_value
from repro.broker import (
    BrokerCluster,
    Consumer,
    FaultPlan,
    Producer,
    RecordSlice,
    TimestampType,
    TopicConfig,
    TopicPartition,
)
from repro.dataflow.kernels import (
    ChainKernel,
    EnsureKvKernel,
    IdentityKernel,
    KernelSpec,
    KvColumn,
    RecordKvKernel,
    SlabColumn,
    _build_chain,
)
from repro.dataflow.compiler import lower_stage
from repro.engines.common.io import BoundedKafkaReader
from repro.engines.common.pump import StreamPump
from repro.engines.flink import FlinkCluster
from repro.engines.spark import SparkCluster
from repro.simtime import Simulator
from repro.yarn import YarnCluster
from tests.slabs import slab_column

TOPIC = "in"
PARTITIONS = 3

#: The two execution tiers as their ``StreamPump.vectorized`` setting.
TIERS = {"kernel": True, "reference": False}


def build_world(chaos: bool = True) -> tuple[Simulator, BrokerCluster]:
    """A 3-partition topic holding both log layouts, keyed and unkeyed.

    * partition 0: a value column adopted from two contiguous slab
      windows (keyless, 12,000 records, so a 10,000-record poll splits it);
    * partition 1: a plain list of keyed records followed by unkeyed ones;
    * partition 2: adopted from a slab window, then degraded to a plain
      list by keyed records, then extended unkeyed.

    With ``chaos``, transient fetch errors are attached after ingest.
    """
    sim = Simulator(seed=4242)
    broker = BrokerCluster(sim, num_nodes=3)
    broker.create_topic(TOPIC, TopicConfig(num_partitions=PARTITIONS))
    first = slab_column([f"p0 line {i}" for i in range(12_000)])
    third = slab_column([f"p2 line {i}" for i in range(300)])
    with Producer(broker) as producer:
        producer.send_values(TOPIC, first.view(0, 7_000), partition=0)
        sim.charge(0.5)
        producer.send_values(TOPIC, first.view(7_000, 12_000), partition=0)
        for i in range(40):
            producer.send(TOPIC, f"p1 keyed {i}", key=f"k{i % 7}", partition=1)
        producer.flush()
        sim.charge(0.25)
        producer.send_values(TOPIC, [f"p1 plain {i}" for i in range(60)], partition=1)
        producer.send_values(TOPIC, third.view(0, 300), partition=2)
        for i in range(25):
            producer.send(TOPIC, f"p2 keyed {i}", key=i, partition=2)
        producer.flush()
        producer.send_values(TOPIC, [f"p2 plain {i}" for i in range(30)], partition=2)
    if chaos:
        broker.attach_chaos(FaultPlan(seed=17, error_rate=0.25))
    return sim, broker


def layouts(broker: BrokerCluster) -> list[str]:
    return [
        type(broker.partition_log(TOPIC, p)._values).__name__
        for p in range(PARTITIONS)
    ]


def assigned_consumer(broker: BrokerCluster) -> Consumer:
    consumer = Consumer(broker)
    consumer.assign([TopicPartition(TOPIC, p) for p in range(PARTITIONS)])
    return consumer


def drain(consumer: Consumer, poll, max_records: int) -> list:
    batches = []
    while True:
        batch = poll(max_records)
        if not batch:
            return batches
        batches.append(batch)


def world_state(sim: Simulator, broker: BrokerCluster, consumer: Consumer):
    return (
        sim.now(),
        [consumer.position(tp) for tp in consumer.assignment()],
        consumer.retries_performed,
        consumer.records_fetched,
        broker.register_client(),  # the next id: how many were registered
    )


class TestColumnPollIdentity:
    def test_world_holds_both_layouts(self):
        _, broker = build_world()
        assert layouts(broker) == ["SlabColumn", "list", "list"]
        assert broker.partition_log(TOPIC, 0)._keys == []

    @pytest.mark.parametrize("max_records", [7, 500, 10_000])
    def test_poll_columns_leaves_the_world_poll_leaves(self, max_records):
        sim_a, broker_a = build_world()
        records_consumer = assigned_consumer(broker_a)
        polled = drain(records_consumer, records_consumer.poll, max_records)

        sim_b, broker_b = build_world()
        column_consumer = assigned_consumer(broker_b)
        sliced = drain(column_consumer, column_consumer.poll_columns, max_records)

        # An independent path: the bulk value poll makes the same guarded
        # per-partition requests and charges by its own code.
        sim_c, broker_c = build_world()
        values_consumer = assigned_consumer(broker_c)
        values = drain(values_consumer, values_consumer.poll_values, max_records)

        assert records_consumer.retries_performed > 0  # the chaos bit
        state = world_state(sim_a, broker_a, records_consumer)
        assert world_state(sim_b, broker_b, column_consumer) == state
        assert world_state(sim_c, broker_c, values_consumer) == state
        assert [v for batch in values for v in batch] == [
            v for batch in sliced for piece in batch for v in piece.values
        ]
        assert [len(batch) for batch in polled] == [
            sum(len(piece) for piece in batch) for batch in sliced
        ]
        rebuilt = [r for batch in sliced for piece in batch for r in piece.records()]
        assert rebuilt == [r for batch in polled for r in batch]

    def test_read_records_equals_the_record_rewrap(self):
        def rewrap(broker):
            # The record-by-record read this column replaced: a bounded
            # reader's client slot, one consumer, 10,000-record polls,
            # each ConsumerRecord copied into a KafkaRecord.
            BoundedKafkaReader(broker, TOPIC)
            consumer = assigned_consumer(broker)
            records = []
            for batch in drain(consumer, consumer.poll, 10_000):
                records.extend(
                    KafkaRecord(
                        r.topic, r.partition, r.offset, r.timestamp, r.key, r.value
                    )
                    for r in batch
                )
            consumer.close()
            return records, consumer.retries_performed

        sim_a, broker_a = build_world()
        expected, retries = rewrap(broker_a)
        sim_b, broker_b = build_world()
        column = KafkaRead(broker_b, TOPIC).read_records()

        assert retries > 0
        assert isinstance(column, KafkaRecordColumn)
        assert len(column) == len(expected) == 12_000 + 100 + 355
        assert list(column) == expected
        assert sim_a.now() == sim_b.now()
        assert broker_a.register_client() == broker_b.register_client()
        assert any(record.key is not None for record in column)

    def test_read_is_partition_major_in_offset_order(self):
        _, broker = build_world(chaos=False)
        column = KafkaRead(broker, TOPIC).read_records()
        order = [(record.partition, record.offset) for record in column]
        assert order == sorted(order)
        assert order[0] == (0, 0) and order[-1] == (2, 354)

    def test_column_read_carries_timestamps(self, sim, broker, admin):
        admin.create_topic("t")
        with Producer(broker, batch_size=1) as producer:
            producer.send("t", "a")
            sim.charge(1.0)
            producer.send("t", "b")
        records = KafkaRead(broker, "t").read_records()
        assert records[1].timestamp > records[0].timestamp

    def test_column_read_agrees_with_read_values(self, broker, admin):
        admin.create_topic("t")
        with Producer(broker) as producer:
            producer.send_values("t", list(range(50)))
        values = BoundedKafkaReader(broker, "t").read_values()
        assert values == [r.value for r in KafkaRead(broker, "t").read_records()]

    def test_empty_topic_reads_an_empty_column(self, broker, admin):
        admin.create_topic("t")
        column = KafkaRead(broker, "t").read_records()
        assert len(column) == 0 and list(column) == [] and not column


# ---------------------------------------------------------------------------
# The column as a sequence


@st.composite
def slice_layouts(draw):
    """Random per-partition slices, some empty, some keyless."""
    pieces = []
    for partition in range(draw(st.integers(0, 5))):
        size = draw(st.integers(0, 9))
        offset = draw(st.integers(0, 50))
        keys = [f"k{i % 3}" if i % 2 else None for i in range(size)]
        pieces.append(
            RecordSlice(
                TOPIC,
                partition,
                offset,
                TimestampType.LOG_APPEND_TIME,
                [f"v{partition}.{i}" for i in range(size)],
                keys if draw(st.booleans()) else None,
                array("d", [partition + i / 8 for i in range(size)]),
            )
        )
    return pieces


def expected_records(pieces) -> list[KafkaRecord]:
    return [
        KafkaRecord(
            record.topic, record.partition, record.offset, record.timestamp,
            record.key, record.value,
        )
        for piece in pieces
        for record in piece.records()
    ]


class TestColumnSequence:
    @settings(max_examples=150, deadline=None)
    @given(
        pieces=slice_layouts(),
        bounds=st.tuples(
            st.integers(-60, 60) | st.none(), st.integers(-60, 60) | st.none()
        ),
        step=st.sampled_from([None, 1, 2, -1, -3]),
    )
    def test_behaves_like_the_record_list(self, pieces, bounds, step):
        column = KafkaRecordColumn(pieces)
        expected = expected_records(pieces)
        n = len(expected)
        assert len(column) == n
        assert list(column) == expected
        for i in range(-n, n):
            assert column[i] == expected[i]
        for i in (n, n + 1, -n - 1, -n - 5):
            with pytest.raises(IndexError):
                column[i]
        a, b = bounds
        window = column[a:b:step]
        assert list(window) == expected[a:b:step]
        if step in (None, 1):
            assert isinstance(window, KafkaRecordColumn)
            # sub-columns of sub-columns stay exact
            assert list(window[1:-1]) == expected[a:b][1:-1]
            assert RecordKvKernel()(window) == [r.kv() for r in expected[a:b]]
        assert RecordKvKernel()(column) == [r.kv() for r in expected]


class TestColumnKernels:
    def column(self):
        _, broker = build_world(chaos=False)
        return KafkaRead(broker, TOPIC).read_records()

    def test_identity_passes_the_column_through(self):
        column = self.column()
        assert IdentityKernel()(column) is column

    def test_record_kv_zips_without_building_records(self, monkeypatch):
        column = self.column()
        expected = [record.kv() for record in column]

        def forbidden(*args, **kwargs):
            raise AssertionError("a KafkaRecord was built")

        monkeypatch.setattr(KafkaRecordColumn, "__iter__", forbidden)
        monkeypatch.setattr(KafkaRecordColumn, "__getitem__", forbidden)
        assert RecordKvKernel()(column) == expected

    def test_record_kv_falls_back_to_each_records_kv(self):
        records = list(self.column()[11_990:12_010])
        assert RecordKvKernel()(records) == [record.kv() for record in records]

    def test_without_metadata_lowers_to_the_record_kv_kernel(self):
        transform = kafka.read(None, TOPIC).without_metadata()
        pipeline = beam.Pipeline()
        pipeline | transform
        dofn = pipeline.applied[-1].transform.dofn
        assert dofn.kernel_spec == KernelSpec.record_kv()
        assert isinstance(lower_stage(dofn), RecordKvKernel)


# ---------------------------------------------------------------------------
# KafkaIO's KV stages over columns


def kv_record_column(layout: str, window: SlabColumn) -> KafkaRecordColumn:
    """Records over ``window``'s 30 rows in one of four slice layouts."""

    def piece(offset, lo, hi, keys=None):
        return RecordSlice(
            TOPIC, 0, offset, TimestampType.LOG_APPEND_TIME, window[lo:hi],
            keys, array("d", [float(i) for i in range(lo, hi)]),
        )

    return KafkaRecordColumn(
        {
            "one-slice": [piece(0, 0, 30)],
            "adjacent-slices": [piece(0, 0, 10), piece(10, 10, 30)],
            "non-adjacent-slices": [piece(0, 0, 10), piece(10, 20, 30)],
            "keyed-slices": [piece(0, 0, 30, keys=[f"k{i}" for i in range(30)])],
        }[layout]
    )


def kv_stage_input(name: str):
    """A fresh input container and the slab that no kernel may decode."""
    window = slab_column([f"line {i}\tcol" for i in range(30)])
    containers = {
        "list": lambda: [(None, "a"), ("k", "b"), "cd", (1, 2, 3), ("e", "f")],
        "window": lambda: window,
        "selection": lambda: SlabColumn(window.slab, rows=np.arange(1, 30, 3)),
        "pair-column": lambda: KvColumn(window),
        "record-list": lambda: list(kv_record_column("keyed-slices", window)),
    }
    make = containers.get(name, lambda: kv_record_column(name, window))
    return make(), window.slab


#: Each KV stage's spec and its per-record reference.
KV_STAGES = {
    "record_kv": (KernelSpec.record_kv(), lambda v: _DropMetadataDoFn().process(v)[0]),
    "item(1)": (KernelSpec.item(1), lambda v: v[1]),
    "kv_value": (KernelSpec.kv_value(), extract_kv_value),
    "ensure_kv": (KernelSpec.ensure_kv(), lambda v: _EnsureKvDoFn().process(v)[0]),
}
KV_INPUTS = (
    "list", "window", "selection", "pair-column", "record-list",
    "one-slice", "adjacent-slices", "non-adjacent-slices", "keyed-slices",
)
#: Stage and input pairs that stay columns: what comes out, in terms of
#: the input.
COLUMN_PATHS = {
    ("record_kv", "one-slice"): "pairs",
    ("record_kv", "adjacent-slices"): "pairs",
    ("item(1)", "pair-column"): "values",
    ("kv_value", "pair-column"): "values",
    ("ensure_kv", "window"): "pairs",
    ("ensure_kv", "selection"): "pairs",
    ("ensure_kv", "pair-column"): "same",
}


class TestKvStagesOverColumns:
    @pytest.mark.parametrize("name", KV_INPUTS)
    @pytest.mark.parametrize("stage", list(KV_STAGES))
    def test_matches_the_per_record_reference(self, stage, name):
        """Each KV stage's kernel equals its per-record function by value
        on every container, raising what it raises; where the input is a
        column of a slab, the output is a column over it and nothing is
        decoded."""
        spec, reference = KV_STAGES[stage]
        values, slab = kv_stage_input(name)
        kernel = _build_chain([spec])
        try:
            out = kernel(values)
        except Exception as error:
            with pytest.raises(type(error)):
                [reference(v) for v in values]
            return
        path = COLUMN_PATHS.get((stage, name))
        if path == "values":
            assert out is values.values
        elif path == "same":
            assert out is values
        elif path == "pairs":
            assert type(out) is KvColumn and out.values.slab is slab
            if stage == "ensure_kv":
                assert out.values is values
            else:
                assert out.values.rows is None
                assert (out.values.start, out.values.stop) == (0, 30)
        else:
            assert type(out) is list
        if path is not None:
            assert slab.records is None
        assert out == [reference(v) for v in values]

    def test_window_of_a_record_column_runs_the_beam_chain_on_its_bytes(self):
        """``record_kv → item(1) → contains → ensure_kv → kv_value`` over a
        window of a record column returns a row selection of the slab and
        decodes nothing."""
        window = slab_column([f"q{i}" + ("\ttest" if i % 7 == 3 else "") for i in range(400)])
        records = KafkaRecordColumn(
            [
                RecordSlice(
                    TOPIC, p, 0, TimestampType.LOG_APPEND_TIME,
                    window[lo:hi], None, array("d", [0.0] * (hi - lo)),
                )
                for p, (lo, hi) in enumerate([(0, 150), (150, 400)])
            ]
        )[40:330]
        specs = [
            KernelSpec.record_kv(), KernelSpec.item(1), KernelSpec.contains("test"),
            KernelSpec.ensure_kv(), KernelSpec.kv_value(),
        ]
        kernel = _build_chain(specs)
        assert isinstance(kernel, ChainKernel)
        out = kernel(records)
        assert type(out) is SlabColumn and out.rows is not None
        assert out.slab is window.slab and window.slab.records is None
        assert out == [r.value for r in records if "test" in r.value]
        assert len(out) == 41

    def test_write_lowers_to_the_ensure_kv_kernel(self):
        assert isinstance(lower_stage(_EnsureKvDoFn()), EnsureKvKernel)


# ---------------------------------------------------------------------------
# Beam pipelines over the column, on every engine and pump tier


class _Metadata(beam.DoFn):
    """Emits every metadata field: forces the on-demand record path."""

    def process(self, record):
        r = record
        return ((r.partition, r.offset, r.timestamp, r.key, r.value),)


def run_pipeline(runner_name: str, build, fuse_pardos: bool = False) -> list:
    _, broker = build_world(chaos=False)
    sim = broker.simulator
    runner = {
        "direct": lambda: DirectRunner(),
        "flink": lambda: FlinkRunner(FlinkCluster(sim), fuse_pardos=fuse_pardos),
        "spark": lambda: SparkRunner(SparkCluster(sim)),
        "apex": lambda: ApexRunner(YarnCluster(sim)),
    }[runner_name]()
    pipeline = beam.Pipeline(runner=runner)
    build(pipeline, broker)
    result = pipeline.run()
    if runner_name == "direct":
        return result.outputs[pipeline.applied[-1].full_label]
    return list(runner.collected)


def with_metadata(pipeline, broker):
    pipeline | kafka.read(broker, TOPIC) | beam.ParDo(_Metadata(), label="Metadata")


def without_metadata(pipeline, broker):
    (
        pipeline
        | kafka.read(broker, TOPIC).without_metadata()
        | beam.Map(lambda kv: (kv[0], len(kv[1])), label="KeyLength")
    )


@pytest.fixture(params=list(TIERS))
def tier(request, monkeypatch):
    monkeypatch.setattr(StreamPump, "vectorized", TIERS[request.param])
    return request.param


class TestPipelinesOverTheColumn:
    @pytest.fixture(scope="class")
    def oracle(self):
        return {
            "with": run_pipeline("direct", with_metadata),
            "without": run_pipeline("direct", without_metadata),
        }

    @pytest.mark.parametrize("runner", ["flink", "spark", "apex"])
    def test_metadata_reads_match_the_direct_runner(self, runner, tier, oracle):
        output = run_pipeline(runner, with_metadata)
        assert len(output) == 12_455
        assert output == oracle["with"]

    @pytest.mark.parametrize("runner", ["flink", "spark", "apex"])
    def test_without_metadata_matches_the_direct_runner(self, runner, tier, oracle):
        assert run_pipeline(runner, without_metadata) == oracle["without"]

    def test_fused_flink_matches_unfused(self, tier, oracle):
        fused = run_pipeline("flink", without_metadata, fuse_pardos=True)
        assert fused == run_pipeline("flink", without_metadata)
        assert fused == oracle["without"]
