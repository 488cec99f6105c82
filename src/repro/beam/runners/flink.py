"""The Beam Flink runner.

Translates a linear Beam pipeline onto the native Flink-like API, the way
the real runner translates to the DataStream API — and with the same
structural consequences the paper demonstrates in Figure 13:

* the source appears as ``PTransformTranslation.UnknownRawPTransform``;
* the KafkaIO read translation inserts a ``Flat Map`` operator;
* every Beam ParDo becomes a separate ``ParDoTranslation.RawParDo``
  operator with **chaining disabled**, so records pay a hand-off hop at
  every operator boundary plus the runner's per-element wrapping cost
  (WindowedValue boxing, coder round-trips);
* no dedicated data sink appears — the write is just the last RawParDo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.beam.io.kafka import KafkaRead, KafkaRecordColumn, KafkaWrite
from repro.beam.runners.base import (
    PipelineResult,
    PipelineRunner,
    PipelineState,
    linearize_beam_graph,
)
from repro.beam.runners.util import (
    is_shuffle_node,
    kv_values,
    translate_chain_node,
)
from repro.beam.transforms.core import Create
from repro.dataflow.functions import FlatMapFunction
from repro.dataflow.kernels import KernelSpec
from repro.engines.flink.cluster import FlinkCluster
from repro.engines.flink.datastream import StreamExecutionEnvironment
from repro.engines.flink.functions import (
    CollectSink,
    FromCollectionSource,
    KafkaSink,
    SourceFunction,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.beam.pipeline import Pipeline

RAW_PARDO = "ParDoTranslation.RawParDo"
UNKNOWN_SOURCE = "PTransformTranslation.UnknownRawPTransform"


@dataclass(frozen=True)
class FlinkRunnerOverheads:
    """Per-record translation costs of the Flink runner (seconds).

    Calibrated so the full-scale benchmark reproduces the paper's Flink
    Beam rows; see ``repro.benchmark.calibration``.
    """

    source_wrap_in: float = 2.0e-6
    pardo_wrap_in: float = 3.2e-6
    sink_wrap_out: float = 9.2e-6
    rng_penalty_per_draw: float = 1.8e-6
    parallel_extra_per_record: float = 1.0e-6


class _BeamKafkaSink(KafkaSink):
    """Kafka sink for translated pipelines: unwraps KV pairs to values."""

    plan_label = RAW_PARDO

    def write(self, values: Sequence[Any]) -> None:
        self.writer.write_chunk(kv_values(values))


class _BeamKafkaSource(SourceFunction):
    """Source reading KafkaRecords (full metadata) for the Beam pipeline."""

    plan_label = UNKNOWN_SOURCE

    def __init__(self, read: KafkaRead) -> None:
        self._read = read

    def run(self) -> KafkaRecordColumn:
        return self._read.read_records()


class FlinkRunner(PipelineRunner):
    """Runs Beam pipelines on a :class:`FlinkCluster`."""

    name = "FlinkRunner"

    def __init__(
        self,
        cluster: FlinkCluster,
        parallelism: int = 1,
        overheads: FlinkRunnerOverheads | None = None,
        rng=None,
        fuse_pardos: bool = False,
    ) -> None:
        self.cluster = cluster
        self.parallelism = parallelism
        self.overheads = overheads or FlinkRunnerOverheads()
        self.rng = rng
        #: Ablation switch: ``True`` re-enables operator chaining for the
        #: translated RawParDo operators (what an optimising runner could do).
        self.fuse_pardos = fuse_pardos
        #: In-memory sink output when the pipeline has no KafkaIO.Write.
        self.collected: list[Any] | None = None

    def run_pipeline(self, pipeline: "Pipeline") -> PipelineResult:
        env = self.translate(pipeline)
        job = env.execute(
            job_name=f"beam-flink:{pipeline_label(pipeline)}", rng=self.rng
        )
        return PipelineResult(
            state=PipelineState.DONE, runner_name=self.name, job_result=job
        )

    def translate(self, pipeline: "Pipeline") -> StreamExecutionEnvironment:
        """Translate ``pipeline`` onto the native API without executing.

        Exposed separately so tools (the slowdown predictor, plan
        inspection) can reuse the exact translation the runner executes.
        """
        shape = linearize_beam_graph(pipeline, self.name)
        over = self.overheads
        env = StreamExecutionEnvironment(self.cluster)
        env.set_parallelism(self.parallelism)

        if isinstance(shape.source.transform, KafkaRead):
            source = _BeamKafkaSource(shape.source.transform)
        else:
            assert isinstance(shape.source.transform, Create)
            source = FromCollectionSource(shape.source.transform.values)
            source.plan_label = UNKNOWN_SOURCE
        stream = env.add_source(source, name=shape.source.full_label)
        source_node = env._graph.operator(shape.source.full_label)
        source_node.extra["extra_cost_in"] = (
            over.source_wrap_in
            + over.parallel_extra_per_record * (self.parallelism - 1)
        )

        # The KafkaIO read translation: the Flat Map of Figure 13.
        stream = stream._append(
            FlatMapFunction(
                lambda record: (record,),
                name="Flat Map",
                kernel_spec=KernelSpec.identity(),
            ),
            name=f"{shape.source.full_label}/Flat Map",
            chainable=self.fuse_pardos,
            extra={"extra_cost_in": over.pardo_wrap_in, "plan_label": "Flat Map"},
        )

        for node in shape.pardos:
            function = translate_chain_node(node, self.name)
            # RNG penalty folded per node from *this* function's profile so
            # the fuse_pardos ablation does not double-charge it.
            wrap_in = (
                over.pardo_wrap_in
                + over.rng_penalty_per_draw * function.rng_draws_per_record
            )
            stream = stream._append(
                function,
                name=node.full_label,
                hash_input=is_shuffle_node(node),
                chainable=self.fuse_pardos and not is_shuffle_node(node),
                extra={"extra_cost_in": wrap_in, "plan_label": RAW_PARDO},
            )

        if shape.write is not None:
            write = shape.write.transform
            assert isinstance(write, KafkaWrite)
            sink: KafkaSink | CollectSink = _BeamKafkaSink(write.cluster, write.topic)
            sink_label = shape.write.full_label
        else:
            sink = CollectSink()
            self.collected = sink.values
            sink_label = "Collect"
        stream.add_sink(sink, name=sink_label)
        sink_op = env._graph.sinks()[0]
        # No dedicated data sink in the translated plan: the write shows up
        # as one more RawParDo operator (paper, discussion of Figure 13).
        sink_op.extra["plan_kind"] = "Operator"
        sink_op.extra["plan_label"] = RAW_PARDO
        sink_op.extra["extra_cost_out"] = over.sink_wrap_out
        return env


def pipeline_label(pipeline: "Pipeline") -> str:
    """A short name for the pipeline (its first transform label)."""
    return pipeline.applied[0].full_label if pipeline.applied else "empty"
