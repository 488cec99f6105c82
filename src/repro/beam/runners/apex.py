"""The Beam Apex runner.

Translates a linear Beam pipeline into an Apex DAG.  The translated
operator chain is deployed with THREAD_LOCAL stream locality (operators
share containers), so per-record *input-side* costs stay close to native —
which is why the paper finds the Apex Beam **grep** query about as fast as
its native counterpart (slowdown factor ≈ 0.91).  The penalty is on the
**emit** path: every output tuple is serialised through the runner's coder
and buffer-server machinery, costing two orders of magnitude more per
record than the native Kafka output operator.  For output-heavy queries
(identity, projection: one output per input) this produces the paper's
dramatic slowdown factors of ≈ 56-58; for sample (≈ 40% output) roughly
half the identity time — exactly the "more output, higher impact" pattern
the paper reports.
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
from repro.dataflow.functions import FlatMapFunction, MapFunction
from repro.dataflow.kernels import KernelSpec
from repro.engines.apex.config import ApexCostModel
from repro.engines.apex.dag import DAG
from repro.engines.apex.launcher import ApexLauncher
from repro.engines.apex.operators import (
    CollectionInputOperator,
    CollectOutputOperator,
    FunctionOperator,
    KafkaSinglePortInputOperator,
    KafkaSinglePortOutputOperator,
)
from repro.yarn import YarnCluster

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.beam.pipeline import Pipeline

RAW_PARDO = "ParDoTranslation.RawParDo"


@dataclass(frozen=True)
class ApexRunnerOverheads:
    """Translation costs of the Apex runner (seconds).

    ``sink_wrap_out`` is the headline constant: the per-emitted-tuple
    serialisation cost that produces the paper's factor-58 slowdowns.
    Calibrated in ``repro.benchmark.calibration``.
    """

    #: Negative: the translated source reads through Beam's own Kafka
    #: client, which is slightly cheaper per record than the Malhar input
    #: operator — the mechanism behind the paper's one Beam *speedup*
    #: (grep on Apex, sf ≈ 0.91).
    source_wrap_in: float = -0.45e-6
    pardo_wrap_in: float = 0.01e-6
    pardo_weight_extra: float = 0.05e-6
    rng_penalty_per_draw: float = 25.7e-6
    sink_wrap_out: float = 232.0e-6
    #: Charged per *emitted* record and extra degree of parallelism: the
    #: runner's output path partitions the emit stream, so the penalty
    #: scales with output volume (paper: grep shows none, identity a few
    #: seconds, projection the most).
    parallel_extra_per_record: float = 4.0e-6


class _BeamKafkaInput(KafkaSinglePortInputOperator):
    """Input operator yielding KafkaRecords for the translated pipeline."""

    def __init__(self, read: KafkaRead) -> None:
        super().__init__(read.cluster, read.topic)
        self._read = read
        self.plan_label = "PTransformTranslation.UnknownRawPTransform"

    def fetch(self) -> KafkaRecordColumn:
        return self._read.read_records()


class _BeamKafkaOutput(KafkaSinglePortOutputOperator):
    """Output operator unwrapping KV pairs to values."""

    plan_label = RAW_PARDO

    def write(self, values: Sequence[Any]) -> None:
        self.writer.write_chunk(kv_values(values))


class ApexRunner(PipelineRunner):
    """Runs Beam pipelines on a :class:`YarnCluster` via Apex."""

    name = "ApexRunner"

    def __init__(
        self,
        yarn_cluster: YarnCluster,
        parallelism: int = 1,
        overheads: ApexRunnerOverheads | None = None,
        cost_model: ApexCostModel | None = None,
        rng=None,
    ) -> None:
        self.yarn = yarn_cluster
        self.parallelism = parallelism
        self.overheads = overheads or ApexRunnerOverheads()
        self.cost_model = cost_model or ApexCostModel()
        self.rng = rng
        self.collected: list[Any] | None = None

    def run_pipeline(self, pipeline: "Pipeline") -> PipelineResult:
        dag = self.translate(pipeline)
        launcher = ApexLauncher(self.yarn, self.cost_model)
        job = launcher.launch(dag, rng=self.rng)
        return PipelineResult(
            state=PipelineState.DONE, runner_name=self.name, job_result=job
        )

    def translate(self, pipeline: "Pipeline") -> DAG:
        """Translate ``pipeline`` into an Apex DAG without launching it."""
        shape = linearize_beam_graph(pipeline, self.name)
        over = self.overheads

        dag = DAG(f"beam-apex:{shape.source.full_label}")
        dag.set_attribute("VCORES_PER_OPERATOR", self.parallelism)

        if isinstance(shape.source.transform, KafkaRead):
            source_op = dag.add_operator("beamSource", _BeamKafkaInput(shape.source.transform))
        else:
            assert isinstance(shape.source.transform, Create)
            source_op = dag.add_operator(
                "beamSource", CollectionInputOperator(shape.source.transform.values)
            )
        source_op.extra_costs = {"extra_cost_in": over.source_wrap_in}

        # The KafkaIO read translation (the Flat Map of the Flink plan has
        # its Apex counterpart as a pass-through operator).
        flat_map = dag.add_operator(
            "readTranslation",
            FunctionOperator(
                FlatMapFunction(
                    lambda r: (r,), name="Flat Map", kernel_spec=KernelSpec.identity()
                )
            ),
        )
        flat_map.extra_costs = {"extra_cost_in": over.pardo_wrap_in}
        previous = source_op
        dag.add_stream("s0", previous.output, flat_map.input, locality="THREAD_LOCAL")
        previous = flat_map

        for index, node in enumerate(shape.pardos):
            function = translate_chain_node(node, self.name)
            operator = dag.add_operator(f"pardo{index}", FunctionOperator(function))
            operator.plan_label = RAW_PARDO
            operator.extra_costs = {
                "extra_cost_in": over.pardo_wrap_in
                + over.pardo_weight_extra * function.cost_weight
                + over.rng_penalty_per_draw * function.rng_draws_per_record,
            }
            # A grouping node redistributes by key: its input crosses the
            # buffer server rather than staying thread-local.
            locality = "NODE_LOCAL" if is_shuffle_node(node) else "THREAD_LOCAL"
            dag.add_stream(
                f"s{index + 1}", previous.output, operator.input, locality=locality
            )
            previous = operator

        if shape.write is not None:
            write = shape.write.transform
            assert isinstance(write, KafkaWrite)
            out_op = dag.add_operator("beamSink", _BeamKafkaOutput(write.cluster, write.topic))
        else:
            out_op = dag.add_operator("beamSink", CollectOutputOperator())
            self.collected = out_op.values
        out_op.extra_costs = {
            "extra_cost_out": over.sink_wrap_out
            + over.parallel_extra_per_record * (self.parallelism - 1)
        }
        dag.add_stream("sOut", previous.output, out_op.input, locality="THREAD_LOCAL")
        return dag
