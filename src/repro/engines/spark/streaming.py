"""StreamingContext: builds and runs micro-batched streaming jobs."""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

from repro.broker import BrokerCluster
from repro.dataflow.functions import StreamFunction, compose
from repro.dataflow.graph import LogicalGraph, LogicalOperator, OperatorKind
from repro.dataflow.plan import ExecutionPlan, ShipStrategy
from repro.engines.common.io import BoundedKafkaReader, KafkaWriter
from repro.engines.common.pump import StreamPump
from repro.engines.common.recovery import (
    CheckpointingConfig,
    FailureInjector,
    RecoveringPump,
)
from repro.engines.common.results import JobResult
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.engines.spark.context import SparkContext
from repro.engines.spark.dstream import DStream
from repro.engines.spark.errors import SparkError, StreamingContextStateError
from repro.engines.spark.rdd import RDD


class _KafkaSinkSpec:
    def __init__(self, cluster: BrokerCluster, topic: str) -> None:
        self.cluster = cluster
        self.topic = topic


class _CollectSinkSpec:
    def __init__(self, bucket: list[Any]) -> None:
        self.bucket = bucket


class _ForeachRddSinkSpec:
    def __init__(self, fn: Callable[[RDD], None]) -> None:
        self.fn = fn


class StreamingContext:
    """The entry point for streaming programs (mirrors Spark's API).

    The input stream is discretized into micro-batches of
    ``records_per_batch`` records (the record-count analogue of Spark's
    batch interval); each batch pays the scheduling overhead of one job.
    ``run`` executes until the bounded input is exhausted — the benchmark
    setting, where all data was ingested before the query starts — and
    returns a :class:`JobResult`.
    """

    def __init__(self, sc: SparkContext, records_per_batch: int | None = None) -> None:
        self.sc = sc
        self.cluster = sc.cluster
        model = self.cluster.cost_model
        self.records_per_batch = (
            records_per_batch if records_per_batch is not None else model.records_per_batch
        )
        if self.records_per_batch < 1:
            raise ValueError(
                f"records_per_batch must be >= 1, got {self.records_per_batch}"
            )
        #: Additional per-batch cost, used by the Beam runner's bookkeeping.
        self.extra_batch_overhead = 0.0
        self._checkpointing: CheckpointingConfig | None = None
        self._graph = LogicalGraph("spark-streaming-job")
        self._counter = 0
        self._source_reader: BoundedKafkaReader | None = None
        self._source_values: list[Any] | None = None
        self._sink_spec: object | None = None
        self._sink_head: str | None = None
        self._state = "initialized"

    # -- graph building (called by DStream / KafkaUtils) -------------------
    def _add_kafka_source(self, cluster: BrokerCluster, topic: str) -> DStream:
        name = self._unique("DirectKafkaInputDStream")
        self._graph.add(
            LogicalOperator(
                name=name,
                kind=OperatorKind.SOURCE,
                parallelism=self.sc.default_parallelism,
                extra={"plan_label": f"Source: Kafka[{topic}]"},
            )
        )
        self._source_reader = BoundedKafkaReader(cluster, topic)
        return DStream(self, name)

    def queue_stream(self, values: list[Any]) -> DStream:
        """An input stream over an in-memory collection (tests/examples)."""
        name = self._unique("QueueInputDStream")
        self._graph.add(
            LogicalOperator(
                name=name,
                kind=OperatorKind.SOURCE,
                parallelism=self.sc.default_parallelism,
                extra={"plan_label": "Source: Queue"},
            )
        )
        self._source_values = list(values)
        return DStream(self, name)

    def _add_operator(
        self,
        upstream: str,
        function: StreamFunction,
        name: str,
        shuffle_input: bool,
        extra: dict[str, Any] | None = None,
    ) -> str:
        node_name = self._unique(name)
        merged: dict[str, Any] = {"shuffle_input": shuffle_input}
        if extra:
            merged.update(extra)
        self._graph.add(
            LogicalOperator(
                name=node_name,
                kind=OperatorKind.OPERATOR,
                function=function,
                parallelism=self.sc.default_parallelism,
                extra=merged,
            )
        )
        self._graph.connect(upstream, node_name)
        return node_name

    def _set_kafka_sink(self, head: str, cluster: BrokerCluster, topic: str) -> None:
        self._set_sink(head, _KafkaSinkSpec(cluster, topic), f"Sink: Kafka[{topic}]")

    def _set_collect_sink(self, head: str, bucket: list[Any]) -> None:
        self._set_sink(head, _CollectSinkSpec(bucket), "Sink: Collect")

    def _set_foreach_rdd_sink(self, head: str, fn: Callable[[RDD], None]) -> None:
        self._set_sink(head, _ForeachRddSinkSpec(fn), "Sink: foreachRDD")

    def _set_sink(self, head: str, spec: object, label: str) -> None:
        if self._sink_spec is not None:
            raise SparkError("output operation already registered")
        name = self._unique("ForEachDStream")
        self._graph.add(
            LogicalOperator(
                name=name,
                kind=OperatorKind.SINK,
                parallelism=self.sc.default_parallelism,
                extra={"plan_label": label},
            )
        )
        self._graph.connect(head, name)
        self._sink_spec = spec
        self._sink_head = name

    def checkpoint(self, exactly_once: bool = True) -> "StreamingContext":
        """Enable checkpointing (Spark's ``ssc.checkpoint``).

        Spark's natural checkpoint boundary is the micro-batch: state is
        snapshotted after every batch, and with ``exactly_once`` outputs
        commit transactionally per batch.
        """
        self._checkpointing = CheckpointingConfig(
            interval_records=self.records_per_batch, exactly_once=exactly_once
        )
        return self

    # -- execution ----------------------------------------------------------
    def run(
        self,
        job_name: str = "Spark Streaming Job",
        rng: random.Random | None = None,
        failure: FailureInjector | None = None,
    ) -> JobResult:
        """Process the entire bounded input and return the job result."""
        if self._state == "stopped":
            raise StreamingContextStateError("StreamingContext already stopped")
        if self._sink_spec is None:
            raise SparkError("no output operation registered")
        self._graph.name = job_name
        self._state = "active"

        stages, plan = self._build_stages(job_name)
        if self._source_reader is not None:
            records = self._source_reader.read_values()
        elif self._source_values is not None:
            records = self._source_values
        else:
            raise SparkError("no input stream registered")

        emit, on_batch_end, close = self._make_sink(stages)
        if rng is None:
            rng = self.cluster.simulator.random.stream(f"spark/{self.sc.app_id}/{job_name}")

        for stage in stages:
            if stage.function is not None:
                stage.function.open()
        recovery_report = None
        try:
            if self._checkpointing is not None or failure is not None:
                config = self._checkpointing or CheckpointingConfig(
                    interval_records=self.records_per_batch
                )
                recovering = RecoveringPump(
                    simulator=self.cluster.simulator,
                    stages=stages,
                    rng=rng,
                    emit=emit,
                    checkpoint_interval_records=config.interval_records,
                    exactly_once=config.exactly_once,
                    failure=failure,
                    variance=self.cluster.cost_model.variance,
                    job_name=job_name,
                )
                recovery_report = recovering.run(records)
                result = recovery_report.result
            else:
                pump = StreamPump(
                    simulator=self.cluster.simulator,
                    stages=stages,
                    variance=self.cluster.cost_model.variance,
                    rng=rng,
                    emit=emit,
                    micro_batch_records=self.records_per_batch,
                    per_batch_overhead=self.cluster.cost_model.batch_overhead(
                        self.sc.default_parallelism
                    )
                    + self.extra_batch_overhead,
                    on_batch_end=on_batch_end,
                    job_name=job_name,
                )
                result = pump.run(records)
        finally:
            for stage in stages:
                if stage.function is not None:
                    stage.function.close()
            close()
            self._state = "stopped"

        return JobResult(
            job_name=job_name,
            engine="spark",
            records_in=result.records_in,
            records_out=result.records_out,
            duration=result.duration,
            plan=plan,
            metrics=result.metrics,
            base_duration=result.base_duration,
            first_emit_time=result.first_emit_time,
            last_emit_time=result.last_emit_time,
            recovery=recovery_report,
        )

    def stop(self) -> None:
        """Stop the context and the owning SparkContext."""
        self._state = "stopped"
        self.sc.stop()

    # -- internals ------------------------------------------------------------
    def _build_stages(self, job_name: str) -> tuple[list[PhysicalStage], ExecutionPlan]:
        """Fuse narrow transformations; shuffles start new stages.

        Mirrors Spark's stage construction: all narrow dependencies of a
        batch job are pipelined into one stage, a shuffle dependency
        (``updateStateByKey``) cuts a stage boundary.
        """
        from repro.engines.common.translate import linearize

        model = self.cluster.cost_model
        parallelism = self.sc.default_parallelism
        path = linearize(self._graph)

        stages: list[PhysicalStage] = []
        plan = ExecutionPlan(job_name)
        source_op = path[0]
        stages.append(
            PhysicalStage(
                name=source_op.name,
                kind=StageKind.SOURCE,
                costs=model.source_costs(parallelism).plus(
                    extra_per_record_in=source_op.extra.get("extra_cost_in", 0.0)
                ),
                parallelism=parallelism,
            )
        )
        previous = plan.add_node(
            "Data Source", source_op.extra.get("plan_label", source_op.name), parallelism
        )

        middle = path[1:-1]
        index = 0
        while index < len(middle):
            group = [middle[index]]
            index += 1
            while index < len(middle) and not middle[index].extra.get("shuffle_input", False):
                group.append(middle[index])
                index += 1
            shuffle = group[0].extra.get("shuffle_input", False)
            fused = compose([op.function for op in group if op.function is not None])
            extra_in = sum(op.extra.get("extra_cost_in", 0.0) for op in group)
            extra_out = sum(op.extra.get("extra_cost_out", 0.0) for op in group)
            extra_weight = sum(op.extra.get("extra_weight_cost", 0.0) for op in group)
            extra_rng = sum(op.extra.get("extra_rng_cost", 0.0) for op in group)
            stages.append(
                PhysicalStage(
                    name=" | ".join(op.name for op in group),
                    kind=StageKind.OPERATOR,
                    costs=model.operator_costs(shuffle_input=shuffle).plus(
                        extra_per_record_in=extra_in,
                        extra_per_record_out=extra_out,
                        extra_per_weight=extra_weight,
                        extra_per_rng_draw=extra_rng,
                    ),
                    function=fused,
                    parallelism=parallelism,
                )
            )
            for op in group:
                label = op.extra.get("plan_label") or (
                    op.function.plan_label or op.function.name
                    if op.function
                    else op.name
                )
                node = plan.add_node("Operator", label, parallelism)
                plan.add_edge(
                    previous,
                    node,
                    ShipStrategy.HASH
                    if op.extra.get("shuffle_input", False)
                    else ShipStrategy.FORWARD,
                )
                previous = node

        sink_op = path[-1]
        stages.append(
            PhysicalStage(
                name=sink_op.name,
                kind=StageKind.SINK,
                costs=model.sink_costs().plus(
                    extra_per_record_out=sink_op.extra.get("extra_cost_out", 0.0)
                ),
                parallelism=parallelism,
            )
        )
        node = plan.add_node(
            sink_op.extra.get("plan_kind", "Data Sink"),
            sink_op.extra.get("plan_label", sink_op.name),
            parallelism,
        )
        plan.add_edge(previous, node)
        return stages, plan

    def _make_sink(self, stages: list[PhysicalStage]) -> tuple[
        Callable[[Sequence[Any]], None], Callable[[], None] | None, Callable[[], None]
    ]:
        spec = self._sink_spec
        if isinstance(spec, _KafkaSinkSpec):
            writer = KafkaWriter(spec.cluster, spec.topic)
            return writer.write_chunk, None, writer.close
        if isinstance(spec, _CollectSinkSpec):
            return spec.bucket.extend, None, lambda: None
        if isinstance(spec, _ForeachRddSinkSpec):
            buffer: list[Any] = []

            def emit(values: Sequence[Any]) -> None:
                buffer.extend(values)

            def on_batch_end() -> None:
                batch = list(buffer)
                buffer.clear()
                rdd = self.sc.parallelize(batch)
                spec.fn(rdd)

            return emit, on_batch_end, lambda: None
        raise SparkError(f"unknown sink spec: {spec!r}")

    def _unique(self, base: str) -> str:
        self._counter += 1
        return f"{base} #{self._counter}" if base in self._graph else base
