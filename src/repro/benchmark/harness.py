"""The benchmark harness: drives the paper's three-phase process."""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

import repro.beam as beam
from repro.beam.io import kafka as beam_kafka
from repro.beam.runners import ApexRunner, FlinkRunner, SparkRunner
from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.queries import QuerySpec, get_query
from repro.benchmark.result_calculator import ExecutionMeasurement, ResultCalculator
from repro.benchmark.sender import DataSender, SenderReport
from repro.benchmark import stats
from repro.broker import AdminClient, BrokerCluster, FaultPlan
from repro.broker.retry import RetryPolicy
from repro.engines.apex import (
    ApexCostModel,
    ApexLauncher,
    DAG,
    FunctionOperator,
    KafkaSinglePortInputOperator,
    KafkaSinglePortOutputOperator,
)
from repro.engines.common.costs import RunVariance
from repro.engines.common.recovery import CheckpointingConfig, FailureInjector
from repro.engines.common.results import JobResult
from repro.engines.flink import (
    FlinkCluster,
    FlinkCostModel,
    KafkaSink,
    KafkaSource,
    StreamExecutionEnvironment,
)
from repro.engines.spark import (
    KafkaUtils,
    SparkCluster,
    SparkConf,
    SparkContext,
    SparkCostModel,
    StreamingContext,
)
from repro.simtime import Simulator
from repro.simtime.variance import StragglerModel
from repro.workloads.aol import AolWorkload, FULL_SCALE_RECORDS
from repro.yarn import YarnCluster


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One benchmark run's outcome.

    ``slots=True``: campaigns create one per run of every grid cell, so
    the per-instance footprint matters.
    """

    system: str
    query: str
    kind: str
    parallelism: int
    run_index: int
    #: Engine-side simulated execution duration (the headline number).
    duration: float
    #: Broker-timestamp measurement (None for synthesised fast repeats).
    measured: float | None
    records_out: int
    #: True when the run was synthesised from run 1's base duration plus
    #: fresh variance draws instead of reprocessing the records.
    synthesized: bool = False


@dataclass
class BenchmarkReport:
    """All runs of a campaign plus the paper's derived statistics."""

    config: BenchmarkConfig
    runs: list[RunRecord] = field(default_factory=list)
    sender_report: SenderReport | None = None

    def times(self, system: str, query: str, kind: str, parallelism: int) -> list[float]:
        """Run durations for one setup, in run order."""
        return [
            r.duration
            for r in self.runs
            if (r.system, r.query, r.kind, r.parallelism)
            == (system, query, kind, parallelism)
        ]

    def mean_time(self, system: str, query: str, kind: str, parallelism: int) -> float:
        """The paper's t̄(dsps, query, k, p)."""
        return stats.mean(self.times(system, query, kind, parallelism))

    def relative_std(self, system: str, query: str, kind: str) -> float:
        """Figure 10's pooled coefficient of variation."""
        series = [
            self.times(system, query, kind, p) for p in self.config.parallelisms
        ]
        return stats.pooled_relative_std(series)

    def slowdown(self, system: str, query: str) -> float:
        """Figure 11's sf(dsps, query)."""
        beam_means = {
            p: self.mean_time(system, query, "beam", p)
            for p in self.config.parallelisms
        }
        native_means = {
            p: self.mean_time(system, query, "native", p)
            for p in self.config.parallelisms
        }
        return stats.slowdown_factor(beam_means, native_means)

    def records_out(self, system: str, query: str, kind: str, parallelism: int) -> int:
        """Output record count observed for one setup (run 1)."""
        for r in self.runs:
            if (r.system, r.query, r.kind, r.parallelism) == (
                system,
                query,
                kind,
                parallelism,
            ):
                return r.records_out
        raise KeyError((system, query, kind, parallelism))


@dataclass(frozen=True, slots=True)
class FaultRunRecord:
    """One end-to-end fault-tolerance run: Figure 5 under injected faults.

    ``measured`` is the broker-timestamp execution time (the paper's
    metric); ``sender_retries``/``sender_duplicates_avoided`` report the
    ingestion phase's resilience work; the ``failures`` /
    ``checkpoints_taken`` / ``records_reprocessed`` triple comes from the
    engine's :class:`~repro.engines.common.recovery.RecoveryReport`.
    """

    system: str
    query: str
    parallelism: int
    exactly_once: bool
    records_out: int
    duration: float
    measured: float
    failures: int
    checkpoints_taken: int
    records_reprocessed: int
    duplicates_possible: bool
    sender_retries: int
    sender_duplicates_avoided: int
    broker_errors_injected: int
    broker_timeouts_injected: int
    broker_crashes: int


_COST_MODELS = {
    "flink": FlinkCostModel,
    "spark": SparkCostModel,
    "apex": ApexCostModel,
}


def engine_variance(system: str, scale_factor: float = 1.0) -> RunVariance:
    """The run-to-run variance model of one engine.

    ``scale_factor`` (records / 1,000,001) scales the *absolute* disturbance
    terms — jitter sigma, straggler magnitude — so that reduced-scale
    campaigns remain faithful miniatures of the full-scale one: relative
    effects (Figure 10's coefficients of variation, Table III's outlier
    pattern) are preserved at any scale.  At full scale the model is used
    exactly as calibrated.
    """
    base = _COST_MODELS[system]().variance
    if scale_factor == 1.0:
        return base
    stragglers = base.stragglers
    return RunVariance(
        noise=base.noise,
        jitter_abs_sigma=base.jitter_abs_sigma * scale_factor,
        stragglers=StragglerModel(
            probability=stragglers.probability,
            scale=stragglers.scale * scale_factor,
            shape=stragglers.shape,
            cap=stragglers.cap * scale_factor,
        ),
    )


class StreamBenchHarness:
    """Runs the paper's benchmark matrix on the simulated stack.

    One harness owns one simulated world: a clock, a three-node broker
    cluster, and the ingested workload.  Engine clusters are created fresh
    for every run ("each system is restarted").

    ``chaos`` attaches a :class:`~repro.broker.faults.FaultPlan` to the
    broker: node outages, transient request errors, lost acknowledgements
    and latency jitter then hit every phase of the Figure-5 pipeline, and
    all clients (sender, engine connectors, result calculator) switch to
    retrying, idempotent operation via the cluster-wide defaults.

    The workload is generated slab-direct as byte columns and ingested
    zero-copy: the broker adopts slab windows instead of extending record
    lists.  Every simulated quantity — clock charges, RNG streams,
    produce sequencing — is what sending the materialised record list
    would give, so the layout never reaches a report.
    """

    def __init__(
        self,
        config: BenchmarkConfig | None = None,
        chaos: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.config = config or BenchmarkConfig()
        self.simulator = Simulator(seed=self.config.seed)
        self.broker = BrokerCluster(self.simulator)
        #: The declarative plan and policy are kept so ``run_matrix`` can
        #: attach the same chaos to each cell's isolated world.
        self._chaos_plan = chaos
        self._retry_policy = retry_policy
        self.chaos = (
            self.broker.attach_chaos(chaos, retry_policy=retry_policy)
            if chaos is not None
            else None
        )
        self.admin = AdminClient(self.broker)
        self.workload = AolWorkload(self.config.records, seed=self.config.seed)
        self.result_calculator = ResultCalculator(self.broker)
        scale = self.config.records / FULL_SCALE_RECORDS
        #: Engine cost models with scale-adjusted variance (see
        #: :func:`engine_variance`): the same objects drive both full pump
        #: executions and synthesised fast repeats.
        self.cost_models = {
            system: dataclasses.replace(
                model(), variance=engine_variance(system, scale)
            )
            for system, model in _COST_MODELS.items()
        }
        # Spark's per-batch overheads are absolute seconds; scale them with
        # the workload (like the variance terms) so the per-batch share of
        # the execution time matches the full-scale campaign at any scale.
        self.cost_models["spark"] = dataclasses.replace(
            self.cost_models["spark"],
            per_batch_overhead=self.cost_models["spark"].per_batch_overhead * scale,
            task_launch_per_partition=(
                self.cost_models["spark"].task_launch_per_partition * scale
            ),
        )
        self._scale = scale
        self._ingested = False
        self._sender_report: SenderReport | None = None

    # ------------------------------------------------------------------
    # phase 1: data ingestion
    # ------------------------------------------------------------------
    def ingest(self) -> SenderReport:
        """Send the workload into the input topic (idempotent).

        The sender receives the workload's shared slab column and the
        broker adopts it zero-copy.
        """
        if not self._ingested:
            sender = DataSender(
                self.broker,
                self.config.input_topic,
                ingestion_rate=self.config.ingestion_rate,
                acks=self.config.producer_acks,
            )
            self._sender_report = sender.send(self.workload.columnar().column())
            self._ingested = True
        assert self._sender_report is not None
        return self._sender_report

    # ------------------------------------------------------------------
    # phase 2 + 3: execution and measurement
    # ------------------------------------------------------------------
    def run_matrix(self) -> BenchmarkReport:
        """Run every configured combination; returns the full report.

        Each grid cell executes in its own isolated world (fresh simulator,
        broker and chaos — see :mod:`repro.benchmark.parallel`), so a
        cell's records do not depend on the cells run before it.

        Per-setup durations are unaffected by the isolation (they derive
        from per-label RNG streams keyed by the campaign seed alone); only
        the float tail of run 1's broker-timestamp ``measured`` field
        differs from composing :meth:`run_setup` calls on one shared
        world, where every cell starts at a different absolute clock.
        """
        from repro.benchmark.parallel import MatrixRunner

        runner = MatrixRunner(
            self.config, chaos=self._chaos_plan, retry_policy=self._retry_policy
        )
        return runner.run(sender_report=self.ingest())

    def run_capacity(self):
        """Sustainable-throughput search over the (system × query) grid.

        Ramps an open-loop load against a bounded input partition, detects
        where queues stop draining, and binary-searches the capacity knee
        per cell — reporting sustainable records/second plus event-time
        and processing-time latency percentiles at the knee (see
        :mod:`repro.benchmark.capacity` and the ``capacity`` settings on
        :class:`BenchmarkConfig`).  Probes run in fresh isolated worlds
        seeded from the campaign seed alone and charge raw cost-model
        costs, so the report is bit-identical across execution tiers.

        Returns a :class:`~repro.benchmark.capacity.CapacityReport`.
        """
        from repro.benchmark.capacity import CapacityRunner

        return CapacityRunner(self.config).run()

    def run_scalability(self):
        """Capacity knees swept over parallelism: the scalability curves.

        One capacity search per (system × SDK kind × query × parallelism)
        point of the ``capacity.parallelisms`` / ``capacity.kinds``
        sweep: probes at parallelism P drain through a pump pool of P
        partition-group workers charging the straggler shard's cost, and
        the ``beam`` kind prices the pipeline through the runner's
        translation wrapping — so each curve carries both the simulated
        scaling knee and the abstraction penalty at every level.

        Returns a :class:`~repro.benchmark.capacity.ScalabilityReport`.
        """
        from repro.benchmark.capacity import CapacityRunner

        return CapacityRunner(self.config).run_scalability()

    def run_setup(
        self, system: str, query_name: str, kind: str, parallelism: int
    ) -> list[RunRecord]:
        """Run the configured number of runs for one setup."""
        if not self._ingested:
            self.ingest()
        spec = get_query(query_name)
        label = f"{self.config.noise_label}/{system}/{query_name}/{kind}/p{parallelism}"
        rng = self.simulator.random.stream(f"runs/{label}")
        data_rng = self.simulator.random.stream(f"data/{label}")
        variance = self.cost_models[system].variance

        records: list[RunRecord] = []
        base_duration = 0.0
        records_out = 0
        for run_index in range(1, self.config.runs + 1):
            synthesize = self.config.fast_repeats and run_index > 1
            if synthesize:
                factor = variance.duration_factor(rng)
                additive = variance.additive_delay(rng)
                rng.random()  # the pump's injection-position draw
                records.append(
                    RunRecord(
                        system=system,
                        query=query_name,
                        kind=kind,
                        parallelism=parallelism,
                        run_index=run_index,
                        duration=base_duration * factor + additive,
                        measured=None,
                        records_out=records_out,
                        synthesized=True,
                    )
                )
                continue
            job, measurement = self._execute_once(
                system, spec, kind, parallelism, rng, data_rng
            )
            base_duration = job.base_duration
            records_out = job.records_out
            records.append(
                RunRecord(
                    system=system,
                    query=query_name,
                    kind=kind,
                    parallelism=parallelism,
                    run_index=run_index,
                    duration=job.duration,
                    measured=measurement.execution_time,
                    records_out=job.records_out,
                )
            )
        return records

    def run_fault_tolerant(
        self,
        system: str,
        query_name: str = "grep",
        parallelism: int = 1,
        failure: FailureInjector | None = None,
        exactly_once: bool = True,
        checkpoint_interval_records: int | None = None,
    ) -> FaultRunRecord:
        """Run one native setup end to end with checkpointing enabled.

        This is the fault-tolerance counterpart of :meth:`run_setup`: the
        full Figure-5 path (sender → broker → engine → broker → result
        calculator) executes once with record-aligned checkpoints, an
        optional engine :class:`FailureInjector`, and whatever broker chaos
        is attached to the harness.  The returned record carries both the
        engine-side duration and the broker-timestamp measurement, so
        recovery-time penalties are computed the same way the paper
        computes execution times.
        """
        self.ingest()
        spec = get_query(query_name)
        label = f"{self.config.noise_label}/{system}/{query_name}/ft/p{parallelism}"
        rng = self.simulator.random.stream(f"runs/{label}")
        data_rng = self.simulator.random.stream(f"data/{label}")
        out_topic = self.config.output_topic
        self.admin.recreate_topic(out_topic)
        interval = checkpoint_interval_records or max(1, self.config.records // 10)
        checkpointing = CheckpointingConfig(
            interval_records=interval, exactly_once=exactly_once
        )
        job = self._run_native(
            system,
            spec,
            parallelism,
            rng,
            data_rng,
            out_topic,
            checkpointing=checkpointing,
            failure=failure,
        )
        measurement = self.result_calculator.measure(out_topic)
        recovery = job.recovery
        sender_report = self._sender_report
        assert sender_report is not None
        return FaultRunRecord(
            system=system,
            query=query_name,
            parallelism=parallelism,
            exactly_once=exactly_once,
            records_out=job.records_out,
            duration=job.duration,
            measured=measurement.execution_time,
            failures=recovery.failures if recovery is not None else 0,
            checkpoints_taken=recovery.checkpoints_taken if recovery is not None else 0,
            records_reprocessed=(
                recovery.records_reprocessed if recovery is not None else 0
            ),
            duplicates_possible=(
                recovery.duplicates_possible if recovery is not None else False
            ),
            sender_retries=sender_report.retries,
            sender_duplicates_avoided=sender_report.duplicates_avoided,
            broker_errors_injected=(
                self.chaos.errors_injected if self.chaos is not None else 0
            ),
            broker_timeouts_injected=(
                self.chaos.timeouts_injected if self.chaos is not None else 0
            ),
            broker_crashes=self.chaos.crashes_applied if self.chaos is not None else 0,
        )

    def _records_per_batch(self) -> int:
        """Micro-batch size proportional to workload scale.

        The paper's setup discretizes the 1,000,001-record input into
        roughly ten micro-batches on Spark; keeping that *count* stable at
        reduced scale preserves the per-batch-overhead share of the
        execution time.
        """
        return max(1, self.config.records // 10)

    # ------------------------------------------------------------------
    def _execute_once(
        self,
        system: str,
        spec: QuerySpec,
        kind: str,
        parallelism: int,
        rng: random.Random,
        data_rng: random.Random,
    ) -> tuple[JobResult, ExecutionMeasurement]:
        out_topic = self.config.output_topic
        self.admin.recreate_topic(out_topic)
        if kind == "native":
            job = self._run_native(system, spec, parallelism, rng, data_rng, out_topic)
        else:
            job = self._run_beam(system, spec, parallelism, rng, data_rng, out_topic)
        measurement = self.result_calculator.measure(out_topic)
        return job, measurement

    def _run_native(
        self,
        system: str,
        spec: QuerySpec,
        parallelism: int,
        rng: random.Random,
        data_rng: random.Random,
        out_topic: str,
        checkpointing: CheckpointingConfig | None = None,
        failure: FailureInjector | None = None,
    ) -> JobResult:
        function = spec.make_function(data_rng)
        in_topic = self.config.input_topic
        if system == "flink":
            cluster = FlinkCluster(self.simulator, cost_model=self.cost_models["flink"])
            env = StreamExecutionEnvironment(cluster)
            env.set_parallelism(parallelism)
            if checkpointing is not None:
                env.enable_checkpointing(
                    interval_records=checkpointing.interval_records,
                    exactly_once=checkpointing.exactly_once,
                )
            stream = env.add_source(KafkaSource(self.broker, in_topic))
            if function is not None:
                stream = stream.transform_with(function)
            stream.add_sink(KafkaSink(self.broker, out_topic))
            return env.execute(job_name=spec.name, rng=rng, failure=failure)
        if system == "spark":
            cluster = SparkCluster(self.simulator, cost_model=self.cost_models["spark"])
            conf = SparkConf().set("spark.default.parallelism", str(parallelism))
            sc = SparkContext(conf, cluster, app_name=spec.name)
            ssc = StreamingContext(sc, records_per_batch=self._records_per_batch())
            if checkpointing is not None:
                # Spark's natural checkpoint boundary is the micro-batch.
                ssc.checkpoint(exactly_once=checkpointing.exactly_once)
            stream = KafkaUtils.create_direct_stream(ssc, self.broker, in_topic)
            if function is not None:
                stream = stream.transform_with(function)
            stream.write_to_kafka(self.broker, out_topic)
            job = ssc.run(job_name=spec.name, rng=rng, failure=failure)
            sc.stop()
            return job
        if system == "apex":
            yarn = YarnCluster(self.simulator)
            dag = DAG(spec.name)
            dag.set_attribute("VCORES_PER_OPERATOR", parallelism)
            source = dag.add_operator(
                "kafkaInput", KafkaSinglePortInputOperator(self.broker, in_topic)
            )
            previous_port = source.output
            if function is not None:
                operator = dag.add_operator("compute", FunctionOperator(function))
                dag.add_stream("input", previous_port, operator.input)
                previous_port = operator.output
            sink = dag.add_operator(
                "kafkaOutput", KafkaSinglePortOutputOperator(self.broker, out_topic)
            )
            dag.add_stream("output", previous_port, sink.input)
            return ApexLauncher(yarn, cost_model=self.cost_models["apex"]).launch(
                dag, rng=rng, checkpointing=checkpointing, failure=failure
            )
        raise ValueError(f"unknown system: {system!r}")

    def _run_beam(
        self,
        system: str,
        spec: QuerySpec,
        parallelism: int,
        rng: random.Random,
        data_rng: random.Random,
        out_topic: str,
    ) -> JobResult:
        if system == "flink":
            runner = FlinkRunner(
                FlinkCluster(self.simulator, cost_model=self.cost_models["flink"]),
                parallelism=parallelism,
                rng=rng,
            )
        elif system == "spark":
            from repro.beam.runners.spark import SparkRunnerOverheads

            base_overheads = SparkRunnerOverheads()
            runner = SparkRunner(
                SparkCluster(self.simulator, cost_model=self.cost_models["spark"]),
                parallelism=parallelism,
                rng=rng,
                records_per_batch=self._records_per_batch(),
                overheads=dataclasses.replace(
                    base_overheads,
                    extra_batch_overhead=base_overheads.extra_batch_overhead
                    * self._scale,
                ),
            )
        elif system == "apex":
            runner = ApexRunner(
                YarnCluster(self.simulator),
                parallelism=parallelism,
                rng=rng,
                cost_model=self.cost_models["apex"],
            )
        else:
            raise ValueError(f"unknown system: {system!r}")

        pipeline = beam.Pipeline(runner=runner)
        pcoll = (
            pipeline
            | beam_kafka.read(self.broker, self.config.input_topic).without_metadata()
            | beam.Values()
        )
        transform = spec.make_beam_transform(data_rng)
        if transform is not None:
            pcoll = pcoll | transform
        pcoll | beam_kafka.write(self.broker, out_topic)
        result = pipeline.run()
        assert result.job_result is not None
        return result.job_result
