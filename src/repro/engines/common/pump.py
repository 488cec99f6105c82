"""The record pump: executes a physical pipeline over actual records.

The pump is the heart of every engine's executor.  It really transforms the
records (so query outputs are verifiable), while charging simulated time for
each chunk according to the stages' cost models.  Because outputs are
emitted chunk by chunk as the clock advances, broker LogAppendTime
timestamps spread realistically across the run — which is what the paper's
result calculator measures.

Determinism contract: for a given ``rng`` state the pump draws exactly three
variance values per run — the multiplicative noise factor, the additive
delay (jitter + straggler), and the position at which the additive delay is
injected — in that order.  The benchmark harness's *fast repeat* mode relies
on this to recompute run durations without reprocessing records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.dataflow.kernels import as_output, run_kernel
from repro.dataflow.metrics import JobMetrics, OperatorMetrics
from repro.engines.common.costs import RunVariance
from repro.engines.common.progress import LagTracker
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator


@dataclass
class PumpResult:
    """Outcome of one pumped run."""

    records_in: int
    records_out: int
    #: Noise-free duration implied by the cost model alone (seconds).
    base_duration: float
    #: Actual simulated duration of this run: ``base * factor + additive``.
    duration: float
    noise_factor: float
    additive_delay: float
    metrics: JobMetrics = field(default_factory=lambda: JobMetrics("job"))
    #: Simulated timestamps of the first and last emitted record, if any.
    first_emit_time: float | None = None
    last_emit_time: float | None = None


class StreamPump:
    """Pumps records through physical stages, charging simulated time.

    ``emit`` is called with each chunk of sink-bound records after the
    chunk's cost has been charged; engines pass a producer-backed callback
    so emissions land in the output topic with current LogAppendTime.

    ``micro_batch_records`` switches on Spark-style micro-batching: the
    input is cut into batches of that many records and
    ``per_batch_overhead`` seconds are charged per batch (job scheduling,
    task launch).  Tuple-at-a-time engines leave it ``None``; chunking then
    exists purely as simulation granularity and does not affect totals.

    **Execution tiers.**  Each chunk runs through the stages at one of
    two host-side tiers.  With ``vectorized`` on (the default) each
    operator stage runs its **compiled kernel** (``repro.dataflow.kernels``),
    or its function's chunk-at-a-time
    :meth:`~repro.dataflow.functions.StreamFunction.process_batch` when
    lowering returns no kernel.  With it off every stage runs the
    per-record **reference loop**, the semantic oracle.  Tier choice
    changes nothing observable: the chunk boundaries, per-chunk cost
    charges, emission timestamps, and the determinism contract (exactly
    three variance draws per run) are identical in both — the
    equivalence suites (``tests/engines/test_batch_equivalence.py``,
    ``tests/engines/test_kernel_equivalence.py``) and the host-perf
    baseline (``benchmarks/perf/``) prove bit-identical behaviour and
    measure the speedup.  Kernels may adopt state — the sample
    kernel's RNG state for bulk drawing, the windowed kernel's pane
    tally — and hand it back through their ``flush`` hooks.

    **Stage plan.**  The pump looks up what each stage step needs once,
    not on every chunk: each stage's charge terms, when it is built, and
    its bucket in the metrics object the pump last stepped with, at the
    first step that reaches it.  Each kernel is lowered when the first
    chunk reaches its stage and cached on the stage.  A step charges
    ``StageCosts.charge``'s float expression over the bound terms, in
    its operand order, so costs and busy seconds are bit-identical to
    calling it.  ``vectorized`` is read on every step.  The stages,
    their costs and their functions' weights must not change once the
    pump is built.

    Chunk-steppers flush only where an observer needs the true state:
    :meth:`drain` before it calls any ``finish()``, :meth:`run` at the
    end of the run, a capacity probe (and its pump pool) at the end of
    the probe, and only the recovery path after every chunk
    (:meth:`_process_chunk`), because its checkpoints interleave with
    its chunks.
    """

    #: Run compiled kernels (class-level switch; the reference per-record
    #: loop stays available for equivalence and perf baselines).
    vectorized: bool = True

    def __init__(
        self,
        simulator: Simulator,
        stages: Sequence[PhysicalStage],
        variance: RunVariance,
        rng: random.Random,
        emit: Callable[[Sequence[Any]], None] | None = None,
        chunk_size: int | None = None,
        micro_batch_records: int | None = None,
        per_batch_overhead: float = 0.0,
        on_batch_end: Callable[[], None] | None = None,
        job_name: str = "job",
        tracker: LagTracker | None = None,
        stall_timeout: float | None = None,
    ) -> None:
        if not stages:
            raise ValueError("pump needs at least one stage")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if micro_batch_records is not None and micro_batch_records < 1:
            raise ValueError(
                f"micro_batch_records must be >= 1, got {micro_batch_records}"
            )
        self.simulator = simulator
        self.stages = list(stages)
        self._plan = [_plan_entry(stage) for stage in self.stages]
        self._metrics: JobMetrics | None = None
        self._buckets: list[OperatorMetrics | None] = []
        self.variance = variance
        self.rng = rng
        self.emit = emit
        self.chunk_size = chunk_size
        self.micro_batch_records = micro_batch_records
        self.per_batch_overhead = per_batch_overhead
        self.on_batch_end = on_batch_end
        self.job_name = job_name
        # Observability is opt-in and observation-only: a tracker charges
        # no simulated time and draws no RNG, so results are bit-identical
        # with and without one.  ``stall_timeout`` without an explicit
        # tracker arms a private watchdog-only tracker.
        if tracker is None and stall_timeout is not None:
            tracker = LagTracker(stall_timeout=stall_timeout)
        if tracker is not None and tracker.tier == "unknown":
            tracker.tier = self.tier
        self.tracker = tracker

    @property
    def tier(self) -> str:
        """The execution tier this pump is configured for."""
        return "kernel" if self.vectorized else "tuple"

    # ------------------------------------------------------------------
    def run(self, records: Sequence[Any]) -> PumpResult:
        """Process ``records`` through all stages; return the run result."""
        factor = self.variance.duration_factor(self.rng)
        additive = self.variance.additive_delay(self.rng)
        inject_at = self.rng.random()  # fraction of input at which delay hits

        metrics = JobMetrics(self.job_name)
        metrics.started_at = self.simulator.now()
        for stage in self.stages:
            metrics.operator(stage.name)

        total = len(records)
        if self.chunk_size is not None:
            chunk_size = self.chunk_size
        else:
            # Auto granularity: at least ~50 emission points per run so
            # output LogAppendTime spreads across the execution at any
            # scale (cost totals are chunk-size invariant; only timestamp
            # granularity changes).
            chunk_size = min(8192, max(1, -(-total // 50)))
        base_duration = 0.0
        records_out = 0
        first_emit: float | None = None
        last_emit: float | None = None
        injected = total == 0
        processed = 0

        try:
            for batch in self._batches(records):
                if self.micro_batch_records is not None and batch:
                    overhead = self.per_batch_overhead
                    base_duration += overhead
                    self.simulator.charge(overhead * factor)
                for start in range(0, len(batch), chunk_size):
                    # A slice of a SlabColumn is a window: no copy, and
                    # slab-aware kernels read its bytes.
                    chunk = batch[start : start + chunk_size]
                    # _run_stages directly (not _process_chunk): within one
                    # run, kernel state flushes once at the end, not per
                    # chunk — nothing observes the adopted RNG mid-run.
                    chunk_cost, outputs = self._run_stages(chunk, metrics, 0)
                    base_duration += chunk_cost
                    self.simulator.charge(chunk_cost * factor)
                    processed += len(chunk)
                    if self.tracker is not None:
                        self.tracker.observe(
                            self.simulator.now(), processed, total - processed
                        )
                    if not injected and processed >= inject_at * total:
                        self.simulator.charge(additive)
                        injected = True
                    if outputs:
                        if self.emit is not None:
                            self.emit(outputs)
                        records_out += len(outputs)
                        if first_emit is None:
                            first_emit = self.simulator.now()
                        last_emit = self.simulator.now()
                if self.on_batch_end is not None:
                    self.on_batch_end()

            # End of the bounded input: drain buffering functions (grouping,
            # windowed aggregation) and cascade their trailing output through
            # the remaining stages.
            drain_cost, drain_outputs = self.drain(metrics)
        finally:
            self._flush_kernels()
        if drain_cost:
            base_duration += drain_cost
            self.simulator.charge(drain_cost * factor)
        if drain_outputs:
            if self.emit is not None:
                self.emit(drain_outputs)
            records_out += len(drain_outputs)
            if first_emit is None:
                first_emit = self.simulator.now()
            last_emit = self.simulator.now()

        if not injected:
            self.simulator.charge(additive)

        metrics.finished_at = self.simulator.now()
        return PumpResult(
            records_in=total,
            records_out=records_out,
            base_duration=base_duration,
            duration=base_duration * factor + additive,
            noise_factor=factor,
            additive_delay=additive,
            metrics=metrics,
            first_emit_time=first_emit,
            last_emit_time=last_emit,
        )

    def replay_variance(self) -> tuple[float, float]:
        """Draw the variance values of one run without processing records.

        Draws the same stream values, in the same order, as :meth:`run`
        would — the fast-repeat mode of the benchmark harness uses this to
        synthesise runs 2..N of an identical setup.
        """
        factor = self.variance.duration_factor(self.rng)
        additive = self.variance.additive_delay(self.rng)
        self.rng.random()  # injection position, discarded
        return factor, additive

    # ------------------------------------------------------------------
    def _batches(self, records: Sequence[Any]) -> Iterator[Sequence[Any]]:
        """Yield micro-batch slices lazily (one batch live at a time).

        Materializing every slice up front would hold a second copy of the
        full input for the whole run; at the paper's 1,000,001-record scale
        that doubles the workload's memory footprint for no benefit.
        """
        if self.micro_batch_records is None:
            yield records
            return
        size = self.micro_batch_records
        for start in range(0, len(records), size):
            yield records[start : start + size]

    def drain(self, metrics: JobMetrics) -> tuple[float, list[Any]]:
        """Flush every stage's buffered state through the pipeline tail.

        Adopted kernel state returns to its owners first, so each
        ``finish()`` reads the state the reference loop would have.
        Returns the accumulated cost and the sink-bound trailing records.
        """
        cost = 0.0
        collected: list[Any] = []
        self._flush_kernels()
        try:
            for index, stage in enumerate(self.stages):
                if stage.function is None:
                    continue
                values = list(stage.function.finish())
                if not values:
                    continue
                emit_cost = stage.costs.charge(records_in=0, records_out=len(values))
                metrics.operator(stage.name).record(0, len(values), emit_cost)
                cost += emit_cost
                tail_cost, outputs = self._run_stages(values, metrics, index + 1)
                cost += tail_cost
                collected.extend(outputs)
        finally:
            # Callers that drain outside run() (the recovery path) must
            # also observe the true state afterwards.
            self._flush_kernels()
        return cost, collected

    def _process_chunk(
        self, chunk: Sequence[Any], metrics: JobMetrics
    ) -> tuple[float, Sequence[Any]]:
        """Run one chunk through every stage; return (cost, sink records).

        Unlike :meth:`run`'s inner loop this flushes adopted kernel state
        after every call.  Only checkpointing recovery steps this way: it
        interleaves chunk processing with state observation — snapshots,
        replays — which must see the true Python RNG state.  Steppers
        that observe nothing mid-stream (the capacity probe, the pump
        pool) call :meth:`_run_stages` and flush once at the end.
        """
        try:
            return self._run_stages(chunk, metrics, 0)
        finally:
            self._flush_kernels()

    def _flush_kernels(self) -> None:
        """Return state adopted by any compiled kernel (the sample RNG,
        the distinct-count membership, the pane tally) to its owner."""
        for stage in self.stages:
            kernel = stage.cached_kernel()
            if kernel is not None:
                kernel.flush()

    def _run_stages(
        self, values: Sequence[Any], metrics: JobMetrics, start: int
    ) -> tuple[float, Sequence[Any]]:
        """Run ``values`` through the stages from ``start``.

        Returns the cost and the sink-bound records: a ``list``, a
        :class:`~repro.dataflow.kernels.SlabColumn` or a
        :class:`~repro.dataflow.kernels.KvColumn`.  Each kernel runs
        through :func:`~repro.dataflow.kernels.run_kernel`, so a
        slab-aware kernel handed a window takes its slab path over the
        window's rows.
        """
        vectorized = self.vectorized
        plan = self._plan
        if metrics is not self._metrics:
            self._metrics = metrics
            self._buckets = [None] * len(plan)
        buckets = self._buckets
        cost = 0.0
        n_in = len(values)
        for index in range(start, len(plan)):
            operator, stage, entry_in, draws, per_draw, per_out = plan[index]
            if operator:
                if not vectorized:
                    # Reference per-record loop: kept for the equivalence
                    # suite and the perf baseline, not used in production.
                    next_values: list[Any] = []
                    extend = next_values.extend
                    process = stage.function.process
                    for value in values:
                        extend(process(value))
                    values = next_values
                else:
                    kernel = stage.compiled_kernel()
                    if kernel is not None:
                        values = run_kernel(kernel, values)
                    else:
                        values = stage.function.process_batch(values)
                n_out = len(values)
            else:
                n_out = n_in
            # StageCosts.charge over the bound terms, in its operand order.
            stage_cost = n_in * entry_in + n_in * draws * per_draw + n_out * per_out
            cost += stage_cost
            bucket = buckets[index]
            if bucket is None:
                bucket = buckets[index] = metrics.operator(stage.name)
            bucket.record(n_in, n_out, stage_cost)
            if not n_out:
                break
            n_in = n_out
        return cost, as_output(values)


def _plan_entry(stage: PhysicalStage) -> tuple:
    """``(is operator, stage, per-record entry charge, RNG draws per
    record, per-draw charge, per-record exit charge)``: the terms of
    :meth:`StageCosts.charge <repro.engines.common.costs.StageCosts.charge>`
    for ``stage``, its entry term summed as ``charge`` sums it."""
    costs = stage.costs
    return (
        stage.kind is StageKind.OPERATOR,
        stage,
        costs.per_record_in + stage.cost_weight * costs.per_weight,
        stage.rng_draws,
        costs.per_rng_draw,
        costs.per_record_out,
    )
