"""Checkpointing, failure injection and exactly-once recovery.

Table I of the paper asserts that all three systems guarantee
**exactly-once** processing — "correct results also in recovery scenarios"
— and the paper's future work lists fault-tolerance behaviour as an unmeasured
dimension.  This module makes that guarantee executable:

* a :class:`CheckpointCoordinator` periodically snapshots operator state
  together with the input offset (Chandy-Lamport in spirit, aligned to
  record boundaries in practice — how both Flink's barriers and Spark's
  micro-batch boundaries behave in this bounded setting);
* a :class:`FailureInjector` kills the job at one (or, for chaos
  experiments, several) configurable points in the input, charging a
  recovery delay (failure detection + redeployment) per crash;
* :class:`RecoveringPump` re-runs the pipeline from the last checkpoint,
  restoring operator state.  With a **transactional sink** (the default)
  output produced after the last checkpoint is discarded on failure and
  re-emitted exactly once — the exactly-once mode.  With
  ``exactly_once=False`` output is emitted eagerly and the replay produces
  duplicates: at-least-once, observable and testable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.dataflow.metrics import JobMetrics
from repro.engines.common.costs import RunVariance
from repro.engines.common.progress import LagTracker
from repro.engines.common.pump import PumpResult, StreamPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator


@dataclass(frozen=True)
class FailureInjector:
    """Kill the job at configured fractions of the input.

    ``at_fraction`` is the classic single crash point; ``at_fractions``
    adds further crash points for chaos experiments (each fires once, in
    input order — the job crashes, recovers from the last checkpoint,
    replays, and crashes again at the next point).  ``recovery_delay``
    covers failure detection, restart and state redistribution; engines
    charge it per failure as it fires.
    """

    at_fraction: float | None = None
    recovery_delay: float = 1.0
    at_fractions: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for fraction in self.fractions():
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"fractions must be in [0, 1], got {fraction}")
        if self.recovery_delay < 0:
            raise ValueError(f"recovery_delay must be >= 0, got {self.recovery_delay}")

    def fractions(self) -> tuple[float, ...]:
        """All configured crash fractions, sorted and deduplicated."""
        combined = set(self.at_fractions)
        if self.at_fraction is not None:
            combined.add(self.at_fraction)
        return tuple(sorted(combined))

    def positions(self, total: int) -> list[int]:
        """Distinct input positions at which failures fire, ascending."""
        return sorted({int(fraction * total) for fraction in self.fractions()})


@dataclass(frozen=True)
class CheckpointingConfig:
    """Engine-facing checkpointing switch.

    ``interval_records`` is the record-aligned barrier interval;
    ``exactly_once`` selects the transactional sink (Kafka-transactions
    style) versus eager at-least-once emission.
    """

    interval_records: int = 10_000
    exactly_once: bool = True

    def __post_init__(self) -> None:
        if self.interval_records < 1:
            raise ValueError(
                f"interval_records must be >= 1, got {self.interval_records}"
            )


@dataclass
class Checkpoint:
    """One completed checkpoint: input offset plus operator snapshots."""

    checkpoint_id: int
    input_offset: int
    state_snapshots: list[Any]
    committed_outputs: int


class CheckpointCoordinator:
    """Takes and restores checkpoints of a stage pipeline."""

    def __init__(self, stages: Sequence[PhysicalStage], snapshot_cost: float = 0.01) -> None:
        self.stages = list(stages)
        self.snapshot_cost = snapshot_cost
        self.checkpoints: list[Checkpoint] = []

    def take(self, simulator: Simulator, input_offset: int, committed_outputs: int) -> Checkpoint:
        """Snapshot every operator's state at ``input_offset``."""
        simulator.charge(self.snapshot_cost)
        snapshots = [
            stage.function.snapshot() if stage.function is not None else None
            for stage in self.stages
        ]
        checkpoint = Checkpoint(
            checkpoint_id=len(self.checkpoints),
            input_offset=input_offset,
            state_snapshots=snapshots,
            committed_outputs=committed_outputs,
        )
        self.checkpoints.append(checkpoint)
        return checkpoint

    def latest(self) -> Checkpoint | None:
        """The most recent checkpoint, if any."""
        return self.checkpoints[-1] if self.checkpoints else None

    def restore(self, checkpoint: Checkpoint) -> None:
        """Restore every operator's state from ``checkpoint``."""
        for stage, snapshot in zip(self.stages, checkpoint.state_snapshots):
            if stage.function is not None:
                stage.function.restore(snapshot)


@dataclass
class RecoveryReport:
    """Outcome of a run under failure injection."""

    result: PumpResult
    failures: int
    checkpoints_taken: int
    records_reprocessed: int
    duplicates_possible: bool


class RecoveringPump:
    """Runs a stage pipeline with checkpoints and (optional) exactly-once.

    Built on the same stages and cost models as :class:`StreamPump`; the
    happy path (no failure) charges the same per-record costs plus the
    checkpointing overhead.
    """

    def __init__(
        self,
        simulator: Simulator,
        stages: Sequence[PhysicalStage],
        rng: random.Random,
        emit: Callable[[Sequence[Any]], None] | None = None,
        checkpoint_interval_records: int = 10_000,
        exactly_once: bool = True,
        failure: FailureInjector | None = None,
        variance: RunVariance | None = None,
        job_name: str = "job",
        tracker: LagTracker | None = None,
        stall_timeout: float | None = None,
    ) -> None:
        if checkpoint_interval_records < 1:
            raise ValueError(
                "checkpoint_interval_records must be >= 1, "
                f"got {checkpoint_interval_records}"
            )
        self.simulator = simulator
        self.stages = list(stages)
        self.rng = rng
        self.emit = emit
        self.checkpoint_interval = checkpoint_interval_records
        self.exactly_once = exactly_once
        self.failure = failure
        self.variance = variance or RunVariance()
        self.job_name = job_name
        # Same observation-only contract as StreamPump: no charges, no RNG
        # draws — recovery runs stay bit-identical with a tracker attached.
        if tracker is None and stall_timeout is not None:
            tracker = LagTracker(stall_timeout=stall_timeout)
        if tracker is not None and tracker.tier == "unknown":
            tracker.tier = "kernel" if StreamPump.vectorized else "tuple"
        self.tracker = tracker

    def run(self, records: Sequence[Any]) -> RecoveryReport:
        """Process ``records`` to completion, surviving the injected failure."""
        total = len(records)
        coordinator = CheckpointCoordinator(self.stages)
        metrics = JobMetrics(self.job_name)
        metrics.started_at = self.simulator.now()
        for stage in self.stages:
            metrics.operator(stage.name)

        factor = self.variance.duration_factor(self.rng)
        records_out = 0
        base_duration = 0.0
        failures = 0
        reprocessed = 0
        pending_failures = (
            self.failure.positions(total) if self.failure is not None else []
        )
        first_emit: float | None = None
        last_emit: float | None = None

        coordinator.take(self.simulator, 0, 0)
        base_duration += coordinator.snapshot_cost
        position = 0
        while position < total:
            end = min(position + self.checkpoint_interval, total)
            # failure fires mid-epoch: reprocess from the last checkpoint
            if pending_failures and position <= pending_failures[0] < end:
                # process up to the failure point, then lose the epoch
                fail_at = pending_failures.pop(0)
                doomed = records[position:fail_at]
                cost, outputs = self._process(doomed, metrics)
                base_duration += cost
                self.simulator.charge(cost * factor)
                if not self.exactly_once and outputs:
                    self._emit(outputs)
                    records_out += len(outputs)
                    first_emit = first_emit if first_emit is not None else self.simulator.now()
                    last_emit = self.simulator.now()
                failures += 1
                reprocessed += len(doomed)
                latest = coordinator.latest()
                assert latest is not None
                coordinator.restore(latest)
                self.simulator.charge(self.failure.recovery_delay)
                base_duration += self.failure.recovery_delay
                position = latest.input_offset
                if self.tracker is not None:
                    # The rollback is visible: the offset sample does not
                    # advance, so a crash-loop trips the stall watchdog.
                    self.tracker.observe(
                        self.simulator.now(), position, total - position
                    )
                continue

            chunk = records[position:end]
            cost, outputs = self._process(chunk, metrics)
            base_duration += cost
            self.simulator.charge(cost * factor)
            if not self.exactly_once and outputs:
                self._emit(outputs)
                records_out += len(outputs)
                first_emit = first_emit if first_emit is not None else self.simulator.now()
                last_emit = self.simulator.now()
            position = end
            if self.tracker is not None:
                self.tracker.observe(self.simulator.now(), position, total - position)
            # checkpoint barrier: commit the epoch's outputs transactionally.
            # An epoch is one chunk, so its outputs are the whole commit.
            coordinator.take(self.simulator, position, records_out)
            base_duration += coordinator.snapshot_cost
            if self.exactly_once and outputs:
                self._emit(outputs)
                records_out += len(outputs)
                first_emit = first_emit if first_emit is not None else self.simulator.now()
                last_emit = self.simulator.now()

        # Bounded input ended: drain buffering functions (grouping).  The
        # drain belongs to the final checkpoint epoch, which commits here.
        drain_cost, drain_outputs = StreamPump(
            simulator=self.simulator,
            stages=self.stages,
            variance=RunVariance(),
            rng=self.rng,
            job_name=self.job_name,
        ).drain(metrics)
        if drain_cost:
            base_duration += drain_cost
            self.simulator.charge(drain_cost * factor)
        if drain_outputs:
            self._emit(drain_outputs)
            records_out += len(drain_outputs)
            first_emit = first_emit if first_emit is not None else self.simulator.now()
            last_emit = self.simulator.now()

        metrics.finished_at = self.simulator.now()
        result = PumpResult(
            records_in=total,
            records_out=records_out,
            base_duration=base_duration,
            duration=base_duration * factor,
            noise_factor=factor,
            additive_delay=0.0,
            metrics=metrics,
            first_emit_time=first_emit,
            last_emit_time=last_emit,
        )
        return RecoveryReport(
            result=result,
            failures=failures,
            checkpoints_taken=len(coordinator.checkpoints),
            records_reprocessed=reprocessed,
            duplicates_possible=failures > 0 and not self.exactly_once,
        )

    # ------------------------------------------------------------------
    def _process(
        self, chunk: Sequence[Any], metrics: JobMetrics
    ) -> tuple[float, Sequence[Any]]:
        pump = StreamPump(
            simulator=self.simulator,
            stages=self.stages,
            variance=RunVariance(),
            rng=self.rng,
            job_name=self.job_name,
        )
        # reuse the cost/transform core without its clock side effects:
        # _process_chunk only computes; charging happens here.
        return pump._process_chunk(chunk, metrics)

    def _emit(self, outputs: Sequence[Any]) -> None:
        if self.emit is not None:
            self.emit(outputs)
