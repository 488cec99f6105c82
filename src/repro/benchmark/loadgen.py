"""Open-loop load generation: arrivals at a target rate, overload policies.

The closed-loop :class:`~repro.benchmark.sender.DataSender` pushes a fixed
record count as fast as pacing allows — the system can never be
overloaded.  This module adds the open-loop counterpart that sustainable
throughput (Karimov et al.) requires: records *arrive* at a target
events/sec on their own schedule, whether or not the system keeps up, and
the generator must decide what to do when it does not.

Two overload policies:

* ``backpressure`` — the arrival blocks until the bounded partition has
  capacity.  Blocking in a single-clock co-simulation means repeatedly
  invoking the caller's ``drain`` hook (the pump consuming records, which
  charges simulated time and frees queue capacity) and accounting the
  simulated seconds the arrival waited.  Lag growth is observable through
  the attached :class:`~repro.engines.common.progress.LagTracker`.
* ``shed`` — the overflow is dropped on the floor with exact accounting:
  every offered record is either accepted or shed, never silently lost
  (``offered == accepted + shed`` always reconciles).

Arrival processes are deterministic under the simulation seed: *uniform*
spaces arrivals evenly at the target rate; *bursty* front-loads each cycle
at a seeded peak factor and compensates with a lull, so the long-run
offered rate still equals the target exactly — replays are bit-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.broker import BrokerCluster, Producer, RetryPolicy
from repro.engines.common.progress import LagTracker, PumpStalledError

#: The generator's admission granularity (records per produce request).
DEFAULT_BATCH = 1_000


@dataclass(frozen=True, slots=True)
class LoadReport:
    """Summary of one open-loop load phase.

    Shares the :class:`~repro.benchmark.sender.SenderReport` accounting
    shape — ``records_offered``, ``records_accepted``, ``records_shed``,
    ``duration``, ``achieved_rate`` — so closed- and open-loop phases can
    be compared side by side.
    """

    topic: str
    policy: str
    process: str
    target_rate: float
    records_offered: int
    records_sent: int
    records_shed: int
    started_at: float
    finished_at: float
    #: Simulated seconds arrivals spent blocked on a full queue
    #: (backpressure policy only; 0.0 under shed).
    blocked_seconds: float = 0.0
    retries: int = 0
    duplicates_avoided: int = 0
    #: Peak broker-side queue depth observed during the phase.
    max_queue_depth: int = 0

    @property
    def records_accepted(self) -> int:
        """Records that actually landed in the broker (== sent)."""
        return self.records_sent

    @property
    def duration(self) -> float:
        """Simulated seconds the load phase took."""
        return self.finished_at - self.started_at

    @property
    def offered_rate(self) -> float:
        """Arrival rate actually offered (records per simulated second)."""
        if self.duration <= 0:
            return 0.0
        return self.records_offered / self.duration

    @property
    def achieved_rate(self) -> float:
        """Accepted records per simulated second (0.0 for an empty run)."""
        if self.duration <= 0:
            return 0.0
        return self.records_sent / self.duration

    def reconciles(self) -> bool:
        """Exact overload accounting: offered == accepted + shed."""
        return self.records_offered == self.records_sent + self.records_shed


# ---------------------------------------------------------------------------
# Arrival processes


class ArrivalProcess:
    """Deterministic schedule of record arrivals at a target rate."""

    name = "arrivals"
    rate: float

    def schedule(
        self, total: int, batch_size: int, rng: random.Random
    ) -> Iterator[tuple[int, float]]:
        """Yield ``(count, arrival_offset)`` batches covering ``total``.

        ``arrival_offset`` is the instant (seconds from phase start) by
        which the batch's last record has arrived.  Offsets are
        non-decreasing and the final batch of a full schedule arrives no
        later than ``total / rate`` — the nominal offer window.
        """
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class UniformArrivals(ArrivalProcess):
    """Evenly spaced arrivals: batch *k* completes at ``k·b / rate``."""

    rate: float
    name: str = "uniform"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def schedule(
        self, total: int, batch_size: int, rng: random.Random
    ) -> Iterator[tuple[int, float]]:
        sent = 0
        while sent < total:
            count = min(batch_size, total - sent)
            sent += count
            yield count, sent / self.rate


@dataclass(frozen=True, slots=True)
class BurstyArrivals(ArrivalProcess):
    """Seeded burst-and-lull arrivals with an exact long-run rate.

    Arrivals come in cycles of ``cycle_records``.  Each cycle draws a peak
    factor uniformly in ``[1, burst_factor]`` from the caller's seeded
    RNG, delivers the whole cycle's records at ``rate × peak``, then goes
    silent until the cycle's nominal window (``cycle_records / rate``)
    closes — so every burst is paid for by its lull and the long-run
    offered rate equals ``rate`` exactly, while the instantaneous rate
    stresses queues at up to ``burst_factor`` times the target.
    """

    rate: float
    burst_factor: float = 4.0
    cycle_records: int = 10_000
    name: str = "bursty"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        if self.cycle_records < 1:
            raise ValueError(f"cycle_records must be >= 1, got {self.cycle_records}")

    def schedule(
        self, total: int, batch_size: int, rng: random.Random
    ) -> Iterator[tuple[int, float]]:
        start = 0.0
        sent = 0
        while sent < total:
            cycle = min(self.cycle_records, total - sent)
            peak = 1.0 + (self.burst_factor - 1.0) * rng.random()
            burst_window = cycle / (self.rate * peak)
            done = 0
            while done < cycle:
                count = min(batch_size, cycle - done)
                done += count
                yield count, start + (done / cycle) * burst_window
            sent += cycle
            start += cycle / self.rate  # the lull closes the cycle


def make_arrivals(process: str, rate: float) -> ArrivalProcess:
    """Build a named arrival process (``uniform`` or ``bursty``)."""
    if process == "uniform":
        return UniformArrivals(rate)
    if process == "bursty":
        return BurstyArrivals(rate)
    raise ValueError(f"unknown arrival process: {process!r}")


# ---------------------------------------------------------------------------
# The generator


class LoadGenerator:
    """Offers records to a topic open-loop, honouring an overload policy.

    The generator is credit-based: before producing it asks the bounded
    partition for its :meth:`~repro.broker.log.PartitionLog.remaining_capacity`
    and only offers what fits — the retryable
    :class:`~repro.broker.errors.QueueFullError` path stays reserved for
    producers that race the generator (chaos campaigns exercise it).  On
    an unbounded topic every arrival is accepted and both policies
    degenerate to plain open-loop pacing.

    ``drain`` (passed to :meth:`run`) is the consumer side of the
    co-simulation: a callable that processes some queued records, charges
    their simulated cost, acknowledges consumption, and returns how many
    records it freed.  Under backpressure a full queue invokes ``drain``
    until the blocked arrival fits; a drain that frees nothing *and*
    advances no simulated time is a wedged consumer and raises
    :class:`~repro.engines.common.progress.PumpStalledError` immediately
    (waiting cannot help — simulated time only moves when someone charges
    it).
    """

    def __init__(
        self,
        cluster: BrokerCluster,
        topic: str,
        target_rate: float,
        process: str | ArrivalProcess = "uniform",
        policy: str = "backpressure",
        partition: int = 0,
        batch_size: int = DEFAULT_BATCH,
        acks: int | str = 1,
        retry_policy: RetryPolicy | None = None,
        idempotent: bool | None = None,
        tracker: LagTracker | None = None,
        stall_timeout: float | None = None,
    ) -> None:
        if target_rate <= 0:
            raise ValueError(f"target_rate must be > 0, got {target_rate}")
        if policy not in ("backpressure", "shed"):
            raise ValueError(
                f"policy must be 'backpressure' or 'shed', got {policy!r}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.cluster = cluster
        self.topic = topic
        self.target_rate = target_rate
        self.process = (
            make_arrivals(process, target_rate)
            if isinstance(process, str)
            else process
        )
        self.policy = policy
        self.partition = partition
        self.batch_size = batch_size
        self.acks = acks
        self.retry_policy = retry_policy
        self.idempotent = idempotent
        #: Seeded draws for the arrival process (burst peaks) — part of
        #: the simulation's RNG tree, so replays are bit-identical.
        self._rng = cluster.simulator.random.stream(f"loadgen/{topic}")
        log = cluster.topic(topic).partition(partition)
        if tracker is None:
            tracker = LagTracker(
                depth_fn=log.queue_depth, stall_timeout=stall_timeout, tier="source"
            )
        self.tracker = tracker
        self._log = log

    def run(
        self,
        records: Sequence[str],
        drain: Callable[[], int] | None = None,
    ) -> LoadReport:
        """Offer every record on the arrival schedule; return the report.

        ``records`` may be a plain list or a columnar-plane
        :class:`~repro.dataflow.kernels.SlabColumn` (admitted as zero-copy
        sub-windows, exactly like the closed-loop sender).
        """
        simulator = self.cluster.simulator
        started = simulator.now()
        producer = Producer(
            self.cluster,
            acks=self.acks,
            batch_size=self.batch_size,
            retry_policy=self.retry_policy,
            idempotent=self.idempotent,
        )
        total = len(records)
        offered = 0
        accepted = 0
        shed = 0
        blocked = 0.0

        def admit(start: int, stop: int) -> None:
            producer.send_values(self.topic, records[start:stop])

        for count, offset in self.process.schedule(total, self.batch_size, self._rng):
            arrival = started + offset
            if drain is not None:
                # Co-simulation: the consumer works through the queue while
                # the next arrival is still in the future.  It may overshoot
                # the arrival instant mid-chunk (a busy consumer), in which
                # case the arrival is admitted late — exactly an open-loop
                # system under load.
                while simulator.now() < arrival and self._log.queue_depth() > 0:
                    if not drain():
                        break
            if simulator.now() < arrival:
                # Open loop: the clock follows the arrival schedule, not
                # the system — idle time between arrivals just passes.
                simulator.clock.advance_to(arrival)
            start_index = offered
            offered += count
            capacity = self._log.remaining_capacity()
            if capacity is None:
                admit(start_index, start_index + count)
                accepted += count
                self.tracker.observe(simulator.now(), accepted)
                continue
            if self.policy == "shed":
                take = min(capacity, count)
                if take:
                    admit(start_index, start_index + take)
                    accepted += take
                shed += count - take
                self.tracker.observe(simulator.now(), accepted)
                continue
            # Backpressure: block the arrival until the whole batch fits.
            admitted = 0
            while admitted < count:
                capacity = self._log.remaining_capacity()
                if capacity:
                    take = min(capacity, count - admitted)
                    admit(start_index + admitted, start_index + admitted + take)
                    admitted += take
                    accepted += take
                    self.tracker.observe(simulator.now(), accepted)
                    continue
                if drain is None:
                    raise PumpStalledError(
                        queue_depth=self._log.queue_depth(),
                        last_offset=accepted,
                        tier=self.tracker.tier,
                        stalled_for=0.0,
                        stall_timeout=self.tracker.stall_timeout or 0.0,
                    )
                before = simulator.now()
                freed = drain()
                if not freed and simulator.now() <= before:
                    raise PumpStalledError(
                        queue_depth=self._log.queue_depth(),
                        last_offset=accepted,
                        tier=self.tracker.tier,
                        stalled_for=0.0,
                        stall_timeout=self.tracker.stall_timeout or 0.0,
                    )
                blocked += simulator.now() - before
                self.tracker.observe(simulator.now(), accepted)

        # Close the nominal offer window so the offered rate is exact even
        # when the last cycle's lull extends past its final arrival.
        window_end = started + total / self.process.rate
        if simulator.now() < window_end:
            simulator.clock.advance_to(window_end)
        producer.close()
        return LoadReport(
            topic=self.topic,
            policy=self.policy,
            process=self.process.name,
            target_rate=self.target_rate,
            records_offered=offered,
            records_sent=accepted,
            records_shed=shed,
            started_at=started,
            finished_at=simulator.now(),
            blocked_seconds=blocked,
            retries=producer.retries_performed,
            duplicates_avoided=producer.duplicates_avoided,
            max_queue_depth=self.tracker.max_depth,
        )
