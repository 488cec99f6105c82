"""The pump-pool driver: P pump workers, one per partition group.

:class:`ShardedPump` drives partition-parallel query execution for the
capacity probes: the caller polls one chunk from the broker, the driver
cuts it into P contiguous partition-group spans and runs each span
through its own :class:`~repro.engines.common.pump.
StreamPump` — private stages, private kernels, private metrics, private
:class:`~repro.engines.common.progress.LagTracker` — then merges
deterministically:

* the **simulated cost** of the chunk is the *maximum* over the shards'
  costs (P workers advance one shared clock in parallel; the wall-clock
  charge is the straggler's), so the knee of the capacity search gains a
  genuine parallelism axis priced by each engine's
  ``parallelism_per_record`` coordination term;
* **outputs** come back as the shards' non-empty outputs, as each shard
  returned them, in shard order (span order == record order): the pool
  joins nothing, because the capacity probe, its one production caller,
  only charges the cost; a caller that needs one sequence concatenates
  them;
* **lag samples** merge via :func:`~repro.engines.common.progress.
  merge_trackers` into one monotonic series, and the per-shard watchdogs
  share one :class:`~repro.engines.common.progress.ProgressGroup` so no
  shard trips while a sibling still advances;
* **measurements** merge per operator in shard order
  (:meth:`merged_operator_totals`), summing exact integer record counts;
* **per-shard cumulative costs** accumulate in ``shard_costs`` so the
  capacity reports can surface straggler skew: the gap between
  ``max(shard_costs)`` and the mean is simulated time lost to the
  slowest shard.

The parallelism is simulated: the shards run one after another, in
shard order, on the calling thread, and only the cost merge treats them
as concurrent workers.  Results are therefore bit-identical at any P on
any host.

Shards step their chunks without flushing their kernels, as
:meth:`StreamPump.run <repro.engines.common.pump.StreamPump.run>` does
within a run: adopted kernel state (the sample RNG, the windowed pane
tally) stays in the kernels until :meth:`ShardedPump.flush` or
:meth:`ShardedPump.drain` returns it to its owner.  Callers that step chunks flush once when they are done,
in a ``finally``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.dataflow.metrics import JobMetrics
from repro.engines.common.progress import LagTracker, ProgressGroup, merge_trackers
from repro.engines.common.pump import StreamPump


def shard_spans(total: int, parallelism: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` spans covering ``total``."""
    return [
        (s * total // parallelism, (s + 1) * total // parallelism)
        for s in range(parallelism)
    ]


class ShardedPump:
    """Drives P pump workers over contiguous partition groups of a chunk."""

    def __init__(
        self,
        pumps: Sequence[StreamPump],
        stall_timeout: float | None = None,
    ) -> None:
        if not pumps:
            raise ValueError("sharded pump needs at least one worker pump")
        self.pumps = list(pumps)
        self.parallelism = len(self.pumps)
        self.group = ProgressGroup()
        self.trackers = [
            LagTracker(
                stall_timeout=stall_timeout, tier=pump.tier, group=self.group
            )
            for pump in self.pumps
        ]
        self.metrics = [
            JobMetrics(f"{pump.job_name}/shard{index}")
            for index, pump in enumerate(self.pumps)
        ]
        self._consumed = [0] * self.parallelism
        self.shard_costs = [0.0] * self.parallelism

    def process_chunk(
        self, values: Sequence[Any]
    ) -> tuple[float, list[Sequence[Any]]]:
        """Run one polled chunk through the pump pool.

        Returns ``(cost, parts)`` where ``cost`` is the straggler
        shard's simulated cost and ``parts`` the shards' non-empty sink
        outputs, each as its shard returned it, in shard order (record
        order), unjoined.  The caller charges the simulator.  Each shard steps its span with
        :meth:`StreamPump._run_stages`, which leaves adopted kernel state
        in place; the caller returns it with :meth:`flush` (or
        :meth:`drain`) when it is done stepping.  A 1-shard pool stepped
        and then flushed is bit-identical to the plain pump's per-chunk
        :meth:`StreamPump._process_chunk` loop.
        """
        cost = 0.0
        parts: list[Sequence[Any]] = []
        spans = shard_spans(len(values), self.parallelism)
        for shard, (start, stop) in enumerate(spans):
            if stop <= start:
                continue
            self._consumed[shard] += stop - start
            shard_cost, shard_outputs = self.pumps[shard]._run_stages(
                values[start:stop], self.metrics[shard], 0
            )
            self.shard_costs[shard] += shard_cost
            if shard_cost > cost:
                cost = shard_cost
            if shard_outputs:
                parts.append(shard_outputs)
        return cost, parts

    def observe(self, now: float, backlog: int = 0) -> None:
        """Record one post-chunk lag sample per shard (pinned order).

        Each shard's offset is its own consumed count (advanced by
        :meth:`process_chunk`); a shard whose span was empty this chunk
        records no progress but will not trip its watchdog while a
        sibling advanced — the :class:`ProgressGroup` contract.
        """
        for shard, tracker in enumerate(self.trackers):
            tracker.observe(now, self._consumed[shard], backlog)

    def flush(self) -> None:
        """Return every shard's adopted kernel state to its owner.

        Idempotent; :meth:`drain` flushes too.
        """
        for pump in self.pumps:
            pump._flush_kernels()

    def drain(self) -> tuple[float, list[Any]]:
        """Flush buffered state through every shard's pipeline tail.

        Per-shard drains are independent (hash-partitioned state never
        crosses shards); the cost is the straggler's, outputs concatenate
        in shard order — the pinned merge order.  Each shard's drain
        also returns its adopted kernel state, as :meth:`flush` does.
        """
        cost = 0.0
        outputs: list[Any] = []
        for shard, pump in enumerate(self.pumps):
            shard_cost, shard_outputs = pump.drain(self.metrics[shard])
            self.shard_costs[shard] += shard_cost
            if shard_cost > cost:
                cost = shard_cost
            outputs.extend(shard_outputs)
        return cost, outputs

    def merged_tracker(self) -> LagTracker:
        """One monotonic lag series over all shards."""
        return merge_trackers(self.trackers)

    def merged_operator_totals(self) -> dict[str, tuple[int, int, float]]:
        """Per-operator ``(records_in, records_out, cost)`` summed over shards.

        Shard order is the merge order, so the totals (exact integer
        counts, float costs summed in a pinned sequence) are bit-stable.
        """
        totals: dict[str, tuple[int, int, float]] = {}
        for metrics in self.metrics:
            for name, operator in metrics.operators.items():
                records_in, records_out, cost = totals.get(name, (0, 0, 0.0))
                totals[name] = (
                    records_in + operator.records_in,
                    records_out + operator.records_out,
                    cost + operator.busy_seconds,
                )
        return totals
