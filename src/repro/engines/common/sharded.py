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
* **outputs** concatenate in shard order (span order == record order);
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

    def process_chunk(self, values: Sequence[Any]) -> tuple[float, list[Any]]:
        """Run one polled chunk through the pump pool.

        Returns ``(cost, outputs)`` where ``cost`` is the straggler
        shard's simulated cost and ``outputs`` the concatenated sink
        records in record order.  The caller charges the simulator —
        exactly the :meth:`StreamPump._process_chunk` contract, so a
        1-shard pool is bit-identical to the plain serial drain.
        """
        cost = 0.0
        outputs: list[Any] = []
        spans = shard_spans(len(values), self.parallelism)
        for shard, (start, stop) in enumerate(spans):
            if stop <= start:
                continue
            self._consumed[shard] += stop - start
            shard_cost, shard_outputs = self.pumps[shard]._process_chunk(
                values[start:stop], self.metrics[shard]
            )
            self.shard_costs[shard] += shard_cost
            if shard_cost > cost:
                cost = shard_cost
            outputs.extend(shard_outputs)
        return cost, outputs

    def observe(self, now: float, backlog: int = 0) -> None:
        """Record one post-chunk lag sample per shard (pinned order).

        Each shard's offset is its own consumed count (advanced by
        :meth:`process_chunk`); a shard whose span was empty this chunk
        records no progress but will not trip its watchdog while a
        sibling advanced — the :class:`ProgressGroup` contract.
        """
        for shard, tracker in enumerate(self.trackers):
            tracker.observe(now, self._consumed[shard], backlog)

    def drain(self) -> tuple[float, list[Any]]:
        """Flush buffered state through every shard's pipeline tail.

        Per-shard drains are independent (hash-partitioned state never
        crosses shards); the cost is the straggler's, outputs concatenate
        in shard order — the pinned merge order.
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
