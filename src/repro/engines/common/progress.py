"""Pump-side progress observability: lag tracking and the stall watchdog.

Backpressure makes a new failure mode possible: a consumer that stops
making progress while producers back off forever — a silent hang in
simulated time.  This module makes queue growth *observable* (the
sustainable-throughput criterion of Karimov et al. is "no ever-growing
queues", which requires a queue-depth time series, not a final count) and
turns the hang into a diagnostic error.

:class:`LagTracker` samples ``(simulated time, consumed offset, queue
depth)`` triples as a pump processes chunks.  It is pure observation: no
simulated time is charged and no RNG is drawn, so attaching a tracker
never perturbs a run — results stay bit-identical with and without one,
on both execution tiers (tuple, kernel).

The watchdog is a *simulated-time* deadline: if the observed offset stops
advancing for more than ``stall_timeout`` simulated seconds while
observations keep arriving, :class:`PumpStalledError` is raised carrying
the queue depth, last offset and execution tier — enough to tell "the
consumer is wedged" from "the producer gave up".
"""

from __future__ import annotations

from array import array
from typing import Callable


class PumpStalledError(RuntimeError):
    """A pump stopped making progress past its simulated-time deadline.

    Carries the diagnostic triple the flow-control docs promise: the
    broker-side queue depth at detection time, the last offset the pump
    consumed, and the execution tier it was running on.
    """

    def __init__(
        self,
        queue_depth: int,
        last_offset: int,
        tier: str,
        stalled_for: float,
        stall_timeout: float,
    ) -> None:
        super().__init__(
            f"pump stalled on the {tier} tier: no progress past offset "
            f"{last_offset} for {stalled_for:.3f}s of simulated time "
            f"(deadline {stall_timeout:.3f}s) with {queue_depth} record(s) queued"
        )
        self.queue_depth = queue_depth
        self.last_offset = last_offset
        self.tier = tier
        self.stalled_for = stalled_for
        self.stall_timeout = stall_timeout


class ProgressGroup:
    """Shared liveness signal for sibling shard trackers.

    Partition-parallel drains run one :class:`LagTracker` per shard.  A
    shard that momentarily receives no records must not trip its
    watchdog while *any* sibling still advances — that is load skew, not
    a wedge.  Trackers registered with the same group fold the group's
    most recent progress instant into their stall arithmetic, so the
    watchdog fires only when the whole group has been silent past the
    deadline.
    """

    def __init__(self) -> None:
        self.progress_at: float | None = None

    def note_progress(self, now: float) -> None:
        """Record that some member advanced its offset at ``now``."""
        if self.progress_at is None or now > self.progress_at:
            self.progress_at = now


class LagTracker:
    """Records queue depth and consumption lag over simulated time.

    ``depth_fn`` supplies the broker-side queue depth (e.g. a bounded
    :meth:`~repro.broker.log.PartitionLog.queue_depth`); without one, the
    depth recorded is the caller-supplied pump-side backlog (records
    available but not yet consumed), which is the consumption lag of a
    bounded run.  ``stall_timeout`` arms the watchdog; ``None`` disables
    it and the tracker is observation-only.  ``group`` joins this tracker
    to a :class:`ProgressGroup` of sibling shards: the watchdog then
    measures silence from the *group's* last progress, not just this
    shard's.
    """

    def __init__(
        self,
        depth_fn: Callable[[], int] | None = None,
        stall_timeout: float | None = None,
        tier: str = "unknown",
        group: "ProgressGroup | None" = None,
    ) -> None:
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be > 0, got {stall_timeout}")
        self.depth_fn = depth_fn
        self.stall_timeout = stall_timeout
        self.tier = tier
        self.group = group
        #: Parallel sample columns (compact slabs, like the broker's
        #: timestamp column): simulated time, consumed offset, queue depth.
        self.times: array = array("d")
        self.offsets: array = array("q")
        self.depths: array = array("q")
        self._last_offset = -1
        self._progress_at: float | None = None

    def observe(self, now: float, offset: int, backlog: int = 0) -> None:
        """Record one sample and run the stall check.

        ``offset`` is the pump's consumed position (monotonic progress
        signal); ``backlog`` the pump-side un-consumed remainder, used as
        the depth when no ``depth_fn`` is attached.  Raises
        :class:`PumpStalledError` once the offset has not advanced for
        more than ``stall_timeout`` simulated seconds.
        """
        depth = self.depth_fn() if self.depth_fn is not None else backlog
        self.times.append(now)
        self.offsets.append(offset)
        self.depths.append(depth)
        if offset > self._last_offset:
            self._last_offset = offset
            self._progress_at = now
            if self.group is not None:
                self.group.note_progress(now)
            return
        if self._progress_at is None:
            self._progress_at = now
            return
        progress_at = self._progress_at
        if self.group is not None and self.group.progress_at is not None:
            # A sibling's progress resets this shard's deadline too.
            progress_at = max(progress_at, self.group.progress_at)
        stalled_for = now - progress_at
        if self.stall_timeout is not None and stalled_for > self.stall_timeout:
            raise PumpStalledError(
                queue_depth=depth,
                last_offset=self._last_offset,
                tier=self.tier,
                stalled_for=stalled_for,
                stall_timeout=self.stall_timeout,
            )

    # ------------------------------------------------------------------
    # summary statistics (the capacity harness's growth detector)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    @property
    def max_depth(self) -> int:
        """Peak queue depth across all samples (0 when never sampled)."""
        return max(self.depths) if self.depths else 0

    @property
    def final_depth(self) -> int:
        """Queue depth at the last sample (0 when never sampled)."""
        return self.depths[-1] if self.depths else 0

    @property
    def last_offset(self) -> int:
        """Highest consumed offset observed (-1 when never sampled)."""
        return self._last_offset

    def depth_growth(self) -> int:
        """Net depth change first → last sample (> 0: the queue grew).

        The capacity search's divergence signal: a sustainable rate drains
        back to (near) zero by the end of the run; an unsustainable one
        ends with a larger queue than it started with.
        """
        if not self.depths:
            return 0
        return self.depths[-1] - self.depths[0]


def merge_trackers(trackers: "list[LagTracker]") -> LagTracker:
    """Fold per-shard sample series into one monotonic aggregate series.

    Samples merge in global time order (ties broken by shard index, so
    the merge order is pinned and the result deterministic).  At each
    merged instant the recorded offset and depth are the *sums* of every
    shard's latest value — total records consumed and total backlog —
    which makes the merged offsets monotonically non-decreasing even
    though individual shards sample at different times.  The result is
    observation-only (no watchdog), with the tier taken from the first
    tracker.
    """
    if not trackers:
        return LagTracker()
    merged = LagTracker(tier=trackers[0].tier)
    samples = sorted(
        (tracker.times[i], shard, tracker.offsets[i], tracker.depths[i])
        for shard, tracker in enumerate(trackers)
        for i in range(len(tracker.times))
    )
    latest_offset = [0] * len(trackers)
    latest_depth = [0] * len(trackers)
    for now, shard, offset, depth in samples:
        latest_offset[shard] = offset
        latest_depth[shard] = depth
        merged.times.append(now)
        total_offset = sum(latest_offset)
        merged.offsets.append(total_offset)
        merged.depths.append(sum(latest_depth))
        if total_offset > merged._last_offset:
            merged._last_offset = total_offset
            merged._progress_at = now
    return merged
