"""Tests for repro.engines.common.progress: lag tracking + stall watchdog."""

import pytest

from repro.engines.common import LagTracker, PumpStalledError, StreamPump
from repro.engines.common.progress import ProgressGroup, merge_trackers
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.recovery import RecoveringPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator


def make_pump(sim, **kwargs):
    stage = PhysicalStage(
        name="s", kind=StageKind.SOURCE, costs=StageCosts(per_record_in=1e-6)
    )
    return StreamPump(
        simulator=sim,
        stages=[stage],
        variance=RunVariance(),
        rng=sim.random.stream("pump"),
        **kwargs,
    )


class TestLagTracker:
    def test_records_samples(self):
        tracker = LagTracker()
        tracker.observe(1.0, 10, backlog=5)
        tracker.observe(2.0, 20, backlog=3)
        assert len(tracker) == 2
        assert list(tracker.times) == [1.0, 2.0]
        assert list(tracker.offsets) == [10, 20]
        assert list(tracker.depths) == [5, 3]

    def test_depth_fn_wins_over_backlog(self):
        tracker = LagTracker(depth_fn=lambda: 42)
        tracker.observe(1.0, 1, backlog=7)
        assert tracker.final_depth == 42

    def test_summary_statistics(self):
        tracker = LagTracker()
        for now, offset, depth in [(1.0, 1, 2), (2.0, 2, 9), (3.0, 3, 4)]:
            tracker.observe(now, offset, backlog=depth)
        assert tracker.max_depth == 9
        assert tracker.final_depth == 4
        assert tracker.last_offset == 3
        assert tracker.depth_growth() == 2

    def test_empty_tracker_statistics(self):
        tracker = LagTracker()
        assert tracker.max_depth == 0
        assert tracker.final_depth == 0
        assert tracker.last_offset == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            LagTracker(stall_timeout=0.0)


class TestStallWatchdog:
    def test_no_progress_past_deadline_raises(self):
        tracker = LagTracker(stall_timeout=1.0, tier="kernel")
        tracker.observe(0.0, 5, backlog=3)
        tracker.observe(0.5, 5, backlog=3)  # within deadline: fine
        with pytest.raises(PumpStalledError) as excinfo:
            tracker.observe(1.6, 5, backlog=3)
        err = excinfo.value
        assert err.last_offset == 5
        assert err.queue_depth == 3
        assert err.tier == "kernel"
        assert err.stalled_for == pytest.approx(1.6)
        assert err.stall_timeout == 1.0

    def test_progress_resets_the_deadline(self):
        tracker = LagTracker(stall_timeout=1.0)
        tracker.observe(0.0, 1)
        tracker.observe(5.0, 2)  # big gap, but offset advanced: no stall
        tracker.observe(5.9, 2)  # 0.9s since progress: within deadline
        with pytest.raises(PumpStalledError):
            tracker.observe(6.1, 2)  # 1.1s since progress

    def test_diagnostics_in_message(self):
        tracker = LagTracker(stall_timeout=0.5, tier="kernel")
        tracker.observe(0.0, 9, backlog=2)
        with pytest.raises(PumpStalledError, match="kernel tier.*offset 9"):
            tracker.observe(1.0, 9, backlog=2)

    def test_without_timeout_never_raises(self):
        tracker = LagTracker()
        for step in range(100):
            tracker.observe(float(step), 0, backlog=1)


class TestProgressGroup:
    """Sibling-shard liveness: skew must not trip the watchdog, silence must."""

    def _pair(self, stall_timeout=1.0):
        group = ProgressGroup()
        return [
            LagTracker(stall_timeout=stall_timeout, tier="kernel", group=group)
            for _ in range(2)
        ]

    def test_sibling_progress_defers_watchdog(self):
        starved, busy = self._pair(stall_timeout=1.0)
        starved.observe(0.0, 3)
        busy.observe(0.0, 5)
        # The starved shard receives nothing for 2.4s of simulated time —
        # well past its private deadline — but the busy sibling keeps
        # advancing, so the group is live and no watchdog fires.
        for step in range(1, 5):
            now = step * 0.6
            busy.observe(now, 5 + step)
            starved.observe(now, 3)

    def test_whole_group_silence_trips(self):
        left, right = self._pair(stall_timeout=1.0)
        left.observe(0.0, 3)
        right.observe(0.0, 5)
        left.observe(0.8, 3)
        right.observe(0.8, 5)
        with pytest.raises(PumpStalledError) as excinfo:
            left.observe(1.5, 3)
        assert excinfo.value.last_offset == 3  # the shard's own offset

    def test_deadline_measured_from_latest_group_progress(self):
        left, right = self._pair(stall_timeout=1.0)
        left.observe(0.0, 1)
        right.observe(0.7, 9)  # group progress at 0.7
        left.observe(1.5, 1)  # 1.5s own silence, 0.8s group silence: fine
        with pytest.raises(PumpStalledError):
            left.observe(1.8, 1)  # 1.1s past the group's last progress

    def test_groupless_trackers_unaffected(self):
        tracker = LagTracker(stall_timeout=1.0)
        tracker.observe(0.0, 1)
        with pytest.raises(PumpStalledError):
            tracker.observe(1.5, 1)


class TestMergeTrackers:
    def test_merged_series_sums_and_stays_monotonic(self):
        a, b = LagTracker(tier="kernel"), LagTracker(tier="kernel")
        a.observe(1.0, 10, backlog=4)
        b.observe(1.5, 7, backlog=2)
        a.observe(2.0, 12, backlog=1)
        b.observe(3.0, 9, backlog=0)
        merged = merge_trackers([a, b])
        assert list(merged.times) == [1.0, 1.5, 2.0, 3.0]
        # At each instant: sum of every shard's latest offset/depth.
        assert list(merged.offsets) == [10, 17, 19, 21]
        assert list(merged.depths) == [4, 6, 3, 1]
        assert merged.last_offset == 21
        assert merged.tier == "kernel"
        assert merged.stall_timeout is None  # observation-only

    def test_monotonic_even_with_interleaved_sampling(self):
        a, b = LagTracker(), LagTracker()
        for now, offset in [(0.1, 5), (0.9, 11), (1.7, 30)]:
            a.observe(now, offset)
        for now, offset in [(0.5, 2), (1.3, 20)]:
            b.observe(now, offset)
        merged = merge_trackers([a, b])
        assert list(merged.offsets) == sorted(merged.offsets)

    def test_ties_break_by_shard_index(self):
        a, b = LagTracker(), LagTracker()
        a.observe(1.0, 3, backlog=1)
        b.observe(1.0, 4, backlog=2)
        merged = merge_trackers([a, b])
        # Same instant: shard 0's sample lands first, pinned.
        assert list(merged.offsets) == [3, 7]
        assert list(merged.depths) == [1, 3]

    def test_empty_inputs(self):
        assert len(merge_trackers([])) == 0
        assert len(merge_trackers([LagTracker(), LagTracker()])) == 0


class TestPumpIntegration:
    def test_pump_reports_tier(self):
        sim = Simulator(seed=1)
        pump = make_pump(sim)
        assert pump.tier == "kernel"
        pump.vectorized = False
        assert pump.tier == "tuple"

    def test_pump_feeds_tracker(self):
        sim = Simulator(seed=1)
        tracker = LagTracker()
        pump = make_pump(sim, tracker=tracker, chunk_size=10)
        pump.run(list(range(20)))
        assert len(tracker) >= 2
        assert tracker.last_offset == 20
        assert tracker.final_depth == 0  # everything consumed by the end

    def test_stall_timeout_creates_private_tracker(self):
        sim = Simulator(seed=1)
        pump = make_pump(sim, stall_timeout=10.0)
        assert pump.tracker is not None
        assert pump.tracker.stall_timeout == 10.0
        assert pump.tracker.tier == pump.tier

    def test_tracker_does_not_perturb_results(self):
        def run(with_tracker):
            sim = Simulator(seed=3)
            kwargs = {"tracker": LagTracker()} if with_tracker else {}
            pump = make_pump(sim, chunk_size=7, **kwargs)
            result = pump.run(list(range(25)))
            return sim.now(), result.records_out

        assert run(True) == run(False)

    def test_recovering_pump_accepts_tracker(self):
        sim = Simulator(seed=4)
        tracker = LagTracker()
        stage = PhysicalStage(
            name="s", kind=StageKind.SOURCE, costs=StageCosts(per_record_in=1e-6)
        )
        pump = RecoveringPump(
            simulator=sim,
            stages=[stage],
            rng=sim.random.stream("pump"),
            tracker=tracker,
        )
        pump.run(list(range(10)))
        assert tracker.last_offset == 10
        assert tracker.tier == "kernel"
