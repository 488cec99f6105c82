"""Order-sensitive operators under partition sharding.

``ShardedPump`` gives every shard its own serially lowered pump, so an
order-sensitive operator is only as safe to shard as its serial kernel is
faithful to the per-record reference.  These tests pin the two edges that
rest on: the sample kernel's per-record reference path draws the very
stream of the NumPy mask path, and an ``AfterCount``-triggered windowed
aggregate lowers to no kernel at all and keeps the reference tier.
"""

from __future__ import annotations

import random

from repro.dataflow import kernels
from repro.dataflow.compiler import lower_stage


def _lines(count: int, seed: int = 7) -> list[str]:
    rng = random.Random(seed)
    words = ["alpha", "beta", "gamma", "delta", "web", "search"]
    return [
        f"{rng.randrange(100)}\t" + " ".join(rng.choice(words) for _ in range(3))
        for _ in range(count)
    ]


class TestOrderSensitiveSharding:
    def test_sample_serial_reference_path_without_numpy(self):
        lines = _lines(800)
        bulk = kernels.SampleKernel(0.4, random.Random(41))
        expected = [bulk(lines[:500]), bulk(lines[500:])]
        rng = random.Random(41)
        reference = kernels.SampleKernel(0.4, rng)
        reference._bulk = False  # the per-record reference path
        assert [reference(lines[:500]), reference(lines[500:])] == expected
        bulk.flush(), reference.flush()
        # The post-chunk generator state is part of the contract: the next
        # draw anywhere downstream must see the same stream.
        assert rng.getstate() == bulk.rng.getstate()

    def test_aftercount_trigger_keeps_reference_tier(self):
        from repro.beam import FixedWindows
        from repro.beam.window import AfterCount
        from repro.dataflow.windowing import WindowedAggregateFunction

        function = WindowedAggregateFunction(
            window_fn=FixedWindows(10.0),
            key_fn=lambda v: int(v) % 5,
            timestamp_fn=float,
            trigger=AfterCount(8),
            name="Triggered",
        )
        # Mid-stream firing never lowers to any kernel tier, so each
        # shard's pump runs the reference path (the documented honest edge).
        assert lower_stage(function) is None
