"""Unit tests for the shard plane: spans, knobs, and merge invariants.

The heavyweight proof that sharded execution is observationally identical
to serial lives in ``tests/engines/test_query_parallel.py`` (full matrix,
chaos, recovery).  This file pins the *unit* behaviours those suites rest
on: span arithmetic, knob parsing, thread-pool equivalence, pinned
key-insertion order after a keyed merge, and the wire kernels' serial
fallback on malformed input.
"""

from __future__ import annotations

import multiprocessing
import random
import threading

import pytest

from repro.benchmark.queries import get_query
from repro.dataflow import kernels, sharding
from repro.dataflow.compiler import lower_stage
from repro.dataflow.functions import compose
from repro.workloads.nexmark import NexmarkGenerator
from repro.workloads.nexmark_queries import (
    nexmark_decode,
    q3_local_item_suggestion,
    q4_category_average,
    q5_hot_items,
)


def _shard_in_child(sender) -> None:
    sender.send(sharding.run_shard_tasks([lambda: 0, lambda: 1]))


class TestSpansAndKnobs:
    def test_spans_cover_and_balance(self):
        for total in (0, 1, 7, 512, 1001):
            for parallelism in (1, 2, 3, 8):
                spans = sharding.shard_spans(total, parallelism)
                assert spans[0][0] == 0 and spans[-1][1] == total
                # Contiguous, non-overlapping, balanced within one record.
                sizes = []
                for (a, b), (c, _d) in zip(spans, spans[1:]):
                    assert b == c
                for a, b in spans:
                    assert b >= a
                    sizes.append(b - a)
                assert max(sizes) - min(sizes) <= 1

    def test_query_parallelism_parsing(self, monkeypatch):
        monkeypatch.delenv(sharding.QUERY_PARALLELISM_ENV, raising=False)
        assert sharding.query_parallelism() == 1
        monkeypatch.setenv(sharding.QUERY_PARALLELISM_ENV, "0")
        assert sharding.query_parallelism() == 1
        monkeypatch.setenv(sharding.QUERY_PARALLELISM_ENV, "4")
        assert sharding.query_parallelism() == 4
        monkeypatch.setenv(sharding.QUERY_PARALLELISM_ENV, "-2")
        with pytest.raises(ValueError):
            sharding.query_parallelism()

    def test_effective_parallelism_clamps_to_affinity(self, monkeypatch):
        monkeypatch.setattr(sharding, "affinity_count", lambda: 3)
        assert sharding.effective_parallelism(1) == 1
        assert sharding.effective_parallelism(3) == 3
        assert sharding.effective_parallelism(8) == 3
        monkeypatch.setattr(sharding, "affinity_count", lambda: 1)
        assert sharding.effective_parallelism(8) == 1

    def test_shard_min_chunk_parsing(self, monkeypatch):
        monkeypatch.delenv(sharding.SHARD_MIN_CHUNK_ENV, raising=False)
        assert sharding.shard_min_chunk() == sharding.SHARD_MIN_CHUNK
        monkeypatch.setenv(sharding.SHARD_MIN_CHUNK_ENV, "64")
        assert sharding.shard_min_chunk() == 64
        # Clamped to >= 1: a zero/negative threshold means "always shard".
        monkeypatch.setenv(sharding.SHARD_MIN_CHUNK_ENV, "0")
        assert sharding.shard_min_chunk() == 1
        monkeypatch.setenv(sharding.SHARD_MIN_CHUNK_ENV, "-7")
        assert sharding.shard_min_chunk() == 1
        monkeypatch.setenv(sharding.SHARD_MIN_CHUNK_ENV, "not-a-number")
        with pytest.raises(ValueError):
            sharding.shard_min_chunk()

    def test_shard_min_chunk_honours_monkeypatched_global(self, monkeypatch):
        monkeypatch.delenv(sharding.SHARD_MIN_CHUNK_ENV, raising=False)
        monkeypatch.setattr(sharding, "SHARD_MIN_CHUNK", 16)
        assert sharding.shard_min_chunk() == 16

    def test_forked_child_gets_a_working_pool(self, monkeypatch):
        """A process forked after shard tasks ran still runs them."""
        monkeypatch.setattr(sharding, "FORCE_THREADS", True)
        # Both tasks wait for each other, so the parent's pool starts both
        # of its threads, and the child inherits a full pool without them.
        barrier = threading.Barrier(2, timeout=30)
        assert sorted(sharding.run_shard_tasks([barrier.wait, barrier.wait])) == [0, 1]
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_shard_in_child, args=(sender,))
        child.start()
        try:
            assert receiver.poll(60), "the forked child's shard tasks never ran"
            assert receiver.recv() == [0, 1]
        finally:
            child.kill()
            child.join()

    @pytest.mark.parametrize("boundary", (8, 32))
    def test_bypass_boundary_is_exact(self, monkeypatch, boundary):
        """Chunks below the knob take the serial path, at the knob shard."""
        monkeypatch.setenv(sharding.SHARD_MIN_CHUNK_ENV, str(boundary))
        calls = []
        real = sharding.run_shard_tasks

        def counting(tasks):
            calls.append(len(tasks))
            return real(tasks)

        monkeypatch.setattr(sharding, "run_shard_tasks", counting)
        function = get_query("statistics").make_function(random.Random(3))
        kernel = lower_stage(function, parallelism=2)
        kernel(_lines(boundary - 1))
        assert calls == []
        kernel(_lines(boundary))
        assert calls == [2]


def _lines(count: int, seed: int = 7) -> list[str]:
    rng = random.Random(seed)
    words = ["alpha", "beta", "gamma", "delta", "web", "search"]
    return [
        "\t".join(
            (
                str(rng.randrange(100)),
                " ".join(rng.choice(words) for _ in range(3)),
                # Fixed-width AOL QueryTime so the windowed query parses.
                f"2006-03-{rng.randrange(1, 29):02d} "
                f"{rng.randrange(24):02d}:{rng.randrange(60):02d}"
                f":{rng.randrange(60):02d}",
            )
        )
        for _ in range(count)
    ]


def _serial_and_sharded(query: str, parallelism: int, chunks: list) -> tuple:
    """Run one stateful query serially and sharded over the same chunks.

    Returns ((serial outputs, serial state), (sharded outputs, sharded
    state)) where state includes the *insertion order* of the owner dict —
    the bit the merge must pin for finish()/snapshot equivalence.
    """
    results = []
    for p in (1, parallelism):
        function = get_query(query).make_function(random.Random(3))
        kernel = lower_stage(function, parallelism=p)
        outputs = [kernel(chunk) for chunk in chunks]
        kernel.flush()
        state = {
            name: (dict(value), list(value))
            for name, value in vars(function).items()
            if isinstance(value, dict)
        }
        sets = {
            name: sorted(value)
            for name, value in vars(function).items()
            if isinstance(value, set)
        }
        results.append((outputs, state, sets))
    return results[0], results[1]


class TestKeyedSharding:
    @pytest.mark.parametrize("query", ("wordcount", "distinct-count"))
    @pytest.mark.parametrize("parallelism", (2, 3, 4))
    def test_bit_identical_to_serial(self, query, parallelism):
        lines = _lines(600)
        chunks = [lines[:250], lines[250:251], [], lines[251:]]
        serial, sharded = _serial_and_sharded(query, parallelism, chunks)
        assert sharded == serial

    def test_merge_pins_key_insertion_order(self):
        lines = _lines(400)
        serial, sharded = _serial_and_sharded("wordcount", 4, [lines])
        # Not just equal dicts: the same first-occurrence insertion order.
        for name in serial[1]:
            assert sharded[1][name][1] == serial[1][name][1]

    def test_sharded_kernel_engages(self):
        function = get_query("wordcount").make_function(random.Random(3))
        kernel = lower_stage(function, parallelism=2)
        assert isinstance(kernel, sharding.ShardedStatefulKernel)
        serial = lower_stage(
            get_query("wordcount").make_function(random.Random(3)), parallelism=1
        )
        assert not isinstance(serial, sharding.ShardedStatefulKernel)


class TestPureSharding:
    def test_thread_pool_matches_sequential(self, monkeypatch):
        spec_chain = [kernels.KernelSpec.contains("web")]
        lines = _lines(2_000)
        baseline = sharding.shard_pure_chain(spec_chain, 3)(lines)
        monkeypatch.setattr(sharding, "FORCE_THREADS", True)
        threaded = sharding.shard_pure_chain(spec_chain, 3)(lines)
        assert threaded == baseline
        assert baseline == [line for line in lines if "web" in line]

    def test_small_chunks_bypass_split(self):
        chain = sharding.shard_pure_chain([kernels.KernelSpec.contains("web")], 4)
        assert isinstance(chain, sharding.ShardedPureKernel)
        few = _lines(10)
        assert chain(few) == [line for line in few if "web" in line]


def _wire_outputs(query_fn, events: list, parallelism: int) -> tuple:
    composed = compose([nexmark_decode(), query_fn()])
    composed.open()
    kernel = lower_stage(composed, parallelism=parallelism)
    outputs = []
    error = None
    try:
        outputs = [kernel(events[:1500]), kernel(events[1500:])]
    except Exception as exc:  # malformed input: compare error + state
        error = (type(exc).__name__, str(exc))
    kernel.flush()
    snapshot = composed.snapshot() if hasattr(composed, "snapshot") else None
    finish = list(composed.finish())
    composed.close()
    return outputs, error, snapshot, finish


class TestWireSharding:
    @pytest.fixture(scope="class")
    def events(self):
        return NexmarkGenerator(3_000, seed=11).encoded()

    @pytest.mark.parametrize(
        "query_fn",
        (
            q3_local_item_suggestion,
            q4_category_average,
            lambda: q5_hot_items(window_seconds=3.0),
        ),
        ids=("q3", "q4", "q5"),
    )
    @pytest.mark.parametrize("parallelism", (2, 4))
    def test_bit_identical_to_serial(self, events, query_fn, parallelism):
        assert _wire_outputs(query_fn, events, parallelism) == _wire_outputs(
            query_fn, events, 1
        )

    @pytest.mark.parametrize(
        "query_fn",
        (
            q3_local_item_suggestion,
            q4_category_average,
            lambda: q5_hot_items(window_seconds=3.0),
        ),
        ids=("q3", "q4", "q5"),
    )
    def test_malformed_chunk_falls_back_to_serial(self, events, query_fn):
        # An unknown tag mid-chunk must produce exactly the serial wire
        # kernel's behaviour for the whole chunk (error state included).
        poisoned = events[:500] + ["X\tnot-an-event"] + events[500:600]
        assert _wire_outputs(query_fn, poisoned, 4) == _wire_outputs(
            query_fn, poisoned, 1
        )

    @pytest.mark.parametrize(
        "query_fn",
        (
            q3_local_item_suggestion,
            q4_category_average,
            lambda: q5_hot_items(window_seconds=3.0),
        ),
        ids=("q3", "q4", "q5"),
    )
    @pytest.mark.parametrize(
        "bad_line",
        (
            "A\t9\titem\t0.5\t1\tnot-a-seller\t7\t3",
            "B\t5\t1\tnot-a-price\tnot-a-time",
        ),
        ids=("bad-auction", "bad-bid"),
    )
    def test_malformed_numeric_falls_back_to_serial(
        self, events, query_fn, bad_line
    ):
        # Numeric corruption passes the tag pre-scan and surfaces in the
        # shard phase — before any owner mutation, so the serial replay
        # must reproduce the reference prefix state and exception.
        poisoned = events[:520] + [bad_line] + events[520:620]
        assert _wire_outputs(query_fn, poisoned, 4) == _wire_outputs(
            query_fn, poisoned, 1
        )


# ---------------------------------------------------------------------------
# order-sensitive kernels: split-stream RNG, extract/fold, pane partitioning
# ---------------------------------------------------------------------------


def _windowed_sum():
    from repro.beam import FixedWindows
    from repro.dataflow.windowing import WindowedAggregateFunction

    def guard_sum(acc, value):
        if value > 900.0:
            raise RuntimeError(f"poisoned value {value}")
        return acc + value

    return WindowedAggregateFunction(
        window_fn=FixedWindows(10.0),
        key_fn=lambda v: int(v) % 5,
        timestamp_fn=float,
        reducer=guard_sum,
        initial=0.0,
        name="WindowedSum",
    )


def _run_order_sensitive(make_function, values, parallelism, chunks=2):
    """Run one function's kernel at ``parallelism``; capture every observable.

    Returns (outputs, error, owner state incl. dict insertion order,
    finish results) — the exact serial-reference surface the sharded
    kernels must reproduce, error state included.
    """
    function = make_function()
    function.open()
    kernel = lower_stage(function, parallelism=parallelism)
    outputs = []
    error = None
    step = max(1, len(values) // chunks)
    try:
        for start in range(0, len(values), step):
            outputs.append(kernel(values[start : start + step]))
    except Exception as exc:
        error = (type(exc).__name__, str(exc))
    kernel.flush()
    state = {
        name: (dict(value), list(value))
        for name, value in vars(function).items()
        if isinstance(value, dict)
    }
    scalars = {
        name: value
        for name, value in vars(function).items()
        if isinstance(value, (int, float))
    }
    finish = list(function.finish())
    function.close()
    return outputs, error, state, scalars, finish


class TestOrderSensitiveSharding:
    @pytest.fixture(autouse=True)
    def _engage(self, monkeypatch):
        monkeypatch.setattr(sharding, "SHARD_MIN_CHUNK", 16)

    def test_new_kernels_engage(self):
        sample = get_query("sample").make_function(random.Random(5))
        assert isinstance(
            lower_stage(sample, parallelism=4), sharding.ShardedSampleKernel
        )
        stats = get_query("statistics").make_function(random.Random(5))
        assert isinstance(
            lower_stage(stats, parallelism=4),
            sharding.ShardedStatisticsKernel,
        )
        windowed = get_query("windowed").make_function(random.Random(5))
        assert isinstance(
            lower_stage(windowed, parallelism=4),
            sharding.ShardedWindowedAggregateKernel,
        )
        # P = 1 keeps the plain serial kernels.
        assert not isinstance(
            lower_stage(
                get_query("sample").make_function(random.Random(5)),
                parallelism=1,
            ),
            sharding.ShardedSampleKernel,
        )

    @pytest.mark.parametrize("parallelism", (2, 3, 4))
    def test_sample_split_stream_bit_identical(self, parallelism):
        lines = _lines(1_200)

        def run(p):
            rng = random.Random(41)
            function = get_query("sample").make_function(rng)
            kernel = lower_stage(function, parallelism=p)
            outputs = [kernel(lines[:700]), kernel(lines[700:])]
            kernel.flush()
            # The post-chunk generator state is part of the contract: the
            # next draw anywhere downstream must see the serial stream.
            return outputs, rng.getstate()

        assert run(parallelism) == run(1)

    def test_sample_serial_reference_path_without_numpy(self):
        lines = _lines(800)
        rng = random.Random(41)
        serial = kernels.SampleKernel(0.4, random.Random(41))
        expected = [serial(lines[:500]), serial(lines[500:])]
        sharded = sharding.ShardedSampleKernel(0.4, rng, 4)
        sharded._bulk = False  # NumPy-less host: per-record reference
        assert [sharded(lines[:500]), sharded(lines[500:])] == expected
        serial.flush(), sharded.flush()
        assert rng.getstate() == serial.rng.getstate()

    @pytest.mark.parametrize("parallelism", (2, 3, 4))
    def test_statistics_extract_fold_bit_identical(self, parallelism):
        lines = _lines(900)
        serial = _run_order_sensitive(
            lambda: get_query("statistics").make_function(random.Random(3)),
            lines,
            1,
        )
        assert (
            _run_order_sensitive(
                lambda: get_query("statistics").make_function(random.Random(3)),
                lines,
                parallelism,
            )
            == serial
        )

    def test_statistics_malformed_input_reproduces_serial_error_state(self):
        # A non-string record raises in extraction — strictly before any
        # accumulator mutation — so the sharded fallback must reproduce
        # the serial kernel's error state exactly: untouched accumulators
        # and the identical exception from the identical record.
        poisoned = _lines(300) + [None] + _lines(60, seed=9)
        make = lambda: get_query("statistics").make_function(random.Random(3))
        serial = _run_order_sensitive(make, poisoned, 1, chunks=1)
        sharded = _run_order_sensitive(make, poisoned, 4, chunks=1)
        assert sharded == serial
        assert serial[1] is not None  # the poison actually bit

    @pytest.mark.parametrize("parallelism", (2, 3, 4))
    def test_windowed_pane_partition_bit_identical(self, parallelism):
        rng = random.Random(13)
        values = [rng.uniform(0.0, 200.0) for _ in range(1_000)]
        serial = _run_order_sensitive(_windowed_sum, values, 1)
        sharded = _run_order_sensitive(_windowed_sum, values, parallelism)
        assert sharded == serial
        # Not just equal dicts: the same first-occurrence pane order.
        assert sharded[2]["panes"][1] == serial[2]["panes"][1]
        assert serial[4]  # panes actually fired at finish

    def test_windowed_counting_query_bit_identical(self):
        lines = _lines(800)
        make = lambda: get_query("windowed").make_function(random.Random(3))
        assert _run_order_sensitive(make, lines, 4) == _run_order_sensitive(
            make, lines, 1
        )

    def test_windowed_malformed_timestamp_reproduces_serial_error_state(self):
        rng = random.Random(13)
        values = [rng.uniform(0.0, 200.0) for _ in range(400)]
        poisoned = values[:350] + ["not-a-timestamp"] + values[350:]
        serial = _run_order_sensitive(_windowed_sum, poisoned, 1, chunks=1)
        sharded = _run_order_sensitive(_windowed_sum, poisoned, 4, chunks=1)
        assert sharded == serial
        assert serial[1] is not None

    def test_windowed_degenerate_timestamp_matches_serial(self):
        # inf collapses the window bounds; the sharded driver defers to
        # the serial kernel, which delegates validation to the window fn.
        rng = random.Random(13)
        values = [rng.uniform(0.0, 200.0) for _ in range(400)]
        poisoned = values[:380] + [float("inf")] + values[380:]
        assert _run_order_sensitive(
            _windowed_sum, poisoned, 4, chunks=1
        ) == _run_order_sensitive(_windowed_sum, poisoned, 1, chunks=1)

    def test_windowed_reducer_error_reproduces_serial_error_state(self):
        # The reducer raises mid-fold on a shard: shard-local dicts only
        # were touched, so the serial replay must reproduce the reference
        # prefix pane mutations plus the identical exception.
        rng = random.Random(13)
        values = [rng.uniform(0.0, 200.0) for _ in range(400)]
        poisoned = values[:310] + [950.0] + values[310:]
        serial = _run_order_sensitive(_windowed_sum, poisoned, 1, chunks=1)
        sharded = _run_order_sensitive(_windowed_sum, poisoned, 4, chunks=1)
        assert sharded == serial
        assert serial[1] == ("RuntimeError", "poisoned value 950.0")
        assert serial[2]["panes"][0]  # prefix panes were mutated

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
        # No spec at all: mid-stream firing never lowers to any kernel
        # tier, so there is nothing to shard (the documented honest edge).
        assert lower_stage(function, parallelism=4) is None
