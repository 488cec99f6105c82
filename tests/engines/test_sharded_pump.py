"""Contract of the pump pool (``repro.engines.common.sharded.ShardedPump``).

The pool is the capacity search's parallelism axis.  It cuts each polled
chunk into P contiguous spans (``shard_spans``), runs span ``s`` through
shard pump ``s``, charges the slowest shard's cost and returns the
outputs in record order.  These tests pin that merge against plain
:class:`~repro.engines.common.pump.StreamPump` calls fed by hand, and pin
that the shards run on the calling thread.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.benchmark.queries import get_query
from repro.dataflow.functions import FilterFunction, MapFunction
from repro.dataflow.metrics import JobMetrics
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.sharded import ShardedPump, shard_spans
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from repro.workloads.aol import generate_records


def _pump(function) -> StreamPump:
    stages = [
        PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
        PhysicalStage(
            "op",
            StageKind.OPERATOR,
            StageCosts(per_record_in=2e-6, per_weight=1e-6),
            function=function,
        ),
        PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=3e-6)),
    ]
    return StreamPump(
        simulator=Simulator(seed=3),
        stages=stages,
        variance=RunVariance(),
        rng=random.Random(3),
    )


def _query_pump(query: str) -> StreamPump:
    function = get_query(query).make_function(random.Random(11))
    function.open()
    return _pump(function)


def _keep(value: int) -> bool:
    """Sparse early, dense late: shards of one chunk emit unequal counts."""
    return value % 5 == 0 or value >= 700


def _filter_pump() -> StreamPump:
    return _pump(FilterFunction(_keep, name="Keep"))


def _totals(metrics: JobMetrics) -> dict[str, tuple[int, int, float]]:
    return {
        name: (op.records_in, op.records_out, op.busy_seconds)
        for name, op in metrics.operators.items()
    }


#: A chunk shorter than every tested P comes first, so the shards whose
#: spans are empty have seen nothing at all when it has been processed.
CHUNK_SIZES = (1, 2, 397, 300, 500)


def _chunks(values: list) -> list[list]:
    chunks, start = [], 0
    for size in CHUNK_SIZES:
        chunks.append(values[start : start + size])
        start += size
    return chunks


def test_spans_cover_and_balance():
    for total in (0, 1, 7, 512, 1001):
        for parallelism in (1, 2, 3, 8):
            spans = shard_spans(total, parallelism)
            assert len(spans) == parallelism
            assert spans[0][0] == 0 and spans[-1][1] == total
            for (_, stop), (start, _) in zip(spans, spans[1:]):
                assert stop == start
            sizes = [stop - start for start, stop in spans]
            assert min(sizes) >= 0
            assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("query", ("grep", "sample", "windowed"))
def test_one_shard_pool_is_the_plain_pump(query):
    records = generate_records(sum(CHUNK_SIZES))
    pool = ShardedPump([_query_pump(query)])
    plain = _query_pump(query)
    metrics = JobMetrics("job")
    total = 0.0
    for chunk in _chunks(records):
        cost, outputs = plain._process_chunk(chunk, metrics)
        total += cost
        assert pool.process_chunk(chunk) == (cost, outputs)
    cost, outputs = plain.drain(metrics)
    total += cost
    assert pool.drain() == (cost, outputs)
    assert _totals(pool.metrics[0]) == _totals(metrics)
    assert pool.merged_operator_totals() == _totals(metrics)
    assert pool.shard_costs == [total]


@pytest.mark.parametrize("parallelism", (2, 3))
def test_pool_charges_the_straggler_and_keeps_record_order(parallelism):
    values = list(range(sum(CHUNK_SIZES)))
    pool = ShardedPump([_filter_pump() for _ in range(parallelism)])
    shards = [_filter_pump() for _ in range(parallelism)]
    shard_metrics = [JobMetrics(f"shard{s}") for s in range(parallelism)]
    shard_costs = [0.0] * parallelism
    for index, chunk in enumerate(_chunks(values)):
        spans = shard_spans(len(chunk), parallelism)
        costs = []
        for shard, (start, stop) in enumerate(spans):
            if stop > start:
                cost, _ = shards[shard]._process_chunk(
                    chunk[start:stop], shard_metrics[shard]
                )
                shard_costs[shard] += cost
                costs.append(cost)
        cost, outputs = pool.process_chunk(chunk)
        assert cost == max(costs)
        assert outputs == [value for value in chunk if _keep(value)]
        if index == 0:
            # Empty spans are skipped: those shards record nothing.
            ran = [stop > start for start, stop in spans]
            assert ran.count(False) == parallelism - 1
            assert [bool(m.operators) for m in pool.metrics] == ran
        assert pool.shard_costs == shard_costs
    assert len(set(shard_costs)) == parallelism  # the max had a real choice
    assert [_totals(m) for m in pool.metrics] == [_totals(m) for m in shard_metrics]
    merged: dict[str, tuple[int, int, float]] = {}
    for metrics in shard_metrics:
        for name, (records_in, records_out, cost) in _totals(metrics).items():
            before = merged.get(name, (0, 0, 0.0))
            merged[name] = (
                before[0] + records_in,
                before[1] + records_out,
                before[2] + cost,
            )
    assert pool.merged_operator_totals() == merged
    assert merged["source"][0] == len(values)


def test_stage_functions_run_on_the_calling_thread():
    seen: set[int] = set()

    def tag(value):
        seen.add(threading.get_ident())
        return value

    pool = ShardedPump([_pump(MapFunction(tag, name="Tag")) for _ in range(2)])
    _, outputs = pool.process_chunk(list(range(2_000)))
    assert outputs == list(range(2_000))
    assert seen == {threading.get_ident()}
