"""Contract of the pump pool (``repro.engines.common.sharded.ShardedPump``).

The pool is the capacity search's parallelism axis.  It cuts each polled
chunk into P contiguous spans (``shard_spans``), runs span ``s`` through
shard pump ``s``, charges the slowest shard's cost and returns the
shards' non-empty outputs, unjoined, in record order.  These tests pin
that merge, with the outputs concatenated, against plain
:class:`~repro.engines.common.pump.StreamPump` calls fed by hand, pin
that the shards run on the calling thread, and pin that stepping without
per-chunk kernel flushes, then flushing once, matches the per-chunk
``_process_chunk`` loop.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark.queries import get_query
from repro.dataflow.functions import FilterFunction, MapFunction
from repro.dataflow.kernels import SlabColumn
from repro.dataflow.metrics import JobMetrics
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.sharded import ShardedPump, shard_spans
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from repro.workloads.aol import generate_records
from repro.workloads.columnar import ColumnarWorkload


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
    return _seeded_pump(query, 11)[0]


def _seeded_pump(query: str, seed: int) -> tuple[StreamPump, random.Random]:
    """A query pump and the data RNG its function draws from."""
    rng = random.Random(seed)
    function = get_query(query).make_function(rng)
    function.open()
    return _pump(function), rng


def _keep(value: int) -> bool:
    """Sparse early, dense late: shards of one chunk emit unequal counts."""
    return value % 5 == 0 or value >= 700


def _filter_pump() -> StreamPump:
    return _pump(FilterFunction(_keep, name="Keep"))


def _joined(parts: list) -> list:
    """The pool's per-shard outputs concatenated, in shard order."""
    joined: list = []
    for part in parts:
        assert len(part) > 0  # the pool hands out non-empty outputs only
        joined.extend(part)
    return joined


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
        pool_cost, parts = pool.process_chunk(chunk)
        assert pool_cost == cost
        assert len(parts) == (1 if outputs else 0)
        assert _joined(parts) == outputs
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
        cost, parts = pool.process_chunk(chunk)
        assert cost == max(costs)
        assert _joined(parts) == [value for value in chunk if _keep(value)]
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
    _, parts = pool.process_chunk(list(range(2_000)))
    assert _joined(parts) == list(range(2_000))
    assert seen == {threading.get_ident()}


#: A small AOL workload for the stepping properties (column and list forms).
WORKLOAD = ColumnarWorkload.generate(1_200, seed=7105)


def _totals_of(pumps_metrics) -> list[dict[str, tuple[int, int, float]]]:
    return [_totals(metrics) for metrics in pumps_metrics]


@settings(max_examples=60, deadline=None)
@given(
    query=st.sampled_from(("sample", "grep", "statistics")),
    parallelism=st.sampled_from((1, 2, 3)),
    container=st.sampled_from(("column", "list")),
    sizes=st.lists(st.integers(0, 200), min_size=1, max_size=10),
)
def test_stepping_then_one_flush_matches_per_chunk_flushes(
    query, parallelism, container, sizes
):
    """Random chunkings through the pool, flushed once at the end, equal
    per-shard ``_process_chunk`` loops: costs, outputs by value, metrics
    and every shard's data RNG."""
    values = WORKLOAD.column() if container == "column" else WORKLOAD.records
    pool_pumps, pool_rngs = zip(*(_seeded_pump(query, s) for s in range(parallelism)))
    shards, shard_rngs = zip(*(_seeded_pump(query, s) for s in range(parallelism)))
    pool = ShardedPump(pool_pumps)
    shard_metrics = [JobMetrics(f"shard{s}") for s in range(parallelism)]
    start = 0
    for size in sizes:
        chunk = values[start : start + size]
        start += size
        cost, outputs, expected = 0.0, [], []
        for shard, (lo, hi) in enumerate(shard_spans(len(chunk), parallelism)):
            if hi > lo:
                shard_cost, shard_outputs = shards[shard]._process_chunk(
                    chunk[lo:hi], shard_metrics[shard]
                )
                cost = max(cost, shard_cost)
                expected.extend(shard_outputs)
        pool_cost, parts = pool.process_chunk(chunk)
        assert pool_cost == cost
        assert _joined(parts) == expected
    pool.flush()
    assert [rng.getstate() for rng in pool_rngs] == [rng.getstate() for rng in shard_rngs]
    assert _totals_of(pool.metrics) == _totals_of(shard_metrics)
    assert [p.stages[1].function.snapshot() for p in pool.pumps] == [
        p.stages[1].function.snapshot() for p in shards
    ]


@pytest.mark.parametrize("parallelism", (1, 2, 3))
@pytest.mark.parametrize("query", ("grep", "sample"))
def test_pool_joins_column_outputs_without_decoding(query, parallelism):
    """Each shard's output over a slab window comes back as the shard's
    own row selection, so the slab stays undecoded until the outputs are
    concatenated and compared, by value, with per-shard plain pumps'."""
    workload = ColumnarWorkload.generate(3_000, seed=7106)
    column = workload.column()
    chunks = [column[lo : lo + 750] for lo in range(0, 3_000, 750)]
    pool = ShardedPump([_query_pump(query) for _ in range(parallelism)])
    outputs = [pool.process_chunk(chunk)[1] for chunk in chunks]
    pool.flush()
    assert workload.to_slab().records is None
    assert all(
        type(part) is SlabColumn and part.rows is not None
        for parts in outputs
        for part in parts
    )
    shards = [_query_pump(query) for _ in range(parallelism)]
    metrics = JobMetrics("plain")
    for chunk, parts in zip(chunks, outputs):
        expected = []
        for shard, (lo, hi) in enumerate(shard_spans(len(chunk), parallelism)):
            expected.extend(shards[shard]._process_chunk(chunk[lo:hi], metrics)[1])
        assert _joined(parts) == expected


@pytest.mark.parametrize("parallelism", (1, 2, 4))
def test_probe_projects_each_slab_once(parallelism, monkeypatch):
    """A projection probe's pump pool projects the input slab once, for
    every shard, and decodes neither the input slab nor its column."""
    from repro.benchmark import BenchmarkConfig
    from repro.benchmark.capacity import run_probe
    from repro.dataflow import kernels
    from repro.workloads.cache import clear_memo

    projected: list = []
    project = kernels.ColumnKernel._project_slab

    def counting_project(self, slab):
        column = project(self, slab)
        projected.append((slab, column))
        return column

    monkeypatch.setattr(kernels.ColumnKernel, "_project_slab", counting_project)
    clear_memo()  # a fresh input slab, with nothing memoised on it
    config = BenchmarkConfig(seed=8302)
    result = run_probe(config, "flink", "projection", 50_000.0, parallelism=parallelism)
    assert result.accepted == config.capacity.records
    [(slab, column)] = projected
    assert column is not None
    assert slab.records is None
    assert column.slab.records is None
