"""The stateful kernel tier is observationally identical to the reference.

Keyed counterpart of ``test_kernel_equivalence.py``: the stateful
StreamBench extension queries (wordcount, distinct-count, statistics,
windowed) run through the full benchmark matrix — natively on all three
engines and via Beam on Flink and Apex (the Spark runner refuses stateful
DoFns, the capability gap that shaped the paper's benchmark) — under
both pump tiers, and every simulated observable must be
**bit-identical**: run durations, measurements, output topics,
snapshots.  On the kernel tier the native cells read the broker's slab
column, so the wordcount, statistics and windowed slab paths parse the
AOL fields from bytes; the windowed panes reach the output topic at
drain, in pane order.  The Nexmark pipelines
(Q0–Q5 over *encoded* events, decode composed ahead of the query so the
plan compiler's wire fusion actually engages) get the same treatment
through a raw pump, including pane-dict insertion order for the windowed
Q5.  A chaos campaign repeats the matrix under broker faults, where any
extra or reordered request would land the fault schedule differently.
"""

from __future__ import annotations

import random

import pytest

import repro.dataflow.kernels as kernels
from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.harness import StreamBenchHarness
from repro.benchmark.queries import get_query
from repro.broker.faults import FaultPlan, NodeOutage
from repro.dataflow.compiler import lower_stage
from repro.dataflow.functions import compose
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.recovery import FailureInjector, RecoveringPump
from repro.engines.common.sharded import ShardedPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from repro.workloads.columnar import ColumnarWorkload
from repro.workloads.nexmark import NexmarkGenerator
from repro.workloads.nexmark_queries import (
    nexmark_decode,
    q0_passthrough,
    q1_currency_conversion,
    q2_selection,
    q3_local_item_suggestion,
    q4_category_average,
    q5_hot_items,
)

SYSTEMS = ("flink", "spark", "apex")
KEYED_QUERIES = ("wordcount", "distinct-count", "statistics", "windowed")
PARALLELISMS = (1, 2)

#: The two execution tiers as their ``StreamPump.vectorized`` setting.
TIERS = {"kernel": True, "reference": False}


def _kinds_for(system: str) -> tuple[str, ...]:
    """Stateful queries run natively everywhere, via Beam except on Spark."""
    return ("native",) if system == "spark" else ("native", "beam")


def _campaign() -> tuple[list, dict, float]:
    """Run the keyed matrix at the active tier; return (runs, outputs, now)."""
    config = BenchmarkConfig(
        records=2_000,
        runs=2,
        parallelisms=PARALLELISMS,
        systems=SYSTEMS,
        queries=KEYED_QUERIES,
        kinds=("native", "beam"),
    )
    harness = StreamBenchHarness(config)
    outputs: dict[tuple, list] = {}
    original = harness._execute_once

    def capturing_execute(system, spec, kind, parallelism, rng, data_rng):
        job, measurement = original(system, spec, kind, parallelism, rng, data_rng)
        log = harness.broker.topic(config.output_topic).partition(0)
        outputs[(system, spec.name, kind, parallelism)] = log.read_values(0)
        return job, measurement

    harness._execute_once = capturing_execute
    runs = []
    for system in SYSTEMS:
        for query in KEYED_QUERIES:
            for kind in _kinds_for(system):
                for parallelism in PARALLELISMS:
                    runs.extend(harness.run_setup(system, query, kind, parallelism))
    return runs, outputs, harness.simulator.now()


@pytest.fixture(scope="module")
def campaigns():
    """One keyed-matrix campaign per tier."""
    results = {}
    mp = pytest.MonkeyPatch()
    try:
        for tier, vectorized in TIERS.items():
            mp.setattr(StreamPump, "vectorized", vectorized)
            results[tier] = _campaign()
    finally:
        mp.undo()
    return results


class TestKeyedMatrixEquivalence:
    def test_run_records_bit_identical(self, campaigns):
        """Durations, measurements and counts agree for every keyed run."""
        kernel_runs = campaigns["kernel"][0]
        cells = sum(
            len(_kinds_for(system)) * len(PARALLELISMS) * len(KEYED_QUERIES)
            for system in SYSTEMS
        )
        assert len(kernel_runs) == cells * 2
        assert kernel_runs == campaigns["reference"][0]

    def test_output_topics_bit_identical(self, campaigns):
        """Every setup's output records match value for value, in order."""
        kernel_out = campaigns["kernel"][1]
        reference_out = campaigns["reference"][1]
        assert kernel_out.keys() == reference_out.keys()
        for setup, values in kernel_out.items():
            assert values == reference_out[setup], f"outputs diverge for {setup}"

    def test_simulated_clock_bit_identical(self, campaigns):
        assert campaigns["kernel"][2] == campaigns["reference"][2]


class TestKeyedChaosEquivalence:
    """Tier choice changes nothing for stateful queries under chaos.

    Recovery replays stateful functions from snapshots; if any tier
    snapshotted different state or issued a different request sequence,
    the fault schedule and the replayed outputs would diverge.
    """

    @pytest.fixture(scope="class")
    def chaos_reports(self):
        plan = FaultPlan(
            seed=5,
            error_rate=0.05,
            timeout_rate=0.02,
            latency_jitter=0.0005,
            outages=(NodeOutage(node_id=1, start=0.01, duration=0.05),),
        )
        config = BenchmarkConfig(
            records=1_500,
            runs=2,
            systems=("flink", "apex"),
            queries=("wordcount", "distinct-count"),
            kinds=("native", "beam"),
            parallelisms=(1,),
        )
        reports = {}
        mp = pytest.MonkeyPatch()
        try:
            for tier, vectorized in TIERS.items():
                mp.setattr(StreamPump, "vectorized", vectorized)
                harness = StreamBenchHarness(config, chaos=plan)
                reports[tier] = harness.run_matrix()
        finally:
            mp.undo()
        return reports

    def test_chaos_reports_equal_per_field(self, chaos_reports):
        assert chaos_reports["kernel"].runs == chaos_reports["reference"].runs
        assert chaos_reports["kernel"] == chaos_reports["reference"]

    def test_chaos_actually_bit(self, chaos_reports):
        assert chaos_reports["kernel"].sender_report.retries > 0


# ---------------------------------------------------------------------------
# The windowed pane tally through every pump that drains


def _windowed_stages() -> list[PhysicalStage]:
    function = get_query("windowed").make_function(random.Random(0))
    function.open()
    return [
        PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
        PhysicalStage(
            "op", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=function
        ),
        PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-6)),
    ]


def _windowed_pump(emit=None, chunk_size=None) -> StreamPump:
    return StreamPump(
        simulator=Simulator(seed=3),
        stages=_windowed_stages(),
        variance=RunVariance(),
        rng=random.Random(3),
        emit=emit,
        chunk_size=chunk_size,
    )


def _windowed_run(column) -> list:
    outputs: list = []
    _windowed_pump(outputs.extend, chunk_size=700).run(column)
    return outputs


def _windowed_pool_drain(column) -> list:
    pool = ShardedPump([_windowed_pump() for _ in range(2)])
    for lo in range(0, len(column), 250):
        pool.process_chunk(column[lo : lo + 250])
    return pool.drain()[1]


def _windowed_recovering(column) -> list:
    outputs: list = []
    RecoveringPump(
        simulator=Simulator(seed=3),
        stages=_windowed_stages(),
        rng=random.Random(3),
        emit=outputs.extend,
        checkpoint_interval_records=1_000,
        failure=FailureInjector(at_fraction=0.55),
    ).run(column)
    return outputs


@pytest.mark.parametrize(
    "drive",
    (_windowed_run, _windowed_pool_drain, _windowed_recovering),
    ids=("run", "pool-drain", "recovering"),
)
def test_windowed_panes_at_finish_equal_the_reference_tier(drive):
    """The kernel tier's pane tally reaches ``finish()`` complete: through
    a pump run, a P=2 pool's drain and a checkpointed run that fails in
    mid-run, the drained panes equal the reference tier's, in order."""
    column = ColumnarWorkload.generate(6_000, seed=7109).column()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StreamPump, "vectorized", False)
        expected = drive(column)
    assert len(expected) > 100
    assert repr(drive(column)) == repr(expected)


# ---------------------------------------------------------------------------
# Nexmark pipelines through a raw pump


NEXMARK_PIPELINES = {
    "q0": q0_passthrough,
    "q1": q1_currency_conversion,
    "q2": q2_selection,
    "q3": q3_local_item_suggestion,
    "q4": q4_category_average,
    "q5": lambda: q5_hot_items(window_seconds=3.0),
}


def _pump_nexmark(records: list, query: str, tier: str):
    """Pump encoded events through decode |> query at ``tier``.

    Returns (outputs, result fields, query snapshot, pane order) — every
    observable the kernels could corrupt.  The awkward chunk size forces
    state to survive chunk boundaries; window_seconds=3.0 makes Q5 cross
    many windows inside one chunk.
    """
    function = NEXMARK_PIPELINES[query]()
    composed = compose([nexmark_decode(), function])
    composed.open()
    pump = StreamPump(
        simulator=Simulator(seed=3),
        stages=[
            PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
            PhysicalStage(
                "op", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=composed
            ),
            PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-6)),
        ],
        variance=RunVariance(),
        rng=random.Random(3),
        chunk_size=977,
    )
    pump.vectorized = TIERS[tier]
    outputs: list = []
    pump.emit = outputs.extend
    result = pump.run(records)
    snapshot = function.snapshot() if hasattr(function, "snapshot") else None
    # For Q5 the pane dict's *insertion order* determines finish() order;
    # pin it explicitly so a reordered merge cannot hide behind dict
    # equality.
    pane_order = list(function.panes) if hasattr(function, "panes") else None
    composed.close()
    return (
        outputs,
        (result.records_out, result.duration, result.base_duration),
        snapshot,
        pane_order,
    )


@pytest.fixture(scope="module")
def nexmark_events() -> list:
    return NexmarkGenerator(3_000, seed=11).encoded()


class TestNexmarkPipelineEquivalence:
    @pytest.mark.parametrize("query", sorted(NEXMARK_PIPELINES))
    def test_tiers_bit_identical(self, nexmark_events, query):
        reference = _pump_nexmark(nexmark_events, query, "reference")
        assert _pump_nexmark(nexmark_events, query, "kernel") == reference, (
            f"{query}: kernel tier diverges from the reference loop"
        )

    @pytest.mark.parametrize("query", ("q3", "q4", "q5"))
    def test_wire_fusion_engages(self, query):
        """The equality above is not vacuous: decode |> q3/q4/q5 lowers to
        the fused wire kernel, not the generic decode+query chain."""
        composed = compose([nexmark_decode(), NEXMARK_PIPELINES[query]()])
        expected = {
            "q3": kernels.NexmarkQ3WireKernel,
            "q4": kernels.NexmarkQ4WireKernel,
            "q5": kernels.NexmarkQ5WireKernel,
        }[query]
        assert isinstance(lower_stage(composed), expected)

    def test_q5_emits_panes_at_drain(self, nexmark_events):
        """Q5 actually produces windowed panes (the comparison has teeth)."""
        outputs, _, _, pane_order = _pump_nexmark(nexmark_events, "q5", "kernel")
        assert len(outputs) > 10
        assert pane_order and len(pane_order) == len(outputs)
        auction, window, count = outputs[0]
        assert isinstance(auction, int) and count >= 1
        assert window.end - window.start == pytest.approx(3.0)
