"""The compiled-kernel tier is observationally identical to the reference.

``StreamPump.vectorized = True`` (the production default) routes
spec-declaring operators through ``repro.dataflow.kernels``.  This must
be a pure host-side optimisation: for every system × query × API
combination the simulated world — run durations, broker-timestamp
measurements, output topic contents, cost totals, operator metrics — has
to be **bit-identical** to the per-record reference loop.  This suite
runs the full benchmark matrix both ways under one fixed seed (the
harness feeds the pump slab columns, so the slab fast paths are
exercised), repeats the comparison under broker chaos, and
property-tests that the sample kernel consumes the *exact same RNG
stream* as per-record draws.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.dataflow.kernels as kernels
from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.harness import StreamBenchHarness
from repro.broker.faults import FaultPlan, NodeOutage
from repro.dataflow.functions import FilterFunction, IdentityFunction, compose
from repro.dataflow.kernels import KernelSpec
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from tests.slabs import slab_column

SYSTEMS = ("flink", "spark", "apex")
QUERIES = ("identity", "sample", "projection", "grep")
KINDS = ("native", "beam")
PARALLELISMS = (1, 2)

#: The two execution tiers as their ``StreamPump.vectorized`` setting.
TIERS = {"kernel": True, "reference": False}


def _campaign() -> tuple[list, dict, float]:
    """Run the full matrix at the active tier; return (runs, outputs, now).

    Mirrors ``test_batch_equivalence._campaign``: explicit ``run_setup``
    calls on one shared world, with every cell's output topic captured
    straight from the partition log's column storage.
    """
    config = BenchmarkConfig(
        records=2_000,
        runs=2,
        parallelisms=PARALLELISMS,
        systems=SYSTEMS,
        queries=QUERIES,
        kinds=KINDS,
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
    for system in config.systems:
        for query in config.queries:
            for kind in config.kinds:
                for parallelism in config.parallelisms:
                    runs.extend(harness.run_setup(system, query, kind, parallelism))
    return runs, outputs, harness.simulator.now()


@pytest.fixture(scope="module")
def campaigns():
    """One full-matrix campaign per tier.

    The harness sends the workload as a slab column, so the kernel
    campaign's native cells take the slab paths.
    """
    results = {}
    mp = pytest.MonkeyPatch()
    try:
        for tier, vectorized in TIERS.items():
            mp.setattr(StreamPump, "vectorized", vectorized)
            results[tier] = _campaign()
    finally:
        mp.undo()
    return results


class TestFullMatrixEquivalence:
    def test_run_records_bit_identical(self, campaigns):
        """Durations, measurements and counts agree for all 96 runs."""
        kernel_runs = campaigns["kernel"][0]
        assert len(kernel_runs) == len(SYSTEMS) * len(QUERIES) * len(KINDS) * len(
            PARALLELISMS
        ) * 2
        assert kernel_runs == campaigns["reference"][0]

    def test_output_topics_bit_identical(self, campaigns):
        """Every setup's output records match value for value, in order."""
        kernel_out = campaigns["kernel"][1]
        reference_out = campaigns["reference"][1]
        assert kernel_out.keys() == reference_out.keys()
        for setup, values in kernel_out.items():
            assert values == reference_out[setup], f"outputs diverge for {setup}"

    def test_simulated_clock_bit_identical(self, campaigns):
        """Total campaign simulated time is exactly equal across tiers."""
        assert campaigns["kernel"][2] == campaigns["reference"][2]


class TestChaosEquivalence:
    """Tier choice changes nothing under broker chaos either.

    Chaos draws ride the request sequence (guards, retries, jittered
    backoff); if any tier issued even one extra or reordered broker
    request, the fault schedule would land differently and the reports
    would diverge.
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
            systems=("flink", "spark"),
            queries=("grep", "identity"),
            kinds=KINDS,
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
        """The fault plan fired (the equality above is not vacuous)."""
        assert chaos_reports["kernel"].sender_report.retries > 0


# ---------------------------------------------------------------------------
# Sample RNG stream property


def _sample_function(seed: int, fraction: float) -> FilterFunction:
    rng = random.Random(seed)
    return FilterFunction(
        lambda _v: rng.random() < fraction,
        name="Sample",
        kernel_spec=KernelSpec.bernoulli(fraction, rng),
    )


def _pump_sample(
    records: list, seed: int, fraction: float, tier: str
) -> tuple[list, object, object]:
    """Run a sample pipeline at ``tier``; return (outputs, rng state, result)."""
    function = _sample_function(seed, fraction)
    function.open()
    pump = StreamPump(
        simulator=Simulator(seed=3),
        stages=[
            PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
            PhysicalStage(
                "op", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=function
            ),
            PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-6)),
        ],
        variance=RunVariance(),
        rng=random.Random(3),
        chunk_size=17,  # deliberately awkward chunk boundaries
    )
    pump.vectorized = TIERS[tier]
    outputs: list = []
    pump.emit = outputs.extend
    result = pump.run(records)
    function.close()
    # The function's rng is shared with its kernel spec; after flush it
    # must hold the true post-run MT19937 state.
    return outputs, function.kernel_spec.rng.getstate(), result


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    count=st.integers(min_value=0, max_value=300),
)
def test_sample_draws_identical_rng_stream(seed, fraction, count):
    """The mask kernel consumes the exact per-record Bernoulli stream.

    For any seed, fraction and input size, both tiers must select the
    same records AND leave the Python RNG in the same state — i.e. the
    transplanted MT19937 advanced draw-for-draw identically.
    """
    records = [f"rec-{i}" for i in range(count)]
    out_ref, state_ref, result_ref = _pump_sample(records, seed, fraction, "reference")
    outputs, state, result = _pump_sample(records, seed, fraction, "kernel")
    assert outputs == out_ref
    assert state == state_ref
    assert result.records_out == result_ref.records_out
    assert result.duration == result_ref.duration


def test_sample_rng_state_continues_across_runs():
    """Back-to-back kernel runs resume the stream where the last stopped."""
    records = [f"rec-{i}" for i in range(100)]

    def two_runs(tier: str):
        function = _sample_function(99, 0.4)
        function.open()
        picked = []
        for _ in range(2):
            pump = StreamPump(
                simulator=Simulator(seed=3),
                stages=[
                    PhysicalStage(
                        "op",
                        StageKind.OPERATOR,
                        StageCosts(per_weight=1e-6),
                        function=function,
                    ),
                ],
                variance=RunVariance(),
                rng=random.Random(3),
            )
            pump.vectorized = TIERS[tier]
            pump.emit = picked.extend
            pump.run(records)
        function.close()
        return picked, function.kernel_spec.rng.getstate()

    assert two_runs("kernel") == two_runs("reference")


# ---------------------------------------------------------------------------
# Slab fast path through the pump


def _grep_stages(function=None):
    from repro.workloads.aol import GREP_NEEDLE

    function = function or FilterFunction(
        lambda v: GREP_NEEDLE in v,
        name="Grep",
        kernel_spec=KernelSpec.contains(GREP_NEEDLE),
    )
    return [
        PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
        PhysicalStage(
            "op", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=function
        ),
        PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-6)),
    ]


def _pump_stages(stages, records, tier="kernel"):
    pump = StreamPump(
        simulator=Simulator(seed=3),
        stages=stages,
        variance=RunVariance(),
        rng=random.Random(3),
    )
    pump.vectorized = TIERS[tier]
    outputs: list = []
    pump.emit = outputs.extend
    result = pump.run(records)
    return outputs, result


class TestSlabPumpPath:
    def test_slab_path_taken_and_identical(self, monkeypatch):
        """The pump serves grep over a slab column from the slab scan."""
        from repro.workloads.aol import generate_records

        column = slab_column(generate_records(1_000))
        calls = []
        original = kernels.GrepKernel.call_slab

        def spying(self, slab, base, values):
            calls.append(base)
            return original(self, slab, base, values)

        monkeypatch.setattr(kernels.GrepKernel, "call_slab", spying)
        outputs, _ = _pump_stages(_grep_stages(), column)
        reference, _ = _pump_stages(_grep_stages(), column, tier="reference")
        assert calls, "slab path was not taken"
        assert outputs == reference
        # Slab grep emits rows of the slab's one decoded list, not copies.
        by_identity = {id(r) for r in column.slab.records}
        assert all(id(v) in by_identity for v in outputs)

    def test_leading_identity_keeps_slab_eligibility(self, monkeypatch):
        """An identity stage passes chunks through without breaking the
        downstream kernel's slab path (zero-copy preserves identity)."""
        from repro.workloads.aol import GREP_NEEDLE, generate_records

        records = generate_records(500)
        calls = []
        original = kernels.GrepKernel.call_slab

        def spying(self, slab, base, values):
            calls.append(base)
            return original(self, slab, base, values)

        monkeypatch.setattr(kernels.GrepKernel, "call_slab", spying)
        stages = [
            PhysicalStage(
                "wrap",
                StageKind.OPERATOR,
                StageCosts(per_weight=1e-6),
                function=IdentityFunction(),
            ),
            *_grep_stages()[1:],
        ]
        outputs, _ = _pump_stages(stages, slab_column(records))
        assert calls, "identity stage broke the slab path"
        assert outputs == [v for v in records if GREP_NEEDLE in v]

    def test_transformed_chunks_leave_slab_path(self):
        """After a non-slab transform the grep kernel gets real values."""
        from repro.workloads.aol import GREP_NEEDLE, generate_records

        records = generate_records(500)
        upper = compose(
            [
                FilterFunction(
                    lambda v: GREP_NEEDLE in v,
                    name="Grep",
                    kernel_spec=KernelSpec.contains(GREP_NEEDLE),
                ),
            ]
        )
        sample_rng = random.Random(7)
        sample = FilterFunction(
            lambda _v: sample_rng.random() < 0.5,
            name="Sample",
            kernel_spec=KernelSpec.bernoulli(0.5, sample_rng),
        )
        stages = [
            PhysicalStage(
                "sample",
                StageKind.OPERATOR,
                StageCosts(per_weight=1e-6),
                function=sample,
            ),
            PhysicalStage(
                "grep", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=upper
            ),
        ]
        outputs, _ = _pump_stages(stages, slab_column(records))

        ref_rng = random.Random(7)
        expected = [
            v for v in records if ref_rng.random() < 0.5 and GREP_NEEDLE in v
        ]
        assert outputs == expected

    def test_records_with_newlines_fall_back_correctly(self):
        """A records list whose records embed newlines takes grep's list
        path, whose blob guard refuses the bulk scan; outputs stay exact."""
        records = [f"line-{i}\nneedle-{i}" if i % 7 == 0 else f"line-{i}" for i in range(200)]
        function = FilterFunction(
            lambda v: "needle" in v,
            name="Grep",
            kernel_spec=KernelSpec.contains("needle"),
        )
        stages = _grep_stages(function)
        outputs, _ = _pump_stages(stages, records)
        assert outputs == [v for v in records if "needle" in v]

    def test_recovery_chunk_path_flushes_per_chunk(self):
        """_process_chunk (the recovery entry point) stays slab-free and
        leaves no kernel state behind between chunks."""
        from repro.workloads.aol import GREP_NEEDLE, generate_records
        from repro.dataflow.metrics import JobMetrics

        records = generate_records(200)
        function = FilterFunction(
            lambda v: GREP_NEEDLE in v,
            name="Grep",
            kernel_spec=KernelSpec.contains(GREP_NEEDLE),
        )
        pump = StreamPump(
            simulator=Simulator(seed=3),
            stages=_grep_stages(function),
            variance=RunVariance(),
            rng=random.Random(3),
        )
        metrics = JobMetrics("job")
        _, outputs = pump._process_chunk(records[:100], metrics)
        kernel = pump.stages[1].cached_kernel()
        assert kernel is not None
        # No slab state survives the chunk.
        assert not any(isinstance(v, kernels.WorkloadSlab) for v in vars(kernel).values())
        assert outputs == [v for v in records[:100] if GREP_NEEDLE in v]
