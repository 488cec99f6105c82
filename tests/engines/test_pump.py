"""Tests for the shared record pump and cost machinery."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.functions import FilterFunction, FlatMapFunction, MapFunction
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from repro.simtime.variance import LognormalNoise, StragglerModel

NO_VARIANCE = RunVariance()


def stage(kind, costs=None, function=None, name=None):
    return PhysicalStage(
        name=name or kind.value,
        kind=kind,
        costs=costs or StageCosts(),
        function=function,
    )


def simple_stages(op_function=None, source_costs=None, sink_costs=None):
    stages = [stage(StageKind.SOURCE, source_costs)]
    if op_function is not None:
        stages.append(stage(StageKind.OPERATOR, function=op_function, name="op"))
    stages.append(stage(StageKind.SINK, sink_costs))
    return stages


class TestStageCosts:
    def test_charge_formula(self):
        costs = StageCosts(
            per_record_in=1.0, per_record_out=2.0, per_weight=3.0, per_rng_draw=4.0
        )
        # 10 in * (1 + 0.5*3) + 10 * 0.2 * 4 + 5 out * 2
        assert costs.charge(10, 5, cost_weight=0.5, rng_draws=0.2) == pytest.approx(
            10 * (1 + 1.5) + 10 * 0.8 + 10
        )

    def test_plus(self):
        costs = StageCosts(per_record_in=1.0).plus(
            extra_per_record_in=0.5, extra_per_record_out=0.25
        )
        assert costs.per_record_in == 1.5
        assert costs.per_record_out == 0.25

    def test_without_entry_hop(self):
        costs = StageCosts(per_record_in=1.0, per_record_out=2.0).without_entry_hop()
        assert costs.per_record_in == 0.0
        assert costs.per_record_out == 2.0


class TestPumpCorrectness:
    def test_records_flow_through_operator(self):
        sim = Simulator(seed=1)
        outputs = []
        pump = StreamPump(
            simulator=sim,
            stages=simple_stages(FilterFunction(lambda v: v % 2 == 0)),
            variance=NO_VARIANCE,
            rng=random.Random(0),
            emit=outputs.extend,
            chunk_size=7,
        )
        result = pump.run(list(range(20)))
        assert outputs == [v for v in range(20) if v % 2 == 0]
        assert result.records_in == 20
        assert result.records_out == 10

    def test_flat_map_expansion_counted(self):
        sim = Simulator(seed=1)
        outputs = []
        pump = StreamPump(
            simulator=sim,
            stages=simple_stages(FlatMapFunction(lambda v: [v, v])),
            variance=NO_VARIANCE,
            rng=random.Random(0),
            emit=outputs.extend,
        )
        result = pump.run([1, 2, 3])
        assert result.records_out == 6
        assert outputs == [1, 1, 2, 2, 3, 3]

    def test_empty_input(self):
        sim = Simulator(seed=1)
        pump = StreamPump(
            simulator=sim,
            stages=simple_stages(),
            variance=NO_VARIANCE,
            rng=random.Random(0),
        )
        result = pump.run([])
        assert result.records_in == 0
        assert result.duration == 0.0
        assert result.first_emit_time is None

    def test_chunk_size_does_not_change_results_or_duration(self):
        def run(chunk_size):
            sim = Simulator(seed=1)
            outputs = []
            pump = StreamPump(
                simulator=sim,
                stages=simple_stages(
                    MapFunction(lambda v: v + 1),
                    source_costs=StageCosts(per_record_in=1e-6),
                    sink_costs=StageCosts(per_record_out=2e-6),
                ),
                variance=NO_VARIANCE,
                rng=random.Random(0),
                emit=outputs.extend,
                chunk_size=chunk_size,
            )
            return pump.run(list(range(1000))), outputs

        r_small, out_small = run(13)
        r_big, out_big = run(500)
        assert out_small == out_big
        assert r_small.base_duration == pytest.approx(r_big.base_duration)

    def test_requires_at_least_one_stage(self):
        with pytest.raises(ValueError):
            StreamPump(
                simulator=Simulator(seed=1),
                stages=[],
                variance=NO_VARIANCE,
                rng=random.Random(0),
            )


class TestPumpTimeAccounting:
    def test_base_duration_matches_linear_model(self):
        sim = Simulator(seed=1)
        pump = StreamPump(
            simulator=sim,
            stages=simple_stages(
                FilterFunction(lambda v: v < 50, cost_weight=2.0),
                source_costs=StageCosts(per_record_in=1e-3),
                sink_costs=StageCosts(per_record_out=2e-3),
            ),
            variance=NO_VARIANCE,
            rng=random.Random(0),
        )
        # operator costs zero here; 100 in, 50 out
        result = pump.run(list(range(100)))
        assert result.base_duration == pytest.approx(100 * 1e-3 + 50 * 2e-3)

    def test_weight_and_rng_charged(self):
        sim = Simulator(seed=1)
        op = FilterFunction(lambda v: True, cost_weight=3.0, rng_draws_per_record=2.0)
        stages = [
            stage(StageKind.SOURCE),
            PhysicalStage(
                name="op",
                kind=StageKind.OPERATOR,
                costs=StageCosts(per_weight=1e-3, per_rng_draw=1e-2),
                function=op,
            ),
            stage(StageKind.SINK),
        ]
        pump = StreamPump(
            simulator=sim, stages=stages, variance=NO_VARIANCE, rng=random.Random(0)
        )
        result = pump.run(list(range(10)))
        assert result.base_duration == pytest.approx(10 * 3 * 1e-3 + 10 * 2 * 1e-2)

    @settings(max_examples=60, deadline=None)
    @given(
        total=st.integers(0, 60),
        chunk_size=st.integers(1, 25),
        charges=st.lists(
            st.sampled_from([0.0, 1e-7, 2e-4, 0.1 + 0.2, 3e-6, 1 / 3]),
            min_size=10,
            max_size=10,
        ),
        weights=st.lists(st.sampled_from([0.0, 0.2, 1.0, 1.3]), min_size=4, max_size=4),
    )
    def test_busy_seconds_are_the_sums_of_stage_charges(
        self, total, chunk_size, charges, weights
    ):
        """Each operator's busy seconds equal, bit for bit, the sum over
        its chunks of ``StageCosts.charge`` with its function's weights,
        at both tiers; a stage after one that emitted nothing is skipped."""
        keep = FilterFunction(
            lambda v: v % 3 != 0, name="Keep", cost_weight=weights[0],
            rng_draws_per_record=weights[1],
        )
        spread = FlatMapFunction(
            lambda v: [v] * (v % 4), name="Spread", cost_weight=weights[2],
            rng_draws_per_record=weights[3],
        )
        costs = [StageCosts(*charges[k : k + 4]) for k in (0, 3, 6)]
        costs.append(StageCosts(per_record_in=charges[0], per_record_out=charges[9]))
        counts = [
            lambda chunk: len(chunk),
            lambda chunk: sum(1 for v in chunk if v % 3 != 0),
            lambda chunk: sum(v % 4 for v in chunk if v % 3 != 0),
        ]
        values = list(range(total))
        expected = {"src": 0.0, "Keep": 0.0, "Spread": 0.0, "snk": 0.0}
        for start in range(0, total, chunk_size):
            chunk = values[start : start + chunk_size]
            n_in = len(chunk)
            steps = [
                ("src", costs[0], n_in, 0.0, 0.0),
                ("Keep", costs[1], counts[1](chunk), keep.cost_weight,
                 keep.rng_draws_per_record),
                ("Spread", costs[2], counts[2](chunk), spread.cost_weight,
                 spread.rng_draws_per_record),
                ("snk", costs[3], counts[2](chunk), 0.0, 0.0),
            ]
            for name, stage_costs, n_out, weight, draws in steps:
                expected[name] += stage_costs.charge(
                    records_in=n_in, records_out=n_out, cost_weight=weight,
                    rng_draws=draws,
                )
                if not n_out:
                    break
                n_in = n_out
        for vectorized in (True, False):
            stages = [
                stage(StageKind.SOURCE, costs[0], name="src"),
                stage(StageKind.OPERATOR, costs[1], keep, name="Keep"),
                stage(StageKind.OPERATOR, costs[2], spread, name="Spread"),
                stage(StageKind.SINK, costs[3], name="snk"),
            ]
            pump = StreamPump(
                simulator=Simulator(seed=1), stages=stages, variance=NO_VARIANCE,
                rng=random.Random(0), chunk_size=chunk_size,
            )
            saved = StreamPump.vectorized
            StreamPump.vectorized = vectorized
            try:
                metrics = pump.run(values).metrics
            finally:
                StreamPump.vectorized = saved
            busy = {name: op.busy_seconds for name, op in metrics.operators.items()}
            assert {name: seconds.hex() for name, seconds in busy.items()} == {
                name: seconds.hex() for name, seconds in expected.items()
            }

    def test_simulated_clock_advances_by_duration(self):
        sim = Simulator(seed=1)
        pump = StreamPump(
            simulator=sim,
            stages=simple_stages(source_costs=StageCosts(per_record_in=1e-3)),
            variance=NO_VARIANCE,
            rng=random.Random(0),
        )
        result = pump.run(list(range(100)))
        assert sim.now() == pytest.approx(result.duration)

    def test_micro_batches_charge_overhead(self):
        def run(batch):
            sim = Simulator(seed=1)
            pump = StreamPump(
                simulator=sim,
                stages=simple_stages(),
                variance=NO_VARIANCE,
                rng=random.Random(0),
                micro_batch_records=batch,
                per_batch_overhead=0.5,
            )
            return pump.run(list(range(100))).base_duration

        assert run(10) == pytest.approx(5.0)  # 10 batches
        assert run(40) == pytest.approx(1.5)  # 3 batches

    def test_on_batch_end_called_per_batch(self):
        sim = Simulator(seed=1)
        ends = []
        pump = StreamPump(
            simulator=sim,
            stages=simple_stages(),
            variance=NO_VARIANCE,
            rng=random.Random(0),
            micro_batch_records=25,
            on_batch_end=lambda: ends.append(1),
        )
        pump.run(list(range(100)))
        assert len(ends) == 4

    def test_emit_timestamps_spread_across_run(self):
        sim = Simulator(seed=1)
        times = []
        pump = StreamPump(
            simulator=sim,
            stages=simple_stages(source_costs=StageCosts(per_record_in=1e-3)),
            variance=NO_VARIANCE,
            rng=random.Random(0),
            emit=lambda chunk: times.append(sim.now()),
            chunk_size=10,
        )
        result = pump.run(list(range(100)))
        assert len(times) == 10
        assert times == sorted(times)
        assert result.first_emit_time < result.last_emit_time


class TestPumpVariance:
    def test_noise_scales_duration(self):
        variance = RunVariance(noise=LognormalNoise(sigma=0.5))
        sim = Simulator(seed=1)
        rng = random.Random(42)
        expected_factor = variance.duration_factor(random.Random(42))
        pump = StreamPump(
            simulator=sim,
            stages=simple_stages(source_costs=StageCosts(per_record_in=1e-3)),
            variance=variance,
            rng=rng,
        )
        result = pump.run(list(range(100)))
        assert result.noise_factor == pytest.approx(expected_factor)
        assert result.duration == pytest.approx(
            result.base_duration * expected_factor + result.additive_delay
        )

    def test_straggler_adds_delay(self):
        variance = RunVariance(
            stragglers=StragglerModel(probability=1.0, scale=5.0, cap=10.0)
        )
        sim = Simulator(seed=1)
        pump = StreamPump(
            simulator=sim,
            stages=simple_stages(source_costs=StageCosts(per_record_in=1e-6)),
            variance=variance,
            rng=random.Random(3),
        )
        result = pump.run(list(range(100)))
        assert result.additive_delay >= 5.0
        assert sim.now() == pytest.approx(result.duration)

    def test_replay_variance_matches_run_draws(self):
        """The fast-repeat contract: replay_variance consumes the rng
        exactly like run() does."""
        variance = RunVariance(
            noise=LognormalNoise(sigma=0.1),
            jitter_abs_sigma=0.2,
            stragglers=StragglerModel(probability=0.5, scale=1.0),
        )

        def run_twice_with_pump():
            sim = Simulator(seed=1)
            rng = random.Random(77)
            results = []
            for _ in range(2):
                pump = StreamPump(
                    simulator=sim,
                    stages=simple_stages(source_costs=StageCosts(per_record_in=1e-4)),
                    variance=variance,
                    rng=rng,
                )
                results.append(pump.run(list(range(50))))
            return [(r.noise_factor, r.additive_delay) for r in results]

        def run_then_replay():
            sim = Simulator(seed=1)
            rng = random.Random(77)
            pump = StreamPump(
                simulator=sim,
                stages=simple_stages(source_costs=StageCosts(per_record_in=1e-4)),
                variance=variance,
                rng=rng,
            )
            first = pump.run(list(range(50)))
            factor, additive = pump.replay_variance()
            return [(first.noise_factor, first.additive_delay), (factor, additive)]

        assert run_twice_with_pump() == run_then_replay()
