"""Tests for repro.benchmark.capacity: probes, knee search, determinism."""

import random
from array import array
from dataclasses import fields

import numpy as np
import pytest

from repro.benchmark.capacity import (
    CapacityRunner,
    ProbeResult,
    arrival_instants,
    estimate_service_rate,
    find_capacity,
    run_probe,
)
from repro.benchmark.config import BenchmarkConfig, CapacitySettings
from repro.benchmark.loadgen import make_arrivals
from repro.engines.common.pump import StreamPump


SMALL = CapacitySettings(records=2_000, queue_bound=500, search_iterations=3)


def config(**overrides):
    defaults = dict(capacity=SMALL, systems=("flink",), queries=("grep",))
    defaults.update(overrides)
    return BenchmarkConfig(**defaults)


class TestProbe:
    def test_sustainable_probe_drains_within_grace(self):
        cfg = config()
        rate = estimate_service_rate(cfg, "flink", "grep") * 0.5
        probe = run_probe(cfg, "flink", "grep", rate)
        assert probe.sustainable
        assert probe.shed == 0
        assert probe.accepted == SMALL.records
        assert probe.elapsed <= probe.offer_window * (1 + SMALL.grace)

    def test_overload_probe_is_unsustainable_but_terminates(self):
        cfg = config()
        rate = estimate_service_rate(cfg, "flink", "grep") * 4.0
        probe = run_probe(cfg, "flink", "grep", rate)
        assert not probe.sustainable
        # Backpressure, not loss: everything lands, just late.
        assert probe.accepted == SMALL.records
        assert probe.offered == probe.accepted + probe.shed
        assert probe.max_queue_depth <= SMALL.queue_bound
        assert probe.elapsed > probe.offer_window * (1 + SMALL.grace)

    def test_percentiles_are_ordered(self):
        cfg = config()
        rate = estimate_service_rate(cfg, "flink", "grep") * 0.8
        probe = run_probe(cfg, "flink", "grep", rate)
        assert probe.event_p50 <= probe.event_p95 <= probe.event_p99
        assert probe.proc_p50 <= probe.proc_p95 <= probe.proc_p99
        # Event time includes the nominal wait before admission.
        assert probe.event_p99 >= probe.proc_p99

    def test_probe_is_deterministic(self):
        cfg = config()
        a = run_probe(cfg, "apex", "sample", 100_000.0)
        b = run_probe(cfg, "apex", "sample", 100_000.0)
        assert a == b

    def test_probe_identical_across_planes(self, list_world):
        cfg = config()
        with list_world():
            list_plane = run_probe(cfg, "spark", "grep", 120_000.0)
        assert list_plane == run_probe(cfg, "spark", "grep", 120_000.0)

    def test_probe_identical_across_tiers(self):
        cfg = config()
        results = {}
        tiers = {
            "tuple": (False, False),
            "batch": (True, False),
            "kernel": (True, True),
        }
        saved = (StreamPump.vectorized, StreamPump.use_kernels)
        try:
            for tier, (vectorized, use_kernels) in tiers.items():
                StreamPump.vectorized = vectorized
                StreamPump.use_kernels = use_kernels
                results[tier] = run_probe(cfg, "flink", "projection", 50_000.0)
        finally:
            StreamPump.vectorized, StreamPump.use_kernels = saved
        assert results["tuple"] == results["batch"] == results["kernel"]


def per_record_arrivals(batches, started):
    """Arrival instants one record at a time, in Python floats: the
    reference for the NumPy column :func:`arrival_instants` builds."""
    arrivals = array("d")
    prev = 0.0
    for count, offset in batches:
        step = (offset - prev) / count
        base = started + prev
        arrivals.extend(base + step * (i + 1) for i in range(count))
        prev = offset
    return arrivals


BURSTY = CapacitySettings(records=25_000, queue_bound=500, process="bursty")

#: A bursty P=2 probe (three burst cycles, a saturated queue), as the
#: per-record Python latency loop computed it.
BURSTY_PROBE = ProbeResult(
    rate=300000.0,
    sustainable=True,
    offered=25000,
    accepted=25000,
    shed=0,
    blocked_seconds=0.038532900000000064,
    max_queue_depth=500,
    offer_window=0.08333333333333333,
    elapsed=0.08416073333333335,
    event_p50=0.009158296364239812,
    event_p95=0.02297045990370212,
    event_p99=0.025021458506348,
    proc_p50=0.0012548000000000281,
    proc_p95=0.0014723999999999848,
    proc_p99=0.0015149510972445185,
    shard_costs=(0.02009599999999998, 0.020083999999999987),
)

LATENCY_FIELDS = ("event_p50", "event_p95", "event_p99", "proc_p50", "proc_p95", "proc_p99")


class TestLatencyColumns:
    """The probe's arrival and latency columns are NumPy arrays, computed
    with the same IEEE-754 operations as a per-record loop."""

    @pytest.mark.parametrize("process", ["uniform", "bursty"])
    def test_arrival_column_matches_per_record_loop(self, process):
        schedule = make_arrivals(process, 123_457.0).schedule(
            25_013, 200, random.Random(11)
        )
        batches = tuple(schedule)
        started = 0.1 + 0.2
        column = arrival_instants(batches, started)
        assert column.dtype == np.float64
        assert column.tobytes() == per_record_arrivals(batches, started).tobytes()

    def test_bursty_probe_reproduces_recorded_result(self):
        cfg = config(capacity=BURSTY)
        probe = run_probe(cfg, "flink", "grep", 300_000.0, parallelism=2)
        for name in (f.name for f in fields(ProbeResult)):
            assert repr(getattr(probe, name)) == repr(getattr(BURSTY_PROBE, name)), name

    @pytest.mark.parametrize(
        "settings, parallelism", [(SMALL, 1), (BURSTY, 2)], ids=["uniform", "bursty"]
    )
    def test_latency_fields_are_python_floats(self, settings, parallelism):
        probe = run_probe(
            config(capacity=settings), "flink", "grep", 300_000.0, parallelism=parallelism
        )
        for name in LATENCY_FIELDS:
            assert type(getattr(probe, name)) is float, name


class TestKneeSearch:
    def test_finds_a_bracketed_knee(self):
        cfg = config()
        cell = find_capacity(cfg, "flink", "grep")
        assert cell.sustainable_rate > 0
        assert cell.probes >= 1 + SMALL.search_iterations
        # The knee is genuinely the boundary: sustainable at the knee,
        # unsustainable a factor above it.
        at_knee = run_probe(cfg, "flink", "grep", cell.sustainable_rate)
        above = run_probe(cfg, "flink", "grep", cell.sustainable_rate * 2.0)
        assert at_knee.sustainable
        assert not above.sustainable

    def test_overload_at_twice_the_knee_is_safe(self, list_world):
        """Overload stays bounded, fed the slab column or the record list."""
        cfg = config()
        cell = find_capacity(cfg, "flink", "grep")
        overload = cell.sustainable_rate * 2.0
        with list_world():
            list_fed = run_probe(cfg, "flink", "grep", overload)
        for probe in (list_fed, run_probe(cfg, "flink", "grep", overload)):
            assert probe.max_queue_depth <= SMALL.queue_bound
            assert probe.offered == probe.accepted + probe.shed
            assert probe.accepted == SMALL.records  # terminated, no loss

    def test_search_is_deterministic(self):
        cfg = config()
        a = find_capacity(cfg, "spark", "sample")
        b = find_capacity(cfg, "spark", "sample")
        assert a == b


class TestCapacityReport:
    def test_serial_parallel_bit_identical(self):
        cfg = config(systems=("flink", "apex"), queries=("grep", "identity"))
        runner = CapacityRunner(cfg)
        serial = runner.run(parallel=False)
        parallel = runner.run(parallel=True, workers=2)
        assert serial.cells == parallel.cells

    def test_grid_order_and_lookup(self):
        cfg = config(systems=("flink", "spark"), queries=("grep",))
        report = CapacityRunner(cfg).run()
        assert [(c.system, c.query) for c in report.cells] == [
            ("flink", "grep"),
            ("spark", "grep"),
        ]
        assert report.cell("spark", "grep").system == "spark"
        with pytest.raises(KeyError):
            report.cell("spark", "identity")

    def test_harness_entry_point(self):
        from repro.benchmark.harness import StreamBenchHarness

        harness = StreamBenchHarness(config())
        report = harness.run_capacity()
        assert len(report.cells) == 1
        assert report.cells[0].queue_bound == SMALL.queue_bound

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            CapacitySettings(records=0)
        with pytest.raises(ValueError):
            CapacitySettings(queue_bound=0)
        with pytest.raises(ValueError):
            CapacitySettings(grace=-0.1)
        with pytest.raises(ValueError):
            CapacitySettings(process="poisson")
        with pytest.raises(ValueError):
            CapacitySettings(stall_timeout=0.0)

    def test_render_capacity(self):
        from repro.benchmark.reporting import render_capacity

        cfg = config()
        report = CapacityRunner(cfg).run()
        text = render_capacity(report)
        assert "Sustainable throughput" in text
        assert "Flink" in text
        assert "grep" in text


SWEEP = CapacitySettings(
    records=2_000,
    queue_bound=500,
    search_iterations=3,
    parallelisms=(1, 2, 4),
    kinds=("native", "beam"),
)


class TestParallelProbes:
    """Capacity probes at P > 1: pump-pool drain, same open-loop physics."""

    def test_parallel_probe_drains_and_accounts(self):
        # The pipeline estimate scales with P but the broker append path
        # does not, so 0.5x the P=4 estimate already overloads; 0.15x is
        # safely below the serial fraction's ceiling.
        cfg = config()
        rate = estimate_service_rate(cfg, "flink", "grep", parallelism=4) * 0.15
        probe = run_probe(cfg, "flink", "grep", rate, parallelism=4)
        assert probe.sustainable
        assert probe.accepted == SMALL.records
        assert probe.offered == probe.accepted + probe.shed

    def test_parallel_probe_is_deterministic(self):
        cfg = config()
        a = run_probe(cfg, "apex", "sample", 100_000.0, parallelism=2)
        b = run_probe(cfg, "apex", "sample", 100_000.0, parallelism=2)
        assert a == b

    def test_parallelism_one_matches_legacy_path(self):
        # P=1 goes through the exact serial pump with the old stream
        # names — a probe asked for parallelism=1 must equal one that
        # never mentioned parallelism at all.
        cfg = config()
        legacy = run_probe(cfg, "flink", "grep", 80_000.0)
        explicit = run_probe(cfg, "flink", "grep", 80_000.0, parallelism=1)
        assert explicit == legacy

    def test_knee_grows_sublinearly_with_parallelism(self):
        # More pipeline parallelism raises the knee, but the broker
        # append/fetch path stays serial (Amdahl) and the engines charge
        # per-record coordination — so speedup stays below linear.
        cfg = config()
        knees = {
            p: find_capacity(cfg, "flink", "grep", parallelism=p).sustainable_rate
            for p in (1, 2, 4)
        }
        assert knees[1] < knees[2] < knees[4]
        assert knees[2] < 2 * knees[1]
        assert knees[4] < 4 * knees[1]

    def test_beam_knee_below_native(self):
        # The abstraction penalty holds at the capacity knee too.
        cfg = config()
        for parallelism in (1, 2):
            native = find_capacity(
                cfg, "flink", "grep", kind="native", parallelism=parallelism
            )
            beam = find_capacity(
                cfg, "flink", "grep", kind="beam", parallelism=parallelism
            )
            assert beam.sustainable_rate < native.sustainable_rate

    def test_beam_estimate_includes_runner_overheads(self):
        cfg = config()
        native = estimate_service_rate(cfg, "spark", "grep", kind="native")
        beam = estimate_service_rate(cfg, "spark", "grep", kind="beam")
        assert beam < native


class TestScalabilityReport:
    def test_sweep_shape_order_and_lookups(self):
        cfg = config(capacity=SWEEP)
        report = CapacityRunner(cfg).run_scalability()
        assert [
            (c.system, c.kind, c.query, c.parallelism) for c in report.cells
        ] == [
            ("flink", kind, "grep", p)
            for kind in ("native", "beam")
            for p in (1, 2, 4)
        ]
        assert report.cell("flink", "beam", "grep", 4).parallelism == 4
        curve = report.curve("flink", "native", "grep")
        assert [c.parallelism for c in curve] == [1, 2, 4]
        with pytest.raises(KeyError):
            report.cell("flink", "native", "grep", 8)

    def test_sweep_serial_parallel_bit_identical(self):
        cfg = config(capacity=SWEEP)
        runner = CapacityRunner(cfg)
        serial = runner.run_scalability(parallel=False)
        parallel = runner.run_scalability(parallel=True, workers=2)
        assert serial.cells == parallel.cells

    def test_curves_monotonic_per_kind(self):
        cfg = config(capacity=SWEEP)
        report = CapacityRunner(cfg).run_scalability()
        for kind in ("native", "beam"):
            rates = [
                c.sustainable_rate
                for c in report.curve("flink", kind, "grep")
            ]
            assert rates == sorted(rates)
            assert rates[0] < rates[-1]

    def test_harness_entry_point(self):
        from repro.benchmark.harness import StreamBenchHarness

        cfg = config(
            capacity=CapacitySettings(
                records=2_000,
                queue_bound=500,
                search_iterations=3,
                parallelisms=(1, 2),
                kinds=("native",),
            )
        )
        report = StreamBenchHarness(cfg).run_scalability()
        assert len(report.cells) == 2

    def test_sweep_settings_validation(self):
        with pytest.raises(ValueError):
            CapacitySettings(parallelisms=())
        with pytest.raises(ValueError):
            CapacitySettings(parallelisms=(1, 0))
        with pytest.raises(ValueError):
            CapacitySettings(kinds=())
        with pytest.raises(ValueError):
            CapacitySettings(kinds=("native", "storm"))

    def test_render_scalability(self):
        from repro.benchmark.reporting import render_scalability

        cfg = config(capacity=SWEEP)
        report = CapacityRunner(cfg).run_scalability()
        text = render_scalability(report)
        assert "Scalability curves" in text
        assert "Speedup vs P=1" in text
        assert "1.00x" in text
