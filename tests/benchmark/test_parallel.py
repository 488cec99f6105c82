"""Serial-vs-parallel bit-identity of the matrix runner.

The contract that makes ``repro.benchmark.parallel`` a subsystem rather
than a wrapper: fanning the grid out over worker processes must produce a
:class:`BenchmarkReport` **equal per field** — every run record including
synthesised repeats, the sender report, the config — to the serial
reference, for clean and chaos-attached campaigns alike.
"""

from __future__ import annotations

import pytest

from repro.benchmark import BenchmarkConfig, StreamBenchHarness
from repro.benchmark.parallel import (
    CellSpec,
    MatrixRunner,
    default_workers,
    enumerate_cells,
)
from repro.broker import FaultPlan
from repro.broker.faults import NodeOutage
from repro.workloads.cache import ensure_columns_cached


def full_grid_config(**overrides):
    defaults = dict(records=1_500, runs=3)
    defaults.update(overrides)
    return BenchmarkConfig(**defaults)


class TestCellEnumeration:
    def test_grid_order_matches_serial_loop(self):
        config = full_grid_config()
        cells = enumerate_cells(config)
        expected = [
            (s, q, k, p)
            for s in config.systems
            for q in config.queries
            for k in config.kinds
            for p in config.parallelisms
        ]
        assert [(c.system, c.query, c.kind, c.parallelism) for c in cells] == expected
        assert [c.index for c in cells] == list(range(len(expected)))

    def test_full_paper_grid_has_48_cells(self):
        assert len(enumerate_cells(full_grid_config())) == 3 * 4 * 2 * 2

    def test_default_workers_at_least_one(self):
        assert default_workers() >= 1


class TestBitIdentity:
    """The acceptance contract: workers=2 over the full grid == serial."""

    @pytest.fixture(scope="class")
    def config(self):
        return full_grid_config()

    @pytest.fixture(scope="class")
    def serial(self, config):
        return StreamBenchHarness(config).run_matrix(parallel=False)

    @pytest.fixture(scope="class")
    def parallel(self, config):
        return StreamBenchHarness(config).run_matrix(parallel=True, workers=2)

    def test_covers_full_grid(self, config, serial):
        assert len(serial.runs) == 48 * config.runs

    def test_reports_equal_per_field(self, serial, parallel):
        assert serial.config == parallel.config
        assert serial.sender_report == parallel.sender_report
        assert serial.runs == parallel.runs  # every field of every RunRecord
        assert serial == parallel

    def test_synthesized_repeats_included_and_identical(self, config, serial, parallel):
        synthesized = [r for r in serial.runs if r.synthesized]
        assert len(synthesized) == 48 * (config.runs - 1)
        assert synthesized == [r for r in parallel.runs if r.synthesized]

    def test_grid_order_preserved(self, config, serial):
        keys = [(r.system, r.query, r.kind, r.parallelism) for r in serial.runs]
        expected = [
            (c.system, c.query, c.kind, c.parallelism)
            for c in enumerate_cells(config)
            for _ in range(config.runs)
        ]
        assert keys == expected

    def test_run_cell_matches_matrix_slice(self, config, serial):
        """One cell rerun in isolation reproduces its slice of the report."""
        runner = MatrixRunner(config)
        cell = runner.cells()[5]
        records = runner.run_cell(cell)
        start = cell.index * config.runs
        assert records == serial.runs[start : start + config.runs]


class TestChaosBitIdentity:
    """Chaos campaigns fan out identically: every cell world re-attaches
    the same declarative plan, so faults hit each cell reproducibly."""

    @pytest.fixture(scope="class")
    def reports(self):
        config = full_grid_config(
            records=1_500,
            runs=2,
            systems=("flink", "spark"),
            queries=("grep", "identity"),
        )
        # Ingestion appends in batches, so per-operation fault rates need to
        # be fairly high before any roll lands on the few broker calls.
        plan = FaultPlan(
            seed=5,
            error_rate=0.05,
            timeout_rate=0.02,
            latency_jitter=0.0005,
            outages=(NodeOutage(node_id=1, start=0.01, duration=0.05),),
        )
        serial = StreamBenchHarness(config, chaos=plan).run_matrix(parallel=False)
        parallel = StreamBenchHarness(config, chaos=plan).run_matrix(
            parallel=True, workers=2
        )
        return serial, parallel

    def test_chaos_reports_equal_per_field(self, reports):
        serial, parallel = reports
        assert serial.runs == parallel.runs
        assert serial == parallel

    def test_chaos_ingestion_did_retry(self, reports):
        """The fault plan actually bites (the equality above is not vacuous)."""
        serial, _ = reports
        assert serial.sender_report.retries > 0


class TestRunnerPlumbing:
    def test_workers_validated(self):
        runner = MatrixRunner(full_grid_config(systems=("flink",), queries=("grep",)))
        with pytest.raises(ValueError):
            runner.run(parallel=True, workers=0)

    def test_config_workers_validated(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(workers=0)

    def test_config_knobs_drive_run_matrix(self):
        config = full_grid_config(
            systems=("flink",),
            queries=("grep",),
            kinds=("native",),
            parallelisms=(1,),
            parallel=True,
            workers=2,
        )
        parallel_by_config = StreamBenchHarness(config).run_matrix()
        serial = StreamBenchHarness(config).run_matrix(parallel=False)
        assert parallel_by_config.runs == serial.runs

    def test_unwritable_cache_dir_matches_serial(self, tmp_path, monkeypatch):
        """A cache directory that cannot be created must not crash the
        fan-out: the pre-seed reports the miss and each worker generates
        the workload, exactly as the serial path does."""
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(blocked / "sub"))
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_MIN", "100")
        monkeypatch.delenv("REPRO_WORKLOAD_CACHE", raising=False)
        config = full_grid_config(
            records=2_000, runs=2, systems=("flink",), queries=("grep", "sample")
        )
        assert ensure_columns_cached(config.records, config.seed) is None
        serial = MatrixRunner(config).run(parallel=False)
        assert MatrixRunner(config).run(parallel=True, workers=2) == serial

    def test_cellspec_is_slotted_and_picklable(self):
        import pickle

        cell = CellSpec(0, "flink", "grep", "native", 1)
        assert not hasattr(cell, "__dict__")
        assert pickle.loads(pickle.dumps(cell)) == cell

    def test_matrix_runner_standalone(self):
        """MatrixRunner works without a harness (builds its own sender report)."""
        config = full_grid_config(
            systems=("flink",), queries=("grep",), kinds=("native",), parallelisms=(1,)
        )
        report = MatrixRunner(config).run(parallel=False)
        assert report.sender_report is not None
        assert report.sender_report.records_sent == config.records
        assert report == StreamBenchHarness(config).run_matrix(parallel=False)
