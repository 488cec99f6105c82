"""Cell isolation of the matrix runner.

Every cell of the grid runs in its own world, so its records must not
depend on which cells ran before it.  The checks run every cell through
:meth:`MatrixRunner.run_cell` in *reverse* grid order and compare each
cell's records, **per field** — synthesised repeats included — with its
slice of :meth:`MatrixRunner.run`'s report, for clean and chaos-attached
campaigns alike.
"""

from __future__ import annotations

import pytest

from repro.benchmark import BenchmarkConfig, StreamBenchHarness
from repro.benchmark.parallel import CellSpec, MatrixRunner, enumerate_cells
from repro.broker import FaultPlan
from repro.broker.faults import NodeOutage


def full_grid_config(**overrides):
    defaults = dict(records=1_500, runs=3)
    defaults.update(overrides)
    return BenchmarkConfig(**defaults)


def reversed_cells(runner):
    """Every cell's records, run one by one in reverse grid order and
    returned in grid order."""
    backwards = [runner.run_cell(cell) for cell in reversed(runner.cells())]
    return [record for records in reversed(backwards) for record in records]


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


class TestBitIdentity:
    """The acceptance contract: the 48-cell grid run cell by cell in
    reverse order equals the report, record for record."""

    @pytest.fixture(scope="class")
    def config(self):
        return full_grid_config()

    @pytest.fixture(scope="class")
    def report(self, config):
        return StreamBenchHarness(config).run_matrix()

    @pytest.fixture(scope="class")
    def reversed_runs(self, config):
        return reversed_cells(MatrixRunner(config))

    def test_covers_full_grid(self, config, report, reversed_runs):
        assert len(report.runs) == 48 * config.runs
        assert len(reversed_runs) == len(report.runs)

    def test_reports_equal_per_field(self, report, reversed_runs):
        assert reversed_runs == report.runs  # every field of every RunRecord

    def test_synthesized_repeats_included_and_identical(
        self, config, report, reversed_runs
    ):
        synthesized = [r for r in report.runs if r.synthesized]
        assert len(synthesized) == 48 * (config.runs - 1)
        assert synthesized == [r for r in reversed_runs if r.synthesized]

    def test_grid_order_preserved(self, config, report):
        keys = [(r.system, r.query, r.kind, r.parallelism) for r in report.runs]
        expected = [
            (c.system, c.query, c.kind, c.parallelism)
            for c in enumerate_cells(config)
            for _ in range(config.runs)
        ]
        assert keys == expected

    def test_run_cell_matches_matrix_slice(self, config, report):
        """One cell rerun in isolation reproduces its slice of the report."""
        runner = MatrixRunner(config)
        cell = runner.cells()[5]
        records = runner.run_cell(cell)
        start = cell.index * config.runs
        assert records == report.runs[start : start + config.runs]


class TestChaosBitIdentity:
    """Chaos campaigns are order-independent too: every cell world
    re-attaches the same declarative plan, so faults hit each cell
    reproducibly whatever ran before it."""

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
        report = StreamBenchHarness(config, chaos=plan).run_matrix()
        return report, reversed_cells(MatrixRunner(config, chaos=plan))

    def test_chaos_reports_equal_per_field(self, reports):
        report, reversed_runs = reports
        assert len(report.runs) == 16 * 2  # 16 cells, 2 runs each
        assert reversed_runs == report.runs

    def test_chaos_ingestion_did_retry(self, reports):
        """The fault plan actually bites (the equality above is not vacuous)."""
        report, _ = reports
        assert report.sender_report.retries > 0


class TestRunnerPlumbing:
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
        report = MatrixRunner(config).run()
        assert report.sender_report is not None
        assert report.sender_report.records_sent == config.records
        assert report == StreamBenchHarness(config).run_matrix()
