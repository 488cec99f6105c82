"""Cell-by-cell matrix execution: the benchmark grid as isolated cells.

The paper's experiment grid is a set of independent measurements — every
(system × query × SDK × parallelism) cell stands alone.  This module
runs it that way, one cell after another in the calling process:

* the grid is enumerated into self-contained :class:`CellSpec`\\ s in a
  canonical order (systems → queries → kinds → parallelisms, the order
  :meth:`StreamBenchHarness.run_matrix` always used);
* every cell executes in an **isolated world** — a fresh
  :class:`~repro.simtime.Simulator`, broker cluster and (when configured)
  freshly attached chaos plan, seeded from the campaign seed alone.  All
  stochastic draws a cell consumes come from per-label RNG streams
  (``runs/{label}``, ``data/{label}``) keyed by the seed and the cell's
  identity, and the broker-timestamp measurement starts from the same
  post-ingest clock in every world, so a cell's result does not depend on
  what ran before it — ``tests/benchmark/test_parallel.py`` runs the
  grid in reverse order and compares every cell;
* :class:`MatrixRunner` runs the cells and merges the returned
  :class:`~repro.benchmark.harness.RunRecord`\\ s in grid order.

The simulated parallelism P of a cell is priced inside that cell (see
:class:`~repro.engines.common.sharded.ShardedPump`); the module's name
refers to that axis of the grid, not to host processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.benchmark.config import BenchmarkConfig
from repro.broker.faults import FaultPlan
from repro.broker.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.benchmark.harness import BenchmarkReport, RunRecord


@dataclass(frozen=True, slots=True)
class CellSpec:
    """One self-contained cell of the benchmark grid."""

    index: int
    system: str
    query: str
    kind: str
    parallelism: int


def enumerate_cells(config: BenchmarkConfig) -> tuple[CellSpec, ...]:
    """The grid in canonical order (systems → queries → kinds → parallelisms)."""
    cells = []
    for system in config.systems:
        for query in config.queries:
            for kind in config.kinds:
                for parallelism in config.parallelisms:
                    cells.append(
                        CellSpec(len(cells), system, query, kind, parallelism)
                    )
    return tuple(cells)


class MatrixRunner:
    """Executes the benchmark grid cell by cell, each in its own world.

    One runner is stateless apart from its configuration: ``run`` may be
    called repeatedly and cheaply, and every call yields the same report.
    """

    def __init__(
        self,
        config: BenchmarkConfig,
        chaos: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.config = config
        self.chaos = chaos
        self.retry_policy = retry_policy

    def cells(self) -> tuple[CellSpec, ...]:
        """The grid this runner executes, in merge order."""
        return enumerate_cells(self.config)

    def run_cell(self, cell: CellSpec) -> "list[RunRecord]":
        """Run one cell in its own isolated world."""
        from repro.benchmark.harness import StreamBenchHarness

        harness = StreamBenchHarness(
            self.config, chaos=self.chaos, retry_policy=self.retry_policy
        )
        harness.ingest()
        return harness.run_setup(
            cell.system, cell.query, cell.kind, cell.parallelism
        )

    def run(self, sender_report=None) -> "BenchmarkReport":
        """Execute every cell; merge records into a report in grid order.

        ``sender_report`` lets a harness that already ingested pass its
        (deterministic, world-independent) report along; otherwise one
        fresh world is ingested to produce it.
        """
        from repro.benchmark.harness import BenchmarkReport, StreamBenchHarness

        if sender_report is None:
            warmup = StreamBenchHarness(
                self.config, chaos=self.chaos, retry_policy=self.retry_policy
            )
            sender_report = warmup.ingest()
        report = BenchmarkReport(config=self.config, sender_report=sender_report)
        for cell in self.cells():
            report.runs.extend(self.run_cell(cell))
        return report
