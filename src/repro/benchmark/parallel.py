"""Parallel matrix execution: multi-core fan-out of the benchmark grid.

The paper's experiment grid is embarrassingly parallel — every
(system × query × SDK × parallelism) cell is an independent measurement.
This module exploits that without giving up reproducibility:

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
  which process runs it or what ran before it;
* :class:`MatrixRunner` fans cells out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (default worker count:
  ``os.cpu_count() - 1``) and merges the returned
  :class:`~repro.benchmark.harness.RunRecord`\\ s back in grid order.

Because the serial path (``parallel=False``) iterates the *same* isolated
cell worlds in-process, serial and parallel reports are **bit-identical**
— per field, including synthesised repeats and chaos runs — which
``tests/benchmark/test_parallel.py`` proves for the full grid.

Workers do not receive the workload over the wire: the parent pre-seeds
the workload's columnar disk entry (:mod:`repro.workloads.cache`) before
fanning out, so forked workers inherit the in-process memo and spawned
workers mmap the cached file instead of regenerating.  Where the entry
cannot be written (small workloads, the disk tier disabled, an
unwritable directory) each worker generates the columns itself, which
is what the serial path does.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

from repro.benchmark.config import BenchmarkConfig
from repro.broker.faults import FaultPlan
from repro.broker.retry import RetryPolicy
from repro.workloads.cache import ensure_columns_cached

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


def default_workers() -> int:
    """Default fan-out width: all cores but one, at least one."""
    return max(1, (os.cpu_count() or 1) - 1)


def _execute_cell(
    config: BenchmarkConfig,
    chaos: FaultPlan | None,
    retry_policy: RetryPolicy | None,
    cell: CellSpec,
) -> "list[RunRecord]":
    """Run one cell in a fresh world (top-level so worker processes can pickle it)."""
    from repro.benchmark.harness import StreamBenchHarness

    harness = StreamBenchHarness(config, chaos=chaos, retry_policy=retry_policy)
    harness.ingest()
    return harness.run_setup(cell.system, cell.query, cell.kind, cell.parallelism)


class MatrixRunner:
    """Executes the benchmark grid cell by cell, serially or fanned out.

    One runner is stateless apart from its configuration: ``run`` may be
    called repeatedly and cheaply, and every call yields the same report.
    """

    def __init__(
        self,
        config: BenchmarkConfig,
        chaos: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        workers: int | None = None,
    ) -> None:
        self.config = config
        self.chaos = chaos
        self.retry_policy = retry_policy
        self.workers = workers

    def cells(self) -> tuple[CellSpec, ...]:
        """The grid this runner executes, in merge order."""
        return enumerate_cells(self.config)

    def run_cell(self, cell: CellSpec) -> "list[RunRecord]":
        """Run one cell in its own isolated world, in this process."""
        return _execute_cell(self.config, self.chaos, self.retry_policy, cell)

    def run(
        self,
        parallel: bool = True,
        workers: int | None = None,
        sender_report=None,
    ) -> "BenchmarkReport":
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
        cells = self.cells()
        if not cells:
            return report
        if parallel:
            # Warm the disk tier so workers mmap instead of regenerating
            # (forked workers additionally inherit the in-process memo,
            # which ``sender_report`` ingestion just populated).
            ensure_columns_cached(self.config.records, self.config.seed)
            count = workers if workers is not None else self.workers
            if count is None:
                count = default_workers()
            if count < 1:
                raise ValueError(f"workers must be >= 1, got {count}")
            with ProcessPoolExecutor(max_workers=min(count, len(cells))) as pool:
                per_cell = list(
                    pool.map(
                        _execute_cell,
                        repeat(self.config),
                        repeat(self.chaos),
                        repeat(self.retry_policy),
                        cells,
                    )
                )
        else:
            per_cell = [self.run_cell(cell) for cell in cells]
        for records in per_cell:
            report.runs.extend(records)
        return report
