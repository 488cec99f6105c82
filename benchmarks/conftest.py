"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  The suite
runs at a reduced scale by default (100,000 records, 10 runs per setup) so
it finishes in a few minutes; export ``REPRO_FULL_SCALE=1`` to reproduce
the paper's exact campaign (1,000,001 records, 10 runs — the numbers
recorded in EXPERIMENTS.md), or ``REPRO_RECORDS=<n>`` for a custom scale.

Rendered tables are printed and also written to ``benchmarks/_results/`` so
they survive pytest's output capture.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.benchmark.config import scaled_config
from repro.benchmark.harness import BenchmarkReport, StreamBenchHarness

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"


def save_artifact(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/_results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def bench_config():
    """The campaign configuration (reduced scale unless REPRO_FULL_SCALE)."""
    return scaled_config()


@pytest.fixture(scope="session")
def full_report(bench_config) -> BenchmarkReport:
    """The complete benchmark matrix, computed once per session.

    Figures 10 and 11 and Table III aggregate over every setup; they share
    this report instead of re-running the matrix per benchmark.
    """
    harness = StreamBenchHarness(bench_config)
    return harness.run_matrix()
