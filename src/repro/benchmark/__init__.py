"""The paper's benchmark architecture (Section III, Figure 5).

Three consecutive phases:

1. **Data ingestion** — a :class:`DataSender` pushes the workload into a
   single-partition broker topic (ordering guarantee);
2. **Program execution** — every (system × query × SDK × parallelism)
   combination runs ten times on a freshly restarted engine;
3. **Result calculation** — a :class:`ResultCalculator` derives execution
   times from broker LogAppendTime timestamps, keeping the measurement
   application- and system-independent.

:class:`StreamBenchHarness` drives the whole matrix and
:mod:`repro.benchmark.reporting` renders every table and figure of the
paper's evaluation from the results.
"""

from repro.benchmark.capacity import (
    CapacityCell,
    CapacityReport,
    CapacityRunner,
    ProbeResult,
    find_capacity,
    run_probe,
)
from repro.benchmark.config import BenchmarkConfig, CapacitySettings
from repro.benchmark.harness import BenchmarkReport, RunRecord, StreamBenchHarness
from repro.benchmark.loadgen import (
    ArrivalProcess,
    BurstyArrivals,
    LoadGenerator,
    LoadReport,
    UniformArrivals,
    make_arrivals,
)
from repro.benchmark.parallel import CellSpec, MatrixRunner
from repro.benchmark.predictor import Prediction, QueryProfile, SlowdownPredictor
from repro.benchmark.queries import QUERIES, QuerySpec, get_query, stateless_queries
from repro.benchmark.result_calculator import ExecutionMeasurement, ResultCalculator
from repro.benchmark.sender import DataSender

__all__ = [
    "BenchmarkConfig",
    "CapacitySettings",
    "StreamBenchHarness",
    "ArrivalProcess",
    "UniformArrivals",
    "BurstyArrivals",
    "make_arrivals",
    "LoadGenerator",
    "LoadReport",
    "CapacityRunner",
    "CapacityReport",
    "CapacityCell",
    "ProbeResult",
    "find_capacity",
    "run_probe",
    "BenchmarkReport",
    "RunRecord",
    "CellSpec",
    "MatrixRunner",
    "QUERIES",
    "QuerySpec",
    "get_query",
    "stateless_queries",
    "DataSender",
    "ResultCalculator",
    "ExecutionMeasurement",
    "SlowdownPredictor",
    "QueryProfile",
    "Prediction",
]
