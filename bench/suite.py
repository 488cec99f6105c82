"""The benchmark's workloads, metrics and correctness checks.

A workload is a list of *operations* run through the program's public
entry points: a Figure-5 cell (``MatrixRunner.run_cell``, one isolated
world that ingests, executes ten runs and measures) or a scalability sweep
point (``find_capacity``, one bracketed knee search of a few capacity
probes).  Iterating the cells is exactly what ``MatrixRunner.run(parallel=
False)`` does, and iterating the points what ``CapacityRunner.
run_scalability(parallel=False)`` does; the benchmark drives them one by
one only so that it can time each.

The program receives ``BenchmarkConfig(seed=...)`` and the inputs it
generates from that seed, nothing else.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any

from repro.benchmark.capacity import CapacityRunner, find_capacity
from repro.benchmark.config import SYSTEMS, BenchmarkConfig, CapacitySettings
from repro.benchmark.parallel import CellSpec, MatrixRunner
from repro.workloads.aol import GREP_NEEDLE, AolWorkload

DEFAULT_SEED = 3972
#: Seconds one run measures each workload for.
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Input records per cell, or offered records per capacity probe.
    records: int
    queries: tuple[str, ...]
    kinds: tuple[str, ...]
    parallelisms: tuple[int, ...]
    #: ``True``: operations are scalability sweep points, not cells.
    sweep: bool = False


WORKLOADS = (
    Workload(
        "fig5-native",
        "Figure-5 campaign on the native APIs at full scale: sender/broker "
        "append, stateless kernels and the emit path; never touches beam.",
        records=1_000_001,
        queries=("identity", "sample", "projection", "grep"),
        kinds=("native",),
        parallelisms=(1, 2),
    ),
    Workload(
        "fig5-beam",
        "Figure-5 cells through the Beam SDK: KafkaIO's poll and KafkaRecord "
        "re-wrap dominate; identity (write-heavy) beside grep (read-only).",
        records=200_000,
        queries=("identity", "grep"),
        kinds=("beam",),
        parallelisms=(1,),
    ),
    Workload(
        "stateful-native",
        "Keyed and stateful kernels plus drain; wordcount emits about two "
        "records per input, so the emit path weighs in where grep skips it.",
        records=250_000,
        queries=("wordcount", "distinct-count", "statistics", "windowed"),
        kinds=("native",),
        parallelisms=(1,),
    ),
    Workload(
        "capacity-sweep",
        "Scalability sweep: many small poll/acknowledge steps on a bounded, "
        "trimmed log, the load generator and the P=2 shard pump.",
        records=3_000,
        queries=("grep", "sample", "statistics", "windowed"),
        kinds=("native", "beam"),
        parallelisms=(1, 2),
        sweep=True,
    ),
)

#: ``--smoke`` sizes: Flink only, small inputs, same code paths.
SMOKE_RECORDS = 20_000
SMOKE_PROBE_RECORDS = 1_000
SMOKE_SYSTEMS = ("flink",)


def get(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; known: {names()}")


def names() -> list[str]:
    return [workload.name for workload in WORKLOADS]


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float | None = None
    #: Listed in ``BENCHMARK.json`` and printed on the result line.
    exported: bool = True


#: A bound is one metric's for all four workloads, so it stays about three
#: times wider than the widest run-to-run spread (IQR / median over ten
#: seeds) any workload shows on the shared 2-CPU baseline host; README.md
#: gives each workload's spread.  Set-up, timed once per process, is the
#: noisiest and gets the widest bound.
END_TO_END = (
    Metric("campaign_s", "s", "lower", 0.20),
    Metric("throughput_rps", "records/s", "higher", 0.20),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    # Zero whenever the run is correct, so it cannot serve as a bounded
    # ratio; the result line carries it as ``failed``/``attempted``.
    Metric("error_rate", "fraction", "lower", 0.0, exported=False),
    # Only the sweep has probes, and every exported metric must exist on
    # every workload.
    Metric("probe_p50_ms", "ms", "lower", 0.20, exported=False),
    Metric("probe_p95_ms", "ms", "lower", 0.20, exported=False),
)

#: Per-layer metrics of the traced run.  Times are self seconds per
#: campaign.  Times that are structurally zero on some workload (a layer
#: it never calls) are printed but not exported, so every exported time
#: is a measurement on every workload.
PER_LAYER = (
    Metric("workloads.generate_s", "s", "lower"),
    Metric("sender.send_s", "s", "lower", exported=False),
    Metric("sender.ingests_per_cell", "ratio", "lower"),
    Metric("broker.append_ingest_s", "s", "lower"),
    Metric("broker.append_emit_s", "s", "lower", exported=False),
    Metric("broker.append_calls", "count", "lower"),
    Metric("broker.append_records", "count", "lower"),
    Metric("broker.poll_s", "s", "lower", exported=False),
    Metric("broker.poll_records", "count", "lower"),
    Metric("broker.poll_values_s", "s", "lower", exported=False),
    Metric("broker.poll_values_calls", "count", "lower"),
    Metric("broker.acknowledge_s", "s", "lower", exported=False),
    Metric("beam.kafkaio_read_s", "s", "lower", exported=False),
    Metric("beam.records_materialised_per_input", "ratio", "lower"),
    Metric("beam.dofn_s", "s", "lower", exported=False),
    Metric("beam.pipeline_s", "s", "lower", exported=False),
    Metric("engines.pump_s", "s", "lower", exported=False),
    Metric("engines.sharded_chunk_s", "s", "lower", exported=False),
    Metric("engines.sharded_chunk_calls", "count", "lower"),
    Metric("engines.emit_s", "s", "lower", exported=False),
    Metric("dataflow.lower_s", "s", "lower"),
    Metric("dataflow.lower_calls", "count", "lower"),
    Metric("dataflow.kernel_ratio", "ratio", "higher"),
    Metric("result_calculator.measure_s", "s", "lower", exported=False),
    Metric("capacity.probe_s", "s", "lower", exported=False),
    Metric("capacity.probes", "count", "lower"),
    Metric("capacity.sustainable_ratio", "ratio", "higher"),
    Metric("loadgen.run_s", "s", "lower", exported=False),
    Metric("parallel.cell_s", "s", "lower", exported=False),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this suite describes (tests compare the file)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.exported
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
            if m.exported
        ],
    }


# ---------------------------------------------------------------------------
# Configuration and operations


def make_config(workload: Workload, seed: int, smoke: bool = False) -> BenchmarkConfig:
    systems = SMOKE_SYSTEMS if smoke else SYSTEMS
    if workload.sweep:
        capacity = CapacitySettings(
            records=SMOKE_PROBE_RECORDS if smoke else workload.records,
            parallelisms=workload.parallelisms,
            kinds=workload.kinds,
        )
        return BenchmarkConfig(
            seed=seed, systems=systems, queries=workload.queries, capacity=capacity
        )
    return BenchmarkConfig(
        seed=seed,
        records=SMOKE_RECORDS if smoke else workload.records,
        systems=systems,
        queries=workload.queries,
        kinds=workload.kinds,
        parallelisms=workload.parallelisms,
    )


def input_records(workload: Workload, config: BenchmarkConfig) -> int:
    """Records per cell, or offered records per probe."""
    return config.capacity.records if workload.sweep else config.records


def prepare_inputs(workload: Workload, config: BenchmarkConfig) -> None:
    """Cold-generate the workload's input (part of set-up, not of any operation)."""
    AolWorkload(input_records(workload, config), seed=config.seed).columnar().column()


def operations(workload: Workload, config: BenchmarkConfig) -> list[tuple[str, Any]]:
    """``(operation id, operation)`` pairs in the program's own grid order."""
    if workload.sweep:
        return [
            (f"{system}/{query}/{kind}/p{parallelism}", (system, kind, query, parallelism))
            for system, kind, query, parallelism in CapacityRunner(
                config
            ).scalability_cells()
        ]
    return [
        (f"{c.system}/{c.query}/{c.kind}/p{c.parallelism}", c)
        for c in MatrixRunner(config).cells()
    ]


def run(workload: Workload, config: BenchmarkConfig, op: Any) -> Any:
    """Execute one operation; returns its ``RunRecord`` list or ``CapacityCell``."""
    if workload.sweep:
        system, kind, query, parallelism = op
        return find_capacity(config, system, query, kind=kind, parallelism=parallelism)
    return MatrixRunner(config).run_cell(op)


def records_processed(workload: Workload, config: BenchmarkConfig, result: Any) -> int:
    """Input records one operation processed (every probe offers its input once)."""
    if workload.sweep:
        return result.probes * config.capacity.records
    return config.records


def digest(result: Any) -> str:
    """SHA-256 over every field of every ``RunRecord`` (or the ``CapacityCell``)."""
    rows = result if isinstance(result, list) else [result]
    text = repr([dataclasses.astuple(row) for row in rows])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Invariants that hold for any seed

#: Queries that emit exactly one record per input record.
ONE_PER_INPUT = ("identity", "projection", "distinct-count", "statistics")


def needle_lines(config: BenchmarkConfig) -> int:
    """Generated lines containing the grep needle, counted from the columns."""
    data = bytes(AolWorkload(config.records, seed=config.seed).columnar().data)
    needle = GREP_NEEDLE.encode("ascii")
    return sum(1 for line in data.split(b"\n") if needle in line)


def expectations(
    workload: Workload, config: BenchmarkConfig, ops: list[tuple[str, Any]]
) -> dict[str, Any]:
    """Reference values the checks compare against, computed outside the timing.

    Beam cells get the ``records_out`` of their native twin (the same
    system, query and parallelism run on the native API).
    """
    expected: dict[str, Any] = {}
    if workload.sweep:
        return expected
    if any(cell.query == "grep" for _, cell in ops):
        expected["needle_lines"] = needle_lines(config)
    runner = MatrixRunner(config)
    for op_id, cell in ops:
        if cell.kind == "beam":
            twin = dataclasses.replace(cell, kind="native")
            expected[op_id] = runner.run_cell(twin)[0].records_out
    return expected


def check(
    workload: Workload,
    config: BenchmarkConfig,
    op_id: str,
    op: Any,
    result: Any,
    expected: dict[str, Any],
) -> list[str]:
    """Invariant violations of one operation's result (empty when it holds)."""
    if workload.sweep:
        settings = config.capacity
        problems = []
        if result.records != settings.records:
            problems.append(f"records {result.records} != {settings.records}")
        if not result.sustainable_rate > 0:
            problems.append(f"sustainable_rate {result.sustainable_rate} <= 0")
        if result.probes < 1:
            problems.append("no probe ran")
        if result.max_queue_depth > settings.queue_bound:
            problems.append(
                f"queue depth {result.max_queue_depth} > bound {settings.queue_bound}"
            )
        return problems
    cell: CellSpec = op
    problems = []
    if len(result) != config.runs:
        problems.append(f"{len(result)} runs != {config.runs}")
    outs = {record.records_out for record in result}
    if len(outs) != 1:
        problems.append(f"records_out differs between runs: {sorted(outs)}")
    out = result[0].records_out
    if cell.query in ONE_PER_INPUT and out != config.records:
        problems.append(f"records_out {out} != records {config.records}")
    if cell.query == "grep" and out != expected["needle_lines"]:
        problems.append(f"records_out {out} != needle lines {expected['needle_lines']}")
    if cell.kind == "beam" and out != expected[op_id]:
        problems.append(f"beam records_out {out} != native {expected[op_id]}")
    return problems
