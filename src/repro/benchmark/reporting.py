"""Report renderers: every table and figure of the paper's evaluation.

Each ``render_*`` function produces the text equivalent of one paper
artefact from a :class:`BenchmarkReport`, printing our measured value next
to the paper's published value so the shape comparison is immediate.
"""

from __future__ import annotations

from typing import Sequence

from repro.benchmark.calibration import (
    PAPER_EXECUTION_TIMES,
    PAPER_RELATIVE_STD,
    PAPER_SLOWDOWN_FACTORS,
    PAPER_TABLE3,
)
from repro.benchmark.harness import BenchmarkReport
from repro.benchmark.queries import QUERIES, stateless_queries
from repro.engines.apex.config import APEX_TRAITS
from repro.engines.flink.config import FLINK_TRAITS
from repro.engines.spark.config import SPARK_TRAITS

_FIGURE_OF_QUERY = {"identity": 6, "sample": 7, "projection": 8, "grep": 9}
_SYSTEM_TITLES = {"flink": "Flink", "spark": "Spark", "apex": "Apex"}


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_table1() -> str:
    """Table I: comparison of the three DSPSs."""
    headers = (
        "Criteria",
        "Apache Flink",
        "Apache Spark Streaming",
        "Apache Apex",
    )
    traits = (FLINK_TRAITS, SPARK_TRAITS, APEX_TRAITS)
    criteria_rows = [
        ("Mainly Written in", [", ".join(t.mainly_written_in) for t in traits]),
        ("Languages for App Development", [", ".join(t.app_languages) for t in traits]),
        ("Data Processing", [t.data_processing for t in traits]),
        ("Processing Guarantees", [t.processing_guarantee for t in traits]),
    ]
    rows = [(name, *values) for name, values in criteria_rows]
    return "Table I — Comparison of the systems\n" + _table(headers, rows)


def render_table2(report: BenchmarkReport | None = None) -> str:
    """Table II: the benchmark queries (plus observed output counts)."""
    headers = ["Query", "Description"]
    if report is not None:
        headers.append("Observed output records (native P1)")
    rows = []
    for spec in stateless_queries():
        row = [spec.name.capitalize(), spec.description]
        if report is not None:
            try:
                count = report.records_out(
                    report.config.systems[0], spec.name, "native", 1
                )
                row.append(str(count))
            except KeyError:
                row.append("-")
        rows.append(row)
    return "Table II — Benchmark queries (StreamBench)\n" + _table(headers, rows)


def render_figure_times(report: BenchmarkReport, query: str) -> str:
    """Figures 6-9: average execution times for one query, all 12 setups."""
    fig = _FIGURE_OF_QUERY.get(query, 0)
    headers = ("Setup", "Avg time (s)", "Paper (s)")
    rows = []
    for system in ("apex", "flink", "spark"):
        if system not in report.config.systems:
            continue
        for kind in ("beam", "native"):
            if kind not in report.config.kinds:
                continue
            for p in report.config.parallelisms:
                label = f"{_SYSTEM_TITLES[system]}{' Beam' if kind == 'beam' else ''} P{p}"
                mean = report.mean_time(system, query, kind, p)
                paper = PAPER_EXECUTION_TIMES.get((system, query, kind, p))
                rows.append(
                    (
                        label,
                        f"{mean:10.2f}",
                        f"{paper:10.2f}" if paper is not None else "-",
                    )
                )
    title = f"Figure {fig} — Average execution times, {query} query"
    return title + "\n" + _table(headers, rows)


def render_figure10(report: BenchmarkReport) -> str:
    """Figure 10: relative standard deviation per system-query-SDK."""
    headers = ("Combination", "Rel. std dev", "Paper")
    rows = []
    for system in ("apex", "flink", "spark"):
        if system not in report.config.systems:
            continue
        for kind in ("beam", "native"):
            if kind not in report.config.kinds:
                continue
            for query in ("grep", "identity", "projection", "sample"):
                if query not in report.config.queries:
                    continue
                label = f"{_SYSTEM_TITLES[system]}{' Beam' if kind == 'beam' else ''} {query.capitalize()}"
                value = report.relative_std(system, query, kind)
                paper = PAPER_RELATIVE_STD.get((system, kind, query))
                rows.append(
                    (label, f"{value:8.3f}", f"{paper:8.3f}" if paper else "-")
                )
    return (
        "Figure 10 — Relative standard deviation per system-query-SDK\n"
        + _table(headers, rows)
    )


def render_figure11(report: BenchmarkReport) -> str:
    """Figure 11: slowdown factors sf(dsps, query)."""
    headers = ("Combination", "Slowdown sf", "Paper")
    rows = []
    for system in ("apex", "flink", "spark"):
        if system not in report.config.systems:
            continue
        for query in ("identity", "sample", "projection", "grep"):
            if query not in report.config.queries:
                continue
            value = report.slowdown(system, query)
            paper = PAPER_SLOWDOWN_FACTORS.get((system, query))
            rows.append(
                (
                    f"{_SYSTEM_TITLES[system]} {query.capitalize()}",
                    f"{value:8.2f}",
                    f"{paper:8.2f}" if paper else "-",
                )
            )
    return "Figure 11 — Slowdown factors of Apache Beam\n" + _table(headers, rows)


def render_table3(report: BenchmarkReport) -> str:
    """Table III: per-run times, identity on Flink (native), P1 and P2."""
    headers = ("Run", "P=1 (s)", "P=2 (s)", "Paper P=1", "Paper P=2")
    p1 = report.times("flink", "identity", "native", 1)
    p2 = report.times("flink", "identity", "native", 2)
    rows = []
    for index in range(max(len(p1), len(p2))):
        paper1 = PAPER_TABLE3[1][index] if index < len(PAPER_TABLE3[1]) else None
        paper2 = PAPER_TABLE3[2][index] if index < len(PAPER_TABLE3[2]) else None
        rows.append(
            (
                str(index + 1),
                f"{p1[index]:7.2f}" if index < len(p1) else "-",
                f"{p2[index]:7.2f}" if index < len(p2) else "-",
                f"{paper1:7.2f}" if paper1 is not None else "-",
                f"{paper2:7.2f}" if paper2 is not None else "-",
            )
        )
    return (
        "Table III — Execution times for the identity query on Apache Flink\n"
        + _table(headers, rows)
    )


def render_grep_plans(records: int = 1_000) -> tuple[str, str]:
    """Figures 12 & 13: Flink execution plans for grep, native vs Beam.

    Builds a miniature world (plan structure is data-independent), runs the
    grep query both ways on the Flink engine and returns the rendered
    plans.
    """
    from repro.benchmark.config import BenchmarkConfig
    from repro.benchmark.harness import StreamBenchHarness

    config = BenchmarkConfig(
        records=records,
        runs=1,
        parallelisms=(1,),
        systems=("flink",),
        queries=("grep",),
    )
    harness = StreamBenchHarness(config)
    harness.ingest()
    spec = QUERIES["grep"]
    rng = harness.simulator.random.stream("plans")
    harness.admin.recreate_topic(config.output_topic)
    native_job = harness._run_native("flink", spec, 1, rng, rng, config.output_topic)
    harness.admin.recreate_topic(config.output_topic)
    beam_job = harness._run_beam("flink", spec, 1, rng, rng, config.output_topic)
    return native_job.plan.render(), beam_job.plan.render()


def render_capacity(report) -> str:
    """Sustainable throughput + knee latency percentiles per cell.

    Renders a :class:`~repro.benchmark.capacity.CapacityReport`: the
    highest open-loop rate each (system × query) pipeline sustains against
    a bounded input partition, with event-time (completion − scheduled
    arrival) and processing-time (completion − broker admission) latency
    percentiles measured at that knee.
    """
    headers = (
        "System",
        "Query",
        "Sustainable (rec/s)",
        "Probes",
        "Event p50/p95/p99 (ms)",
        "Proc p50/p95/p99 (ms)",
        "Peak depth",
    )

    def ms(value: float) -> str:
        return f"{value * 1e3:.3f}"

    rows = []
    for cell in report.cells:
        rows.append(
            (
                _SYSTEM_TITLES.get(cell.system, cell.system),
                cell.query,
                f"{cell.sustainable_rate:,.0f}",
                str(cell.probes),
                f"{ms(cell.event_p50)}/{ms(cell.event_p95)}/{ms(cell.event_p99)}",
                f"{ms(cell.proc_p50)}/{ms(cell.proc_p95)}/{ms(cell.proc_p99)}",
                f"{cell.max_queue_depth}/{cell.queue_bound}",
            )
        )
    settings = report.config.capacity
    title = (
        "Sustainable throughput (open-loop capacity search; "
        f"{settings.records} records/probe, queue bound {settings.queue_bound}, "
        f"{settings.process} arrivals, grace {settings.grace:.0%})"
    )
    return f"{title}\n\n{_table(headers, rows)}"


def render_scalability(report) -> str:
    """Scalability curves: knee and latency vs parallelism per pipeline.

    Renders a :class:`~repro.benchmark.capacity.ScalabilityReport` — the
    second capacity figure family.  Each curve shows the sustainable-rate
    knee across parallelism levels with its speedup over the P=1 point
    and the knee's processing-latency percentiles; native and Beam rows
    of the same system × query sit adjacent so the abstraction penalty is
    readable per level.  ``Shard skew`` is max/mean of the knee probe's
    per-shard cumulative drain costs — 1.00 means perfectly balanced
    shards, higher means the straggler-max merge paid for load skew ("-"
    at P=1, where there is no shard pool).
    """
    headers = (
        "System",
        "Kind",
        "Query",
        "P",
        "Sustainable (rec/s)",
        "Speedup vs P=1",
        "Shard skew",
        "Proc p50/p95/p99 (ms)",
    )

    def ms(value: float) -> str:
        return f"{value * 1e3:.3f}"

    settings = report.config.capacity
    rows = []
    for system in report.config.systems:
        for kind in settings.kinds:
            for query in report.config.queries:
                curve = report.curve(system, kind, query)
                if not curve:
                    continue
                base = curve[0].sustainable_rate
                for cell in curve:
                    speedup = cell.sustainable_rate / base if base else 0.0
                    costs = getattr(cell, "shard_costs", ())
                    if costs and sum(costs) > 0.0:
                        skew = f"{max(costs) * len(costs) / sum(costs):.2f}"
                    else:
                        skew = "-"
                    rows.append(
                        (
                            _SYSTEM_TITLES.get(cell.system, cell.system),
                            cell.kind,
                            cell.query,
                            str(cell.parallelism),
                            f"{cell.sustainable_rate:,.0f}",
                            f"{speedup:.2f}x",
                            skew,
                            f"{ms(cell.proc_p50)}/{ms(cell.proc_p95)}"
                            f"/{ms(cell.proc_p99)}",
                        )
                    )
    title = (
        "Scalability curves (capacity knee vs parallelism; "
        f"P ∈ {{{', '.join(str(p) for p in settings.parallelisms)}}}, "
        f"{settings.records} records/probe)"
    )
    return f"{title}\n\n{_table(headers, rows)}"


def render_full_report(report: BenchmarkReport) -> str:
    """Every table and figure, concatenated (the CLI's default output)."""
    sections = [render_table1(), render_table2(report)]
    for query in report.config.queries:
        if query in _FIGURE_OF_QUERY:
            sections.append(render_figure_times(report, query))
    if "native" in report.config.kinds and "beam" in report.config.kinds:
        sections.append(render_figure10(report))
        sections.append(render_figure11(report))
    if (
        "flink" in report.config.systems
        and "identity" in report.config.queries
        and "native" in report.config.kinds
        and set(report.config.parallelisms) >= {1, 2}
    ):
        sections.append(render_table3(report))
    return "\n\n".join(sections)
