"""Command-line entry point: ``repro-streambench``.

Runs the benchmark matrix and prints the paper's tables and figures.

Examples::

    repro-streambench --records 100000 --runs 5
    repro-streambench --full-scale                  # the paper's setup
    repro-streambench --systems flink spark --queries grep identity
    repro-streambench --plans                       # Figures 12 and 13 only
    repro-streambench --capacity                    # sustainable throughput
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.benchmark.config import BenchmarkConfig, CapacitySettings
from repro.benchmark.harness import StreamBenchHarness
from repro.benchmark import reporting
from repro.workloads.aol import FULL_SCALE_RECORDS


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-streambench",
        description=(
            "Reproduce the ICDCS 2019 Apache Beam abstraction-layer "
            "benchmark on the simulated stack."
        ),
    )
    parser.add_argument(
        "--records",
        type=int,
        default=100_000,
        help="input records to ingest (default: 100000)",
    )
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help=f"use the paper's {FULL_SCALE_RECORDS} records and 10 runs",
    )
    parser.add_argument("--runs", type=int, default=5, help="runs per setup")
    parser.add_argument(
        "--systems",
        nargs="+",
        default=["flink", "spark", "apex"],
        choices=["flink", "spark", "apex"],
    )
    parser.add_argument(
        "--queries",
        nargs="+",
        default=None,
        help=(
            "query set (default: the stateless four; --scalability adds "
            "statistics and windowed, which also scale with P)"
        ),
    )
    parser.add_argument(
        "--parallelisms", nargs="+", type=int, default=[1, 2]
    )
    parser.add_argument("--seed", type=int, default=3972)
    parser.add_argument(
        "--no-fast-repeats",
        action="store_true",
        help="fully re-execute every run instead of synthesising repeats",
    )
    parser.add_argument(
        "--plans",
        action="store_true",
        help="print the Figure 12/13 execution plans and exit",
    )
    parser.add_argument(
        "--capacity",
        action="store_true",
        help=(
            "run the sustainable-throughput capacity search instead of the "
            "execution-time matrix: open-loop load against a bounded input "
            "partition, binary-searched knee, latency percentiles"
        ),
    )
    parser.add_argument(
        "--capacity-records",
        type=int,
        default=None,
        help="records offered per capacity probe (default: 6000)",
    )
    parser.add_argument(
        "--queue-bound",
        type=int,
        default=None,
        help="input partition queue bound for capacity probes (default: 1000)",
    )
    parser.add_argument(
        "--arrival-process",
        choices=["uniform", "bursty"],
        default=None,
        help="arrival process of the capacity probes (default: uniform)",
    )
    parser.add_argument(
        "--scalability",
        action="store_true",
        help=(
            "sweep the capacity knee over parallelism levels per system x "
            "SDK kind x query and print the scalability curves"
        ),
    )
    parser.add_argument(
        "--capacity-parallelism",
        type=int,
        default=None,
        help="probe pipeline parallelism for --capacity (default: 1)",
    )
    parser.add_argument(
        "--capacity-parallelisms",
        nargs="+",
        type=int,
        default=None,
        help="parallelism levels swept by --scalability (default: 1 2 4 8)",
    )
    parser.add_argument(
        "--capacity-kinds",
        nargs="+",
        choices=["native", "beam"],
        default=None,
        help="SDK kinds swept by --scalability (default: native beam)",
    )
    parser.add_argument(
        "--predict",
        action="store_true",
        help=(
            "print analytically predicted slowdown factors (no records "
            "processed) and exit"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.queries is None:
        from repro.benchmark.config import SCALABILITY_QUERIES, STATELESS_QUERIES

        args.queries = list(
            SCALABILITY_QUERIES if args.scalability else STATELESS_QUERIES
        )
    if args.predict:
        from repro.benchmark.calibration import PAPER_SLOWDOWN_FACTORS
        from repro.benchmark.predictor import QueryProfile, SlowdownPredictor
        from repro.benchmark.queries import QUERIES

        records = FULL_SCALE_RECORDS if args.full_scale else args.records
        predictor = SlowdownPredictor(records_per_batch=max(1, records // 10))
        print(
            f"predicted slowdown factors at {records} records "
            "(analytic, no execution):"
        )
        print(f"{'system':7s} {'query':11s} {'predicted':>10s} {'paper':>8s}")
        for system in args.systems:
            for query in args.queries:
                if QUERIES[query].stateful:
                    continue
                sf = predictor.predict_slowdown(
                    system,
                    QueryProfile.of(QUERIES[query]),
                    records,
                    parallelisms=tuple(args.parallelisms),
                )
                paper = PAPER_SLOWDOWN_FACTORS.get((system, query))
                paper_text = f"{paper:8.2f}" if paper is not None else "       -"
                print(f"{system:7s} {query:11s} {sf:10.2f} {paper_text}")
        return 0
    if args.plans:
        native_plan, beam_plan = reporting.render_grep_plans()
        print("Figure 12 — Flink execution plan, grep query (native APIs)")
        print(native_plan)
        print()
        print("Figure 13 — Flink execution plan, grep query (Apache Beam)")
        print(beam_plan)
        return 0

    records = FULL_SCALE_RECORDS if args.full_scale else args.records
    runs = 10 if args.full_scale else args.runs
    capacity_overrides = {}
    if args.capacity_records is not None:
        capacity_overrides["records"] = args.capacity_records
    if args.queue_bound is not None:
        capacity_overrides["queue_bound"] = args.queue_bound
    if args.arrival_process is not None:
        capacity_overrides["process"] = args.arrival_process
    if args.capacity_parallelism is not None:
        capacity_overrides["parallelism"] = args.capacity_parallelism
    if args.capacity_parallelisms is not None:
        capacity_overrides["parallelisms"] = tuple(args.capacity_parallelisms)
    if args.capacity_kinds is not None:
        capacity_overrides["kinds"] = tuple(args.capacity_kinds)
    config = BenchmarkConfig(
        records=records,
        runs=runs,
        parallelisms=tuple(args.parallelisms),
        systems=tuple(args.systems),
        queries=tuple(args.queries),
        seed=args.seed,
        fast_repeats=not args.no_fast_repeats,
        capacity=CapacitySettings(**capacity_overrides),
    )
    started = time.time()
    harness = StreamBenchHarness(config)
    if args.scalability:
        scalability_report = harness.run_scalability()
        elapsed = time.time() - started
        print(reporting.render_scalability(scalability_report))
        print()
        print(
            f"[{len(scalability_report.cells)} sweep points, "
            f"{config.capacity.records} records/probe, "
            f"wall time {elapsed:.1f}s]"
        )
        return 0
    if args.capacity:
        capacity_report = harness.run_capacity()
        elapsed = time.time() - started
        print(reporting.render_capacity(capacity_report))
        print()
        print(
            f"[{len(capacity_report.cells)} cells, "
            f"{config.capacity.records} records/probe, "
            f"wall time {elapsed:.1f}s]"
        )
        return 0
    report = harness.run_matrix()
    elapsed = time.time() - started
    print(reporting.render_full_report(report))
    print()
    print(
        f"[{len(report.runs)} runs, {records} records/run, "
        f"wall time {elapsed:.1f}s]"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
