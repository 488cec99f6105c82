#!/usr/bin/env python3
"""The full StreamBench campaign — the paper's evaluation, end to end.

Runs every (system × query × SDK × parallelism) combination and prints the
paper's Figures 6-11 and Tables I-III, with the paper's published values
side by side.  Reduced scale by default for a quick run; pass ``--full``
for the 1,000,001-record, 10-run campaign recorded in EXPERIMENTS.md.

Run:  python examples/streambench_campaign.py [--full]
"""

import argparse
import time

from repro.benchmark import BenchmarkConfig, StreamBenchHarness
from repro.benchmark.reporting import render_full_report
from repro.workloads.aol import FULL_SCALE_RECORDS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="run the paper's full-scale campaign"
    )
    parser.add_argument("--records", type=int, default=100_000)
    args = parser.parse_args()

    records = FULL_SCALE_RECORDS if args.full else args.records
    config = BenchmarkConfig(records=records, runs=10)
    print(
        f"running {len(config.systems)} systems x {len(config.queries)} queries "
        f"x {len(config.kinds)} SDKs x {len(config.parallelisms)} parallelisms "
        f"x {config.runs} runs on {records} records..."
    )
    started = time.time()
    harness = StreamBenchHarness(config)
    report = harness.run_matrix()
    print(f"done in {time.time() - started:.1f}s wall time\n")
    print(render_full_report(report))


if __name__ == "__main__":
    main()
