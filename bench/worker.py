"""One workload in one fresh process: set-up, timed loop, checks.

``bench/run.py`` starts this script; it is not meant to be run by hand.
``--mode setup`` stops after set-up and reports its duration, ``--mode
build`` only imports the program and compiles its native generator.  The
result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import suite
from tracer import TARGETS, Tracer, self_times

OUT_DIR = Path(__file__).resolve().parent / "_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
#: Every operation runs at least this often, so each run also checks that
#: repeating an operation in one process gives the same digest.
MIN_EXECUTIONS = 2

#: Seconds :func:`reference` takes on the baseline host at its normal speed
#: (2-CPU host, Python 3.11.7).  Reported times are scaled by this over the
#: reference time measured around them: host seconds at the baseline speed.
REFERENCE_S = 0.0100
_REFERENCE_BYTES = bytes(range(256)) * 8192
_REVERSED = bytes(range(255, -1, -1))


def reference() -> float:
    """Host seconds of a fixed job: dict/str interpreter work plus a bulk
    byte pass, the two kinds of work the program does.

    A shared host can run slower for minutes at a time (the 2-CPU baseline
    host does, by up to 2x).  Timing this job between executions tracks
    that drift, and scaling by it cancels most of it (see README.md).
    """
    start = perf_counter()
    counts: dict[str, int] = {}
    out = []
    for i in range(15_000):
        key = "k%d" % (i % 997)
        counts[key] = counts.get(key, 0) + 1
        out.append(key[:2] + str(i))
    _REFERENCE_BYTES.translate(_REVERSED).split(b"\x07")
    return perf_counter() - start


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


#: Untraced sweep executions still time each capacity probe (the end-to-end
#: probe latency), with a tracer that wraps ``run_probe`` alone.
PROBE_TARGETS = tuple(target for target in TARGETS if target[3] == "capacity.probe")


class Execution:
    """One execution of one operation."""

    __slots__ = (
        "op_id", "traced", "seconds", "scale", "result", "error", "probes", "layers", "counts"
    )

    def __init__(self, op_id: str, traced: bool) -> None:
        self.op_id = op_id
        self.traced = traced
        self.seconds = 0.0
        #: ``REFERENCE_S`` over the reference time around this execution.
        self.scale = 1.0
        self.result = None
        self.error: str | None = None
        self.probes: list[float] = []
        self.layers: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    @property
    def scaled_s(self) -> float:
        """Host seconds at the baseline speed."""
        return self.seconds * self.scale


def execute(workload, config, op_id, op, tracer) -> Execution:
    """Run one operation; ``tracer`` is the full tracer of a traced execution."""
    run = Execution(op_id, traced=tracer is not None)
    if tracer is None and workload.sweep:
        tracer = Tracer(PROBE_TARGETS)
    if tracer is not None:
        counts_before = tracer.counts.copy()
        first_span = len(tracer.spans)
        tracer.install()
    start = perf_counter()
    try:
        run.result = suite.run(workload, config, op)
    except Exception:
        run.error = traceback.format_exc(limit=4)
    # Each operation's world is cyclic garbage once it returns.  Collecting
    # it here charges the operation for its own garbage and starts the next
    # one from the same heap, instead of wherever the collector next runs.
    gc.collect()
    run.seconds = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if run.traced:
        run.layers = self_times(tracer.spans, first_span, len(tracer.spans))
        run.counts = dict(tracer.counts - counts_before)
    elif tracer is not None:
        run.probes = [end - begin for _, begin, end, _ in tracer.spans]
    return run


def timed_loop(workload, config, ops, seconds, tracer):
    """Cycle through the operations for ``seconds``, each at least twice.

    With a tracer, every operation runs untraced and traced back to back,
    alternating which goes first, so drift over the run cancels.  The
    reference job runs between executions; each execution is scaled by the
    mean of the references just before and just after it.  Returns the
    executions, the loop's wall time and the reference times.
    """
    executions: list[Execution] = []
    references: list[float] = []
    sides_per_pass = 1 if tracer is None else 2
    min_positions = len(ops) * -(-MIN_EXECUTIONS // sides_per_pass)
    started = perf_counter()
    position = 0
    while position < min_positions or perf_counter() - started < seconds:
        op_id, op = ops[position % len(ops)]
        if tracer is None:
            sides = (None,)
        elif (position // len(ops)) % 2 == 0:
            sides = (None, tracer)
        else:
            sides = (tracer, None)
        for side in sides:
            references.append(reference())
            executions.append(execute(workload, config, op_id, op, side))
        position += 1
    timed_s = perf_counter() - started
    references.append(reference())
    for run, before, after in zip(executions, references, references[1:]):
        run.scale = 2 * REFERENCE_S / (before + after)
    return executions, timed_s, references


def check_executions(workload, config, ops, executions, golden) -> tuple[list[str], dict]:
    """Failed checks (one entry per problem) and each operation's digest."""
    expected = suite.expectations(workload, config, ops)
    op_index = dict(ops)
    digests: dict[str, str] = {}
    failures: list[str] = []
    for run in executions:
        if run.error is not None:
            problems = [run.error.strip().splitlines()[-1]]
        else:
            problems = suite.check(
                workload, config, run.op_id, op_index[run.op_id], run.result, expected
            )
            value = suite.digest(run.result)
            if digests.setdefault(run.op_id, value) != value:
                problems.append("digest differs from an earlier execution in this process")
            if golden is not None and golden.get(run.op_id) != value:
                problems.append("digest differs from golden.json")
        run.error = "; ".join(problems) or None
        failures.extend(f"{run.op_id}: {problem}" for problem in problems)
    return failures, digests


def fastest(executions, ops, traced: bool) -> dict[str, Execution] | None:
    """Each operation's fastest passing execution, by scaled time; ``None``
    if one has none."""
    best: dict[str, Execution] = {}
    for run in executions:
        if run.traced == traced and run.error is None:
            if run.op_id not in best or run.scaled_s < best[run.op_id].scaled_s:
                best[run.op_id] = run
    return best if len(best) == len(ops) else None


def campaign_time(best: dict[str, Execution]) -> float:
    return sum(run.scaled_s for run in best.values())


def end_to_end(workload, config, ops, executions, peak_rss: float) -> tuple[dict, int]:
    """Campaign time: host noise only ever slows an execution down, so each
    operation's fastest scaled execution is its steadiest estimate."""
    best = fastest(executions, ops, traced=False)
    campaign_raw_s = sum(run.seconds for run in best.values()) if best else None
    campaign_s = campaign_time(best) if best else None
    metrics = {
        "campaign_s": campaign_s,
        "campaign_raw_s": campaign_raw_s,
        "throughput_rps": (
            sum(suite.records_processed(workload, config, run.result) for run in best.values())
            / campaign_s
            if best
            else None
        ),
        "peak_rss_mb": peak_rss,
        "error_rate": sum(run.error is not None for run in executions) / len(executions),
    }
    probes = [
        p * run.scale
        for run in executions
        if not run.traced and run.error is None
        for p in run.probes
    ]
    if len(probes) > 1:
        percentiles = statistics.quantiles(probes, n=100, method="inclusive")
        metrics["probe_p50_ms"] = percentiles[49] * 1e3
        metrics["probe_p95_ms"] = percentiles[94] * 1e3
    return metrics, len(probes)


def layer_metrics(executions, ops, setup_layers: dict, campaign_s: float | None) -> dict:
    """Scaled self seconds and counts per campaign, from each operation's
    fastest traced execution (plus the traced set-up, already scaled), and
    the ratios built on them."""
    best = fastest(executions, ops, traced=True) or {}
    seconds: dict[str, float] = dict(setup_layers)
    counts: dict[str, int] = {}
    for run in best.values():
        for name, value in run.layers.items():
            seconds[name] = seconds.get(name, 0.0) + value * run.scale
        for name, value in run.counts.items():
            counts[name] = counts.get(name, 0) + value

    def ratio(numerator: float, denominator: float | None) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {f"{name}_s": value for name, value in seconds.items()}
    for name in (
        "broker.append_calls",
        "broker.append_records",
        "broker.poll_records",
        "broker.poll_values_calls",
        "engines.sharded_chunk_calls",
        "dataflow.lower_calls",
        "capacity.probes",
    ):
        metrics[name] = counts.get(name, 0)
    beam_records = counts.get("beam.kafka_records", 0)
    metrics["sender.ingests_per_cell"] = ratio(
        counts.get("sender.sends", 0), counts.get("parallel.cells", 0)
    )
    metrics["beam.records_materialised_per_input"] = ratio(
        counts.get("broker.poll_records", 0) + beam_records, beam_records
    )
    metrics["dataflow.kernel_ratio"] = ratio(
        counts.get("dataflow.lowered", 0), counts.get("dataflow.lower_calls", 0)
    )
    metrics["capacity.sustainable_ratio"] = ratio(
        counts.get("capacity.sustainable", 0), counts.get("capacity.probes", 0)
    )
    metrics["trace.overhead_ratio"] = ratio(
        campaign_time(best) if len(best) == len(ops) else 0.0, campaign_s
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("run", "setup", "build"), default="run")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--no-golden", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    if args.mode == "build":
        import numpy

        from repro.workloads.columnar import native_generator_available

        print(json.dumps({"native_generator": native_generator_available(), "numpy": numpy.__version__}))
        return 0

    workload = suite.get(args.workload)
    config = suite.make_config(workload, args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    suite.prepare_inputs(workload, config)
    if tracer is not None:
        tracer.uninstall()
    setup_raw_s = time.monotonic() - args.spawned_at
    # Set-up is one execution too long for a reference on each side; the
    # median of ten right after it tracks the host speed it ran at.
    setup_scale = REFERENCE_S / statistics.median(reference() for _ in range(10))
    setup_s = setup_raw_s * setup_scale
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    ops = suite.operations(workload, config)
    setup_spans = len(tracer.spans) if tracer is not None else 0
    executions, timed_s, references = timed_loop(workload, config, ops, args.seconds, tracer)
    # Read before the checks below, which allocate for themselves.
    peak_rss = peak_rss_mb()

    # Correctness, outside the timed section.
    golden = None
    if not args.no_golden and GOLDEN.exists():
        profile = "smoke" if args.smoke else "full"
        golden = json.loads(GOLDEN.read_text()).get(profile, {}).get(str(args.seed), {}).get(workload.name)
    failures, digests = check_executions(workload, config, ops, executions, golden)
    metrics, probe_samples = end_to_end(workload, config, ops, executions, peak_rss)
    failed = sum(run.error is not None for run in executions)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "operations": len(ops),
        "records_per_operation": suite.input_records(workload, config),
        "executions": len(executions),
        "timed_s": timed_s,
        "reference_s": statistics.median(references),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "attempted": len(executions),
        "failed": failed,
        "failures": failures[:20],
        "golden": "skipped" if args.no_golden else ("compared" if golden else "none for this seed"),
        "digests": digests,
        "metrics": metrics,
        "probe_samples": probe_samples,
        "samples": {
            op_id: [run.scaled_s for run in executions if run.op_id == op_id and not run.traced]
            for op_id, _ in ops
        },
    }
    if tracer is not None:
        setup_layers = self_times(tracer.spans, 0, setup_spans)
        result["layers"] = layer_metrics(
            executions,
            ops,
            {name: value * setup_scale for name, value in setup_layers.items()},
            metrics["campaign_s"],
        )
        # Wall time of the traced sections: traced operations plus the
        # traced calls of set-up.  Self times can only sum to less.
        setup_wall = sum(
            end - start for _, start, end, parent in tracer.spans[:setup_spans] if parent < 0
        )
        result["trace_totals"] = {
            "self_s": sum(sum(run.layers.values()) for run in executions if run.traced)
            + sum(setup_layers.values()),
            "wall_s": sum(run.seconds for run in executions if run.traced) + setup_wall,
        }
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-{args.seed}.json"
        trace_path.write_text(
            json.dumps({"workload": workload.name, "seed": args.seed, "spans": tracer.spans})
        )
        result["trace_file"] = os.path.relpath(trace_path, Path.cwd())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
