"""The repository benchmark: end-to-end and per-layer host time of the program.

Usage, from the repository root::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--json PATH] [--smoke] [--update-golden]

Each workload runs in its own fresh process (``bench/worker.py``), one
after another, with every inherited ``REPRO_*`` variable cleared and the
on-disk workload cache off, so each run measures the production defaults
from a cold set-up.  Set-up is also timed in further fresh processes and
reported as a median.  ``--trace`` adds per-layer self times from spans
installed around each layer's entry points; traced and untraced executions
of every operation alternate, and only the untraced ones feed the
end-to-end metrics.

The tables go to standard output; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and the exported ``metrics``.  The
full result, with provenance, is written to ``--json`` (default
``bench/_out/result-<seed>.json``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
#: Set-up is timed this many times per workload (the worker plus fresh
#: set-up-only processes); the median is reported.
SETUP_SAMPLES = 5
#: Environment every benchmark process runs with, beyond the inherited one
#: minus its ``REPRO_*`` variables.
PINNED_ENV = {"REPRO_WORKLOAD_CACHE": "0", "PYTHONPATH": "src"}


class BenchError(Exception):
    """A benchmark process failed to produce a result."""


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(arguments: list[str], timeout: float) -> dict:
    """Run ``worker.py`` in a fresh process; return its JSON result."""
    command = [sys.executable, str(BENCH / "worker.py"), *arguments, "--spawned-at"]
    command.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(arguments)}: no result within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(arguments)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    """Commit and dirty flag, or ``None`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"git_commit": None, "git_dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()

    try:
        return {"git_commit": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}


def run_workload(name: str, args: argparse.Namespace) -> dict:
    common = ["--workload", name, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    setups = [
        spawn(["--mode", "setup", *common], timeout=120)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    seconds = 0 if args.smoke else args.seconds
    worker_args = ["--mode", "run", *common, "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.update_golden:
        worker_args.append("--no-golden")
    result = spawn(worker_args, timeout=max(150.0, 4 * args.seconds + 60))
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.4g}"


def print_result(suite, result: dict, trace: bool) -> None:
    print(
        f"== {result['workload']}  seed {result['seed']}  {result['operations']} operations"
        f" x {result['records_per_operation']:,} records  {result['executions']} executions"
        f" in {result['timed_s']:.1f} s"
    )
    for metric in suite.END_TO_END:
        if metric.name in result["metrics"]:
            bound = "" if metric.bound is None else f"  bound {metric.bound:.0%}"
            print(
                f"  {metric.name:<22} {fmt(result['metrics'][metric.name]):>12} {metric.unit:<10}"
                f" {metric.better} is better{bound}"
            )
    if result["probe_samples"]:
        print(f"  probe samples          {result['probe_samples']:>12}")
    print(
        f"  unscaled campaign {fmt(result['metrics']['campaign_raw_s'])} s;"
        f" median reference job {result['reference_s'] * 1e3:.2f} ms"
    )
    print(f"  setup samples (s)      {', '.join(f'{s:.3f}' for s in result['setup_samples'])}")
    print(f"  failed {result['failed']} of {result['attempted']}; golden: {result['golden']}")
    for failure in result["failures"]:
        print(f"    {failure}")
    if trace:
        layers = result["layers"]
        print("  per layer, per campaign (self seconds, counts, ratios):")
        for metric in suite.PER_LAYER:
            print(f"    {metric.name:<38} {fmt(layers.get(metric.name, 0.0)):>12} {metric.unit}")
        totals = result["trace_totals"]
        print(f"  traced self {totals['self_s']:.3f} s of traced wall {totals['wall_s']:.3f} s")


def summary(suite, results: list[dict], trace: bool) -> dict:
    """The result line: exported metrics of this mode, by name with unit."""
    exported = [m for m in (suite.PER_LAYER if trace else suite.END_TO_END) if m.exported]
    metrics = {}
    for result in results:
        values = result["layers"] if trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric in exported:
            metrics[prefix + metric.name] = {"value": values.get(metric.name), "unit": metric.unit}
    failed = sum(r["failed"] for r in results)
    complete = all(entry["value"] is not None for entry in metrics.values())
    return {
        "correct": failed == 0 and complete,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def update_golden(results: list[dict], seed: int, smoke: bool) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    per_seed = golden.setdefault("smoke" if smoke else "full", {}).setdefault(str(seed), {})
    for result in results:
        per_seed[result["workload"]] = result["digests"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=suite.names(),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=suite.RUN_SECONDS,
                        help="measure this long; comparisons pass BENCHMARK.json's run_seconds, "
                        "which is the default (every operation still runs twice)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", type=Path, help="write the full result here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{suite.SMOKE_RECORDS:,} records, {suite.SMOKE_PROBE_RECORDS:,} "
                        "per probe, Flink only, each operation twice (ignores --seconds)")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite this seed's digests in golden.json")
    args = parser.parse_args()
    names = args.workload or suite.names()

    try:
        build = spawn(["--mode", "build"], timeout=900)
        results = [run_workload(name, args) for name in names]
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2

    for result in results:
        print_result(suite, result, bool(args.trace))
    line = summary(suite, results, bool(args.trace))
    provenance = {
        **git_state(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": build["numpy"],
        "native_generator": build["native_generator"],
        "pinned_env": PINNED_ENV,
        "seed": args.seed,
        "profile": "smoke" if args.smoke else "full",
        "run_seconds": 0 if args.smoke else args.seconds,
        "inputs": {
            r["workload"]: {
                "operations": r["operations"],
                "records_per_operation": r["records_per_operation"],
            }
            for r in results
        },
    }
    print("provenance " + json.dumps(provenance))
    out = args.json or BENCH / "_out" / f"result-{args.seed}{'-trace' if args.trace else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"provenance": provenance, "results": results, "summary": line}, indent=1))
    if args.update_golden:
        if not line["correct"]:
            print("bench: not updating golden.json: checks failed", file=sys.stderr)
        else:
            update_golden(results, args.seed, args.smoke)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
