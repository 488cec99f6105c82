"""Host-performance benchmarks for the execution fast path.

Unlike everything else in ``benchmarks/`` (which measures *simulated*
time), this harness measures **host wall-clock**: how many records per
second the simulator itself pushes through the pump, and how long a
full-scale (1,000,001-record) Figure-5 campaign takes on the machine
running it.  The motivation mirrors StreamBench/PDSP-Bench: harness
overhead must be negligible relative to the system under test — here the
"harness" is the Python host process, and the "system" is the simulated
pipeline.

The measurements:

* **Pump microbenchmarks** — the same stage pipeline is pumped through
  both execution tiers: the per-record reference loop (``tuple``,
  ``vectorized=False``) and the compiled-kernel path (``kernel``, the
  production default — see ``repro.dataflow.kernels``); outputs are
  asserted identical and the kernel's speedup over the tuple path is
  reported.  The ``identity-op`` scenario is the headline: a
  pass-through operator over the decoded record list, which the
  reference loop calls once per record and the kernel tier hands on
  chunk by chunk, so it times per-record dispatch.  The keyed
  scenarios (stateful wordcount and the Nexmark Q3/Q4/Q5 queries over
  encoded events) exercise the stateful kernel tier and the plan
  compiler's decode fusion.  The other AOL scenarios pump the
  workload's slab column, the Figure-5 input, so the kernels take their
  slab paths; every timed run gets a fresh slab over the same byte
  columns, so each kernel run builds its slab derivations
  (:meth:`~repro.dataflow.kernels.WorkloadSlab.derived`) instead of
  reading a previous run's.
* **Warm slab** — the four stateful slab paths (wordcount,
  distinct-count, statistics, windowed) through both tiers over a slab
  whose derivations an untimed run built first: the per-window path
  that every campaign cell after a slab's first repeats, which the
  microbenchmark's fresh slabs hide behind the builds.
* **Slab derivations** — the one-off build time and the retained bytes
  of each whole-slab result the slab paths memoise (grep hits, the
  projected column, the query field, its word ids, the windowed pane
  codes) on the 1,000,001-row and 250,000-row slabs.  A campaign's
  fastest executions read these as memo hits, so this is where a slower
  build shows.
  Reported only, never gated.
* **Generation** — cold workload generation, slab-direct byte columns
  (``repro.workloads.columnar``) vs the per-record string generator.
  The ratio is the CI floor for the columnar plane's reason to exist.
* **End-to-end** — a native-Flink identity run over the full Figure-5
  path (ingest -> engine -> output topic -> result calculator), timed
  phase by phase in a fresh child process, with disk caches disabled so
  the generation phase is genuinely cold and the peak RSS is the
  campaign's own.
  Workload generation is reported separately: it is not part of the
  paper's pipeline (the AOL file pre-exists on disk).
* **Workload cache** — cold generation vs a warm mmap load of the
  cache's columnar entry.
* **Capacity** — the simulated sustainable-throughput knee of one cell
  and an overload probe at twice the knee, plus the host time of the
  probe loop: milliseconds per probe and per drain (poll, stage walk,
  acknowledge) of one P=1 and one P=2 scalability sweep point of each
  sweep query.
* **Scalability curves** — the *simulated* capacity knee swept over
  pipeline parallelism per system × SDK kind
  (:meth:`~repro.benchmark.capacity.CapacityRunner.run_scalability`).
  These are deterministic, host-independent numbers: the knee must rise
  monotonically and sub-linearly with P (the broker append/fetch path is
  the serial Amdahl fraction), and the Beam knee must sit at or below
  native at every level (``scalability_curves`` in the JSON).

Everything but the end-to-end campaign runs in one process.  Results
are written to ``BENCH_pump.json`` at the repository root, with a
``host`` block naming the machine they ran on and an append-only
``history``: each run of this script adds one entry (commit, headline
ratio, end-to-end ingest and execute + measure seconds, host); each
microbenchmark scenario records records/sec for both paths plus
``speedup`` (kernel over tuple, the headline ratio).  CI's perf-smoke
job gates on the *speedups*
(machine-independent ratios) against ``benchmarks/perf/baseline.json``
and on the absolute per-query kernel floors — absolute throughput is
recorded for trend-watching but not gated, because runner hardware
varies.

Run directly for the full-scale campaign::

    PYTHONPATH=src python benchmarks/perf/pump_bench.py --records 1000001
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.harness import StreamBenchHarness
from repro.benchmark.queries import SAMPLE_FRACTION, get_query
from repro.workloads.nexmark import NexmarkGenerator
from repro.workloads.nexmark_queries import (
    nexmark_decode,
    q3_local_item_suggestion,
    q4_category_average,
    q5_hot_items,
)
from repro.dataflow.functions import (
    FilterFunction,
    IdentityFunction,
    MapFunction,
    StreamFunction,
    compose,
)
from repro.dataflow.compiler import lower_stage
from repro.dataflow.kernels import KernelSpec, SlabColumn, slab_from_columns
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from repro.workloads.aol import GREP_NEEDLE, AolWorkload, generate_records

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "BENCH_pump.json"
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baseline.json"

#: Headline scenario for the CI gate (per-record dispatch vs a passthrough).
HEADLINE_SCENARIO = "identity-op"

#: Keyed/stateful scenarios: per-key state in the hot loop.  The
#: Nexmark ones pump *encoded* events through ``decode |> query`` — the
#: shape the plan compiler fuses into a wire kernel that parses only what
#: the query consumes — and carry the ≥3x CI floor.  ``wordcount``'s
#: kernel runs over the slab column emit a field column of word ids and
#: counts, so on a warm slab they take a few milliseconds per 200k
#: records; each timed run gets a fresh slab, though, and then builds the
#: query field and its word ids (about 95% of the run), so its ratio stays
#: under the ≥3x floor and it is gated by the baseline-regression family
#: only, and its per-window path over a warm slab
#: (:func:`run_warm_slab_bench`); see docs/architecture.md.
#: ``windowed`` counts hourly panes per first word over the AOL slab
#: column, the kernel's pane tally against the reference's per-record
#: pane fold; it is gated the same two ways.
KEYED_SCENARIOS = ("wordcount", "windowed", "nexmark-q3", "nexmark-q4", "nexmark-q5")

#: Nexmark generator seed for the keyed microbenchmarks.
NEXMARK_SEED = 8

#: Q5 window for the microbenchmark.  Events advance 0.01 s apiece, so a
#: 200k-event stream spans ~2,000 simulated seconds; 300 s windows give a
#: NEXMark-faithful hot-items horizon (the original Q5 windows by the
#: hour).  The 10 s default would make nearly every (auction, window)
#: pane unique, and materialising ~160k panes at drain — identical work
#: in every tier — would swamp the processing cost the tiers differ on.
Q5_WINDOW_SECONDS = 300.0


def _project(line: str) -> str:
    return line.split("\t")[0]


def _grep(line: str) -> bool:
    return GREP_NEEDLE in line


def _scenario_functions() -> dict[str, tuple[str, Callable[[], StreamFunction]]]:
    """Per-scenario ``(record_source, operator_factory)`` pairs.

    Fresh functions per run so stateful/RNG scenarios start identically;
    the sample filter gets its own fixed-seed RNG for the same reason.
    Each function declares its :class:`KernelSpec` exactly as the real
    StreamBench/Nexmark queries do, so the ``kernel`` tier exercises the
    same compiled kernels production runs use.  ``record_source`` is
    ``"aol"`` (the StreamBench workload's slab column), ``"aol-records"``
    (its decoded record list) or ``"nexmark"`` (encoded auction events)
    — the Nexmark queries consume the wire format so the plan compiler's
    decode fusion is on the timed path.
    """
    return {
        # Pass-through operator over a list: the per-record dispatch
        # cost alone (on the slab column the kernel would hand the
        # column on without touching a record).
        "identity-op": ("aol-records", lambda: IdentityFunction()),
        "grep": (
            "aol",
            lambda: FilterFunction(
                _grep,
                name="Grep",
                cost_weight=0.4,
                kernel_spec=KernelSpec.contains(GREP_NEEDLE),
            ),
        ),
        "projection": (
            "aol",
            lambda: MapFunction(
                _project,
                name="Projection",
                cost_weight=4.6,
                kernel_spec=KernelSpec.column(0, "\t"),
            ),
        ),
        "sample": ("aol", lambda: _sample_function()),
        # A fused three-part chain, as Flink operator chaining produces.
        "chained": (
            "aol",
            lambda: compose(
                [
                    _sample_function(),
                    MapFunction(
                        _project,
                        name="Projection",
                        kernel_spec=KernelSpec.column(0, "\t"),
                    ),
                    IdentityFunction(),
                ]
            ),
        ),
        # Keyed/stateful scenarios (KEYED_SCENARIOS above).
        "wordcount": (
            "aol",
            lambda: get_query("wordcount").make_function(random.Random(0)),
        ),
        "windowed": (
            "aol",
            lambda: get_query("windowed").make_function(random.Random(0)),
        ),
        "nexmark-q3": (
            "nexmark",
            lambda: compose([nexmark_decode(), q3_local_item_suggestion()]),
        ),
        "nexmark-q4": (
            "nexmark",
            lambda: compose([nexmark_decode(), q4_category_average()]),
        ),
        "nexmark-q5": (
            "nexmark",
            lambda: compose(
                [nexmark_decode(), q5_hot_items(window_seconds=Q5_WINDOW_SECONDS)]
            ),
        ),
    }


def _sample_function() -> FilterFunction:
    rng = random.Random(42)
    return FilterFunction(
        lambda _line: rng.random() < SAMPLE_FRACTION,
        name="Sample",
        cost_weight=0.3,
        kernel_spec=KernelSpec.bernoulli(SAMPLE_FRACTION, rng),
    )


def _build_stages(function: StreamFunction) -> list[PhysicalStage]:
    """A minimal source -> operator -> sink pipeline around ``function``."""
    return [
        PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-7)),
        PhysicalStage(
            "op", StageKind.OPERATOR, StageCosts(per_weight=1e-7), function=function
        ),
        PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-7)),
    ]


#: Execution tiers timed by the microbenchmark, as their ``vectorized`` setting.
TIERS: dict[str, bool] = {"tuple": False, "kernel": True}


def _time_pump_once(
    make_function: Callable[[], StreamFunction],
    records: Sequence[str],
    tier: str,
) -> tuple[float, int]:
    """One timed pump run on ``tier``; returns (seconds, records_out)."""
    function = make_function()
    function.open()
    pump = StreamPump(
        simulator=Simulator(seed=7),
        stages=_build_stages(function),
        variance=RunVariance(),
        rng=random.Random(7),
    )
    pump.vectorized = TIERS[tier]
    started = time.perf_counter()
    result = pump.run(records)
    seconds = time.perf_counter() - started
    function.close()
    return seconds, result.records_out


def _fresh_column(records: Sequence[str]) -> Sequence[str]:
    """``records``, or for a slab column the same rows of a fresh slab.

    The fresh slab shares the column's byte columns (zero-copy) and its
    decoded records, but none of its memoised derivations.
    """
    if type(records) is not SlabColumn:
        return records
    slab = records.slab
    fresh = slab_from_columns(slab.data, slab.starts)
    fresh.records = slab.records
    return SlabColumn(fresh, records.start, records.stop)


def _time_tiers(
    name: str,
    make_function: Callable[[], StreamFunction],
    make_input: Callable[[], Sequence[str]],
    repeats: int,
) -> dict[str, Any]:
    """Best-of-``repeats`` pump runs of both tiers over ``make_input()``,
    interleaved and rotated; records/sec per tier and their ratio.

    Each repeat times both tiers back to back in a per-repeat rotated
    order, and each tier keeps its best repeat.  The tiers must emit the
    same number of records.
    """
    tier_names = list(TIERS)
    seconds: dict[str, float] = {tier: float("inf") for tier in TIERS}
    outs: dict[str, int] = {}
    n_in = 0
    for rep in range(repeats):
        shift = rep % len(tier_names)
        for tier in tier_names[shift:] + tier_names[:shift]:
            records = make_input()
            n_in = len(records)
            elapsed, outs[tier] = _time_pump_once(make_function, records, tier)
            seconds[tier] = min(seconds[tier], elapsed)
    if len(set(outs.values())) != 1:
        raise AssertionError(f"{name}: tiers emitted different counts: {outs}")
    return {
        "records": n_in,
        "records_out": outs["kernel"],
        "tuple_records_per_sec": round(n_in / seconds["tuple"]),
        "kernel_records_per_sec": round(n_in / seconds["kernel"]),
        # The headline ratio: compiled kernels vs the tuple reference.
        "speedup": round(seconds["tuple"] / seconds["kernel"], 2),
    }


def run_microbenchmark(num_records: int = 200_000, repeats: int = 3) -> dict[str, Any]:
    """Pump both execution tiers over every scenario; returns results.

    Each scenario's output record count must agree across the tiers (the
    equivalence *test* suites prove bit-identity; this is the cheap sanity
    check that the timed code paths did the same work).

    Timing is *interleaved and rotated*: every repeat times both tiers
    back to back in a per-repeat rotated order, and each tier keeps
    its best repeat.  On thermally-throttled hosts a tier-major loop
    systematically flatters whichever tier runs first on a cool CPU, and
    a fixed within-repeat order flatters whichever tier follows the
    lightest predecessor; rotation exposes every tier to every position.
    The AOL records are decoded once, up front, and every timed run over
    the slab column reads a fresh slab (:func:`_fresh_column`) that
    shares them, so the tuple tier runs warm while each kernel run still
    builds its slab derivations (:func:`run_warm_slab_bench` times the
    stateful slab paths without them).
    """
    sources: dict[str, Sequence[str]] = {}

    def records_for(source: str) -> Sequence[str]:
        # One input per source, built lazily and shared across runs: the
        # AOL workload's slab column and decoded records, the Nexmark
        # events as a list.
        if source not in sources:
            if source == "nexmark":
                sources[source] = NexmarkGenerator(
                    num_records, seed=NEXMARK_SEED
                ).encoded()
            else:
                workload = AolWorkload(num_records).columnar()
                sources["aol-records"] = workload.records
                sources["aol"] = workload.column()
        return sources[source]

    scenarios: dict[str, Any] = {}
    for name, (source, make_function) in _scenario_functions().items():
        records = records_for(source)
        scenarios[name] = {
            "source": source,
            **_time_tiers(name, make_function, lambda: _fresh_column(records), repeats),
        }
    return {
        "num_records": num_records,
        "repeats": repeats,
        "tiers": list(TIERS),
        "headline": HEADLINE_SCENARIO,
        "headline_speedup": scenarios[HEADLINE_SCENARIO]["speedup"],
        # The keyed family, surfaced as its own map for trend-watching
        # (same numbers as the scenario entries).
        "keyed_speedups": {
            name: scenarios[name]["speedup"] for name in KEYED_SCENARIOS
        },
        "scenarios": scenarios,
    }


#: The stateful slab paths :func:`run_warm_slab_bench` times.
WARM_SLAB_SCENARIOS = ("wordcount", "distinct-count", "statistics", "windowed")


def run_warm_slab_bench(num_records: int = 200_000, repeats: int = 3) -> dict[str, Any]:
    """Both tiers over a warm slab, per stateful slab path.

    A campaign builds each slab derivation once, in the first cell that
    reads it, and every later cell over the slab (11 of each query's 12
    Figure-5 setups) reads it built.  The microbenchmark times the build,
    which hides the per-window path that those cells repeat.  Here one
    untimed kernel run builds the query's derivations on a fresh slab
    first, and then both tiers are timed over that slab as in
    :func:`run_microbenchmark`, so the kernel's time is its per-window
    path alone.
    """
    workload = AolWorkload(num_records).columnar()
    workload.records  # decoded once, untimed, and shared with every slab
    column = workload.column()
    scenarios: dict[str, Any] = {}
    for name in WARM_SLAB_SCENARIOS:

        def make_function(name: str = name) -> StreamFunction:
            return get_query(name).make_function(random.Random(0))

        warm = _fresh_column(column)
        _time_pump_once(make_function, warm, "kernel")  # builds the derivations
        scenarios[name] = _time_tiers(name, make_function, lambda: warm, repeats)
    return {"num_records": num_records, "repeats": repeats, "scenarios": scenarios}


def run_generation_bench(
    num_records: int = 200_000, repeats: int = 3
) -> dict[str, Any]:
    """Cold generation: slab-direct byte columns vs the string generator.

    Both paths are timed best-of-N from a cold start (no memo, no disk
    cache — ``generate_columns``/``generate_records`` are called
    directly), and the columnar byte stream is asserted bit-identical to
    ``"\\n".join(generate_records(...))`` before any ratio is reported.
    ``generation_speedup`` is the CI floor for the columnar plane.
    """
    from repro.workloads.columnar import generate_columns, native_generator_available

    object_seconds = float("inf")
    columnar_seconds = float("inf")
    reference: list[str] = []
    for _ in range(repeats):
        mark = time.perf_counter()
        reference = generate_records(num_records)
        object_seconds = min(object_seconds, time.perf_counter() - mark)

        mark = time.perf_counter()
        data, starts = generate_columns(num_records)
        columnar_seconds = min(columnar_seconds, time.perf_counter() - mark)
    if bytes(data) != "\n".join(reference).encode("ascii"):
        raise AssertionError("slab-direct generation diverged from reference")
    return {
        "records": num_records,
        "repeats": repeats,
        "native_generator": native_generator_available(),
        "object_seconds": round(object_seconds, 3),
        "columnar_seconds": round(columnar_seconds, 4),
        "generation_speedup": round(object_seconds / columnar_seconds, 2),
    }


#: Slab derivations as ``name -> query``: a 1-row window of the query's
#: kernel builds exactly that derivation on a fresh slab that holds the
#: derivations listed before it (the word and query ids are built from
#: the query field).
DERIVATIONS = {
    "grep_hits": "grep",
    "projection_column": "projection",
    "query_field": "statistics",
    "query_words": "wordcount",
    "query_ids": "distinct-count",
    "pane_ids": "windowed",
}


def _retained_bytes(value: Any) -> int:
    """Bytes a memoised derivation holds: array buffers, strings, the
    lookups' strings, the pane keys (a tuple of ``(word, start, end)``
    tuples, each counted with its two floats; the words are the first
    words, counted once), and a column slab's two columns."""
    if isinstance(value, tuple):
        if value and all(type(item) is tuple for item in value):  # pane keys
            words = {id(key[0]): key[0] for key in value}
            return (
                sys.getsizeof(value)
                + sum(sys.getsizeof(key) + 2 * sys.getsizeof(0.0) for key in value)
                + sum(map(sys.getsizeof, words.values()))
            )
        return sum(_retained_bytes(item) for item in value)
    if isinstance(value, SlabColumn):
        return value.slab.arr.nbytes + value.slab.starts.nbytes
    if isinstance(value, str):
        return sys.getsizeof(value)
    if value.dtype == object:  # a word or query lookup: its strings too
        return value.nbytes + sum(map(sys.getsizeof, value.tolist()))
    return value.nbytes


def run_derivation_bench(
    sizes: Sequence[int] = (1_000_001, 250_000), repeats: int = 3
) -> dict[str, Any]:
    """Build time and retained bytes of each slab derivation.

    For every size and derivation, each repeat runs the query's kernel
    over a 1-row window of a fresh slab over the workload's byte columns,
    which holds the derivations built before it, so the call builds
    just this one; the best repeat is reported, with the bytes the
    derivation holds.  Reporting only: a campaign's fastest executions
    read these results as memo hits, so a slower build shows here and
    nowhere else.
    """
    results: dict[str, Any] = {}
    for size in sizes:
        slab = AolWorkload(size).columnar().to_slab()
        entries: dict[str, Any] = {}
        built: dict = {}  # the derivations built so far, by memo key
        for name, query in DERIVATIONS.items():
            seconds = float("inf")
            for _ in range(repeats):
                fresh = slab_from_columns(slab.data, slab.starts)
                fresh._derived.update(built)
                kernel = lower_stage(get_query(query).make_function(random.Random(0)))
                started = time.perf_counter()
                kernel.call_slab(fresh, 0, SlabColumn(fresh, 0, 1))
                seconds = min(seconds, time.perf_counter() - started)
                kernel.flush()
            ((key, value),) = (
                item for item in fresh._derived.items() if item[0] not in built
            )
            built[key] = value
            entries[name] = {
                "build_seconds": round(seconds, 4),
                "retained_bytes": _retained_bytes(value),
            }
        results[str(size)] = entries
    return results


def run_end_to_end(num_records: int = 1_000_001) -> dict[str, Any]:
    """Time one native-Flink identity campaign phase by phase (host clock).

    The campaign runs in a fresh child process (``spawn``), so that its
    ``peak_rss_mb`` is the campaign's own resident high-water mark, not
    that of whatever this process ran before it.  Disk workload caches
    are disabled there, so ``workload_generation`` measures a genuinely
    cold start rather than a warm cache hit.  ``slab_decoded`` says
    whether anything turned the workload slab into record strings (the
    columnar plane should not).
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        return pool.submit(_end_to_end, num_records).result()


def _end_to_end(num_records: int) -> dict[str, Any]:
    """:func:`run_end_to_end`'s campaign, in the calling process."""
    from repro.workloads.cache import CACHE_ENV, clear_memo
    from repro.workloads.columnar import native_generator_available

    native_generator_available()  # load the compiled generator untimed
    previous_cache = os.environ.get(CACHE_ENV)
    os.environ[CACHE_ENV] = "0"
    clear_memo()
    try:
        phases: dict[str, float] = {}
        started = time.perf_counter()
        config = BenchmarkConfig(records=num_records, runs=1)
        harness = StreamBenchHarness(config)
        harness.workload.columnar()
        phases["workload_generation"] = time.perf_counter() - started

        mark = time.perf_counter()
        harness.ingest()
        phases["ingest"] = time.perf_counter() - mark

        mark = time.perf_counter()
        job, measurement = harness._execute_once(
            "flink",
            get_query("identity"),
            "native",
            1,
            harness.simulator.random.stream("perf/run"),
            harness.simulator.random.stream("perf/data"),
        )
        phases["execute_and_measure"] = time.perf_counter() - mark
        slab_decoded = harness.workload.columnar().to_slab().records is not None
    finally:
        if previous_cache is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = previous_cache
        clear_memo()

    pipeline_seconds = phases["ingest"] + phases["execute_and_measure"]
    return {
        "system": "flink",
        "query": "identity",
        "records": num_records,
        "records_out": job.records_out,
        # Microseconds: the ingest phase takes well under a millisecond.
        "phases_seconds": {k: round(v, 6) for k, v in phases.items()},
        "pipeline_seconds": round(pipeline_seconds, 6),
        "pipeline_records_per_sec": round(num_records / pipeline_seconds),
        "simulated_execution_time": round(measurement.execution_time, 3),
        "slab_decoded": slab_decoded,
        "peak_rss_mb": round(_peak_rss_kb() / 1024, 1),
    }


def run_workload_cache_bench(num_records: int = 200_000, repeats: int = 3) -> dict[str, Any]:
    """Time the workload cache: cold generation vs a warm mmap load.

    The on-disk cache exists because generation dominates campaign
    start-up.  A warm load is an mmap + header/checksum check with
    zero-copy column views (no record materialisation at all), so the
    reported ``columns_load_speedup`` ratio (cold ``generate_columns`` /
    best-of-``repeats`` load) is machine-independent enough to gate on.
    Cache files live in a throwaway directory under the repo's ``.cache/``
    and are removed afterwards.
    """
    from repro.workloads.cache import WorkloadCache
    from repro.workloads.columnar import generate_columns

    cache_root = REPO_ROOT / ".cache"
    cache_root.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-workloads-", dir=cache_root))
    try:
        cache = WorkloadCache(tmp, min_records=0)
        started = time.perf_counter()
        data, starts = generate_columns(num_records)
        generate_seconds = time.perf_counter() - started

        cache.store_columns(2006, num_records, data, starts)
        columns_load_seconds = float("inf")
        for _ in range(repeats):
            mark = time.perf_counter()
            workload = cache.load_columns(2006, num_records)
            columns_load_seconds = min(
                columns_load_seconds, time.perf_counter() - mark
            )
        if workload is None or bytes(workload.data) != bytes(data):
            raise AssertionError("columnar cache round-trip diverged")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "records": num_records,
        "generate_seconds": round(generate_seconds, 3),
        "columns_load_seconds": round(columns_load_seconds, 5),
        "columns_load_speedup": round(generate_seconds / columns_load_seconds, 2),
    }


def run_scalability_bench(
    num_records: int = 2_000, parallelisms: tuple[int, ...] = (1, 2, 4, 8)
) -> dict[str, Any]:
    """Scalability curves: the capacity knee swept over parallelism.

    Simulated-time measurement (deterministic under the seed, identical
    on every host): for flink and apex × native and Beam, the
    sustainable-throughput knee at each pipeline parallelism, with its
    speedup over the P=1 knee.  The curve shape is the point — the knee
    rises monotonically but sub-linearly (the broker append/fetch path
    does not parallelise, and the engines charge per-record coordination
    for P > 1), and Beam's knee trails native's at every level.  The
    query set covers a stateless filter (grep), an RNG-consuming filter
    (sample), a running aggregate (statistics) and windowed panes
    (windowed).  Only ``wall_seconds`` is host-dependent.
    """
    from repro.benchmark.capacity import CapacityRunner
    from repro.benchmark.config import CapacitySettings

    config = BenchmarkConfig(
        systems=("flink", "apex"),
        queries=("grep", "sample", "statistics", "windowed"),
        capacity=CapacitySettings(
            records=num_records,
            queue_bound=500,
            parallelisms=parallelisms,
            kinds=("native", "beam"),
        ),
    )
    started = time.perf_counter()
    report = CapacityRunner(config).run_scalability()
    wall = time.perf_counter() - started
    curves: dict[str, Any] = {}
    for system in config.systems:
        for kind in ("native", "beam"):
            for query in config.queries:
                curve = report.curve(system, kind, query)
                base = curve[0].sustainable_rate
                curves[f"{system}/{kind}/{query}"] = [
                    {
                        "parallelism": cell.parallelism,
                        "sustainable_rate": round(cell.sustainable_rate, 1),
                        "speedup_vs_p1": round(
                            cell.sustainable_rate / base, 2
                        ),
                        "proc_p99_ms": round(cell.proc_p99 * 1e3, 4),
                    }
                    for cell in curve
                ]
    return {
        "records_per_probe": num_records,
        "parallelisms": list(parallelisms),
        "kinds": ["native", "beam"],
        "queries": list(config.queries),
        "curves": curves,
        "wall_seconds": round(wall, 3),
    }


def _peak_rss_kb() -> int:
    """This process's peak resident set size in kilobytes.

    Prefers ``VmHWM`` from ``/proc/self/status``, which measures only this
    process's address space (``getrusage``'s ``ru_maxrss`` survives
    ``exec``); falls back to ``ru_maxrss`` where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def available_cpus() -> int:
    """CPUs this process may actually run on (scheduler affinity mask).

    ``os.cpu_count()`` reports the machine; a container or cgroup pinned
    to a subset of cores can only ever use its affinity set.  Falls back
    to ``cpu_count`` where ``sched_getaffinity`` does not exist (macOS).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


#: The scalability sweep point settings whose probe loop
#: :func:`run_probe_loop_bench` times: the sweep's queries, its 3,000-record
#: probes and the seed the repository benchmark defaults to.
PROBE_LOOP_SEED = 3972
PROBE_LOOP_RECORDS = 3_000
PROBE_LOOP_QUERIES = ("grep", "sample", "statistics", "windowed")


def run_probe_loop_bench(repeats: int = 5) -> dict[str, Any]:
    """Host time of the capacity probe loop, per probe and per drain.

    For one P=1 and one P=2 sweep point (flink, native) of each sweep
    query: one untimed knee search (``find_capacity``) counts its probes
    and drains (``Consumer.poll_values`` calls), then the fastest of
    ``repeats`` searches, timed with the collector off, is divided by
    each.  A drain polls one chunk, walks it through the pump (or the
    pump pool) and acknowledges it; the per-probe figure adds the
    probe's set-up, its admits and its end-of-probe flush and
    percentiles.
    """
    from repro.benchmark.capacity import find_capacity
    from repro.benchmark.config import CapacitySettings
    from repro.broker.consumer import Consumer

    config = BenchmarkConfig(
        seed=PROBE_LOOP_SEED,
        capacity=CapacitySettings(records=PROBE_LOOP_RECORDS),
    )
    points: dict[str, Any] = {}
    for query in PROBE_LOOP_QUERIES:
        for parallelism in (1, 2):

            def search():
                return find_capacity(
                    config, "flink", query, kind="native", parallelism=parallelism
                )

            drains = 0
            poll_values = Consumer.poll_values

            def counted(self, *args, **kwargs):
                nonlocal drains
                drains += 1
                return poll_values(self, *args, **kwargs)

            Consumer.poll_values = counted
            try:
                probes = search().probes
            finally:
                Consumer.poll_values = poll_values
            best = float("inf")
            for _ in range(repeats):
                gc.collect()
                gc.disable()
                try:
                    started = time.perf_counter()
                    search()
                    best = min(best, time.perf_counter() - started)
                finally:
                    gc.enable()
            points[f"{query}/p{parallelism}"] = {
                "probes": probes,
                "drains": drains,
                "search_ms": round(best * 1e3, 3),
                "ms_per_probe": round(best * 1e3 / probes, 4),
                "ms_per_drain": round(best * 1e3 / drains, 4),
            }
    return {
        "seed": PROBE_LOOP_SEED,
        "records_per_probe": PROBE_LOOP_RECORDS,
        "system": "flink",
        "kind": "native",
        "repeats": repeats,
        "points": points,
    }


def run_capacity_bench(num_records: int = 4_000) -> dict[str, Any]:
    """Sustainable-throughput scenario: the knee and its latency tails.

    Runs the open-loop capacity search for one representative cell
    (flink × grep), then an overload probe at twice the knee to record
    the bounded-queue safety margins.  Everything here is simulated-time
    measurement (deterministic under the seed) except ``wall_seconds``
    and the probe loop's host milliseconds (:func:`run_probe_loop_bench`).
    """
    from repro.benchmark.capacity import find_capacity, run_probe
    from repro.benchmark.config import CapacitySettings

    config = BenchmarkConfig(
        capacity=CapacitySettings(records=num_records, queue_bound=1_000)
    )
    started = time.perf_counter()
    cell = find_capacity(config, "flink", "grep")
    wall = time.perf_counter() - started
    overload = run_probe(config, "flink", "grep", cell.sustainable_rate * 2.0)
    return {
        "system": cell.system,
        "query": cell.query,
        "records_per_probe": num_records,
        "queue_bound": cell.queue_bound,
        "sustainable_rate": round(cell.sustainable_rate, 1),
        "probes": cell.probes,
        "latency_percentiles": {
            "event_p50": cell.event_p50,
            "event_p95": cell.event_p95,
            "event_p99": cell.event_p99,
            "proc_p50": cell.proc_p50,
            "proc_p95": cell.proc_p95,
            "proc_p99": cell.proc_p99,
        },
        "overload_2x": {
            "max_queue_depth": overload.max_queue_depth,
            "offered": overload.offered,
            "accepted": overload.accepted,
            "shed": overload.shed,
        },
        "wall_seconds": round(wall, 3),
        "probe_loop": run_probe_loop_bench(),
    }


def host_info() -> dict[str, Any]:
    """The host a benchmark payload was measured on."""
    import platform

    import numpy

    from repro.workloads.columnar import native_generator_available

    return {
        "cpu_affinity": available_cpus(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_generator": native_generator_available(),
    }


def git_state() -> dict[str, Any]:
    """The measured checkout's commit and whether its tree had changes
    (``None`` for both outside a git checkout)."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "--no-optional-locks", "-C", str(REPO_ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()

    try:
        return {
            "git_commit": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}


def history_entry(payload: dict[str, Any]) -> dict[str, Any]:
    """One entry of ``BENCH_pump.json``'s append-only ``history``: the
    checkout measured, the headline ratio, the end-to-end phases that the
    Figure-5 pipeline pays (``None`` when that section was skipped) and
    the host."""
    phases = payload.get("end_to_end", {}).get("phases_seconds", {})
    return {
        **git_state(),
        "identity_op_speedup": payload["microbenchmark"]["headline_speedup"],
        "ingest_seconds": phases.get("ingest"),
        "execute_and_measure_seconds": phases.get("execute_and_measure"),
        "host": host_info(),
    }


def write_bench(
    payload: dict[str, Any],
    path: pathlib.Path = BENCH_PATH,
    record: dict[str, Any] | None = None,
) -> None:
    """Persist one benchmark payload, with its ``host`` block, as the
    repo's ``BENCH_pump.json``.

    The file's ``history`` list is carried over unchanged, with
    ``record`` appended when given: entries are never rewritten.
    """
    history = []
    if path.exists():
        history = json.loads(path.read_text()).get("history", [])
    if record is not None:
        history.append(record)
    payload = {**payload, "host": host_info(), "history": history}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--records",
        type=int,
        default=1_000_001,
        help="end-to-end scale (default: the paper's 1,000,001)",
    )
    parser.add_argument(
        "--micro-records",
        type=int,
        default=200_000,
        help="microbenchmark input size (default 200,000)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--skip-end-to-end", action="store_true")
    parser.add_argument(
        "--cache-records",
        type=int,
        default=200_000,
        help="workload-cache benchmark scale (default 200,000)",
    )
    parser.add_argument("--skip-cache", action="store_true")
    parser.add_argument(
        "--capacity-records",
        type=int,
        default=4_000,
        help="records per probe for the capacity (sustainable-throughput) scenario",
    )
    parser.add_argument("--skip-capacity", action="store_true")
    parser.add_argument(
        "--scalability-records",
        type=int,
        default=2_000,
        help="records per probe for the scalability-curve sweep",
    )
    parser.add_argument("--skip-scalability", action="store_true")
    args = parser.parse_args()

    payload: dict[str, Any] = {
        "benchmark": "pump",
        "microbenchmark": run_microbenchmark(args.micro_records, args.repeats),
        "warm_slab": run_warm_slab_bench(args.micro_records, args.repeats),
        "generation": run_generation_bench(args.micro_records, args.repeats),
    }
    if not args.skip_cache:
        payload["workload_cache"] = run_workload_cache_bench(args.cache_records)
    if not args.skip_capacity:
        payload["capacity"] = run_capacity_bench(args.capacity_records)
    if not args.skip_scalability:
        payload["scalability_curves"] = run_scalability_bench(
            args.scalability_records
        )
    if not args.skip_end_to_end:
        payload["end_to_end"] = run_end_to_end(args.records)
    payload["derivations"] = run_derivation_bench(repeats=args.repeats)
    write_bench(payload, record=history_entry(payload))
    print(BENCH_PATH.read_text(), end="")
    print(f"\nwritten to {BENCH_PATH}")


if __name__ == "__main__":
    main()
