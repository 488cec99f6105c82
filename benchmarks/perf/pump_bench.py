"""Host-performance benchmarks for the execution fast path.

Unlike everything else in ``benchmarks/`` (which measures *simulated*
time), this harness measures **host wall-clock**: how many records per
second the simulator itself pushes through the pump, and how long a
full-scale (1,000,001-record) Figure-5 campaign takes on the machine
running it.  The motivation mirrors StreamBench/PDSP-Bench: harness
overhead must be negligible relative to the system under test — here the
"harness" is the Python host process, and the "system" is the simulated
pipeline.

Two kinds of measurement:

* **Pump microbenchmarks** — the same stage pipeline is pumped through
  both execution tiers: the per-record reference loop (``tuple``,
  ``vectorized=False``) and the compiled-kernel path (``kernel``, the
  production default — see ``repro.dataflow.kernels``); outputs are
  asserted identical and the kernel's speedup over the tuple path is
  reported.  The ``identity-op`` scenario is the headline: a
  pass-through operator measures pure host dispatch overhead, which is
  exactly what the kernels eliminate.  The keyed scenarios (stateful
  wordcount and the Nexmark Q3/Q4/Q5 queries over encoded events)
  exercise the stateful kernel tier and the plan compiler's decode
  fusion.
* **Generation** — cold workload generation, slab-direct byte columns
  (``repro.workloads.columnar``) vs the per-record string generator.
  The ratio is the CI floor for the columnar plane's reason to exist.
* **End-to-end** — a native-Flink identity run over the full Figure-5
  path (ingest -> engine -> output topic -> result calculator), timed
  phase by phase, with disk caches disabled so the generation phase is
  genuinely cold.
  Workload generation is reported separately: it is not part of the
  paper's pipeline (the AOL file pre-exists on disk).
* **Scale sweep** — chunk-streamed 1M/10M/100M ingest+grep runs in
  bounded memory: each spawned worker generates, ingests, drains and
  greps its shard O(chunk) bytes at a time, reporting clean per-process
  peak-RSS figures (``scale_sweep`` in the JSON).
* **Parallel drain** — partition-parallel *query execution* on the host
  clock: P worker processes, each with a per-shard consumer assigned to
  its own partition of a P-partition topic, drain the same workload
  through the production grep kernel.  Aggregate match counts are
  asserted against the generator's expectation at every topology, and
  the P=4-vs-P=1 wall-clock ratio is CI's drain-speedup floor on
  multi-core runners (``parallel_drain`` in the JSON).
* **Order-sensitive drains** — the same partition-parallel drain topology
  pointed at the order-sensitive kernels: the RNG-consuming sample
  filter and the running statistics aggregate.  Every shard
  asserts its *exact* expected output count (the reference RNG's kept
  count for sample, one running tuple per record for statistics) on any
  host, and the per-query P=4-vs-P=1 ratio carries the same ≥2x CI floor
  on multi-core runners (``sharded_order_sensitive`` in the JSON).
* **Scalability curves** — the *simulated* capacity knee swept over
  pipeline parallelism per system × SDK kind
  (:meth:`~repro.benchmark.capacity.CapacityRunner.run_scalability`).
  These are deterministic, host-independent numbers: the knee must rise
  monotonically and sub-linearly with P (the broker append/fetch path is
  the serial Amdahl fraction), and the Beam knee must sit at or below
  native at every level (``scalability_curves`` in the JSON).
* **Matrix scale** — the full 48-cell Figure-5 grid executed serially and
  through the parallel :class:`~repro.benchmark.parallel.MatrixRunner`
  (per-field report equality asserted), plus the workload cache's cold
  generation vs warm mmap load timings.  These record how long a
  campaign takes to *start and fan out* on the host, complementing the
  per-pump numbers.

Results are written to ``BENCH_pump.json`` at the repository root; each
scenario records records/sec for both paths plus ``speedup`` (kernel
over tuple, the headline ratio).  CI's perf-smoke job gates on the
*speedups* (machine-independent ratios) against
``benchmarks/perf/baseline.json`` and on the absolute per-query kernel
floors from the issue — absolute throughput is recorded for
trend-watching but not gated, because runner hardware varies.

Run directly for the full-scale campaign::

    PYTHONPATH=src python benchmarks/perf/pump_bench.py --records 1000001
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import tempfile
import time
from typing import Any, Callable

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
from repro.dataflow.kernels import KernelSpec
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from repro.workloads.aol import GREP_NEEDLE, generate_records

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "BENCH_pump.json"
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baseline.json"

#: Headline scenario for the CI gate (pure dispatch overhead).
HEADLINE_SCENARIO = "identity-op"

#: Keyed/stateful scenarios (ISSUE 7): per-key state in the hot loop.  The
#: Nexmark ones pump *encoded* events through ``decode |> query`` — the
#: shape the plan compiler fuses into a wire kernel that parses only what
#: the query consumes — and carry the ≥3x CI floor.  ``wordcount`` is
#: emit-bound (a fresh (word, count) tuple per word dominates all tiers),
#: so it reports its honest ratio under the baseline-regression family
#: only; see docs/architecture.md.
KEYED_SCENARIOS = ("wordcount", "nexmark-q3", "nexmark-q4", "nexmark-q5")

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
    ``"aol"`` (the StreamBench workload) or ``"nexmark"`` (encoded auction
    events) — the Nexmark queries consume the wire format so the plan
    compiler's decode fusion is on the timed path.
    """
    return {
        # Pass-through operator: measures pure per-record dispatch cost.
        "identity-op": ("aol", lambda: IdentityFunction()),
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
    records: list[str],
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
    The first kernel repeat also pays the one-off workload-slab build
    (shared by identity of the records list), so best-of-N reflects the
    warm steady state a campaign actually runs in.
    """
    sources: dict[str, list[str]] = {}

    def records_for(source: str) -> list[str]:
        # One record list per source, built lazily and shared across runs
        # (the workload slab is memoised by list identity).
        if source not in sources:
            if source == "nexmark":
                sources[source] = NexmarkGenerator(
                    num_records, seed=NEXMARK_SEED
                ).encoded()
            else:
                sources[source] = generate_records(num_records)
        return sources[source]

    scenarios: dict[str, Any] = {}
    tier_names = list(TIERS)
    for name, (source, make_function) in _scenario_functions().items():
        records = records_for(source)
        seconds: dict[str, float] = {tier: float("inf") for tier in TIERS}
        outs: dict[str, int] = {}
        n_in = len(records)
        for rep in range(repeats):
            shift = rep % len(tier_names)
            for tier in tier_names[shift:] + tier_names[:shift]:
                elapsed, outs[tier] = _time_pump_once(make_function, records, tier)
                seconds[tier] = min(seconds[tier], elapsed)
        if len(set(outs.values())) != 1:
            raise AssertionError(f"{name}: tiers emitted different counts: {outs}")
        scenarios[name] = {
            "source": source,
            "records": n_in,
            "records_out": outs["kernel"],
            "tuple_records_per_sec": round(n_in / seconds["tuple"]),
            "kernel_records_per_sec": round(n_in / seconds["kernel"]),
            # The headline ratio: compiled kernels vs the tuple reference.
            "speedup": round(seconds["tuple"] / seconds["kernel"], 2),
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


def run_end_to_end(num_records: int = 1_000_001) -> dict[str, Any]:
    """Time one native-Flink identity campaign phase by phase (host clock).

    Disk workload caches are disabled and memos cleared for the duration,
    so ``workload_generation`` measures a genuinely cold start rather than
    a warm cache hit.  ``slab_decoded`` says whether anything turned the
    workload slab into record strings (the columnar plane should not),
    and ``peak_rss_mb`` is this process's resident high-water mark after
    the campaign.
    """
    from repro.workloads.cache import CACHE_ENV, clear_memo

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
        "phases_seconds": {k: round(v, 3) for k, v in phases.items()},
        "pipeline_seconds": round(pipeline_seconds, 3),
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


def _drain_shard(
    num_records: int, seed: int, shard: int, n_shards: int
) -> dict[str, Any]:
    """One shard's ingest-then-drain world (top-level for pickling).

    The worker mmaps the shared columnar cache entry (pre-seeded by the
    parent), pushes a zero-copy window over its contiguous row range into
    its own partition of a P-partition topic, then assigns a consumer to
    exactly that partition and
    pumps the records through the production grep kernel chunk by chunk
    (poll -> process -> acknowledge, the capacity probe's drain loop).
    Only the drain phase is on the reported clock.
    """
    from repro.benchmark.sender import DataSender
    from repro.broker import AdminClient, BrokerCluster, Consumer, TopicPartition
    from repro.dataflow.metrics import JobMetrics
    from repro.simtime import Simulator
    from repro.workloads.cache import load_columnar_workload

    workload = load_columnar_workload(num_records, seed)
    column = workload.column()
    lo = shard * num_records // n_shards
    hi = (shard + 1) * num_records // n_shards

    simulator = Simulator(seed=11)
    cluster = BrokerCluster(simulator, num_nodes=n_shards)
    AdminClient(cluster).create_topic("parallel-drain", num_partitions=n_shards)
    sender = DataSender(cluster, "parallel-drain", create_topic=False, partition=shard)
    sender.send(column.view(lo, hi))

    function = FilterFunction(
        _grep,
        name="Grep",
        cost_weight=0.4,
        kernel_spec=KernelSpec.contains(GREP_NEEDLE),
    )
    function.open()
    pump = StreamPump(
        simulator=simulator,
        stages=_build_stages(function),
        variance=RunVariance(),
        rng=random.Random(7),
    )
    consumer = Consumer(cluster)
    consumer.assign([TopicPartition("parallel-drain", shard)])
    metrics = JobMetrics(f"parallel-drain/shard{shard}")
    matches = 0
    mark = time.perf_counter()
    while True:
        values = consumer.poll_values(max_records=8_192)
        if not values:
            break
        cost, outputs = pump._process_chunk(values, metrics)
        simulator.charge(cost)
        consumer.acknowledge()
        matches += len(outputs)
    cost, outputs = pump.drain(metrics)
    simulator.charge(cost)
    matches += len(outputs)
    drain_seconds = time.perf_counter() - mark
    function.close()
    return {
        "shard": shard,
        "records": hi - lo,
        "matches": matches,
        "drain_seconds": drain_seconds,
    }


def run_parallel_drain_bench(
    num_records: int = 2_000_000, parallelisms: tuple[int, ...] = (1, 4)
) -> dict[str, Any]:
    """Partition-parallel drain: P shard workers vs the single-pump path.

    For each topology the same workload splits into contiguous row ranges;
    one worker process per shard ingests its range into its own partition
    of a P-partition topic and drains it through the grep kernel with a
    per-shard consumer (``Consumer.assign([TopicPartition(topic, p)])``).
    Aggregate match counts are asserted against the generator's exact
    expectation for every topology — a drain that miscounts is not a
    measurement.  ``speedup`` is wall(P=1) / wall(P=max), the CI floor on
    multi-core runners; on a single-CPU affinity the workers cannot run
    concurrently at all, so it is reported as ``null`` with a note, as
    with the matrix section.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.workloads.aol import expected_grep_matches
    from repro.workloads.cache import ensure_columns_cached

    seed = 2006
    ensure_columns_cached(num_records, seed)
    expected = expected_grep_matches(num_records)
    per_parallelism: dict[str, Any] = {}
    walls: dict[int, float] = {}
    for n_shards in parallelisms:
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=n_shards) as pool:
            shards = list(
                pool.map(
                    _drain_shard,
                    [num_records] * n_shards,
                    [seed] * n_shards,
                    range(n_shards),
                    [n_shards] * n_shards,
                )
            )
        wall = time.perf_counter() - started
        walls[n_shards] = wall
        matched = sum(s["matches"] for s in shards)
        if matched != expected:
            raise AssertionError(
                f"P={n_shards} drain matched {matched}, expected {expected}"
            )
        per_parallelism[str(n_shards)] = {
            "parallelism": n_shards,
            "wall_seconds": round(wall, 3),
            "aggregate_records_per_sec": round(num_records / wall),
            "matches": matched,
            "per_shard": [
                {
                    "shard": s["shard"],
                    "records": s["records"],
                    "drain_seconds": round(s["drain_seconds"], 3),
                    "drain_records_per_sec": round(
                        s["records"] / s["drain_seconds"]
                    ),
                }
                for s in shards
            ],
        }
    result: dict[str, Any] = {
        "records": num_records,
        "parallelisms": list(parallelisms),
        "cpu_affinity": available_cpus(),
        "per_parallelism": per_parallelism,
        "speedup": round(walls[min(parallelisms)] / walls[max(parallelisms)], 2),
    }
    if available_cpus() == 1:
        result["speedup"] = None
        result["speedup_note"] = (
            "single-CPU affinity: drain workers cannot run concurrently, "
            "so P=1 vs P=N wall-clock is not a speedup measurement"
        )
    return result


#: Queries of the order-sensitive drain family, whose drains carry CI
#: speedup floors.  The windowed aggregate's knee-vs-parallelism
#: behaviour is gated through the simulated scalability curves instead —
#: its drain-phase pane materialisation would dominate a host-clock
#: ratio.
ORDER_SENSITIVE_DRAIN_QUERIES = ("sample", "statistics")


def _drain_order_sensitive_shard(
    num_records: int, seed: int, shard: int, n_shards: int, query: str
) -> dict[str, Any]:
    """One shard's drain world for an order-sensitive query (picklable).

    Mirrors :func:`_drain_shard`, but pumps the partition through the
    production sample or statistics kernel instead of grep, and computes
    the shard's *exact* expected output count: statistics emits one
    running ``(min, max, mean)`` tuple per record, and the sample
    kernel's bulk draw is bit-identical to the per-record
    reference draw ``rng.random() < SAMPLE_FRACTION``, so a fresh
    ``Random`` seeded like the worker's predicts the kept count exactly.
    The reference draws run after the timed drain, off the clock.
    """
    from repro.benchmark.sender import DataSender
    from repro.broker import AdminClient, BrokerCluster, Consumer, TopicPartition
    from repro.dataflow.metrics import JobMetrics
    from repro.simtime import Simulator
    from repro.workloads.cache import load_columnar_workload

    workload = load_columnar_workload(num_records, seed)
    column = workload.column()
    lo = shard * num_records // n_shards
    hi = (shard + 1) * num_records // n_shards

    simulator = Simulator(seed=11)
    cluster = BrokerCluster(simulator, num_nodes=n_shards)
    AdminClient(cluster).create_topic("order-drain", num_partitions=n_shards)
    sender = DataSender(cluster, "order-drain", create_topic=False, partition=shard)
    sender.send(column.view(lo, hi))

    rng_seed = seed + 31 * shard
    function = get_query(query).make_function(random.Random(rng_seed))
    function.open()
    pump = StreamPump(
        simulator=simulator,
        stages=_build_stages(function),
        variance=RunVariance(),
        rng=random.Random(7),
    )
    consumer = Consumer(cluster)
    consumer.assign([TopicPartition("order-drain", shard)])
    metrics = JobMetrics(f"order-drain/{query}/shard{shard}")
    outputs_seen = 0
    mark = time.perf_counter()
    while True:
        values = consumer.poll_values(max_records=8_192)
        if not values:
            break
        cost, outputs = pump._process_chunk(values, metrics)
        simulator.charge(cost)
        consumer.acknowledge()
        outputs_seen += len(outputs)
    cost, outputs = pump.drain(metrics)
    simulator.charge(cost)
    outputs_seen += len(outputs)
    drain_seconds = time.perf_counter() - mark
    function.close()
    if query == "sample":
        reference = random.Random(rng_seed)
        expected = sum(
            reference.random() < SAMPLE_FRACTION for _ in range(hi - lo)
        )
    else:
        expected = hi - lo
    return {
        "shard": shard,
        "records": hi - lo,
        "outputs": outputs_seen,
        "expected": expected,
        "drain_seconds": drain_seconds,
    }


def run_sharded_order_sensitive_bench(
    num_records: int = 2_000_000,
    parallelisms: tuple[int, ...] = (1, 4),
    queries: tuple[str, ...] = ORDER_SENSITIVE_DRAIN_QUERIES,
) -> dict[str, Any]:
    """Partition-parallel drains of the newly-sharded kernels.

    Same topology as :func:`run_parallel_drain_bench` — P worker
    processes, each with a per-shard consumer over its own partition —
    but per order-sensitive query.  Accounting is exact on any host:
    every shard's output count must equal its computed expectation (the
    reference RNG's kept count for sample, one tuple per record for
    statistics) or the run raises — a drain that miscounts is not a
    measurement.  Each query reports its own ``speedup``
    (wall(P=1) / wall(P=max), the CI floor on multi-core runners); on a
    single-CPU affinity the speedups are ``null`` with a note, matching
    the other partition-parallel sections.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.workloads.cache import ensure_columns_cached

    seed = 2006
    ensure_columns_cached(num_records, seed)
    single_cpu = available_cpus() == 1
    per_query: dict[str, Any] = {}
    for query in queries:
        per_parallelism: dict[str, Any] = {}
        walls: dict[int, float] = {}
        for n_shards in parallelisms:
            started = time.perf_counter()
            with ProcessPoolExecutor(max_workers=n_shards) as pool:
                shards = list(
                    pool.map(
                        _drain_order_sensitive_shard,
                        [num_records] * n_shards,
                        [seed] * n_shards,
                        range(n_shards),
                        [n_shards] * n_shards,
                        [query] * n_shards,
                    )
                )
            wall = time.perf_counter() - started
            walls[n_shards] = wall
            for s in shards:
                if s["outputs"] != s["expected"]:
                    raise AssertionError(
                        f"{query} P={n_shards} shard {s['shard']}: "
                        f"{s['outputs']} outputs, expected {s['expected']}"
                    )
            per_parallelism[str(n_shards)] = {
                "parallelism": n_shards,
                "wall_seconds": round(wall, 3),
                "aggregate_records_per_sec": round(num_records / wall),
                "outputs": sum(s["outputs"] for s in shards),
                "per_shard": [
                    {
                        "shard": s["shard"],
                        "records": s["records"],
                        "outputs": s["outputs"],
                        "drain_seconds": round(s["drain_seconds"], 3),
                        "drain_records_per_sec": round(
                            s["records"] / s["drain_seconds"]
                        ),
                    }
                    for s in shards
                ],
            }
        entry: dict[str, Any] = {
            "per_parallelism": per_parallelism,
            "speedup": round(
                walls[min(parallelisms)] / walls[max(parallelisms)], 2
            ),
        }
        if single_cpu:
            entry["speedup"] = None
            entry["speedup_note"] = (
                "single-CPU affinity: drain workers cannot run "
                "concurrently, so P=1 vs P=N wall-clock is not a speedup "
                "measurement"
            )
        per_query[query] = entry
    return {
        "records": num_records,
        "parallelisms": list(parallelisms),
        "queries": list(queries),
        "cpu_affinity": available_cpus(),
        "per_query": per_query,
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

    Prefers ``VmHWM`` from ``/proc/self/status``: on Linux,
    ``getrusage``'s ``ru_maxrss`` survives ``exec``, so a spawned pool
    worker would report the high-water mark *inherited from the parent*
    (the whole benchmark's peak) instead of its own.  ``VmHWM`` is reset
    with the fresh address space and measures only this process.
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


def _stream_shard(
    shard_records: int, seed: int, shard: int, n_shards: int, chunk_records: int
) -> dict[str, Any]:
    """One shard of a chunk-streamed scale run (top-level for pickling).

    Generates its row range as O(chunk)-sized slab windows
    (:func:`repro.workloads.columnar.iter_column_chunks`), streams them
    into a bounded partition (``max_queue == chunk_records``), and drains
    each chunk zero-copy from its partition log — counting grep
    matches with the production kernel — before acknowledging, so the
    consumed prefix is trimmed and the next chunk's slab is re-adopted
    into the emptied log.  Peak resident memory therefore stays at
    O(chunk) regardless of ``shard_records``; the worker reports its own
    peak RSS so the parent can verify that.
    """
    from repro.benchmark.sender import DataSender
    from repro.broker import AdminClient, BrokerCluster
    from repro.dataflow.kernels import GrepKernel, SlabColumn, slab_from_columns
    from repro.simtime import Simulator
    from repro.workloads.columnar import iter_column_chunks

    rss_before_kb = _peak_rss_kb()
    simulator = Simulator(seed=11)
    cluster = BrokerCluster(simulator, num_nodes=n_shards)
    topic = "scale-stream"
    AdminClient(cluster).create_topic(
        topic, num_partitions=n_shards, max_queue=chunk_records
    )
    log = cluster.partition_log(topic, shard)
    kernel = GrepKernel(GREP_NEEDLE)
    matches = 0
    total_bytes = 0

    def chunks():
        nonlocal total_bytes
        for data, starts in iter_column_chunks(
            shard_records, seed, chunk_records=chunk_records
        ):
            total_bytes += len(data)
            yield SlabColumn(slab_from_columns(data, starts))

    def drain(_total: int) -> None:
        nonlocal matches
        column = log.read_values(log.start_offset, None, copy=False)
        if type(column) is SlabColumn and kernel.supports_slab:
            matches += len(kernel.call_slab(column.slab, column.start, column))
            kernel.flush()
        else:
            matches += sum(1 for line in column if GREP_NEEDLE in line)
        log.mark_consumed(log.end_offset)

    sender = DataSender(cluster, topic, create_topic=False, partition=shard)
    mark = time.perf_counter()
    report = sender.send_stream(chunks(), on_chunk=drain)
    wall = time.perf_counter() - mark
    peak_kb = _peak_rss_kb()
    return {
        "shard": shard,
        "records": shard_records,
        "bytes": total_bytes,
        "grep_matches": matches,
        "wall_seconds": wall,
        "report": report,
        "rss_before_kb": rss_before_kb,
        "peak_rss_kb": peak_kb,
    }


def run_scale_sweep(
    scales: tuple[int, ...] = (1_000_000, 10_000_000, 100_000_000),
    shards: int = 4,
    chunk_records: int | None = None,
) -> dict[str, Any]:
    """Chunk-streamed ingest+grep at 1M/10M/100M in bounded memory.

    Each scale fans out ``shards`` worker processes; every worker streams
    its share of the records through generation -> bounded topic -> drain
    -> grep without ever materialising more than O(chunk) bytes.  Workers
    are **spawned** (fresh interpreters) and report ``VmHWM`` (their own
    high-water mark, not the parent's inherited ``ru_maxrss``).  The
    summed grep-match counts are asserted against the generator's exact
    expectation at every scale — a sweep that miscounts is not a
    measurement.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    from repro.workloads.aol import expected_grep_matches
    from repro.workloads.columnar import _CHUNK_RECORDS, native_generator_available

    if chunk_records is None:
        chunk_records = _CHUNK_RECORDS
    runs = []
    for num_records in scales:
        splits = [
            (shard + 1) * num_records // shards - shard * num_records // shards
            for shard in range(shards)
        ]
        started = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=shards, mp_context=get_context("spawn")
        ) as pool:
            results = list(
                pool.map(
                    _stream_shard,
                    splits,
                    [2006 + shard for shard in range(shards)],
                    range(shards),
                    [shards] * shards,
                    [chunk_records] * shards,
                )
            )
        wall = time.perf_counter() - started
        matched = sum(r["grep_matches"] for r in results)
        expected = sum(expected_grep_matches(n) for n in splits)
        if matched != expected:
            raise AssertionError(
                f"scale {num_records}: grep matched {matched}, "
                f"expected {expected}"
            )
        total_bytes = sum(r["bytes"] for r in results)
        runs.append(
            {
                "records": num_records,
                "wall_seconds": round(wall, 3),
                "records_per_sec": round(num_records / wall),
                "mb_per_sec": round(total_bytes / wall / 1e6, 1),
                "grep_matches": matched,
                "peak_worker_rss_mb": round(
                    max(r["peak_rss_kb"] for r in results) / 1024, 1
                ),
            }
        )
    return {
        "shards": shards,
        "chunk_records": chunk_records,
        "native_generator": native_generator_available(),
        "scales": runs,
    }


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


def run_matrix_scale(
    num_records: int = 20_000, runs: int = 2, workers: int | None = None
) -> dict[str, Any]:
    """Full Figure-5 grid, serial vs parallel, timed on the host clock.

    Both paths run the same per-cell isolated worlds, so the reports are
    asserted equal per field before any timing is reported — a speedup on
    a divergent result would be meaningless.  ``effective_workers`` is the
    parallelism the host can actually deliver: ``min(workers, CPUs this
    process may run on)``, where the CPU count honours the scheduler
    affinity mask (a container pinned to one core of a 64-core box gets
    1, not 64).  Only when that affinity really is a single CPU — where
    worker processes cannot run concurrently at all — is the wall-clock
    "speedup" reported as ``null`` with a note instead of a meaningless
    ``1.0``.
    """
    from repro.benchmark.parallel import MatrixRunner, default_workers

    config = BenchmarkConfig(records=num_records, runs=runs)
    workers = workers if workers is not None else max(2, default_workers())

    started = time.perf_counter()
    serial = MatrixRunner(config).run(parallel=False)
    serial_seconds = time.perf_counter() - started

    mark = time.perf_counter()
    parallel = MatrixRunner(config).run(parallel=True, workers=workers)
    parallel_seconds = time.perf_counter() - mark

    if serial != parallel:
        raise AssertionError("parallel matrix report diverged from serial")
    cells = len(MatrixRunner(config).cells())
    available = available_cpus()
    result: dict[str, Any] = {
        "records": num_records,
        "runs_per_cell": runs,
        "cells": cells,
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity": available,
        "workers": workers,
        "effective_workers": min(workers, available),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "reports_identical": True,
    }
    if available == 1:
        result["speedup"] = None
        result["speedup_note"] = (
            "single-CPU affinity: worker processes cannot run concurrently, "
            "so serial/parallel wall-clock is not a speedup measurement"
        )
    return result


def run_capacity_bench(num_records: int = 4_000) -> dict[str, Any]:
    """Sustainable-throughput scenario: the knee and its latency tails.

    Runs the open-loop capacity search for one representative cell
    (flink × grep), then an overload probe at twice the knee to record
    the bounded-queue safety margins.  Everything here is simulated-time
    measurement (deterministic under the seed); only ``wall_seconds`` is
    host-dependent.
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
    }


def write_bench(payload: dict[str, Any], path: pathlib.Path = BENCH_PATH) -> None:
    """Persist one benchmark payload as the repo's ``BENCH_pump.json``."""
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
        "--matrix-records",
        type=int,
        default=20_000,
        help="per-cell scale for the matrix serial-vs-parallel timing",
    )
    parser.add_argument(
        "--matrix-workers",
        type=int,
        default=None,
        help="worker processes for the parallel matrix (default: cpu_count-1, min 2)",
    )
    parser.add_argument("--skip-matrix", action="store_true")
    parser.add_argument(
        "--capacity-records",
        type=int,
        default=4_000,
        help="records per probe for the capacity (sustainable-throughput) scenario",
    )
    parser.add_argument("--skip-capacity", action="store_true")
    parser.add_argument(
        "--drain-records",
        type=int,
        default=2_000_000,
        help="workload scale for the partition-parallel drain timing",
    )
    parser.add_argument("--skip-drain", action="store_true")
    parser.add_argument(
        "--order-records",
        type=int,
        default=2_000_000,
        help="workload scale for the order-sensitive drain timings",
    )
    parser.add_argument("--skip-order-sensitive", action="store_true")
    parser.add_argument(
        "--scalability-records",
        type=int,
        default=2_000,
        help="records per probe for the scalability-curve sweep",
    )
    parser.add_argument("--skip-scalability", action="store_true")
    parser.add_argument(
        "--scale-records",
        default="1000000,10000000,100000000",
        help="comma-separated scales for the chunk-streamed sweep",
    )
    parser.add_argument(
        "--scale-shards",
        type=int,
        default=4,
        help="worker processes (= broker nodes) for the scale sweep",
    )
    parser.add_argument("--skip-scale", action="store_true")
    args = parser.parse_args()

    payload: dict[str, Any] = {
        "benchmark": "pump",
        "microbenchmark": run_microbenchmark(args.micro_records, args.repeats),
        "generation": run_generation_bench(args.micro_records, args.repeats),
    }
    if not args.skip_cache:
        payload["workload_cache"] = run_workload_cache_bench(args.cache_records)
    if not args.skip_matrix:
        payload["matrix"] = run_matrix_scale(
            args.matrix_records, workers=args.matrix_workers
        )
    if not args.skip_capacity:
        payload["capacity"] = run_capacity_bench(args.capacity_records)
    if not args.skip_scalability:
        payload["scalability_curves"] = run_scalability_bench(
            args.scalability_records
        )
    if not args.skip_end_to_end:
        payload["end_to_end"] = run_end_to_end(args.records)
    if not args.skip_drain:
        payload["parallel_drain"] = run_parallel_drain_bench(args.drain_records)
    if not args.skip_order_sensitive:
        payload["sharded_order_sensitive"] = run_sharded_order_sensitive_bench(
            args.order_records
        )
    if not args.skip_scale:
        scales = tuple(
            int(scale) for scale in args.scale_records.split(",") if scale
        )
        payload["scale_sweep"] = run_scale_sweep(scales, shards=args.scale_shards)
    write_bench(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwritten to {BENCH_PATH}")


if __name__ == "__main__":
    main()
