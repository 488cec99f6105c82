"""Perf-smoke gate: the compiled-kernel fast path must stay fast.

Runs the pump microbenchmark at a reduced scale (``REPRO_PERF_RECORDS``,
default 100,000) and gates on **speedup ratios** — the kernel tier vs the
per-record reference loop on the *same* machine — which are comparable
across hardware, unlike absolute records/sec.  Checks:

* the headline ``identity-op`` scenario (per-record dispatch, the cost
  the kernel tier exists to eliminate, over the workload's decoded
  record list) must keep its ≥5× speedup;
* every per-query compiled kernel keeps its absolute floor from the
  ISSUE — ≥3× over the tuple path for ``projection``, ``grep`` and
  ``sample``, ≥5× for the fused ``chained`` pipeline.  The committed
  ``BENCH_pump.json`` (measured at the full 200k microbenchmark scale)
  meets the floors outright; the CI gate applies a tolerance factor
  (``REPRO_PERF_FLOOR_TOLERANCE``, default 0.75) because CI runners are
  noisy and run a reduced scale;
* the keyed Nexmark queries (Q3/Q4/Q5 over encoded events — the
  wire-fused kernels the plan compiler emits) each keep the ≥3× keyed
  floor, times the same tolerance.  Stateful ``wordcount`` carries no
  absolute floor: its timed kernel runs are mostly the builds of a
  fresh slab's query field and word ids, which a campaign builds once
  per slab, so it is gated by the baseline-regression family only — see
  docs/architecture.md — and so is the ``windowed`` pane count over the
  AOL slab column;
* no scenario may regress more than 30% below the checked-in
  kernel/tuple baseline ratios in ``baseline.json`` (``speedups``);
* the four stateful slab paths (wordcount, distinct-count, statistics,
  windowed), timed over a slab whose derivations are already built
  (``run_warm_slab_bench``), may not regress more than 30% below
  ``baseline.json``'s ``warm_slab_speedups`` either: that is the
  per-window path every campaign cell after a slab's first repeats,
  which the fresh-slab scenarios hide behind the derivation builds;
* a warm mmap load of the workload cache's columnar entry must stay ≥5×
  faster than cold slab-direct generation of the same workload (the
  cache's reason to exist);
* cold slab-direct (columnar) workload generation must stay ≥3× faster
  than the per-record string generator, times the same tolerance —
  skipped only where no C compiler exists (the Python fallback is
  correctness-, not speed-, gated);
* the simulated scalability curves (capacity knee vs parallelism) must
  rise monotonically and sub-linearly with P, with the Beam knee at or
  below native at every level — these are deterministic simulated-time
  assertions that run identically on every host;
* a native-Flink identity campaign (``run_end_to_end`` at
  ``REPRO_PERF_RECORDS``) must emit every record without decoding the
  workload slab into strings: the columnar plane keeps windows from the
  poll to the output log, on any host;
* the slab derivations' build times and retained bytes
  (``run_derivation_bench`` at ``REPRO_PERF_RECORDS``) are recorded for
  every derivation, with no timing gate.

The measured numbers are merged into ``BENCH_pump.json`` at the repo
root; CI uploads it as an artifact for trend-watching.

Not part of the tier-1 suite (host-timing asserts don't belong in a
functional gate); CI runs it as a dedicated perf-smoke job::

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_pump_perf.py
"""

from __future__ import annotations

import json
import os

import pytest

from pump_bench import (
    BASELINE_PATH,
    DERIVATIONS,
    HEADLINE_SCENARIO,
    run_capacity_bench,
    run_derivation_bench,
    run_end_to_end,
    run_generation_bench,
    run_microbenchmark,
    run_scalability_bench,
    run_warm_slab_bench,
    run_workload_cache_bench,
    write_bench,
)

RECORDS = int(os.environ.get("REPRO_PERF_RECORDS", "100000"))
#: Workload-cache benchmark scale (large enough that generation dominates).
CACHE_RECORDS = int(os.environ.get("REPRO_PERF_CACHE_RECORDS", "200000"))
#: Records per probe for the capacity (sustainable-throughput) scenario.
CAPACITY_RECORDS = int(os.environ.get("REPRO_PERF_CAPACITY_RECORDS", "4000"))
#: The ISSUE's acceptance floor for the headline scenario.
MIN_HEADLINE_SPEEDUP = float(os.environ.get("REPRO_PERF_MIN_HEADLINE", "5.0"))
#: The checked-in speedup baselines (``baseline.json``).
BASELINE = json.loads(BASELINE_PATH.read_text())
#: Warm mmap cache load vs cold slab-direct generation.
MIN_CACHE_LOAD_SPEEDUP = float(
    os.environ.get("REPRO_PERF_MIN_CACHE_LOAD", BASELINE["workload_cache_load_speedup"])
)
#: ">30% regression vs baseline fails" — i.e. measured >= 0.7 * baseline.
REGRESSION_FLOOR = 0.7
#: Per-query kernel-tier floors (kernel vs tuple) from the ISSUE, measured
#: at the full 200k scale in the committed BENCH_pump.json.
KERNEL_FLOORS = {"grep": 3.0, "projection": 3.0, "sample": 3.0, "chained": 5.0}
#: Keyed-query floors (kernel vs tuple) for the stateful kernel tier: the
#: Nexmark queries pump encoded events through the compiler's fused
#: decode|query wire kernels.  Stateful wordcount is absent: each timed
#: kernel run builds a fresh slab's query field and word ids, which take
#: about 95% of it (1.1x-1.7x over the tuple path at 60k-200k records,
#: under the 3x floor times the tolerance), so it is gated by the
#: baseline-regression family instead, and its per-window path by the
#: warm-slab family.
KEYED_FLOORS = {"nexmark-q3": 3.0, "nexmark-q4": 3.0, "nexmark-q5": 3.0}
#: CI noise / reduced-scale allowance on the absolute kernel floors.
FLOOR_TOLERANCE = float(os.environ.get("REPRO_PERF_FLOOR_TOLERANCE", "0.75"))
#: Cold slab-direct generation vs the string generator — the ISSUE's
#: acceptance floor for the columnar data plane.
MIN_GENERATION_SPEEDUP = float(os.environ.get("REPRO_PERF_MIN_GENERATION", "3.0"))
#: Records per probe for the scalability-curve sweep.
SCALABILITY_RECORDS = int(os.environ.get("REPRO_PERF_SCALABILITY_RECORDS", "2000"))


@pytest.fixture(scope="module")
def payload() -> dict:
    """Collects every section; written as one BENCH_pump.json at teardown."""
    data: dict = {"benchmark": "pump"}
    yield data
    write_bench(data)


@pytest.fixture(scope="module")
def micro(payload: dict) -> dict:
    result = run_microbenchmark(num_records=RECORDS, repeats=3)
    payload["microbenchmark"] = result
    return result


@pytest.fixture(scope="module")
def warm_slab(payload: dict) -> dict:
    result = run_warm_slab_bench(num_records=RECORDS, repeats=3)
    payload["warm_slab"] = result
    return result


@pytest.fixture(scope="module")
def cache_bench(payload: dict) -> dict:
    result = run_workload_cache_bench(num_records=CACHE_RECORDS)
    payload["workload_cache"] = result
    return result


@pytest.fixture(scope="module")
def generation(payload: dict) -> dict:
    result = run_generation_bench(num_records=CACHE_RECORDS)
    payload["generation"] = result
    return result


@pytest.fixture(scope="module")
def capacity_bench(payload: dict) -> dict:
    result = run_capacity_bench(num_records=CAPACITY_RECORDS)
    payload["capacity"] = result
    return result


def test_headline_speedup(micro: dict) -> None:
    """The dispatch-bound scenario keeps the promised ≥5× speedup."""
    speedup = micro["scenarios"][HEADLINE_SCENARIO]["speedup"]
    assert speedup >= MIN_HEADLINE_SPEEDUP, (
        f"{HEADLINE_SCENARIO}: kernel path only {speedup:.2f}x faster than the "
        f"per-record reference loop (floor: {MIN_HEADLINE_SPEEDUP}x)"
    )


def test_per_query_kernel_floors(micro: dict) -> None:
    """Each compiled query kernel keeps its absolute speedup floor."""
    failures = []
    for name, floor in KERNEL_FLOORS.items():
        gate = floor * FLOOR_TOLERANCE
        measured = micro["scenarios"][name]["speedup"]
        if measured < gate:
            failures.append(
                f"{name}: kernel only {measured:.2f}x over the tuple path "
                f"(gate {gate:.2f}x = {floor:.1f}x floor × "
                f"{FLOOR_TOLERANCE} tolerance)"
            )
    assert not failures, "kernel floor violations:\n" + "\n".join(failures)


def test_keyed_kernel_floors(micro: dict) -> None:
    """Each keyed Nexmark query keeps its ≥3× kernel-vs-tuple floor."""
    failures = []
    for name, floor in KEYED_FLOORS.items():
        gate = floor * FLOOR_TOLERANCE
        measured = micro["scenarios"][name]["speedup"]
        if measured < gate:
            failures.append(
                f"{name}: stateful kernel only {measured:.2f}x over the tuple "
                f"path (gate {gate:.2f}x = {floor:.1f}x floor × "
                f"{FLOOR_TOLERANCE} tolerance)"
            )
    assert not failures, "keyed kernel floor violations:\n" + "\n".join(failures)


def _regressions(scenarios: dict, baselines: dict) -> list[str]:
    """The scenarios whose speedup fell more than 30% below baseline."""
    failures = []
    for name, expected in baselines.items():
        measured = scenarios[name]["speedup"]
        floor = REGRESSION_FLOOR * expected
        if measured < floor:
            failures.append(
                f"{name}: {measured:.2f}x < {floor:.2f}x "
                f"(baseline {expected:.2f}x, -30% allowed)"
            )
    return failures


def test_no_regression_vs_baseline(micro: dict) -> None:
    """Every kernel speedup stays within 30% of its checked-in baseline."""
    failures = _regressions(micro["scenarios"], BASELINE["speedups"])
    assert not failures, "speedup regressions:\n" + "\n".join(failures)


def test_warm_slab_paths_vs_baseline(warm_slab: dict) -> None:
    """Each stateful slab path over a warm slab stays within 30% of its
    checked-in ``warm_slab_speedups`` baseline."""
    baselines = BASELINE["warm_slab_speedups"]
    assert set(warm_slab["scenarios"]) == set(baselines)
    failures = _regressions(warm_slab["scenarios"], baselines)
    assert not failures, "warm-slab regressions:\n" + "\n".join(failures)


def test_workload_cache_load_speedup(cache_bench: dict) -> None:
    """A warm mmap load beats cold slab-direct generation by the
    baseline's ``workload_cache_load_speedup``."""
    speedup = cache_bench["columns_load_speedup"]
    assert speedup >= MIN_CACHE_LOAD_SPEEDUP, (
        f"warm cache load only {speedup:.2f}x faster than generation "
        f"(floor: {MIN_CACHE_LOAD_SPEEDUP}x; "
        f"generate {cache_bench['generate_seconds']}s, "
        f"load {cache_bench['columns_load_seconds']}s)"
    )


def test_slab_direct_generation_floor(generation: dict) -> None:
    """Cold slab-direct generation keeps its ≥3× floor over the string path.

    The floor assumes the compiled generator; where no C compiler exists
    the pure-Python fallback is only required to be bit-identical (the
    tier-1 suite proves that), not fast, so the gate is skipped.
    """
    if not generation["native_generator"]:
        pytest.skip("no C compiler: pure-Python fallback is not speed-gated")
    gate = MIN_GENERATION_SPEEDUP * FLOOR_TOLERANCE
    speedup = generation["generation_speedup"]
    assert speedup >= gate, (
        f"slab-direct generation only {speedup:.2f}x over generate_records "
        f"(gate {gate:.2f}x = {MIN_GENERATION_SPEEDUP}x floor × "
        f"{FLOOR_TOLERANCE} tolerance; object "
        f"{generation['object_seconds']}s, columnar "
        f"{generation['columnar_seconds']}s)"
    )


@pytest.fixture(scope="module")
def scalability(payload: dict) -> dict:
    result = run_scalability_bench(num_records=SCALABILITY_RECORDS)
    payload["scalability_curves"] = result
    return result


def test_scalability_knees_monotonic_and_sublinear(scalability: dict) -> None:
    """Every curve's knee rises with P but below linear (simulated).

    Host-independent: the knees are simulated-time measurements, so this
    asserts the model's physics — more pipeline parallelism always helps,
    but the broker's serial append/fetch fraction and the engines'
    per-record coordination cost keep the speedup under P.
    """
    for name, curve in scalability["curves"].items():
        rates = [point["sustainable_rate"] for point in curve]
        assert rates == sorted(rates) and rates[0] < rates[-1], (
            f"{name}: knees not monotonically increasing: {rates}"
        )
        for point in curve[1:]:
            assert point["speedup_vs_p1"] < point["parallelism"], (
                f"{name}: P={point['parallelism']} speedup "
                f"{point['speedup_vs_p1']}x is not sub-linear"
            )


def test_scalability_beam_penalty_per_system(scalability: dict) -> None:
    """The paper's per-system abstraction story holds at every level.

    Flink pays a clear Beam penalty at the knee; Apex is near parity for
    grep (the paper's sf ≈ 0.91 — Beam marginally *faster*), so there the
    assertion is a parity band, not an ordering.
    """
    curves = scalability["curves"]
    for native_point, beam_point in zip(
        curves["flink/native/grep"], curves["flink/beam/grep"]
    ):
        assert (
            beam_point["sustainable_rate"] < native_point["sustainable_rate"]
        ), (
            f"flink P={native_point['parallelism']}: Beam knee above native"
        )
    for native_point, beam_point in zip(
        curves["apex/native/grep"], curves["apex/beam/grep"]
    ):
        ratio = beam_point["sustainable_rate"] / native_point["sustainable_rate"]
        assert 0.75 <= ratio <= 1.25, (
            f"apex P={native_point['parallelism']}: Beam/native knee ratio "
            f"{ratio:.2f} outside the near-parity band"
        )


def test_end_to_end_decodes_nothing(payload: dict) -> None:
    """The Figure-5 path stays columnar from poll to output log: the
    campaign emits every record and never decodes the workload slab."""
    result = run_end_to_end(RECORDS)
    payload["end_to_end"] = result
    assert result["records_out"] == RECORDS
    assert result["slab_decoded"] is False


def test_derivations_are_recorded(payload: dict) -> None:
    """Every slab derivation reports its build time and retained bytes
    (reporting only: the times are not gated)."""
    result = run_derivation_bench(sizes=(RECORDS,), repeats=1)
    payload["derivations"] = result
    entries = result[str(RECORDS)]
    assert set(entries) == set(DERIVATIONS)
    assert all(entry["retained_bytes"] > 0 for entry in entries.values())


def test_kernel_path_is_the_default() -> None:
    """Compiled kernels are the production tier, not an opt-in."""
    from repro.engines.common.pump import StreamPump

    assert StreamPump.vectorized is True


def test_capacity_knee_and_percentiles(capacity_bench: dict) -> None:
    """The capacity scenario finds a positive knee with ordered tails."""
    assert capacity_bench["sustainable_rate"] > 0
    p = capacity_bench["latency_percentiles"]
    assert p["event_p50"] <= p["event_p95"] <= p["event_p99"]
    assert p["proc_p50"] <= p["proc_p95"] <= p["proc_p99"]
    # Event-time latency includes the wait before admission, so its tail
    # can never undercut the processing-time tail.
    assert p["event_p99"] >= p["proc_p99"]


def test_capacity_overload_stays_bounded(capacity_bench: dict) -> None:
    """At 2x the knee the bounded queue holds and accounting reconciles."""
    overload = capacity_bench["overload_2x"]
    assert overload["max_queue_depth"] <= capacity_bench["queue_bound"]
    assert overload["offered"] == overload["accepted"] + overload["shed"]
