"""The StreamBench queries (paper Table II) plus stateful extensions.

Each :class:`QuerySpec` describes one query once; builders attach it to the
native API of each engine and to a Beam pipeline.  The four stateless
queries form the paper's benchmark; the three stateful ones are the
StreamBench queries the paper *excludes* (Beam-on-Spark cannot run them) —
implemented here as the future-work extension, runnable natively
everywhere and via Beam on Flink and Apex.

Cost weights (used by engine cost models) are shared across engines and
documented in ``repro.benchmark.calibration``:

* identity — no operator at all (the baseline);
* sample — a cheap predicate (weight 0.3) plus **one RNG draw per
  record**, priced separately because native and Beam RNG paths differ
  enormously;
* projection — string split plus column access (weight 4.6, the heaviest
  per-record compute of the four);
* grep — substring search (weight 0.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import repro.beam as beam
from repro.dataflow.functions import FilterFunction, MapFunction, StreamFunction
from repro.dataflow.kernels import KernelSpec
from repro.workloads.aol import GREP_NEEDLE, event_time, first_word, query_column

#: Fraction of records the sample query keeps (paper: "about 40%").
SAMPLE_FRACTION = 0.4
#: Column index the projection query emits (paper: "values of the first
#: column", the user ID).
PROJECTION_COLUMN = 0


@dataclass(frozen=True)
class QuerySpec:
    """One benchmark query.

    ``make_function`` builds the engine-level :class:`StreamFunction`
    (``None`` for identity — it has no operator); ``make_beam_transform``
    builds the equivalent Beam transform.  Both take an RNG so stochastic
    queries (sample) stay deterministic under the harness seed.
    """

    name: str
    description: str
    stateful: bool
    output_ratio: float
    make_function: Callable[[random.Random], StreamFunction | None]
    make_beam_transform: Callable[[random.Random], beam.PTransform | None]


# ---------------------------------------------------------------------------
# stateless queries (the paper's benchmark, Table II)
# ---------------------------------------------------------------------------

def _identity_function(rng: random.Random) -> None:
    return None


def _identity_beam(rng: random.Random) -> None:
    return None


def _sample_function(rng: random.Random) -> StreamFunction:
    return FilterFunction(
        lambda line: rng.random() < SAMPLE_FRACTION,
        name="Sample",
        cost_weight=0.3,
        rng_draws_per_record=1.0,
        kernel_spec=KernelSpec.bernoulli(SAMPLE_FRACTION, rng),
    )


def _sample_beam(rng: random.Random) -> beam.PTransform:
    return beam.Filter(
        lambda line: rng.random() < SAMPLE_FRACTION,
        label="Sample",
        cost_weight=0.3,
        rng_draws_per_record=1.0,
        kernel_spec=KernelSpec.bernoulli(SAMPLE_FRACTION, rng),
    )


def _project(line: str) -> str:
    return line.split("\t")[PROJECTION_COLUMN]


def _projection_function(rng: random.Random) -> StreamFunction:
    return MapFunction(
        _project,
        name="Projection",
        cost_weight=4.6,
        kernel_spec=KernelSpec.column(PROJECTION_COLUMN, "\t"),
    )


def _projection_beam(rng: random.Random) -> beam.PTransform:
    return beam.Map(
        _project,
        label="Projection",
        cost_weight=4.6,
        kernel_spec=KernelSpec.column(PROJECTION_COLUMN, "\t"),
    )


def _grep_match(line: str) -> bool:
    return GREP_NEEDLE in line


def _grep_function(rng: random.Random) -> StreamFunction:
    return FilterFunction(
        _grep_match,
        name="Grep",
        cost_weight=0.4,
        kernel_spec=KernelSpec.contains(GREP_NEEDLE),
    )


def _grep_beam(rng: random.Random) -> beam.PTransform:
    return beam.Filter(
        _grep_match,
        label="Grep",
        cost_weight=0.4,
        kernel_spec=KernelSpec.contains(GREP_NEEDLE),
    )


# ---------------------------------------------------------------------------
# stateful queries (StreamBench queries the paper excludes; extension)
# ---------------------------------------------------------------------------

class _WordCountFunction(StreamFunction):
    """Running word count over the query column, emitted per update."""

    name = "WordCount"
    cost_weight = 2.0

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.kernel_spec = KernelSpec.wordcount(self)

    def open(self) -> None:
        self.counts.clear()

    def process(self, value: str) -> Iterable[tuple[str, int]]:
        out = []
        for word in query_column(value).split():
            count = self.counts.get(word, 0) + 1
            self.counts[word] = count
            out.append((word, count))
        return out

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def restore(self, state: dict[str, int]) -> None:
        self.counts = dict(state)


class _DistinctCountFunction(StreamFunction):
    """Running number of distinct queries, emitted per record."""

    name = "DistinctCount"
    cost_weight = 1.5

    def __init__(self) -> None:
        self.seen: set[str] = set()
        self.kernel_spec = KernelSpec.distinct_count(self)

    def open(self) -> None:
        self.seen.clear()

    def process(self, value: str) -> Iterable[int]:
        self.seen.add(query_column(value))
        return (len(self.seen),)

    def snapshot(self) -> set[str]:
        return set(self.seen)

    def restore(self, state: set[str]) -> None:
        self.seen = set(state)


class _StatisticsFunction(StreamFunction):
    """Running min/max/mean of the query length, emitted per record."""

    name = "Statistics"
    cost_weight = 1.8

    def __init__(self) -> None:
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.total = 0.0
        self.count = 0
        self.kernel_spec = KernelSpec.statistics(self)

    def open(self) -> None:
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.total = 0.0
        self.count = 0

    def process(self, value: str) -> Iterable[tuple[float, float, float]]:
        length = float(len(query_column(value)))
        self.minimum = min(self.minimum, length)
        self.maximum = max(self.maximum, length)
        self.total += length
        self.count += 1
        return ((self.minimum, self.maximum, self.total / self.count),)

    def snapshot(self) -> tuple[float, float, float, int]:
        return (self.minimum, self.maximum, self.total, self.count)

    def restore(self, state: tuple[float, float, float, int]) -> None:
        self.minimum, self.maximum, self.total, self.count = state


def _windowed_function() -> StreamFunction:
    """Hourly per-first-word query counts over event time.

    Trigger-less fixed windows, so the function declares the
    ``windowed_aggregate`` spec and every execution tier applies; panes
    surface at drain.
    """
    from repro.dataflow.windowing import WindowedAggregateFunction

    return WindowedAggregateFunction(
        window_fn=beam.FixedWindows(3600.0),
        key_fn=first_word,
        timestamp_fn=event_time,
        name="Windowed",
        cost_weight=2.4,
    )


class _StatefulFunctionDoFn(beam.DoFn):
    """Adapts a stateful StreamFunction as a (stateful) Beam DoFn."""

    stateful = True

    def __init__(self, function: StreamFunction) -> None:
        self._function = function
        self.cost_weight = function.cost_weight
        self.rng_draws_per_record = function.rng_draws_per_record
        # The wrapped function's semantics declaration survives the Beam
        # translation; DoFnAdapter carries it the rest of the way.
        self.kernel_spec = getattr(function, "kernel_spec", None)

    def setup(self) -> None:
        self._function.open()

    def process(self, element: Any) -> Iterable[Any]:
        return self._function.process(element)

    def finish_bundle(self) -> Iterable[Any]:
        # Drain-time results (windowed panes) survive the Beam
        # translation the same way the semantics declaration does.
        return self._function.finish()

    def teardown(self) -> None:
        self._function.close()

    def default_label(self) -> str:
        return self._function.name


def _stateful_spec(
    name: str, description: str, factory: Callable[[], StreamFunction], ratio: float
) -> QuerySpec:
    return QuerySpec(
        name=name,
        description=description,
        stateful=True,
        output_ratio=ratio,
        make_function=lambda rng: factory(),
        make_beam_transform=lambda rng: beam.ParDo(
            _StatefulFunctionDoFn(factory()), label=name
        ),
    )


QUERIES: dict[str, QuerySpec] = {
    "identity": QuerySpec(
        name="identity",
        description=(
            "Read input and output it without performing any data "
            "transformation (computational-complexity baseline)."
        ),
        stateful=False,
        output_ratio=1.0,
        make_function=_identity_function,
        make_beam_transform=_identity_beam,
    ),
    "sample": QuerySpec(
        name="sample",
        description=(
            "Output a randomly chosen subset of about 40% of the input "
            "tuples."
        ),
        stateful=False,
        output_ratio=SAMPLE_FRACTION,
        make_function=_sample_function,
        make_beam_transform=_sample_beam,
    ),
    "projection": QuerySpec(
        name="projection",
        description="Output only the first column (user ID) of each record.",
        stateful=False,
        output_ratio=1.0,
        make_function=_projection_function,
        make_beam_transform=_projection_beam,
    ),
    "grep": QuerySpec(
        name="grep",
        description=(
            f'Output only records containing the string "{GREP_NEEDLE}" '
            "(about 0.3% of the input)."
        ),
        stateful=False,
        output_ratio=0.003,
        make_function=_grep_function,
        make_beam_transform=_grep_beam,
    ),
    "wordcount": _stateful_spec(
        "wordcount",
        "Running count per word of the query column (stateful).",
        _WordCountFunction,
        ratio=2.0,
    ),
    "distinct-count": _stateful_spec(
        "distinct-count",
        "Running number of distinct queries (stateful).",
        _DistinctCountFunction,
        ratio=1.0,
    ),
    "statistics": _stateful_spec(
        "statistics",
        "Running min/max/mean of the query length (stateful).",
        _StatisticsFunction,
        ratio=1.0,
    ),
    "windowed": _stateful_spec(
        "windowed",
        "Hourly per-word query counts over event-time windows (stateful).",
        _windowed_function,
        ratio=0.0,
    ),
}


def get_query(name: str) -> QuerySpec:
    """Look up a query by name; raises ``KeyError`` with the known names."""
    try:
        return QUERIES[name]
    except KeyError:
        raise KeyError(
            f"unknown query {name!r}; known: {', '.join(sorted(QUERIES))}"
        ) from None


def stateless_queries() -> list[QuerySpec]:
    """The paper's four benchmark queries, in Table II order."""
    return [QUERIES[n] for n in ("identity", "sample", "projection", "grep")]
