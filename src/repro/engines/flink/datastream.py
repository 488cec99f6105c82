"""The native Flink-style DataStream API."""

from __future__ import annotations

from typing import Any, Callable

from repro.dataflow.functions import (
    FilterFunction,
    FlatMapFunction,
    MapFunction,
    StreamFunction,
)
from repro.dataflow.graph import LogicalGraph, LogicalOperator, OperatorKind
from repro.engines.flink.cluster import FlinkCluster
from repro.engines.flink.errors import JobGraphError
from repro.engines.flink.executor import execute_job
from repro.engines.flink.functions import (
    FromCollectionSource,
    SinkFunction,
    SourceFunction,
)
from repro.engines.common.results import JobResult


class KeyedReduceFunction(StreamFunction):
    """Running per-key reduce, emitting ``(key, reduced)`` on every input.

    This is Flink's ``KeyedStream.reduce`` semantics: state is kept per key
    and the updated aggregate is emitted for each arriving record.
    """

    def __init__(
        self,
        key_selector: Callable[[Any], Any],
        reducer: Callable[[Any, Any], Any],
        value_selector: Callable[[Any], Any] | None = None,
        name: str = "Keyed Reduce",
        cost_weight: float = 1.5,
    ) -> None:
        self.key_selector = key_selector
        self.reducer = reducer
        self.value_selector = value_selector or (lambda v: v)
        self.name = name
        self.cost_weight = cost_weight
        self.state: dict[Any, Any] = {}

    def process(self, value: Any) -> list[tuple[Any, Any]]:
        key = self.key_selector(value)
        incoming = self.value_selector(value)
        if key in self.state:
            self.state[key] = self.reducer(self.state[key], incoming)
        else:
            self.state[key] = incoming
        return [(key, self.state[key])]

    def open(self) -> None:
        self.state.clear()

    def snapshot(self) -> dict[Any, Any]:
        return dict(self.state)

    def restore(self, state: dict[Any, Any]) -> None:
        self.state = dict(state)


class DataStream:
    """A stream of records under construction.

    Each transformation appends a logical operator to the environment's
    graph and returns a new ``DataStream`` headed at it.
    """

    def __init__(self, env: "StreamExecutionEnvironment", head: str) -> None:
        self._env = env
        self._head = head

    # -- transformations ------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any] | StreamFunction,
        name: str = "Map",
        cost_weight: float = 1.0,
    ) -> "DataStream":
        """Element-wise 1:1 transformation."""
        function = fn if isinstance(fn, StreamFunction) else MapFunction(
            fn, name=name, cost_weight=cost_weight
        )
        return self._append(function, name)

    def filter(
        self,
        predicate: Callable[[Any], bool] | StreamFunction,
        name: str = "Filter",
        cost_weight: float = 1.0,
    ) -> "DataStream":
        """Keep only records matching ``predicate``."""
        function = (
            predicate
            if isinstance(predicate, StreamFunction)
            else FilterFunction(predicate, name=name, cost_weight=cost_weight)
        )
        return self._append(function, name)

    def flat_map(
        self,
        fn: Callable[[Any], Any] | StreamFunction,
        name: str = "Flat Map",
        cost_weight: float = 1.0,
    ) -> "DataStream":
        """Element-wise 1:N transformation."""
        function = fn if isinstance(fn, StreamFunction) else FlatMapFunction(
            fn, name=name, cost_weight=cost_weight
        )
        return self._append(function, name)

    def transform_with(self, function: StreamFunction, name: str | None = None) -> "DataStream":
        """Apply a prebuilt :class:`StreamFunction` (native escape hatch)."""
        return self._append(function, name or function.name)

    def key_by(self, key_selector: Callable[[Any], Any]) -> "KeyedStream":
        """Partition the stream by key; the next operator sees hashed input."""
        return KeyedStream(self._env, self._head, key_selector)

    def add_sink(self, sink: SinkFunction, name: str | None = None) -> None:
        """Terminate the stream into ``sink``."""
        self._env._add_sink(self._head, sink, name)

    # -- internals ------------------------------------------------------
    def _append(
        self,
        function: StreamFunction,
        name: str,
        hash_input: bool = False,
        chainable: bool = True,
        extra: dict[str, Any] | None = None,
    ) -> "DataStream":
        node = self._env._add_operator(
            upstream=self._head,
            function=function,
            name=name,
            hash_input=hash_input,
            chainable=chainable,
            extra=extra,
        )
        return DataStream(self._env, node)


class KeyedStream:
    """A stream partitioned by key, awaiting a keyed operation."""

    def __init__(
        self,
        env: "StreamExecutionEnvironment",
        head: str,
        key_selector: Callable[[Any], Any],
    ) -> None:
        self._env = env
        self._head = head
        self._key_selector = key_selector

    def reduce(
        self,
        reducer: Callable[[Any, Any], Any],
        value_selector: Callable[[Any], Any] | None = None,
        name: str = "Keyed Reduce",
        cost_weight: float = 1.5,
    ) -> DataStream:
        """Running per-key reduce (emits the updated aggregate per record)."""
        function = KeyedReduceFunction(
            self._key_selector,
            reducer,
            value_selector=value_selector,
            name=name,
            cost_weight=cost_weight,
        )
        stream = DataStream(self._env, self._head)
        return stream._append(function, name, hash_input=True, chainable=False)

    def sum(self, value_selector: Callable[[Any], Any], name: str = "Sum") -> DataStream:
        """Running per-key sum of ``value_selector(record)``."""
        return self.reduce(
            lambda acc, v: acc + v, value_selector=value_selector, name=name
        )


class StreamExecutionEnvironment:
    """Entry point of the native API (mirrors Flink's class of that name)."""

    def __init__(self, cluster: FlinkCluster) -> None:
        self.cluster = cluster
        self._graph = LogicalGraph("flink-job")
        self._parallelism = 1
        self._counter = 0
        self._sources: dict[str, SourceFunction] = {}
        self._sinks: dict[str, SinkFunction] = {}
        self._checkpointing = None

    # -- configuration ----------------------------------------------------
    def set_parallelism(self, parallelism: int) -> "StreamExecutionEnvironment":
        """Set the job's default parallelism (the paper's ``-p`` flag)."""
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self._parallelism = parallelism
        return self

    @property
    def parallelism(self) -> int:
        """The configured default parallelism."""
        return self._parallelism

    def enable_checkpointing(
        self, interval_records: int = 10_000, exactly_once: bool = True
    ) -> "StreamExecutionEnvironment":
        """Enable periodic checkpoints (Flink's ``enableCheckpointing``).

        ``exactly_once`` selects the transactional sink mode; with False
        the job degrades to at-least-once and replays after a failure
        produce duplicate outputs.
        """
        from repro.engines.common.recovery import CheckpointingConfig

        self._checkpointing = CheckpointingConfig(
            interval_records=interval_records, exactly_once=exactly_once
        )
        return self

    # -- sources ----------------------------------------------------------
    def add_source(self, source: SourceFunction, name: str = "Custom Source") -> DataStream:
        """Attach a source function."""
        node_name = self._unique(name)
        self._graph.add(
            LogicalOperator(
                name=node_name,
                kind=OperatorKind.SOURCE,
                parallelism=self._parallelism,
                extra={"plan_label": f"Source: {source.plan_label}"},
            )
        )
        self._sources[node_name] = source
        return DataStream(self, node_name)

    def from_collection(self, values: list[Any]) -> DataStream:
        """Create a stream from an in-memory collection (for tests)."""
        return self.add_source(FromCollectionSource(values), name="Collection Source")

    # -- execution ----------------------------------------------------------
    def execute(
        self, job_name: str = "Flink Streaming Job", rng=None, failure=None
    ) -> JobResult:
        """Translate, schedule and run the constructed job.

        ``failure`` (a :class:`repro.engines.common.recovery.FailureInjector`)
        crashes the job once mid-run; recovery follows the configured
        checkpointing mode.
        """
        if not self._sinks:
            raise JobGraphError("job has no sink; call add_sink() before execute()")
        self._graph.name = job_name
        return execute_job(
            cluster=self.cluster,
            graph=self._graph,
            sources=self._sources,
            sinks=self._sinks,
            parallelism=self._parallelism,
            job_name=job_name,
            rng=rng,
            checkpointing=self._checkpointing,
            failure=failure,
        )

    # -- graph building (used by DataStream and the Beam runner) ----------
    def _add_operator(
        self,
        upstream: str,
        function: StreamFunction,
        name: str,
        hash_input: bool = False,
        chainable: bool = True,
        extra: dict[str, Any] | None = None,
    ) -> str:
        node_name = self._unique(name)
        merged_extra: dict[str, Any] = {"hash_input": hash_input}
        if extra:
            merged_extra.update(extra)
        self._graph.add(
            LogicalOperator(
                name=node_name,
                kind=OperatorKind.OPERATOR,
                function=function,
                parallelism=self._parallelism,
                chainable=chainable,
                extra=merged_extra,
            )
        )
        self._graph.connect(upstream, node_name)
        return node_name

    def _add_sink(self, upstream: str, sink: SinkFunction, name: str | None) -> None:
        node_name = self._unique(name or "Sink")
        self._graph.add(
            LogicalOperator(
                name=node_name,
                kind=OperatorKind.SINK,
                parallelism=self._parallelism,
                extra={"plan_label": f"Sink: {sink.plan_label}"},
            )
        )
        self._graph.connect(upstream, node_name)
        self._sinks[node_name] = sink

    def _unique(self, base: str) -> str:
        self._counter += 1
        return f"{base} #{self._counter}" if base in self._graph else base
