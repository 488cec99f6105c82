"""Discretized streams: the native Spark Streaming API."""

from __future__ import annotations

from typing import Any, Callable, Iterable, TYPE_CHECKING

from repro.broker import BrokerCluster
from repro.dataflow.functions import (
    FilterFunction,
    FlatMapFunction,
    MapFunction,
    StreamFunction,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.spark.streaming import StreamingContext


class UpdateStateByKeyFunction(StreamFunction):
    """Keyed state maintained across the whole stream (Spark's
    ``updateStateByKey``).

    Processes ``(key, value)`` pairs; for each record the state for ``key``
    is updated via ``update_fn(new_value, old_state)`` and the pair
    ``(key, new_state)`` is emitted.  (Real Spark batches updates per
    micro-batch; emitting per record is the tuple-level equivalent and
    keeps output counts comparable across engines.)
    """

    def __init__(
        self,
        update_fn: Callable[[Any, Any | None], Any],
        name: str = "updateStateByKey",
        cost_weight: float = 1.5,
    ) -> None:
        self.update_fn = update_fn
        self.name = name
        self.cost_weight = cost_weight
        self.state: dict[Any, Any] = {}

    def process(self, value: Any) -> list[tuple[Any, Any]]:
        key, payload = value
        new_state = self.update_fn(payload, self.state.get(key))
        self.state[key] = new_state
        return [(key, new_state)]

    def open(self) -> None:
        self.state.clear()

    def snapshot(self) -> dict[Any, Any]:
        return dict(self.state)

    def restore(self, state: dict[Any, Any]) -> None:
        self.state = dict(state)


class DStream:
    """A discretized stream under construction.

    Transformations append logical operators to the owning
    :class:`StreamingContext`; output operations (``write_to_kafka``,
    ``collect_into``, ``foreach_rdd``) terminate the stream.
    """

    def __init__(self, ssc: "StreamingContext", head: str) -> None:
        self._ssc = ssc
        self._head = head

    def map(self, fn: Callable[[Any], Any], name: str = "map", cost_weight: float = 1.0) -> "DStream":
        """Element-wise 1:1 transformation."""
        return self._append(MapFunction(fn, name=name, cost_weight=cost_weight), name)

    def filter(
        self, predicate: Callable[[Any], bool], name: str = "filter", cost_weight: float = 1.0
    ) -> "DStream":
        """Keep only records matching ``predicate``."""
        return self._append(
            FilterFunction(predicate, name=name, cost_weight=cost_weight), name
        )

    def flat_map(
        self,
        fn: Callable[[Any], Iterable[Any]],
        name: str = "flatMap",
        cost_weight: float = 1.0,
    ) -> "DStream":
        """Element-wise 1:N transformation."""
        return self._append(
            FlatMapFunction(fn, name=name, cost_weight=cost_weight), name
        )

    def transform_with(self, function: StreamFunction, name: str | None = None) -> "DStream":
        """Apply a prebuilt :class:`StreamFunction` (native escape hatch)."""
        return self._append(function, name or function.name)

    def update_state_by_key(
        self,
        update_fn: Callable[[Any, Any | None], Any],
        name: str = "updateStateByKey",
    ) -> "DStream":
        """Maintain per-key state across the stream (requires (k, v) pairs).

        Induces a shuffle boundary, as in Spark.
        """
        function = UpdateStateByKeyFunction(update_fn, name=name)
        return self._append(function, name, shuffle_input=True)

    # -- output operations ------------------------------------------------
    def write_to_kafka(self, cluster: BrokerCluster, topic: str) -> None:
        """Terminate the stream into a broker topic."""
        self._ssc._set_kafka_sink(self._head, cluster, topic)

    def collect_into(self, bucket: list[Any]) -> None:
        """Terminate the stream into an in-memory list (tests/examples)."""
        self._ssc._set_collect_sink(self._head, bucket)

    def foreach_rdd(self, fn: Callable[[Any], None]) -> None:
        """Run ``fn(rdd)`` for the RDD of every micro-batch."""
        self._ssc._set_foreach_rdd_sink(self._head, fn)

    # -- internals ----------------------------------------------------------
    def _append(
        self,
        function: StreamFunction,
        name: str,
        shuffle_input: bool = False,
        extra: dict[str, Any] | None = None,
    ) -> "DStream":
        node = self._ssc._add_operator(self._head, function, name, shuffle_input, extra)
        return DStream(self._ssc, node)


class KafkaUtils:
    """Factory for Kafka-backed input streams (Spark's class of that name)."""

    @staticmethod
    def create_direct_stream(
        ssc: "StreamingContext", cluster: BrokerCluster, topic: str
    ) -> DStream:
        """A direct (receiver-less) stream over ``topic``."""
        return ssc._add_kafka_source(cluster, topic)
