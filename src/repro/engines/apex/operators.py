"""Apex operators and ports (Malhar-style library operators included)."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.broker import BrokerCluster
from repro.dataflow.functions import (
    FilterFunction,
    FlatMapFunction,
    IdentityFunction,
    MapFunction,
    StreamFunction,
)
from repro.engines.common.io import BoundedKafkaReader, CollectingWriter, KafkaWriter


class InputPort:
    """An operator's input port; streams connect output→input ports."""

    def __init__(self, operator: "Operator", name: str = "input") -> None:
        self.operator = operator
        self.name = name

    def __repr__(self) -> str:
        return f"InputPort({self.operator.describe()}.{self.name})"


class OutputPort:
    """An operator's output port."""

    def __init__(self, operator: "Operator", name: str = "output") -> None:
        self.operator = operator
        self.name = name

    def __repr__(self) -> str:
        return f"OutputPort({self.operator.describe()}.{self.name})"


class Operator:
    """Base class for Apex operators.

    Subclasses declare ports as attributes; compute operators carry a
    :class:`StreamFunction` the executor runs per tuple.
    """

    def __init__(self) -> None:
        self.name: str | None = None  # assigned by DAG.add_operator

    def describe(self) -> str:
        """Operator name if deployed, else the class name."""
        return self.name or type(self).__name__

    def setup(self) -> None:
        """Lifecycle hook: called once before processing starts."""

    def teardown(self) -> None:
        """Lifecycle hook: called once after processing ends."""


class KafkaSinglePortInputOperator(Operator):
    """Reads a broker topic (Malhar's Kafka input operator)."""

    def __init__(self, cluster: BrokerCluster, topic: str) -> None:
        super().__init__()
        self.reader = BoundedKafkaReader(cluster, topic)
        self.topic = topic
        self.output = OutputPort(self, "outputPort")

    def fetch(self) -> list[Any]:
        """Fetch the bounded input."""
        return self.reader.read_values()


class CollectionInputOperator(Operator):
    """Emits an in-memory collection (tests/examples)."""

    def __init__(self, values: list[Any]) -> None:
        super().__init__()
        self.values = list(values)
        self.output = OutputPort(self, "outputPort")

    def fetch(self) -> list[Any]:
        """Return a copy of the collection."""
        return list(self.values)


class KafkaSinglePortOutputOperator(Operator):
    """Writes tuples to a broker topic (Malhar's Kafka output operator)."""

    def __init__(self, cluster: BrokerCluster, topic: str) -> None:
        super().__init__()
        self.writer = KafkaWriter(cluster, topic)
        self.topic = topic
        self.input = InputPort(self, "inputPort")

    def write(self, values: Sequence[Any]) -> None:
        """Send one chunk to the topic."""
        self.writer.write_chunk(values)

    def teardown(self) -> None:
        self.writer.close()


class CollectOutputOperator(Operator):
    """Collects tuples in memory (tests/examples)."""

    def __init__(self) -> None:
        super().__init__()
        self.writer = CollectingWriter()
        self.input = InputPort(self, "inputPort")

    @property
    def values(self) -> list[Any]:
        """Everything collected so far."""
        return self.writer.values

    def write(self, values: Sequence[Any]) -> None:
        """Append one chunk."""
        self.writer.write_chunk(values)


class FunctionOperator(Operator):
    """A compute operator wrapping an arbitrary :class:`StreamFunction`."""

    def __init__(self, function: StreamFunction) -> None:
        super().__init__()
        self.function = function
        self.input = InputPort(self, "input")
        self.output = OutputPort(self, "output")

    def setup(self) -> None:
        self.function.open()

    def teardown(self) -> None:
        self.function.close()


class MapOperator(FunctionOperator):
    """1:1 transformation operator."""

    def __init__(self, fn: Callable[[Any], Any], name: str = "Map", cost_weight: float = 1.0) -> None:
        super().__init__(MapFunction(fn, name=name, cost_weight=cost_weight))


class FilterOperator(FunctionOperator):
    """Predicate operator."""

    def __init__(
        self, predicate: Callable[[Any], bool], name: str = "Filter", cost_weight: float = 1.0
    ) -> None:
        super().__init__(FilterFunction(predicate, name=name, cost_weight=cost_weight))


class FlatMapOperator(FunctionOperator):
    """1:N transformation operator."""

    def __init__(
        self,
        fn: Callable[[Any], Iterable[Any]],
        name: str = "Flat Map",
        cost_weight: float = 1.0,
    ) -> None:
        super().__init__(FlatMapFunction(fn, name=name, cost_weight=cost_weight))


class PassThroughOperator(FunctionOperator):
    """Identity operator (useful for topology tests)."""

    def __init__(self) -> None:
        super().__init__(IdentityFunction())
