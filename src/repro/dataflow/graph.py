"""The logical operator graph: a validated DAG of sources, operators, sinks."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.dataflow.functions import StreamFunction


class GraphError(Exception):
    """Raised for structurally invalid logical graphs."""


class OperatorKind(enum.Enum):
    """Role of a node in the dataflow graph."""

    SOURCE = "Data Source"
    OPERATOR = "Operator"
    SINK = "Data Sink"


@dataclass
class LogicalOperator:
    """One node of the logical graph.

    ``function`` carries the per-record behaviour for ``OPERATOR`` nodes;
    sources and sinks carry engine-specific payloads in ``extra`` (for
    example the Kafka topic they read or write).
    """

    name: str
    kind: OperatorKind
    function: StreamFunction | None = None
    parallelism: int = 1
    chainable: bool = True
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise GraphError(
                f"operator {self.name!r}: parallelism must be >= 1, "
                f"got {self.parallelism}"
            )
        if self.kind is OperatorKind.OPERATOR and self.function is None:
            raise GraphError(f"operator {self.name!r} needs a function")


class LogicalGraph:
    """A DAG of :class:`LogicalOperator` nodes.

    The graph is built by :meth:`add` and :meth:`connect` and checked by
    :meth:`validate`: it must be acyclic, every operator reachable from a
    source, and every non-sink must have a downstream consumer.  Engines
    translate a validated logical graph into their own execution plan.

    Nodes and each node's edges keep their insertion order; connecting
    the same pair twice adds one edge.
    """

    def __init__(self, name: str = "job") -> None:
        self.name = name
        #: Name -> operator, in insertion order.
        self._ops: dict[str, LogicalOperator] = {}
        #: Name -> consumers and name -> producers, each in edge order.
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}

    def add(self, operator: LogicalOperator) -> LogicalOperator:
        """Add a node; names must be unique within the graph."""
        if operator.name in self._ops:
            raise GraphError(f"duplicate operator name: {operator.name!r}")
        self._ops[operator.name] = operator
        self._succ[operator.name] = []
        self._pred[operator.name] = []
        return operator

    def connect(self, upstream: str, downstream: str) -> None:
        """Add an edge from ``upstream`` to ``downstream``."""
        for name in (upstream, downstream):
            if name not in self._ops:
                raise GraphError(f"unknown operator: {name!r}")
        if upstream == downstream:
            raise GraphError(f"self-loop on {upstream!r}")
        consumers = self._succ[upstream]
        if downstream not in consumers:
            consumers.append(downstream)
            self._pred[downstream].append(upstream)

    def operator(self, name: str) -> LogicalOperator:
        """Look up a node by name."""
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"unknown operator: {name!r}") from None

    def sources(self) -> list[LogicalOperator]:
        """All ``SOURCE`` nodes in insertion order."""
        return [op for op in self._ops.values() if op.kind is OperatorKind.SOURCE]

    def sinks(self) -> list[LogicalOperator]:
        """All ``SINK`` nodes in insertion order."""
        return [op for op in self._ops.values() if op.kind is OperatorKind.SINK]

    def downstream(self, name: str) -> list[LogicalOperator]:
        """Direct consumers of ``name``."""
        self.operator(name)  # GraphError for an unknown name
        return [self._ops[succ] for succ in self._succ[name]]

    def validate(self) -> None:
        """Raise :class:`GraphError` if the graph is not a well-formed job."""
        if not self._ops:
            raise GraphError("empty graph")
        order = self._kahn()
        if len(order) < len(self._ops):
            raise GraphError(f"graph contains a cycle: {self._cycle(order)}")
        sources = self.sources()
        if not sources:
            raise GraphError("graph has no source")
        # In topological order every producer is settled before its
        # consumers, so one forward walk marks what the sources reach.
        reachable = {op.name for op in sources}
        for name in order:
            if name in reachable:
                reachable.update(self._succ[name])
        for op in self._ops.values():
            if op.kind is OperatorKind.SOURCE:
                if self._pred[op.name]:
                    raise GraphError(f"source {op.name!r} has inputs")
            elif op.name not in reachable:
                raise GraphError(f"operator {op.name!r} is unreachable from any source")
            if op.kind is OperatorKind.SINK and self._succ[op.name]:
                raise GraphError(f"sink {op.name!r} has outputs")

    def _kahn(self) -> list[str]:
        """Kahn's algorithm: the names in a topological order.

        Lists every node of an acyclic graph; on a cyclic one it stops
        short of the nodes on or behind a cycle.
        """
        pending = {name: len(preds) for name, preds in self._pred.items() if preds}
        order = [name for name in self._ops if name not in pending]
        for name in order:  # grows while it is walked
            for succ in self._succ[name]:
                pending[succ] -= 1
                if not pending[succ]:
                    order.append(succ)
        return order

    def _cycle(self, order: list[str]) -> list[tuple[str, str]]:
        """The edges of one cycle among the nodes :meth:`_kahn` left out.

        Each left-out node has a left-out producer, so walking producers
        back from any of them must revisit a node.
        """
        listed = set(order)
        left = [name for name in self._ops if name not in listed]
        path = [left[0]]
        seen = {left[0]: 0}
        while True:
            pred = next(p for p in self._pred[path[-1]] if p not in listed)
            if pred in seen:
                loop = path[seen[pred] :][::-1]
                return list(zip(loop, loop[1:] + loop[:1]))
            seen[pred] = len(path)
            path.append(pred)

    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __repr__(self) -> str:
        return f"LogicalGraph({self.name!r}, nodes={len(self)})"
