"""Shared pieces for the engine runners."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.beam.transforms.core import DoFn
from repro.dataflow.functions import StreamFunction
from repro.dataflow.kernels import KvColumn


class DoFnAdapter(StreamFunction):
    """Wraps a Beam DoFn as an engine :class:`StreamFunction`.

    This is the translated, runner-wrapped invocation path: engine cost
    models price it via the adapter's weight/rng attributes plus the
    runner's per-operator wrapping costs.
    """

    def __init__(self, dofn: DoFn, name: str | None = None) -> None:
        self.dofn = dofn
        self.name = name or dofn.default_label()
        self.cost_weight = dofn.cost_weight
        self.rng_draws_per_record = dofn.rng_draws_per_record
        # The DoFn's semantics declaration carries across translation: the
        # compiled kernel replaces only the host-side invocation; the
        # simulated Beam wrapping cost is charged by the stage regardless.
        self.kernel_spec = getattr(dofn, "kernel_spec", None)

    def process(self, value: Any) -> Iterable[Any]:
        results = self.dofn.process(value)
        if results is None:
            return ()
        if type(results) in (list, tuple):
            # Already a finite sequence the caller can iterate — copying it
            # was pure host-side overhead (the simulated Beam wrapping cost
            # is charged by the stage either way).
            return results
        return list(results)

    def process_batch(self, values: Sequence[Any]) -> list[Any]:
        # The DoFn itself stays per-element — that wrapped invocation is
        # exactly the Beam translation overhead the paper measures (in
        # simulated time).  The batch path only removes the adapter's own
        # host-side layer (one call and one list copy per record).
        out: list[Any] = []
        extend = out.extend
        process = self.dofn.process
        for value in values:
            results = process(value)
            if results is not None:
                extend(results)
        return out

    def open(self) -> None:
        self.dofn.setup()

    def finish(self) -> Iterable[Any]:
        return self.dofn.finish_bundle()

    def close(self) -> None:
        self.dofn.teardown()


class GroupByKeyFunction(StreamFunction):
    """Engine translation of GroupByKey for bounded, globally-windowed input.

    Buffers values per key and flushes ``(key, [values...])`` pairs when
    the bounded input ends (the pump's drain phase) — the batch-style
    grouping semantics the Beam model prescribes for bounded PCollections
    in the global window.
    """

    name = "GroupByKey"
    cost_weight = 1.5

    def __init__(self) -> None:
        self.groups: dict[Any, list[Any]] = {}

    def open(self) -> None:
        self.groups.clear()

    def process(self, value: Any) -> Iterable[Any]:
        if not (isinstance(value, tuple) and len(value) == 2):
            from repro.beam.errors import BeamError

            raise BeamError(f"GroupByKey expects (key, value) pairs, got {value!r}")
        self.groups.setdefault(value[0], []).append(value[1])
        return ()

    def finish(self) -> Iterable[tuple[Any, list[Any]]]:
        return [(key, values) for key, values in self.groups.items()]

    def snapshot(self) -> dict[Any, list[Any]]:
        return {key: list(values) for key, values in self.groups.items()}

    def restore(self, state: dict[Any, list[Any]]) -> None:
        self.groups = {key: list(values) for key, values in state.items()}


def translate_chain_node(node, runner_name: str) -> StreamFunction:
    """Translate one chain node (ParDo or GroupByKey) to an engine function."""
    from repro.beam.errors import UnsupportedFeatureError
    from repro.beam.transforms.core import GroupByKey, ParDo

    transform = node.transform
    if isinstance(transform, ParDo):
        return DoFnAdapter(transform.dofn, name=node.full_label)
    if isinstance(transform, GroupByKey):
        input_pcoll = node.inputs[0]
        windowing = getattr(input_pcoll, "windowing", None)
        if windowing is not None and not windowing.window_fn.is_global:
            raise UnsupportedFeatureError(
                f"{runner_name}: windowed GroupByKey ({node.full_label}) "
                "requires the DirectRunner in this reproduction"
            )
        if not getattr(input_pcoll, "is_bounded", True):
            raise UnsupportedFeatureError(
                f"{runner_name}: GroupByKey on unbounded input "
                f"({node.full_label}) requires the DirectRunner"
            )
        return GroupByKeyFunction()
    raise UnsupportedFeatureError(
        f"{runner_name} cannot translate {type(transform).__name__}"
    )


def is_shuffle_node(node) -> bool:
    """Whether the node induces a key redistribution (GroupByKey)."""
    from repro.beam.transforms.core import GroupByKey

    return isinstance(node.transform, GroupByKey)


def reject_stateful(pardos: list, runner_name: str) -> None:
    """Raise if any ParDo carries a stateful DoFn (Spark runner gap)."""
    from repro.beam.errors import UnsupportedFeatureError
    from repro.beam.transforms.core import ParDo

    for node in pardos:
        if isinstance(node.transform, ParDo) and node.transform.dofn.stateful:
            raise UnsupportedFeatureError(
                f"{runner_name} does not support stateful processing "
                f"({node.full_label}); the paper excludes stateful "
                "StreamBench queries for exactly this reason"
            )


def extract_kv_value(element: Any) -> Any:
    """The value written to Kafka for a KV element."""
    if isinstance(element, tuple) and len(element) == 2:
        return element[1]
    return element


def kv_values(elements: Sequence[Any]) -> Sequence[Any]:
    """The values written to Kafka for one chunk of KV elements.

    A :class:`~repro.dataflow.kernels.KvColumn` gives its value column,
    a slab window or row selection that the output log adopts; any other
    chunk is unwrapped element by element.
    """
    if type(elements) is KvColumn:
        return elements.values
    return [extract_kv_value(element) for element in elements]
