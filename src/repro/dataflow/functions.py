"""Per-record execution primitives shared by every engine.

An engine operator wraps a :class:`StreamFunction`: a callable object that
turns one input record into zero or more output records.  Map, flat-map and
filter — the three shapes every StreamBench query in the paper is built
from — are provided as concrete classes, along with :func:`compose` which
fuses a chain of functions into one (the mechanism behind Flink-style
operator chaining).

**Batch protocol.**  :meth:`StreamFunction.process_batch` transforms a whole
chunk of records in one call; the pump's hot loop goes through it so that
host-side dispatch overhead is paid per chunk, not per record.  The three
built-in shapes override it with bulk list operations; user subclasses that
only implement :meth:`StreamFunction.process` inherit a fallback that loops
over ``process`` and is output-identical to per-record execution.  The
contract every override must keep: each function sees the same input values
in the same order as per-record execution would deliver, so stateful and
RNG-drawing functions behave identically.  (Only the interleaving of calls
*across* the parts of one fused chain changes — from value-major to
part-major — which is observable only if two parts of the same chain share
one RNG; no function in this repository does.)
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.dataflow.kernels import KernelSpec


class StreamFunction:
    """Base class: transform one record into zero or more records.

    Subclasses implement :meth:`process`.  The ``name`` is used in execution
    plans and metrics.  ``cost_weight`` lets a function declare that it is
    computationally heavier than a plain map (the sample query's RNG draw,
    for example); engine cost models multiply their per-record-per-function
    cost by this weight.
    """

    name = "StreamFunction"
    cost_weight = 1.0
    #: Operator-type label shown in execution plans (Flink renders the
    #: operator *type* — "Filter", "Flat Map" — not the user's name).
    plan_label: str | None = None
    #: Per-record random draws the function performs (the sample query's
    #: coin flip).  Engines price randomness separately because the cost of
    #: a per-element RNG call differs hugely between native and Beam paths.
    rng_draws_per_record = 0.0
    #: Optional declaration of the function's exact per-record semantics
    #: (see :class:`repro.dataflow.kernels.KernelSpec`).  When present, the
    #: pump may execute the function through a compiled batch kernel
    #: instead of ``process_batch`` — a promise that must hold exactly; the
    #: kernel-equivalence suite enforces it for every spec in the repo.
    kernel_spec: KernelSpec | None = None

    def process(self, value: Any) -> Iterable[Any]:
        """Return the outputs for one input record."""
        raise NotImplementedError

    def process_batch(self, values: Sequence[Any]) -> list[Any]:
        """Return the concatenated outputs for a chunk of records.

        The fallback loops over :meth:`process` in input order, so any
        subclass is batch-capable for free; the built-in map/flat-map/filter
        shapes override it with bulk list operations.  Overrides must return
        a fresh list and must call the underlying per-record logic in input
        order (see the module docstring for the exact contract).
        """
        out: list[Any] = []
        extend = out.extend
        process = self.process
        for value in values:
            extend(process(value))
        return out

    def open(self) -> None:
        """Lifecycle hook: called once before the first record."""

    def close(self) -> None:
        """Lifecycle hook: called once after the last record."""

    def finish(self) -> Iterable[Any]:
        """Drain hook: emit trailing outputs when the bounded input ends.

        Buffering functions (grouping, windowed aggregation) override this
        to flush; the pump cascades the emitted records through the
        remaining stages.  Called after the last record, before
        :meth:`close`.
        """
        return ()

    def snapshot(self) -> Any:
        """Checkpoint hook: return a copy of the function's state.

        Stateless functions return ``None``; stateful ones must return a
        value that :meth:`restore` can reinstate without aliasing live
        state.
        """
        return None

    def restore(self, state: Any) -> None:
        """Checkpoint hook: reinstate state captured by :meth:`snapshot`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class IdentityFunction(StreamFunction):
    """Pass every record through unchanged (the paper's identity query)."""

    name = "Identity"
    kernel_spec = KernelSpec.identity()

    def process(self, value: Any) -> Iterable[Any]:
        return (value,)


class MapFunction(StreamFunction):
    """Apply ``fn`` to each record, emitting exactly one output."""

    plan_label = "Map"

    def __init__(
        self,
        fn: Callable[[Any], Any],
        name: str = "Map",
        cost_weight: float = 1.0,
        rng_draws_per_record: float = 0.0,
        kernel_spec: KernelSpec | None = None,
    ) -> None:
        self.fn = fn
        self.name = name
        self.cost_weight = cost_weight
        self.rng_draws_per_record = rng_draws_per_record
        self.kernel_spec = kernel_spec

    def process(self, value: Any) -> Iterable[Any]:
        return (self.fn(value),)

    def process_batch(self, values: Sequence[Any]) -> list[Any]:
        fn = self.fn
        return [fn(value) for value in values]


class FlatMapFunction(StreamFunction):
    """Apply ``fn`` to each record, emitting zero or more outputs."""

    plan_label = "Flat Map"

    def __init__(
        self,
        fn: Callable[[Any], Iterable[Any]],
        name: str = "Flat Map",
        cost_weight: float = 1.0,
        rng_draws_per_record: float = 0.0,
        kernel_spec: KernelSpec | None = None,
    ) -> None:
        self.fn = fn
        self.name = name
        self.cost_weight = cost_weight
        self.rng_draws_per_record = rng_draws_per_record
        self.kernel_spec = kernel_spec

    def process(self, value: Any) -> Iterable[Any]:
        return self.fn(value)

    def process_batch(self, values: Sequence[Any]) -> list[Any]:
        out: list[Any] = []
        extend = out.extend
        fn = self.fn
        for value in values:
            extend(fn(value))
        return out


class FilterFunction(StreamFunction):
    """Keep records for which ``predicate`` is true."""

    plan_label = "Filter"

    def __init__(
        self,
        predicate: Callable[[Any], bool],
        name: str = "Filter",
        cost_weight: float = 1.0,
        rng_draws_per_record: float = 0.0,
        kernel_spec: KernelSpec | None = None,
    ) -> None:
        self.predicate = predicate
        self.name = name
        self.cost_weight = cost_weight
        self.rng_draws_per_record = rng_draws_per_record
        self.kernel_spec = kernel_spec

    def process(self, value: Any) -> Iterable[Any]:
        if self.predicate(value):
            return (value,)
        return ()

    def process_batch(self, values: Sequence[Any]) -> list[Any]:
        predicate = self.predicate
        return [value for value in values if predicate(value)]


class ComposedFunction(StreamFunction):
    """A fused chain of stream functions applied record by record.

    This models operator chaining: several logical operators executed by one
    task without intermediate hand-off.  ``cost_weight`` is the sum of the
    parts' weights — fusing removes hop costs, not compute.
    """

    def __init__(self, parts: Sequence[StreamFunction]) -> None:
        if not parts:
            raise ValueError("ComposedFunction needs at least one part")
        self.parts = list(parts)
        self.name = " -> ".join(part.name for part in self.parts)
        self.cost_weight = sum(part.cost_weight for part in self.parts)
        self.rng_draws_per_record = sum(
            part.rng_draws_per_record for part in self.parts
        )

    def process(self, value: Any) -> Iterable[Any]:
        current: list[Any] = [value]
        for part in self.parts:
            next_values: list[Any] = []
            for item in current:
                next_values.extend(part.process(item))
            if not next_values:
                return ()
            current = next_values
        return current

    def process_batch(self, values: Sequence[Any]) -> list[Any]:
        """Run the chunk through each part's batch path in turn.

        Each part still sees exactly the input stream it would see record by
        record (parts preserve output order), so results are identical; the
        chunk just moves through the chain part-major instead of value-major.
        """
        current = list(values)
        for part in self.parts:
            if not current:
                break
            current = part.process_batch(current)
        return current

    def open(self) -> None:
        for part in self.parts:
            part.open()

    def close(self) -> None:
        for part in self.parts:
            part.close()

    def finish(self) -> Iterable[Any]:
        """Drain each part, cascading its output through later parts."""
        drained: list[Any] = []
        for index, part in enumerate(self.parts):
            current = list(part.finish())
            for later in self.parts[index + 1 :]:
                if not current:
                    break
                current = later.process_batch(current)
            drained.extend(current)
        return drained

    def snapshot(self) -> list[Any]:
        return [part.snapshot() for part in self.parts]

    def restore(self, state: list[Any]) -> None:
        for part, part_state in zip(self.parts, state):
            part.restore(part_state)


def compose(functions: Sequence[StreamFunction]) -> StreamFunction:
    """Fuse ``functions`` into a single function (flattening nested chains)."""
    flat: list[StreamFunction] = []
    for fn in functions:
        if isinstance(fn, ComposedFunction):
            flat.extend(fn.parts)
        else:
            flat.append(fn)
    if len(flat) == 1:
        return flat[0]
    return ComposedFunction(flat)
