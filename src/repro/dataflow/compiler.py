"""Plan compiler: lower a stage's function to a compiled kernel.

:func:`lower_stage` is the single entry point the pump's stages use
(:meth:`repro.engines.common.stages.PhysicalStage.compiled_kernel`); it
replaces the old per-operator pattern matching with one lowering pass.
On the kernel tier a stage runs what this returns, or its function's
``process_batch`` when it returns ``None``; the per-record reference
loop is the pump's other tier.

Lowering rules:

1. A function with a :class:`~repro.dataflow.kernels.KernelSpec` lowers to
   its kernel — stateless kinds through the fused-comprehension/bulk
   builders, stateful kinds through the in-place-state kernels.
2. *Peephole wire fusion:* a ``nexmark_decode`` part immediately followed
   by a ``nexmark_q3``/``nexmark_q4``/``nexmark_q5`` part lowers to one
   fused wire kernel that parses only the fields the query consumes and
   skips event types it ignores without decoding them at all.
3. A :class:`~repro.dataflow.functions.ComposedFunction` lowers
   *segment-wise*: consecutive stateless specced parts fuse into one
   chain, stateful specced parts get their dedicated kernels, and
   consecutive spec-less parts execute through their ``process_batch`` —
   so one opaque part no longer demotes a whole chain off the kernel
   tier.  Segment-wise execution is part-major, exactly the order
   ``ComposedFunction.process_batch`` uses, so outputs are bit-identical.
4. A function with no spec at all lowers to ``None`` and the pump runs
   its ``process_batch``.

Lowering is serial: one kernel instance per stage, run on the calling
thread.  A pump pool (:class:`~repro.engines.common.sharded.ShardedPump`)
gets its parallelism from one lowered pump per shard, not from inside a
kernel.

Kernels built here keep every invariant ``kernels.py`` documents: exact
cheap guards with per-line reference fallbacks, state mutated only on the
owner functions, and idempotent :meth:`~repro.dataflow.kernels.Kernel.flush`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.dataflow import kernels as _kernels
from repro.dataflow.functions import ComposedFunction
from repro.dataflow.kernels import Kernel, as_output, run_kernel


class BatchSegment(Kernel):
    """A run of spec-less parts executed through their ``process_batch``.

    This is exactly the pump's ``process_batch`` fallback for those
    parts, wrapped so it can sit between kernel segments of the same
    composed stage.
    """

    def __init__(self, parts: Sequence[Any]) -> None:
        self.parts = list(parts)

    def __call__(self, values: Sequence[Any]) -> list:
        for part in self.parts:
            values = part.process_batch(values)
        return values if isinstance(values, list) else list(values)

    def describe(self) -> str:
        names = ", ".join(getattr(p, "name", type(p).__name__) for p in self.parts)
        return f"batch[{names}]"


class SegmentKernel(Kernel):
    """Sequential segments of one composed stage (kernels + batch runs).

    Mirrors :class:`~repro.dataflow.kernels.ChainKernel`: segments run in
    order through :func:`~repro.dataflow.kernels.run_kernel`, so a window
    takes the slab path of any segment that has one, short-circuiting
    when a segment empties the chunk (the same early exit
    ``ComposedFunction.process_batch`` takes).
    """

    def __init__(self, segments: Sequence[Kernel]) -> None:
        self.segments = list(segments)
        self.supports_slab = self.segments[0].supports_slab

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        for segment in self.segments:
            values = run_kernel(segment, values)
            if not values:
                break
        return as_output(values)

    def flush(self) -> None:
        for segment in self.segments:
            segment.flush()

    def describe(self) -> str:
        return " => ".join(segment.describe() for segment in self.segments)


def lower_stage(function: Any) -> Kernel | None:
    """Lower ``function`` to a kernel, or ``None`` for ``process_batch``."""
    if function is None:
        return None
    if isinstance(function, ComposedFunction):
        return _lower_composed(function)
    spec = getattr(function, "kernel_spec", None)
    if spec is None:
        return None
    return _kernels._build_chain([spec])


def _lower_composed(function: ComposedFunction) -> Kernel | None:
    parts = function.parts
    specs = [getattr(part, "kernel_spec", None) for part in parts]
    if all(spec is None for spec in specs):
        return None  # nothing to gain over the composed batch path

    # Peephole pass: fuse (decode, query) wire pairs, then classify the
    # rest as spec runs or opaque-part runs.
    items: list[tuple[str, Any]] = []
    index = 0
    count = len(parts)
    while index < count:
        spec = specs[index]
        if (
            spec is not None
            and spec.kind == "nexmark_decode"
            and index + 1 < count
            and specs[index + 1] is not None
            and specs[index + 1].kind in _kernels._WIRE_FUSED_KINDS
        ):
            wire = _kernels._WIRE_FUSED_KINDS[specs[index + 1].kind]
            items.append(("kernel", wire(specs[index + 1].owner)))
            index += 2
            continue
        if spec is None:
            items.append(("part", parts[index]))
        else:
            items.append(("spec", spec))
        index += 1

    segments: list[Kernel] = []
    spec_run: list = []
    part_run: list = []

    def close_spec_run() -> None:
        if spec_run:
            segments.append(_kernels._build_chain(list(spec_run)))
            spec_run.clear()

    def close_part_run() -> None:
        if part_run:
            segments.append(BatchSegment(part_run))
            part_run.clear()

    for kind, payload in items:
        if kind == "spec":
            close_part_run()
            spec_run.append(payload)
        elif kind == "part":
            close_spec_run()
            part_run.append(payload)
        else:  # pre-built wire kernel
            close_spec_run()
            close_part_run()
            segments.append(payload)
    close_spec_run()
    close_part_run()

    if len(segments) == 1:
        return segments[0]
    return SegmentKernel(segments)
