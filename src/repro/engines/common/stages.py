"""Physical stages: the schedulable units the record pump executes."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dataflow.functions import StreamFunction
from repro.engines.common.costs import StageCosts


class StageKind(enum.Enum):
    """Role of a physical stage in a pipeline."""

    SOURCE = "source"
    OPERATOR = "operator"
    SINK = "sink"


@dataclass
class PhysicalStage:
    """One unit of a physical pipeline.

    A stage corresponds to one (possibly chained) plan node: ``function`` is
    the fused :class:`StreamFunction` for operator stages and ``None`` for
    source/sink stages, whose behaviour (reading the input topic, writing
    the output topic) lives in the pump itself.

    ``costs`` prices the stage; engines construct these from their cost
    models, and Beam runners wrap them with translation overhead.
    """

    name: str
    kind: StageKind
    costs: StageCosts
    function: StreamFunction | None = None
    parallelism: int = 1
    #: Free-form annotations (e.g. which Beam transform produced the stage);
    #: used by plan rendering and the ablation benchmarks.
    tags: dict[str, str] = field(default_factory=dict)
    #: Lazily compiled kernel, cached as a 1-tuple so "compiled to None"
    #: (no kernel available) is distinguishable from "never compiled".
    #: Cached on the stage so pumps recreated over the same stages (the
    #: recovery path builds one per checkpoint epoch) reuse the kernel.
    _kernel: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind is StageKind.OPERATOR and self.function is None:
            raise ValueError(f"operator stage {self.name!r} needs a function")
        if self.parallelism < 1:
            raise ValueError(
                f"stage {self.name!r}: parallelism must be >= 1, "
                f"got {self.parallelism}"
            )

    @property
    def cost_weight(self) -> float:
        """The fused function's compute weight (0 for source/sink)."""
        return self.function.cost_weight if self.function is not None else 0.0

    @property
    def rng_draws(self) -> float:
        """Per-record RNG draws of the fused function (0 for source/sink)."""
        return self.function.rng_draws_per_record if self.function is not None else 0.0

    def compiled_kernel(self):
        """The stage function's lowered kernel, or ``None`` (cached).

        Lowering goes through the plan compiler
        (:func:`repro.dataflow.compiler.lower_stage`), which picks the
        best kernel per stage — fused/stateful kernels, wire-fused decode
        pairs, or segment-wise mixes of kernels and batch runs — instead
        of per-operator pattern matching.
        """
        cached = self._kernel
        if cached is None:
            if self.function is None:
                kernel = None
            else:
                from repro.dataflow.compiler import lower_stage

                kernel = lower_stage(self.function)
            cached = self._kernel = (kernel,)
        return cached[0]

    def cached_kernel(self):
        """The compiled kernel if compilation already happened, else ``None``.

        Lets the pump flush adopted kernel state without forcing
        compilation of stages whose kernel was never needed.
        """
        return self._kernel[0] if self._kernel is not None else None
