"""Windowed aggregation over the Beam window/trigger model.

:class:`WindowedAggregateFunction` is the engine-level counterpart of
``WindowInto + GroupByKey + Combine``: each element is assigned a window
from its event timestamp (``repro.beam.window`` window functions), keyed,
and folded into a per-``(key, window)`` pane.  Pane results surface either
mid-stream (an :class:`~repro.beam.window.AfterCount` trigger fires an
accumulating pane every N elements) or at drain time via :meth:`finish`,
matching the bounded-input semantics GroupByKey already uses.

The function declares a :class:`~repro.dataflow.kernels.KernelSpec` only
when it is trigger-less (``None`` or ``AfterWatermark`` — on bounded
input the watermark passes every window end exactly at drain), so the
compiled :class:`~repro.dataflow.kernels.WindowedAggregateKernel` never
has to replicate mid-stream firing; ``AfterCount`` runs
``process_batch`` instead.  This is a documented fallback edge.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.beam.window import AfterCount, AfterWatermark, IntervalWindow, WindowFn
from repro.dataflow.functions import StreamFunction
from repro.dataflow.kernels import KernelSpec


class WindowedAggregateFunction(StreamFunction):
    """Keyed windowed aggregation with per-pane accumulators.

    ``reducer`` folds each element into its pane's accumulator
    (``reducer(accumulator, element)``, starting from ``initial``); the
    default (``None``) counts elements.  ``filter_fn`` drops elements
    before any window assignment; ``key_fn`` and ``timestamp_fn`` extract
    the pane key and event time.  Outputs are
    ``(key, IntervalWindow(start, end), accumulator)`` triples — at
    :meth:`finish` for trigger-less panes (insertion order), or after
    every ``trigger.count`` pane elements for :class:`AfterCount`
    (accumulating panes; a final firing at drain covers the remainder).
    """

    def __init__(
        self,
        window_fn: WindowFn,
        key_fn: Callable[[Any], Any],
        timestamp_fn: Callable[[Any], float],
        reducer: Callable[[Any, Any], Any] | None = None,
        initial: Any = 0,
        filter_fn: Callable[[Any], bool] | None = None,
        trigger: Any = None,
        name: str = "Windowed Aggregate",
        cost_weight: float = 1.8,
    ) -> None:
        if trigger is not None and not isinstance(trigger, (AfterCount, AfterWatermark)):
            raise ValueError(f"unsupported trigger: {trigger!r}")
        self.window_fn = window_fn
        self.key_fn = key_fn
        self.timestamp_fn = timestamp_fn
        self.reducer = reducer
        self.initial = initial
        self.filter_fn = filter_fn
        self.trigger = trigger
        self.name = name
        self.cost_weight = cost_weight
        #: Pane accumulators keyed ``(key, window_start, window_end)``.
        self.panes: dict[tuple, Any] = {}
        #: Per-pane element counts (only maintained for ``AfterCount``).
        self.pane_counts: dict[tuple, int] = {}
        if not isinstance(trigger, AfterCount):
            self.kernel_spec = KernelSpec.windowed_aggregate(self)

    def open(self) -> None:
        self.panes.clear()
        self.pane_counts.clear()

    def process(self, value: Any):
        if self.filter_fn is not None and not self.filter_fn(value):
            return ()
        window = self.window_fn.assign(self.timestamp_fn(value))
        key = (self.key_fn(value), window.start, window.end)
        panes = self.panes
        if self.reducer is None:
            accumulator = panes.get(key, self.initial) + 1
        else:
            accumulator = self.reducer(panes.get(key, self.initial), value)
        panes[key] = accumulator
        trigger = self.trigger
        if isinstance(trigger, AfterCount):
            seen = self.pane_counts.get(key, 0) + 1
            self.pane_counts[key] = seen
            if seen % trigger.count == 0:
                return ((key[0], window, accumulator),)
        return ()

    def finish(self):
        trigger = self.trigger
        panes = self.panes.items()
        if isinstance(trigger, AfterCount):
            # Final accumulating firing for panes with unfired elements.
            fired, every = self.pane_counts, trigger.count
            panes = (pane for pane in panes if fired[pane[0]] % every != 0)
        # One window object per interval, shared by its panes: windows are
        # frozen and compare by value.
        windows: dict = {}
        out = []
        for (key, start, end), accumulator in panes:
            window = windows.get((start, end))
            if window is None:
                window = windows[start, end] = IntervalWindow(start, end)
            out.append((key, window, accumulator))
        return out

    def snapshot(self) -> tuple[dict, dict]:
        return (dict(self.panes), dict(self.pane_counts))

    def restore(self, state: tuple[dict, dict]) -> None:
        panes, pane_counts = state
        self.panes = dict(panes)
        self.pane_counts = dict(pane_counts)
